"""The variance algebra: tables, lattice laws, zipping, context operations."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from vgadt.variance import (
    ALL_VARIANCES,
    CONTRA,
    COV,
    INV,
    IRR,
    MASK,
    ZIP_MASK,
    VarianceContext,
    box_union,
    box_within,
    box_zip,
    compose,
    const_ctx,
    ctx_glb,
    ctx_leq,
    ctx_lub,
    ctx_zip,
    ctx_zip_all,
    set_mask,
    up_set,
    var_glb,
    var_leq,
    var_lub,
    variance_of,
    zip_fold,
    zip_var,
)

PAIRS = list(itertools.product(ALL_VARIANCES, repeat=2))
TRIPLES = list(itertools.product(ALL_VARIANCES, repeat=3))

# The full composition table, rows v, columns w in the order = + - ~.
COMPOSE_TABLE = {
    INV: {INV: INV, COV: INV, CONTRA: INV, IRR: IRR},
    COV: {INV: INV, COV: COV, CONTRA: CONTRA, IRR: IRR},
    CONTRA: {INV: INV, COV: CONTRA, CONTRA: COV, IRR: IRR},
    IRR: {INV: IRR, COV: IRR, CONTRA: IRR, IRR: IRR},
}

# The zip table: 8 defined cells, 8 blank ones.
ZIP_TABLE = {
    (INV, INV): INV, (INV, IRR): INV,
    (COV, IRR): COV,
    (CONTRA, IRR): CONTRA,
    (IRR, INV): INV, (IRR, COV): COV, (IRR, CONTRA): CONTRA, (IRR, IRR): IRR,
}

# Strict order edges of the lattice diamond: ~ below everything, = on top.
ORDER = {
    (IRR, IRR), (COV, COV), (CONTRA, CONTRA), (INV, INV),
    (IRR, COV), (IRR, CONTRA), (IRR, INV),
    (COV, INV), (CONTRA, INV),
}


class TestTables:
    def test_compose_matches_table(self):
        for v, w in PAIRS:
            assert compose(v, w) is COMPOSE_TABLE[v][w]

    def test_compose_examples(self):
        assert compose(COV, CONTRA) is CONTRA
        assert compose(INV, IRR) is IRR
        for w in ALL_VARIANCES:
            assert compose(COV, w) is w

    def test_order_matches_diagram(self):
        for v, w in PAIRS:
            assert var_leq(v, w) == ((v, w) in ORDER)

    def test_order_examples(self):
        assert var_leq(IRR, COV)
        assert not var_leq(COV, CONTRA)
        for v in ALL_VARIANCES:
            assert var_leq(v, v)

    def test_zip_matches_table(self):
        for v, w in PAIRS:
            assert zip_var(v, w) == ZIP_TABLE.get((v, w))

    def test_zip_examples(self):
        assert zip_var(IRR, COV) is COV
        assert zip_var(COV, COV) is None
        assert zip_var(INV, INV) is INV

    def test_zip_defined_exactly_where_stated(self):
        for v, w in PAIRS:
            expected = v is IRR or w is IRR or (v is INV and w is INV)
            assert (zip_var(v, w) is not None) == expected
        assert sum(zip_var(v, w) is None for v, w in PAIRS) == 8

    def test_bounds_examples(self):
        assert var_glb(COV, CONTRA) is IRR
        assert var_lub(COV, CONTRA) is INV
        assert var_glb(INV, COV) is COV

    def test_symbols(self):
        assert variance_of("+") is COV
        assert variance_of("~") is IRR
        with pytest.raises(ValueError):
            variance_of("?")


class TestAlgebraLaws:
    def test_compose_associative_commutative(self):
        for v, w in PAIRS:
            assert compose(v, w) is compose(w, v)
        for u, v, w in TRIPLES:
            assert compose(compose(u, v), w) is compose(u, compose(v, w))

    def test_compose_monotone(self):
        for u, v, w in TRIPLES:
            if var_leq(v, w):
                assert var_leq(compose(u, v), compose(u, w))
                assert var_leq(compose(v, u), compose(w, u))

    def test_order_is_partial_order(self):
        for v, w in PAIRS:
            if var_leq(v, w) and var_leq(w, v):
                assert v is w
        for u, v, w in TRIPLES:
            if var_leq(u, v) and var_leq(v, w):
                assert var_leq(u, w)

    def test_glb_lub_universal_properties(self):
        for v, w in PAIRS:
            g = var_glb(v, w)
            assert var_leq(g, v) and var_leq(g, w)
            l = var_lub(v, w)
            assert var_leq(v, l) and var_leq(w, l)
            for x in ALL_VARIANCES:
                if var_leq(x, v) and var_leq(x, w):
                    assert var_leq(x, g)
                if var_leq(v, x) and var_leq(w, x):
                    assert var_leq(l, x)

    def test_zip_commutative_with_irr_identity(self):
        for v, w in PAIRS:
            assert zip_var(v, w) == zip_var(w, v)
        for v in ALL_VARIANCES:
            assert zip_var(IRR, v) is v
            assert zip_var(v, IRR) is v

    def test_zip_associative_where_defined(self):
        for u, v, w in TRIPLES:
            uv = zip_var(u, v)
            vw = zip_var(v, w)
            left = zip_var(uv, w) if uv is not None else None
            right = zip_var(u, vw) if vw is not None else None
            if left is not None and right is not None:
                assert left is right

    def test_zip_coincides_with_lub_where_defined(self):
        # A defined zip merges to the join of the two occurrence
        # variances (the join, not the meet: zip(~, +) is +).
        for v, w in PAIRS:
            z = zip_var(v, w)
            if z is not None:
                assert z is var_lub(v, w)

    def test_up_set(self):
        assert up_set(IRR) == frozenset(ALL_VARIANCES)
        assert up_set(COV) == frozenset({COV, INV})
        assert up_set(INV) == frozenset({INV})


ctx_entries = st.lists(
    st.sampled_from(ALL_VARIANCES), min_size=1, max_size=4
).map(lambda vs: VarianceContext(
    (f"a{i}", v) for i, v in enumerate(vs)
))


class TestContexts:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            VarianceContext([("a", COV), ("a", INV)])

    def test_ctx_leq_examples(self):
        assert ctx_leq(VarianceContext([("a", IRR)]), VarianceContext([("a", COV)]))
        g1 = VarianceContext([("a", COV), ("b", INV)])
        g2 = VarianceContext([("a", INV), ("b", COV)])
        assert not ctx_leq(g1, g2)
        assert ctx_leq(g1, g1)

    def test_ctx_leq_domain_mismatch_is_a_fault(self):
        with pytest.raises(ValueError):
            ctx_leq(VarianceContext([("a", COV)]), VarianceContext([("b", COV)]))

    def test_ctx_zip_examples(self):
        g1 = VarianceContext([("a", COV), ("b", IRR)])
        g2 = VarianceContext([("a", IRR), ("b", INV)])
        assert ctx_zip(g1, g2) == VarianceContext([("a", COV), ("b", INV)])
        g = VarianceContext([("a", COV)])
        assert ctx_zip(g, g) is None

    def test_ctx_zip_empty_family_is_all_irrelevant(self):
        assert ctx_zip_all([], ["a", "b"]) == VarianceContext(
            [("a", IRR), ("b", IRR)])

    def test_zip_fold_empty(self):
        assert zip_fold([]) is IRR

    @given(ctx_entries, st.data())
    def test_ctx_ops_pointwise(self, g1, data):
        vs = data.draw(st.lists(st.sampled_from(ALL_VARIANCES),
                                min_size=len(g1), max_size=len(g1)))
        g2 = VarianceContext(zip(g1.domain(), vs))
        assert ctx_leq(g1, g2) == all(
            var_leq(g1[n], g2[n]) for n in g1.domain())
        z = ctx_zip(g1, g2)
        pointwise = [zip_var(g1[n], g2[n]) for n in g1.domain()]
        if any(p is None for p in pointwise):
            assert z is None
        else:
            assert z is not None
            assert list(z.variances()) == pointwise
        assert ctx_zip(g1, g2) == ctx_zip(g2, g1)
        assert ctx_leq(ctx_glb(g1, g2), g1)
        assert ctx_leq(g1, ctx_lub(g1, g2))

    @given(ctx_entries)
    def test_zip_with_all_irr_is_identity(self, g):
        irr = const_ctx(g.domain(), IRR)
        assert ctx_zip(g, irr) == g
        assert ctx_zip_all([g], g.domain()) == g


def members(mask):
    return [v for v in ALL_VARIANCES if mask & MASK[v]]


def points(boxes):
    return {p for b in boxes for p in itertools.product(*map(members, b))}


masks = st.integers(0, 15)
boxes = st.lists(st.none() | st.tuples(masks.filter(bool), masks.filter(bool)),
                 max_size=4)


class TestBoxes:
    def test_zip_mask_is_the_set_zip(self):
        for a in range(16):
            for b in range(16):
                assert ZIP_MASK[a][b] == set_mask(
                    z for x in members(a) for y in members(b)
                    if (z := zip_var(x, y)) is not None)

    @given(st.tuples(masks, masks), st.tuples(masks, masks))
    def test_box_zip_is_the_pointwise_zip(self, a, b):
        want = {tuple(zip_var(x, y) for x, y in zip(p, q))
                for p in points([a]) for q in points([b])}
        want = {z for z in want if None not in z}
        z = box_zip(a, b)
        assert (points([z]) if z is not None else set()) == want

    @given(boxes)
    def test_union_keeps_the_points_and_drops_contained_boxes(self, bs):
        u = box_union(bs)
        assert points(u) == points(b for b in bs if b is not None)
        assert not any(box_within(x, y) for x in u for y in u if x is not y)
