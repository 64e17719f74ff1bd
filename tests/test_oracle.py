"""The brute-force semantics: universes, subtyping, the quantified
definitions, and their agreement with the paper-level expectations."""
from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import json
import random

import pytest

from conftest import CORPUS, get_sig, get_universe
from test_req_sp_reference import PRELUDE, reference_req_sp
from vgadt import cli
from vgadt.oracle import (
    DEFAULT_UNIVERSE_CAP,
    GroundUniverse,
    UniverseSizeError,
    _groups,
    check_sp_requirements,
    enumerate_types,
    oracle_for,
    prec,
    req_sp,
    sem_decomp,
    sem_decomp_cex,
    sem_simultaneous_decomp,
    sem_variance,
    sem_variance_cex,
    sem_well_signed,
    subtype,
)
from vgadt.checker import check_variance, compute_closure_flags
from vgadt.syntax import (
    App,
    CtorInfo,
    Decl,
    Signature,
    normalize_constructor,
    parse_signature,
    parse_type,
    tapp,
    type_depth,
)
from vgadt.variance import (
    ALL_VARIANCES,
    CONTRA,
    COV,
    INV,
    IRR,
    VarianceContext,
)


def bare_signature(*names, unary=()):
    """A signature with arrow, product, the given bases, and optional
    covariant unary datatypes; no predeclared unit."""
    sig = Signature()
    sig.ctors["->"] = CtorInfo("->", 2, (CONTRA, COV), "builtin")
    sig.ctors["*"] = CtorInfo("*", 2, (COV, COV), "builtin")
    for n in names:
        sig.ctors[n] = CtorInfo(n, 0, (), "base")
    for n in unary:
        sig.ctors[n] = CtorInfo(n, 1, (COV,), "datatype")
    return sig


def ctx(**kw):
    return VarianceContext((k, v) for k, v in kw.items())


class TestEnumerateTypes:
    def test_depth_one(self):
        u = enumerate_types(bare_signature("int", "bool"), 1)
        assert [t.ctor for t in u.types] == ["int", "bool"]

    def test_depth_two_adds_binary_combinations(self):
        u = enumerate_types(bare_signature("int", "bool"), 2)
        assert len(u) == 2 + 8        # 4 arrows + 4 products

    def test_depth_two_with_unary_datatype(self):
        u = enumerate_types(bare_signature("int", "bool", unary=("list",)), 2)
        assert len(u) == 2 + 8 + 2
        t = tapp("list", tapp("int"))
        i = u.intern_expr(t)
        assert i < len(u) and u.types[i] == t

    def test_cap_exceeded(self):
        with pytest.raises(UniverseSizeError):
            enumerate_types(bare_signature("a", "b", "c"), 4, cap=1000)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_cap_is_exact(self, depth):
        """The size is counted before each block is interned: a cap of
        exactly the universe's size admits it, one less refuses it, and
        the message names the depth, at depth 1 too (constants)."""
        sig = bare_signature("int", "bool", unary=("list",))
        n = len(enumerate_types(sig, depth))
        assert len(enumerate_types(sig, depth, cap=n)) == n
        with pytest.raises(UniverseSizeError) as refused:
            enumerate_types(sig, depth, cap=n - 1)
        assert str(refused.value) == (
            f"universe exceeds cap of {n - 1} types (depth {depth})")

    def test_deterministic_and_duplicate_free(self):
        sig = get_sig("world")
        u1 = enumerate_types(sig, 2)
        u2 = enumerate_types(sig, 2)
        assert u1.types == u2.types
        assert len(set(u1.types)) == len(u1.types)

    def test_closed_under_subterms(self, world_u2):
        for t in world_u2.types:
            for a in t.args:
                i = world_u2.intern_expr(a)
                assert i < len(world_u2) and world_u2.types[i] == a


#: The inputs of the benchmark's oracle-d3 workload.
DEPTH3_FILES = ["ml_open_demo", "object_emulation", "sink_sub"]

#: Per (corpus file, depth), the universe's size and a digest of its
#: types' heads and kids in id order: ids are part of every verdict's
#: visit order and counterexample, so the layout must not move.
LAYOUT = {
    ("arrow_bound", 2): (24, "72b382feecf8e983"),
    ("eq_cov", 2): (30, "934119084a6c9d4c"),
    ("eq_inv", 2): (30, "934119084a6c9d4c"),
    ("expr", 2): (24, "299fa93c201c8ca4"),
    ("expr_sup", 2): (24, "299fa93c201c8ca4"),
    ("fun_cov", 2): (30, "8f4f2b5b92008a76"),
    ("list", 2): (24, "7057d7ac63d2dbc5"),
    ("ml_open_demo", 2): (14, "2bae0434f1e0d8bc"),
    ("object_emulation", 2): (24, "6d40de4f9bb48db1"),
    ("pair_ref", 2): (33, "11e6ab275a5c6ebd"),
    ("private_fd", 2): (40, "e0c31b10ea8ca414"),
    ("sink_sub", 2): (24, "70373e8dd525fcb1"),
    ("world", 2): (27, "31178041b0ef1ec4"),
    ("world_min", 2): (21, "d70280c6b9315eab"),
    ("world_ref", 2): (24, "a41cf279b8539dbd"),
    ("ml_open_demo", 3): (422, "1a4461f479476252"),
    ("object_emulation", 3): (1179, "3e4d225f33eb69a2"),
    ("sink_sub", 3): (1179, "3014060b80158ba7"),
}


@pytest.mark.parametrize("name,depth", list(LAYOUT))
def test_id_layout(name, depth):
    u = get_universe(name, depth)
    digest = hashlib.sha256()
    for i in range(len(u)):
        digest.update(f"{u.heads[i]}({','.join(map(str, u.kids[i]))});"
                      .encode())
    assert (len(u), digest.hexdigest()[:16]) == LAYOUT[name, depth]


def test_id_layout_covers_the_corpus():
    assert {name for name, depth in LAYOUT if depth == 2} == {
        p.stem for p in CORPUS.glob("*.vt")}
    assert {name for name, depth in LAYOUT if depth == 3} == set(DEPTH3_FILES)


@pytest.mark.parametrize("name,depth", [
    *((p.stem, 2) for p in sorted(CORPUS.glob("*.vt"))),
    *((name, 3) for name in DEPTH3_FILES)])
def test_views_equal_eager_trees(name, depth):
    """`types`, built from the trees `type` makes on demand, equals the
    trees built eagerly in id order, and `intern_expr` gives each tree
    its id."""
    u = get_universe(name, depth)
    trees: list = []
    for i in range(len(u)):
        trees.append(App(u.heads[i], tuple(trees[k] for k in u.kids[i])))
    assert u.types == tuple(trees)
    assert [u.intern_expr(t) for t in trees] == list(range(len(u)))
    assert all(u.type(i) is t for i, t in enumerate(u.types))


@pytest.mark.parametrize("name,depth", [
    *((p.stem, 2) for p in sorted(CORPUS.glob("*.vt"))),
    *((name, 3) for name in DEPTH3_FILES)])
def test_head_ids_are_the_heads_of_the_dense_ids(name, depth):
    """Each head's mask, made of one range per block of its ids, is the
    set of the dense ids of that head, id by id."""
    u = get_universe(name, depth)
    masks: dict[str, int] = {}
    for x in range(len(u)):
        masks[u.heads[x]] = masks.get(u.heads[x], 0) | 1 << x
    assert u._head_ids == masks


@pytest.mark.parametrize("name", DEPTH3_FILES)
def test_universe_is_a_product(name):
    """Every head over every tuple of ids of depth < d is a universe
    type, and `intern` gives its id: a row's members are read off this
    product (`GroundUniverse.row`)."""
    u = get_universe(name, 3)
    n = len(u)
    ids = {(u.heads[i], u.kids[i]): i for i in range(n)}
    shallow = [i for i in range(n) if u.within[2] >> i & 1]
    for info in get_sig(name).ctors.values():
        for js in itertools.product(shallow, repeat=info.arity):
            assert u.intern(info.name, js) == ids[info.name, js], (
                info.name, js)


#: Per oracle-d3 file that a run reads little of: its `vgadt oracle
#: --depth 3` output, and the heads of the trees it renders.
SPARSE_RUNS = {
    "object_emulation": ("t.K: syntactic=rejected req-sp=fails (depth 3): "
                         "sigma=(obj_m) sigma'=(obj_empty) rho=() agree=yes",
                         ["obj_empty", "obj_m"]),
    "sink_sub": ("sink.S: syntactic=accepted req-sp=holds (depth 3) "
                 "agree=yes", []),
}


def test_oracle_builds_only_the_rendered_trees(monkeypatch):
    """`vgadt oracle --depth 3` on object_emulation renders sigma =
    (obj_m) and sigma' = (obj_empty), and on sink_sub nothing: of the
    1179 types, it builds the trees of those and of no other, and it
    decodes the heads and kids of at most two ids, and of no deep one."""
    universes = []

    def enumerate_kept(*args):
        universes.append(enumerate_types(*args))
        return universes[-1]
    built = []
    make = GroundUniverse.type

    def counted(u, i):
        if i not in u._trees:
            built.append(u.heads[i])
        return make(u, i)
    monkeypatch.setattr(cli, "enumerate_types", enumerate_kept)
    monkeypatch.setattr(GroundUniverse, "type", counted)
    for name, (line, rendered) in SPARSE_RUNS.items():
        universes.clear()
        built.clear()
        out = io.StringIO()
        path = str(CORPUS / f"{name}.vt")
        assert cli.run(["oracle", "--depth", "3", path],
                       out, io.StringIO()) == 0
        assert out.getvalue() == line + "\n"
        [u] = universes
        assert len(u) == 1179
        assert sorted(built) == rendered
        assert "types" not in vars(u) and "index" not in vars(u)
        assert set(u.heads) == set(u.kids)
        assert len(u.kids) <= 2, name
        assert all(x < len(u) for x in u.kids), name


class TestSubtype:
    def test_base_order(self, world):
        assert subtype(world, tapp("bool"), tapp("int"))
        assert not subtype(world, tapp("int"), tapp("bool"))

    def test_arrow_contra_cov(self, world):
        f1 = parse_type("int -> bool")
        f2 = parse_type("bool -> int")
        assert subtype(world, f1, f2)
        assert not subtype(world, f2, f1)

    def test_private_edge(self):
        sig = get_sig("private_fd")
        assert subtype(sig, tapp("fd"), tapp("int"))
        assert not subtype(sig, tapp("int"), tapp("fd"))

    def test_private_chain_transitive(self):
        sig = parse_signature("base c\nprivate b = c\nprivate a = b\n")
        assert subtype(sig, tapp("a"), tapp("c"))

    def test_datatype_variances(self, world):
        assert subtype(world, parse_type("bool list"), parse_type("int list"))
        assert not subtype(world, parse_type("bool ref"),
                           parse_type("int ref"))

    def test_reflexive_transitive_depth2(self, world, world_u2):
        orc = oracle_for(world)
        ts = world_u2.types
        for a in ts:
            assert orc.subtype(a, a)
        pairs = [(a, b) for a in ts for b in ts if orc.subtype(a, b)]
        for a, b in pairs:
            for c in ts:
                if orc.subtype(b, c):
                    assert orc.subtype(a, c)

    def test_reflexive_transitive_sampled_depth3(self, world_min,
                                                 world_min_u3):
        orc = oracle_for(world_min)
        rng = random.Random(7)
        ts = world_min_u3.types
        sample = rng.sample(ts, 60)
        for a in sample:
            assert orc.subtype(a, a)
        for a, b, c in zip(sample, sample[1:], sample[2:]):
            if orc.subtype(a, b) and orc.subtype(b, c):
                assert orc.subtype(a, c)


class TestPrec:
    def test_irrelevant_full(self, world):
        assert prec(world, IRR, tapp("int"), parse_type("bool -> bool"))

    def test_equiconvertible_distinct_bases(self):
        sig = parse_signature(
            "base b1\nbase b2\nsubbase b1 <= b2\nsubbase b2 <= b1\n")
        assert prec(sig, INV, tapp("b1"), tapp("b2"))

    def test_contra_reverses(self, world):
        assert prec(world, CONTRA, tapp("int"), tapp("bool"))

    def test_inv_is_equivalence_over_universe(self, world, world_u2):
        orc = oracle_for(world)
        ts = world_u2.types
        eq = [(a, b) for a in ts for b in ts if orc.prec(INV, a, b)]
        for a in ts:
            assert orc.prec(INV, a, a)
        for a, b in eq:
            assert orc.prec(INV, b, a)
        for a, b in eq:
            for c in ts:
                if orc.prec(INV, b, c):
                    assert orc.prec(INV, a, c)

    def test_beyond_the_cap(self):
        """The oracle's own universe holds every constant, so it has no
        cap to exceed: 40,001 bases, the first below the last, compare
        by rows, and arrows and products over them structurally."""
        names = [f"b{i}" for i in range(40_001)]
        sig = bare_signature(*names)
        sig.decls = (Decl("subbase", ("b0", "b40000"), (1, 1)),)
        assert len(sig.ctors) > DEFAULT_UNIVERSE_CAP
        first, last = tapp("b0"), tapp("b40000")
        assert subtype(sig, first, last)
        assert not subtype(sig, last, first)
        assert subtype(sig, last, last)
        assert prec(sig, CONTRA, parse_type("b0 -> b1"),
                    parse_type("b40000 -> b1"))
        assert not prec(sig, CONTRA, parse_type("b40000 -> b1"),
                        parse_type("b0 -> b1"))
        assert prec(sig, INV, parse_type("b40000 * b1"),
                    parse_type("b40000 * b1"))
        assert not prec(sig, INV, parse_type("b0 * b1"),
                        parse_type("b40000 * b1"))
        table = oracle_for(sig).table
        assert isinstance(table, GroundUniverse) and len(table) == 40_001


class TestSemVariance:
    def test_variable_covariant(self, world, world_u2):
        assert sem_variance(world, world_u2, ctx(a=COV), parse_type("'a"), COV)

    def test_arrow_needs_invariance(self, world, world_u2):
        aa = parse_type("'a -> 'a")
        assert sem_variance(world, world_u2, ctx(a=INV), aa, COV)
        cex = sem_variance_cex(world, world_u2, ctx(a=COV), aa, COV)
        assert cex is not None
        lo, hi = cex
        assert subtype(world, lo[0], hi[0])

    def test_well_signedness_of_fun_wrapper(self):
        sig = get_sig("fun_cov")
        u = get_universe("fun_cov", 2)
        decl = sig.info("t").decl
        assert not sem_well_signed(sig, u, decl.params, decl.ctors[0].arg)

    def test_agrees_with_checker_on_crafted_triples(self, world, world_u2):
        types = ["'a", "'a -> 'a", "'a * 'b", "'a ref", "'a list",
                 "'a * ('b ref)", "('a -> 'b) -> 'a", "int"]
        for text in types:
            t = parse_type(text)
            for v in ALL_VARIANCES:
                for g in [ctx(a=COV, b=COV), ctx(a=INV, b=INV),
                          ctx(a=CONTRA, b=COV), ctx(a=IRR, b=INV)]:
                    syntactic = check_variance(world, g, t, v)
                    semantic = sem_variance(world, world_u2, g, t, v)
                    assert syntactic == semantic, (text, v, str(g))


class TestSemDecomp:
    def test_product_of_distinct_variables(self, world, world_u2):
        t = parse_type("'b * 'c")
        assert sem_decomp(world, world_u2, ctx(b=COV, c=COV), t, COV, INV)

    def test_repeated_variable_counterexample(self, world, world_u2):
        t = parse_type("'b * 'b")
        cex = sem_decomp_cex(world, world_u2, ctx(b=COV), t, COV, INV)
        assert cex is not None
        rhos, target = cex
        assert subtype(world, App("*", (rhos[0], rhos[0])), target)

    def test_invariant_occurrences(self, world, world_u2):
        t = parse_type("('b ref) * ('b ref)")
        assert sem_decomp(world, world_u2, ctx(b=INV), t, COV, INV)

    def test_private_type_not_upward_decomposable(self):
        sig = get_sig("private_fd")
        u = get_universe("private_fd", 2)
        empty = VarianceContext([])
        assert not sem_decomp(sig, u, empty, tapp("fd"), COV, INV)
        assert sem_decomp(sig, u, empty, tapp("int"), COV, INV)

    def test_anti_monotone_in_context(self, world, world_u2):
        # Decomposability alone only improves as the context weakens.
        t = parse_type("'b * 'c")
        dom = ("b", "c")
        holding = []
        for tup in itertools.product(ALL_VARIANCES, repeat=2):
            g = VarianceContext(zip(dom, tup))
            if sem_decomp(world, world_u2, g, t, COV, INV):
                holding.append(g)
        assert ctx(b=COV, c=COV) in holding
        from vgadt.variance import ctx_leq
        for g in holding:
            for tup in itertools.product(ALL_VARIANCES, repeat=2):
                lower = VarianceContext(zip(dom, tup))
                if ctx_leq(lower, g):
                    assert sem_decomp(world, world_u2, lower, t, COV, INV)


class TestReqSp:
    def test_eq_covariant_fails(self):
        sig = get_sig("eq_cov")
        u = get_universe("eq_cov", 2)
        decl = sig.info("eq").decl
        result = req_sp(sig, u, decl, decl.ctors[0])
        assert not result.holds
        assert subtype(sig, App("eq", result.sigma), App("eq", result.sigma_prime))

    def test_expr_holds(self):
        sig = get_sig("expr")
        u = get_universe("expr", 2)
        decl = sig.info("expr").decl
        for k in decl.ctors:
            assert req_sp(sig, u, decl, k).holds

    def test_private_fd_fails(self):
        sig = get_sig("private_fd")
        u = get_universe("private_fd", 2)
        decl = sig.info("t").decl
        result = req_sp(sig, u, decl, decl.ctors[0])
        assert not result.holds
        assert result.sigma == (tapp("fd"),)
        assert result.sigma_prime == (tapp("int"),)

    def test_sub_constraint_contravariant_holds(self):
        sig = get_sig("sink_sub")
        u = get_universe("sink_sub", 2)
        decl = sig.info("sink").decl
        assert req_sp(sig, u, decl, decl.ctors[0]).holds


class TestReqSpAssignments:
    """`assignments` counts the assignments of the groups of existentials
    that req_sp visits: at most n^|group| per group, in place of n^m,
    and fewer where a bound narrows its coordinates."""

    def result(self, sig, u, name, ctor):
        decl = sig.info(name).decl
        return req_sp(sig, u, decl, next(k for k in decl.ctors
                                         if k.name == ctor))

    def test_unlinked_pair(self):
        """`Pack of 'a * 'b ref` normalizes to `['a = 'x0, 'b = 'x1]`,
        two groups of one existential.  The `=` parameter's reach set is
        its candidate set at every assignment; the `+` one's is a row
        above its candidates, but 'x0 is used at `+` in the argument, so
        sigma'(a) is a witness for it.  Neither group can fail, and each
        stops at its first assignment: 1 + 1 of 33 types each."""
        u = get_universe("pair_ref", 2)
        result = self.result(get_sig("pair_ref"), u, "pair_ref", "Pack")
        assert result.holds
        assert (len(u), result.assignments) == (33, 2)

    #: Linked groups that no rule of `_groups` marks safe, so each is
    #: searched over every narrowed assignment: an upper bound on a `+`
    #: parameter.  Their universes are expr's and arrow_bound's.
    LINKED = {
        "expr": "type (+'a) expr =\n"
                "  | Prod : 'b 'c ['a <= 'b * 'c]. 'b expr * 'c expr\n",
        "arr": "type (+'a) arr =\n  | A : 'b 'c ['a <= 'b -> 'c]. unit\n",
    }

    def linked(self, name, ctor, depth):
        sig = parse_signature("base int\nbase bool\nsubbase bool <= int\n"
                              + self.LINKED[name])
        compute_closure_flags(sig, "atomic")
        u = enumerate_types(sig, depth)
        return u, self.result(sig, u, name, ctor)

    def test_linked_pair(self):
        u, result = self.linked("expr", "Prod", 2)
        assert result.holds
        assert (len(u), result.assignments) == (24, 9)

    def test_linked_arrow(self):
        """`['a <= 'b -> 'c]`: an instance has a candidate in the
        universe only when both existentials are constants, 3 x 3 of
        them."""
        u, result = self.linked("arr", "A", 2)
        assert (len(u), result.assignments) == (24, 9)

    def test_linked_pair_depth3(self):
        """At depth 3 the existentials range over the 24 types of depth
        2, not over all 1179 types."""
        u, result = self.linked("expr", "Prod", 3)
        assert result.holds
        assert (len(u), result.assignments) == (1179, 24 ** 2)

    def test_three_unlinked(self):
        """Three groups of one existential, each under `=`, and each
        existential used in the argument at its parameter's variance, so
        no group can fail and each stops at its first assignment: 3, not
        one per type of the `+` and `-` groups."""
        sig = parse_signature("base int\nbase bool\nsubbase bool <= int\n"
                              "type (+'a, -'b, ='c) t =\n"
                              "  | K of 'a * ('b -> 'c)\n")
        u = enumerate_types(sig, 2)
        result = self.result(sig, u, "t", "K")
        assert result.holds
        assert (len(u), result.assignments) == (48, 3)

    def test_group_that_cannot_fail(self):
        """`sink_sub.S` is `'a <= 'b` on a `-` parameter: the reach set
        is the candidate set at every assignment, so no sigma' can fail
        and the group stops at its first assignment, one of 1179.  That
        reads one row: a universe builds none until one is read."""
        sig = get_sig("sink_sub")
        u = enumerate_types(sig, 3)
        assert (len(u), len(u.le), len(u.ge)) == (1179, 0, 0)
        result = self.result(sig, u, "sink", "S")
        assert result.holds
        assert result.assignments == 1
        assert len(u.le) + len(u.ge) <= 4

    def test_not_part_of_the_result(self):
        sig = get_sig("eq_cov")
        result = self.result(sig, get_universe("eq_cov", 2), "eq", "Refl")
        assert not result.holds and result.assignments > 0
        assert result == dataclasses.replace(result, assignments=0)


#: (file, depth, constructor) -> (universe size, assignments visited,
#: holds) of `req_sp` under `atomic`, for every corpus constructor.  The
#: counts are costs, not verdicts: they pin the order and extent of the
#: search.  A group that cannot fail (`_groups`) visits one assignment,
#: so every plain constructor's parameter used at its own variance, and
#: each rigid linear `=` bound such as expr.Prod's, costs 1 whatever the
#: depth; a group that can fail visits its assignments in
#: product order up to its first failing one, or all of them.
VISITS = {
    ("arrow_bound", 2, "arr.A"): (24, 1, True),
    ("arrow_bound", 3, "arr.A"): (1179, 1, True),
    ("eq_cov", 2, "eq.Refl"): (30, 3, False),
    ("eq_cov", 3, "eq.Refl"): (2703, 3, False),
    ("eq_inv", 2, "eq.Refl"): (30, 1, True),
    ("eq_inv", 3, "eq.Refl"): (2703, 1, True),
    ("expr", 2, "expr.Val"): (24, 1, True),
    ("expr", 2, "expr.Int"): (24, 1, True),
    ("expr", 2, "expr.Thunk"): (24, 1, True),
    ("expr", 2, "expr.Prod"): (24, 1, True),
    ("expr", 3, "expr.Val"): (1179, 1, True),
    ("expr", 3, "expr.Int"): (1179, 1, True),
    ("expr", 3, "expr.Thunk"): (1179, 1, True),
    ("expr", 3, "expr.Prod"): (1179, 1, True),
    ("expr_sup", 2, "expr.Val"): (24, 1, True),
    ("expr_sup", 2, "expr.Int"): (24, 1, True),
    ("expr_sup", 2, "expr.Thunk"): (24, 1, True),
    ("expr_sup", 2, "expr.Prod"): (24, 1, True),
    ("expr_sup", 3, "expr.Val"): (1179, 1, True),
    ("expr_sup", 3, "expr.Int"): (1179, 1, True),
    ("expr_sup", 3, "expr.Thunk"): (1179, 1, True),
    ("expr_sup", 3, "expr.Prod"): (1179, 1, True),
    ("fun_cov", 2, "t.Fun"): (30, 4, False),
    ("fun_cov", 3, "t.Fun"): (2703, 4, False),
    ("list", 2, "list.Nil"): (24, 1, True),
    ("list", 2, "list.Cons"): (24, 1, True),
    ("list", 3, "list.Nil"): (1179, 1, True),
    ("list", 3, "list.Cons"): (1179, 1, True),
    ("ml_open_demo", 2, "pos.P"): (14, 1, True),
    ("ml_open_demo", 2, "pos.Q"): (14, 1, True),
    ("ml_open_demo", 2, "box.B"): (14, 1, True),
    ("ml_open_demo", 3, "pos.P"): (422, 1, True),
    ("ml_open_demo", 3, "pos.Q"): (422, 1, True),
    ("ml_open_demo", 3, "box.B"): (422, 1, True),
    ("object_emulation", 2, "t.K"): (24, 1, False),
    ("object_emulation", 3, "t.K"): (1179, 1, False),
    ("pair_ref", 2, "ref.Mk"): (33, 1, True),
    ("pair_ref", 2, "pair_ref.Pack"): (33, 2, True),
    ("pair_ref", 3, "ref.Mk"): (3303, 1, True),
    ("pair_ref", 3, "pair_ref.Pack"): (3303, 2, True),
    ("private_fd", 2, "t.K"): (40, 1, False),
    ("private_fd", 3, "t.K"): (3244, 1, False),
    ("sink_sub", 2, "sink.S"): (24, 1, True),
    ("sink_sub", 3, "sink.S"): (1179, 1, True),
    ("world", 2, "ref.Mk"): (27, 1, True),
    ("world", 2, "list.Nil"): (27, 1, True),
    ("world", 2, "list.Cons"): (27, 1, True),
    ("world", 3, "ref.Mk"): (1515, 1, True),
    ("world", 3, "list.Nil"): (1515, 1, True),
    ("world", 3, "list.Cons"): (1515, 1, True),
    ("world_ref", 2, "ref.Mk"): (24, 1, True),
    ("world_ref", 3, "ref.Mk"): (1179, 1, True),
}


@pytest.mark.parametrize("name,depth,ctor", list(VISITS))
def test_visit_counts(name, depth, ctor):
    sig = get_sig(name)
    u = get_universe(name, depth)
    decl = sig.info(ctor.split(".")[0]).decl
    k = next(k for k in decl.ctors if f"{decl.name}.{k.name}" == ctor)
    result = req_sp(sig, u, decl, k)
    assert (len(u), result.assignments, result.holds) == VISITS[
        name, depth, ctor]


def test_visit_counts_cover_the_corpus():
    assert set(VISITS) == {
        (p.stem, depth, f"{decl.name}.{k.name}")
        for p in CORPUS.glob("*.vt") for depth in (2, 3)
        for decl in get_sig(p.stem).datatypes() for k in decl.ctors}


#: (file, constructor) -> number of groups, for every corpus constructor
#: whose groups are all safe and whose bounds all fit the universe of
#: depth 2 (depth <= 2): 22 of the 26.
BARE_SAFE = {
    ("arrow_bound", "arr.A"): 1,
    ("eq_inv", "eq.Refl"): 1,
    ("expr", "expr.Val"): 1,
    ("expr", "expr.Int"): 1,
    ("expr", "expr.Thunk"): 1,
    ("expr", "expr.Prod"): 1,
    ("expr_sup", "expr.Val"): 1,
    ("expr_sup", "expr.Int"): 1,
    ("expr_sup", "expr.Thunk"): 1,
    ("expr_sup", "expr.Prod"): 1,
    ("list", "list.Nil"): 1,
    ("list", "list.Cons"): 1,
    ("ml_open_demo", "pos.P"): 1,
    ("ml_open_demo", "pos.Q"): 1,
    ("ml_open_demo", "box.B"): 1,
    ("pair_ref", "ref.Mk"): 1,
    ("pair_ref", "pair_ref.Pack"): 2,
    ("sink_sub", "sink.S"): 1,
    ("world", "ref.Mk"): 1,
    ("world", "list.Nil"): 1,
    ("world", "list.Cons"): 1,
    ("world_ref", "ref.Mk"): 1,
}


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("name,ctor", list(BARE_SAFE))
def test_bare_safe_groups_read_no_row(name, ctor, depth):
    """Each such group's first assignment with candidates is all 0: 0 is
    a constant, related to itself, and each bound's instance there is a
    universe type, a candidate of itself.  So req_sp decides it without
    the universe: one visit per group, and no row read."""
    sig = get_sig(name)
    decl = sig.info(ctor.split(".")[0]).decl
    k = next(k for k in decl.ctors if f"{decl.name}.{k.name}" == ctor)
    u = enumerate_types(sig, depth)
    result = req_sp(sig, u, decl, k)
    assert result.holds and result.vacuous is None
    assert result.assignments == BARE_SAFE[name, ctor]
    assert len(u.le) + len(u.ge) == 0


def test_bare_safe_covers_the_corpus():
    found = set()
    for p in CORPUS.glob("*.vt"):
        sig = get_sig(p.stem)
        for decl in sig.datatypes():
            for k in decl.ctors:
                norm = normalize_constructor(decl, k)
                groups = _groups(sig, get_universe(p.stem, 2), decl, norm)
                if (all(type_depth(c.bound) <= 2 for c in norm.constraints)
                        and all(g.safe for g in groups)):
                    found.add((p.stem, f"{decl.name}.{k.name}"))
    assert found == set(BARE_SAFE)


class TestReqSpVacuous:
    """req-SP holds vacuously when some group of linked constraints has
    no assignment at which each of its parameters has a candidate in the
    universe; the oracle says so, and confirms nothing."""

    TEXT = PRELUDE + (
        "\ntype (~'p0, ='p1) t =\n"
        "  | K : 'x0 'x1 ['p0 = 'x1, 'p1 = ('x0 -> 'x0) sink]. 'x1 sink\n")

    def test_the_result_names_the_bound(self):
        sig = parse_signature(self.TEXT)
        compute_closure_flags(sig, "atomic")
        decl = sig.info("t").decl
        result = req_sp(sig, enumerate_types(sig, 2), decl, decl.ctors[0])
        assert result.holds and result.vacuous == parse_type(
            "('x0 -> 'x0) sink")
        assert result.describe() == (
            "vacuous (no instance of ('x0 -> 'x0) sink at depth 2)")

    #: Per depth, the oracle's line for t.K: vacuous at depth 2, refuted
    #: at depth 3.  Neither agrees, so the oracle exits 1 at both.
    LINES = {
        2: "t.K: syntactic=accepted req-sp=vacuous (no instance of "
           "('x0 -> 'x0) sink at depth 2) agree=unconfirmed (no instance)",
        3: "t.K: syntactic=accepted req-sp=fails (depth 3): "
           "sigma=(unit, (unit -> unit) sink) "
           "sigma'=(int, (unit -> unit) sink) rho=(unit, unit) "
           "agree=DISAGREE",
    }

    @pytest.mark.parametrize("depth", sorted(LINES))
    def test_the_oracle_never_agrees_on_it(self, tmp_path, depth):
        path = tmp_path / "vacuous.vt"
        path.write_text(self.TEXT, encoding="utf-8")
        out = io.StringIO()
        assert cli.run(["oracle", "--depth", str(depth), str(path)],
                       out, io.StringIO()) == 1
        assert out.getvalue().splitlines()[-1] == self.LINES[depth]

    def test_the_structured_record_says_vacuous(self, tmp_path):
        """`req_sp` reads "vacuous", not true as for a confirmed
        constructor, and there is no counterexample."""
        path = tmp_path / "vacuous.vt"
        path.write_text(self.TEXT, encoding="utf-8")
        out = io.StringIO()
        assert cli.run(["oracle", "--depth", "2", "--format=structured",
                        str(path)], out, io.StringIO()) == 1
        assert json.loads(out.getvalue().splitlines()[-1]) == {
            "type": "t", "ctor": "K", "verdict": "accepted",
            "req_sp": "vacuous", "depth": 2,
            "agree": "unconfirmed (no instance)", "counterexample": None}


class TestReqSpSearchedSafeGroup:
    """A safe group whose bound is deeper than the universe is searched,
    so that a bound with no instance there is reported vacuous.  Such a
    bound has an instance only through a `~` position: `'x ph ph` has
    depth 3, but ph ignores its parameter, so `'x ph ph` is equivalent
    to `int ph`, a type of depth 2.  The group is safe (`=` on a `=`
    parameter), so it stops at its first assignment with candidates."""

    TEXT = ("base int\nbase bool\nsubbase bool <= int\n"
            "type (~'a) ph = P of unit\n"
            "type (='a) t = K : 'x ['a = 'x ph ph]. unit\n")

    def result(self, depth, reference=False):
        sig = parse_signature(self.TEXT)
        decl = sig.info("t").decl
        u = enumerate_types(sig, depth)
        (group,) = _groups(sig, u, decl,
                           normalize_constructor(decl, decl.ctors[0]))
        # The bound fits the universe at depth 3 only, and is searched
        # below it.
        assert group.safe and bool(group.walks) == (depth < 3)
        return (reference_req_sp if reference else req_sp)(
            sig, u, decl, decl.ctors[0])

    def test_vacuous_without_ph(self):
        result = self.result(1)
        assert result.holds and result.vacuous == parse_type("'x ph ph")
        assert result == self.result(1, reference=True)

    def test_holds_at_its_first_assignment(self):
        result = self.result(2)
        assert result.holds and result.vacuous is None
        assert result.assignments == 1
        assert result == self.result(2, reference=True)

    def test_holds_at_depth3(self):
        result = self.result(3)
        assert result.holds and result.vacuous is None
        assert result.assignments == 1


class TestReqSpVariableBounds:
    """Subtyping constraints whose bound is a bare existential: the
    witness for the coerced parameter must respect the bound's side."""

    SIG = ("base int\nbase bool\nsubbase bool <= int\n"
           "type (-'a) lo = K : 'b ['a >= 'b]. 'b\n"
           "type (+'a) hi = L : 'b ['a <= 'b]. 'b -> unit\n"
           "type (+'a) ok = M : 'b ['a >= 'b]. 'b\n")

    @pytest.mark.parametrize("depth", [1, 2])
    def test_counterexamples(self, depth):
        sig = parse_signature(self.SIG)
        u = enumerate_types(sig, depth)

        def result(name):
            decl = sig.info(name).decl
            return req_sp(sig, u, decl, decl.ctors[0])
        lo, hi = result("lo"), result("hi")
        assert (lo.sigma, lo.sigma_prime, lo.rho) == \
            ((tapp("int"),), (tapp("bool"),), (tapp("int"),))
        assert (hi.sigma, hi.sigma_prime, hi.rho) == \
            ((tapp("bool"),), (tapp("int"),), (tapp("bool"),))
        assert result("ok").holds


class TestReqSpGroupsThatCanFail:
    """Groups of one bare existential that look like a plain parameter
    but can fail: `_groups` must not mark them safe, and each must be
    searched past its first assignment to its counterexample."""

    PRELUDE = "base int\nbase bool\nsubbase bool <= int\n"

    def check(self, src, depth, cex):
        sig = parse_signature(self.PRELUDE + src)
        u = enumerate_types(sig, depth)
        decl = sig.info("t").decl
        k = decl.ctors[0]
        groups = _groups(sig, u, decl, normalize_constructor(decl, k))
        assert not groups[0].safe
        result = req_sp(sig, u, decl, k)
        assert result.describe() == f"fails (depth {depth}): {cex}"
        assert result.assignments > 1

    @pytest.mark.parametrize("depth", [1, 2])
    def test_two_bare_bounds_on_one_existential(self, depth):
        self.check("type (+'a, +'c) t = | K : 'b ['a = 'b, 'c = 'b]. 'b\n",
                   depth,
                   "sigma=(bool, bool) sigma'=(int, bool) rho=(bool)")

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_covariant_parameter_used_contravariantly(self, depth):
        self.check("type (+'a) t = | K of 'a -> unit\n", depth,
                   "sigma=(bool) sigma'=(int) rho=(bool)")

    @pytest.mark.parametrize("depth", [1, 2])
    def test_lower_bound_used_contravariantly(self, depth):
        """'b is used at `-`, the parameter's variance, but its
        constraint is `+`: bool and char lie below int and have no
        common lower bound, so no rho' lies below both rho and sigma'."""
        self.check("base char\nsubbase char <= int\n"
                   "type (-'a) t = | K : 'b ['a >= 'b]. 'b -> unit\n",
                   depth, "sigma=(int) sigma'=(char) rho=(bool)")

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_irrelevant_parameter_used_invariantly(self, depth):
        """ROADMAP item 1's input: 'a is `~` but `ref` uses it at `=`."""
        self.check("type (='a) ref = | Mk of 'a -> 'a\n"
                   "type (~'a, +'b) t = | K of 'a ref * 'b\n", depth,
                   "sigma=(unit, unit) sigma'=(int, unit) rho=(unit, unit)")


class TestSpRequirements:
    def test_atomic_world_clean(self, world, world_u2):
        report = check_sp_requirements(world, world_u2)
        assert report.ok

    def test_private_world_violation(self):
        sig = get_sig("private_fd")
        u = get_universe("private_fd", 2)
        report = check_sp_requirements(sig, u)
        assert any("fd <= int" in v
                   for v in report.incomparability_violations)
        assert not report.decomposition_violations

    def test_product_decomposition_depth3(self, world_min, world_min_u3):
        report = check_sp_requirements(world_min, world_min_u3)
        assert report.ok


class TestSimultaneousDecomposition:
    def test_zip_soundness_instance(self, world, world_u2):
        # Two subterms sharing one variable at irrelevant/covariant
        # occurrences: the zipped context still decomposes both at once.
        t1 = parse_type("'b")
        t2 = parse_type("int")
        g1 = ctx(b=COV)
        g2 = ctx(b=IRR)
        assert sem_decomp(world, world_u2, g1, t1, COV, INV)
        assert sem_decomp(world, world_u2, g2, t2, COV, INV)
        zipped = ctx(b=COV)
        assert sem_simultaneous_decomp(
            world, world_u2, zipped, [(t1, COV, INV), (t2, COV, INV)])

    def test_incompatible_pair_fails(self, world, world_u2):
        # Two covariant occurrences cannot share a witness.
        t = parse_type("'b")
        g = ctx(b=COV)
        assert not sem_simultaneous_decomp(
            world, world_u2, g, [(t, COV, INV), (t, COV, INV)])
