"""Variance checking, principal contexts, closure flags, decomposability."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import get_sig
from vgadt.checker import (
    DecompEngine,
    check_decomp,
    check_variance,
    compute_closure_flags,
    decomp_sets,
    derive_variance,
    is_closed,
    principal_context,
    variance_sets,
)
from vgadt.syntax import SignatureError, parse_signature, parse_type
from vgadt.variance import (
    ALL_VARIANCES,
    CONTRA,
    COV,
    INV,
    IRR,
    VarianceContext,
    ctx_leq,
    up_set,
)


def ctx(**kw):
    return VarianceContext((k, v) for k, v in kw.items())


def all_contexts(domain):
    for tup in itertools.product(ALL_VARIANCES, repeat=len(domain)):
        yield VarianceContext(zip(domain, tup))


class TestCheckVariance:
    def test_examples(self, world):
        aa = parse_type("'a -> 'a")
        assert check_variance(world, ctx(a=INV), aa, COV)
        assert not check_variance(world, ctx(a=COV), aa, COV)
        assert check_variance(world, ctx(a=COV), parse_type("'a"), COV)

    def test_datatypes_use_declared_variances(self, world):
        assert check_variance(world, ctx(a=COV), parse_type("'a list"), COV)
        assert not check_variance(world, ctx(a=COV), parse_type("'a ref"), COV)
        assert check_variance(world, ctx(a=INV), parse_type("'a ref"), COV)

    def test_irrelevant_target(self, world):
        for w in ALL_VARIANCES:
            assert check_variance(world, ctx(a=w), parse_type("'a -> 'a"), IRR)


class TestPrincipalContext:
    def test_paper_query(self, world):
        t = parse_type("'a * ('b ref)")
        assert principal_context(world, t, COV) == ctx(a=COV, b=INV)

    def test_constant_type(self, world):
        for v in ALL_VARIANCES:
            g = principal_context(world, parse_type("int"), v, ["a", "b"])
            assert g == ctx(a=IRR, b=IRR)

    def test_arrow_both_sides(self, world):
        assert principal_context(world, parse_type("'a -> 'a"), COV) == ctx(a=INV)

    def test_principality_exhaustive(self, world):
        types = ["'a", "'a -> 'b", "'a * 'a", "'a ref * 'b", "'a list -> 'b",
                 "('a -> 'b) -> 'a"]
        for text in types:
            t = parse_type(text)
            for v in ALL_VARIANCES:
                principal = principal_context(world, t, v, ["a", "b"])
                assert check_variance(world, principal, t, v)
                for g in all_contexts(["a", "b"]):
                    if check_variance(world, g, t, v):
                        assert ctx_leq(principal, g)

    def test_monotonicity_exhaustive(self, world):
        types = ["'a", "'a -> 'b", "'a * 'a", "'a ref * 'b"]
        for text in types:
            t = parse_type(text)
            for v in ALL_VARIANCES:
                for g1 in all_contexts(["a", "b"]):
                    if not check_variance(world, g1, t, v):
                        continue
                    for g2 in all_contexts(["a", "b"]):
                        if ctx_leq(g1, g2):
                            assert check_variance(world, g2, t, v)


class TestVarianceSets:
    def test_paper_query(self, world):
        sets = variance_sets(world, parse_type("'a * ('b ref)"), COV)
        assert sets["a"] == frozenset({COV, INV})
        assert sets["b"] == frozenset({INV})

    def test_irrelevant_and_contra(self, world):
        assert variance_sets(world, parse_type("'a"), IRR)["a"] == frozenset(
            ALL_VARIANCES)
        assert variance_sets(world, parse_type("'a"), CONTRA)["a"] == frozenset(
            {CONTRA, INV})

    def test_sets_are_upward_closed_and_exact(self, world):
        for text in ["'a * 'b", "'a -> 'b", "'a ref", "'a list * 'a"]:
            t = parse_type(text)
            for v in ALL_VARIANCES:
                sets = variance_sets(world, t, v, ["a", "b"])
                for name, s in sets.items():
                    for w in s:
                        assert s >= up_set(w)
                for g in all_contexts(["a", "b"]):
                    expected = all(g[n] in sets[n] for n in ("a", "b"))
                    assert check_variance(world, g, t, v) == expected


class TestClosureFlags:
    def test_atomic_everything_closed(self):
        sig = parse_signature("base int\ntype (+'a) t = K of 'a\n")
        flags = compute_closure_flags(sig, "atomic")
        for name in ("int", "t", "*", "->", "unit"):
            assert flags[name] == frozenset({COV, CONTRA, INV})
        assert is_closed(sig, "*", COV)
        assert not is_closed(sig, "t", IRR)

    def test_private_edge_strips_flags(self):
        sig = parse_signature("base int\nprivate fd = int\n")
        flags = compute_closure_flags(sig, "atomic")
        assert flags["fd"] == frozenset({CONTRA})
        assert flags["int"] == frozenset({COV})
        assert not is_closed(sig, "fd", COV)

    def test_ordered_bases_strip_flags(self):
        # bool <= int strictly: bool loses upward closure, int downward.
        sig = parse_signature("base int\nbase bool\nsubbase bool <= int\n")
        flags = compute_closure_flags(sig, "atomic")
        assert flags["bool"] == frozenset({CONTRA})
        assert flags["int"] == frozenset({COV})

    def test_equiconvertible_bases_keep_flags(self):
        sig = parse_signature(
            "base b1\nbase b2\nsubbase b1 <= b2\nsubbase b2 <= b1\n")
        flags = compute_closure_flags(sig, "atomic")
        assert flags["b1"] == frozenset({COV, CONTRA, INV})

    def test_none_preset(self):
        sig = parse_signature("base int\n")
        flags = compute_closure_flags(sig, "none")
        assert all(fs == frozenset() for fs in flags.values())

    def test_none_preset_with_explicit_closed(self):
        sig = parse_signature("base int\nclosed + int\n")
        flags = compute_closure_flags(sig, "none")
        assert flags["int"] == frozenset({COV})

    def test_contradictory_closed_declaration(self):
        sig = parse_signature("base int\nprivate fd = int\nclosed + fd\n")
        with pytest.raises(SignatureError) as exc:
            compute_closure_flags(sig, "atomic")
        assert "contradicted" in str(exc.value)

    def test_contradictory_closed_declaration_position(self):
        sig = parse_signature("base int\nprivate fd = int\n\n  closed + fd\n")
        with pytest.raises(SignatureError) as exc:
            compute_closure_flags(sig, "atomic")
        diag = exc.value.diagnostics[0]
        assert (diag.line, diag.col) == (4, 3)

    def test_ml_open_products_not_arrows(self):
        sig = get_sig("world", "ml-open")
        assert is_closed(sig, "*", COV)
        assert not is_closed(sig, "->", COV)
        assert not is_closed(sig, "*", CONTRA)
        assert not is_closed(sig, "*", INV)
        assert is_closed(sig, "int", COV)
        assert not is_closed(sig, "bool", COV)   # int sits strictly above

    def test_ml_open_datatype_fixpoint(self):
        sig = parse_signature(
            "base int\n"
            "type (+'a) pos = P of int * 'a | Q of 'a * 'a pos\n"
            "type (+'a) neg = N of ('a -> int) * 'a\n"
            "type (+'a) indirect = I of 'a neg\n")
        compute_closure_flags(sig, "ml-open")
        assert is_closed(sig, "pos", COV)
        assert not is_closed(sig, "neg", COV)        # embeds an arrow
        assert not is_closed(sig, "indirect", COV)   # embeds neg


class TestCheckDecomp:
    def test_product_of_distinct_variables(self, world):
        t = parse_type("'b * 'c")
        assert check_decomp(world, ctx(b=COV, c=COV), t, COV, INV)

    def test_repeated_variable_never_decomposes(self, world):
        t = parse_type("'b * 'b")
        for w in ALL_VARIANCES:
            assert not check_decomp(world, ctx(b=w), t, COV, INV)

    def test_invariant_occurrences_decompose(self, world):
        t = parse_type("('b ref) * ('b ref)")
        assert check_decomp(world, ctx(b=INV), t, COV, INV)

    def test_sc_var_strictness(self, world):
        # The judgment is not monotone: raising the entry to = breaks it.
        t = parse_type("'a")
        assert check_variance(world, ctx(a=INV), t, COV)
        assert not check_decomp(world, ctx(a=INV), t, COV, INV)
        assert check_decomp(world, ctx(a=COV), t, COV, INV)

    def test_constant_types_decompose_anywhere(self, world):
        t = parse_type("int")
        for g in all_contexts(["a", "b"]):
            assert check_decomp(world, g, t, COV, INV)

    def test_head_not_closed_blocks(self):
        sig = get_sig("private_fd")
        assert not check_decomp(sig, VarianceContext([]), parse_type("fd"),
                                COV, INV)
        assert check_decomp(sig, VarianceContext([]), parse_type("fd"),
                            CONTRA, INV)   # fd stays downward-closed

    def test_sc_triv(self, world):
        t = parse_type("'a * 'b")
        assert check_decomp(world, ctx(a=COV, b=INV), t, COV, IRR)
        assert check_decomp(world, ctx(a=INV, b=INV), t, INV, COV)

    def test_engine_matches_wrapper(self, world):
        engine = DecompEngine(world, ("a", "b"))
        t = parse_type("'a * ('b ref)")
        for g in all_contexts(["a", "b"]):
            for v in (COV, INV):
                for v2 in (INV, COV, IRR):
                    assert engine.check(g, t, v, v2) == check_decomp(
                        world, g, t, v, v2)


class TestDecompSets:
    def test_product_of_distinct_variables(self, world):
        sets = decomp_sets(world, parse_type("'b * 'c"), COV, INV)
        assert sets == {"b": frozenset({COV}), "c": frozenset({COV})}

    def test_repeated_variable_fails(self, world):
        sets = decomp_sets(world, parse_type("'b * 'b"), COV, INV)
        assert sets == {"b": frozenset()}

    def test_constant_type_full_sets(self, world):
        sets = decomp_sets(world, parse_type("int"), COV, INV, ["a", "b"])
        assert sets == {"a": frozenset(ALL_VARIANCES),
                        "b": frozenset(ALL_VARIANCES)}

    def test_unclosed_head_is_failure(self):
        sig = get_sig("private_fd")
        assert decomp_sets(sig, parse_type("fd"), COV, INV, ["a"]) is None

    def test_fast_never_rejects_a_deriving_context(self, world):
        types = ["'a", "'a * 'b", "'a * 'a", "('a ref) * ('b ref)",
                 "'a -> 'b", "int", "'a list", "('a -> 'b) * 'a"]
        for text in types:
            t = parse_type(text)
            for v, v2 in itertools.product(ALL_VARIANCES, repeat=2):
                sets = decomp_sets(world, t, v, v2, ["a", "b"])
                for g in all_contexts(["a", "b"]):
                    if check_decomp(world, g, t, v, v2):
                        assert sets is not None
                        assert all(g[n] in sets[n] for n in ("a", "b"))

    def test_failure_means_no_context(self, world):
        types = ["'a * 'a", "'a -> 'a", "('a ref) * 'a"]
        for text in types:
            t = parse_type(text)
            for v, v2 in itertools.product(ALL_VARIANCES, repeat=2):
                sets = decomp_sets(world, t, v, v2, ["a"])
                if sets is None or any(not s for s in sets.values()):
                    for g in all_contexts(["a"]):
                        assert not check_decomp(world, g, t, v, v2)


class TestDerivations:
    def test_variance_tree_rules(self, world):
        tree = derive_variance(world, ctx(a=INV), parse_type("'a -> 'a"), COV)
        text = "\n".join(tree.lines())
        assert "vc-Constr" in text and "vc-Var" in text

    def test_decomp_tree_rules(self, world):
        engine = DecompEngine(world, ("b", "c"))
        tree = engine.derive(ctx(b=COV, c=COV), parse_type("'b * 'c"),
                             COV, INV)
        text = "\n".join(tree.lines())
        assert "sc-Constr" in text and "sc-Var" in text
        triv = engine.derive(ctx(b=COV, c=COV), parse_type("'b * 'c"),
                             COV, IRR)
        assert triv.rule == "sc-Triv"
        assert engine.derive(ctx(b=INV, c=INV), parse_type("'b * 'b"),
                             COV, INV) is None


types_for_decomp = st.sampled_from(
    ["'a", "'b", "int", "'a * 'b", "'a * 'a", "'a ref", "'a list",
     "'a -> 'b", "('a ref) * ('b ref)", "('a * 'b) list"])


class TestDecompProperties:
    @given(types_for_decomp, st.sampled_from(ALL_VARIANCES),
           st.sampled_from(ALL_VARIANCES),
           st.tuples(st.sampled_from(ALL_VARIANCES),
                     st.sampled_from(ALL_VARIANCES)))
    @settings(max_examples=150, deadline=None)
    def test_decomp_implies_variance(self, text, v, v2, gvs):
        # Derivable decomposability always carries the variance judgment.
        world = get_sig("world")
        t = parse_type(text)
        g = VarianceContext(zip(("a", "b"), gvs))
        if check_decomp(world, g, t, v, v2):
            assert check_variance(world, g, t, v)
