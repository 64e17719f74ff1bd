"""The brute-force semantics: universes, subtyping, the quantified
definitions, and their agreement with the paper-level expectations."""
from __future__ import annotations

import dataclasses
import io
import itertools
import random

import pytest

from conftest import CORPUS, get_sig, get_universe
from vgadt import cli
from vgadt.oracle import (
    GroundUniverse,
    UniverseSizeError,
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
from vgadt.checker import check_variance
from vgadt.syntax import (
    App,
    CtorInfo,
    Signature,
    parse_signature,
    parse_type,
    tapp,
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
        assert tapp("list", tapp("int")) in u.index

    def test_cap_exceeded(self):
        with pytest.raises(UniverseSizeError):
            enumerate_types(bare_signature("a", "b", "c"), 4, cap=1000)

    def test_deterministic_and_duplicate_free(self):
        sig = get_sig("world")
        u1 = enumerate_types(sig, 2)
        u2 = enumerate_types(sig, 2)
        assert u1.types == u2.types
        assert len(set(u1.types)) == len(u1.types)

    def test_closed_under_subterms(self, world_u2):
        for t in world_u2.types:
            for a in t.args:
                assert a in world_u2.index


#: The inputs of the benchmark's oracle-d3 workload.
DEPTH3_FILES = ["ml_open_demo", "object_emulation", "sink_sub"]


@pytest.mark.parametrize("name,depth", [
    *((p.stem, 2) for p in sorted(CORPUS.glob("*.vt"))),
    *((name, 3) for name in DEPTH3_FILES)])
def test_views_equal_eager_trees(name, depth):
    """`types` and `index`, built from the trees `type` makes on demand,
    equal the trees built eagerly in id order."""
    u = get_universe(name, depth)
    n = len(u)
    trees: list = []
    for head, kids in zip(u.heads[:n], u.kids):
        trees.append(App(head, tuple(trees[k] for k in kids)))
    assert u.types == tuple(trees)
    assert u.index == {t: i for i, t in enumerate(trees)}
    assert all(u.type(i) is t for i, t in enumerate(u.types))


def test_oracle_builds_only_the_rendered_trees(monkeypatch):
    """`vgadt oracle --depth 3` on object_emulation renders sigma =
    (obj_m) and sigma' = (obj_empty): of the 1179 types, it builds the
    trees of those two and of no other."""
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
    out = io.StringIO()
    path = str(CORPUS / "object_emulation.vt")
    assert cli.run(["oracle", "--depth", "3", path], out, io.StringIO()) == 0
    assert "sigma=(obj_m) sigma'=(obj_empty) rho=()" in out.getvalue()
    [u] = universes
    assert len(u) == 1179
    assert sorted(built) == ["obj_empty", "obj_m"]
    assert "types" not in vars(u) and "index" not in vars(u)


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
        its candidate set at every assignment, so its group stops at its
        first, 1; the `+` one's reach set is a row above its candidates,
        so its group visits all 33 types: 33 + 1."""
        u = get_universe("pair_ref", 2)
        result = self.result(get_sig("pair_ref"), u, "pair_ref", "Pack")
        assert result.holds
        assert (len(u), result.assignments) == (33, 33 + 1)

    def test_linked_pair(self):
        u = get_universe("expr", 2)
        result = self.result(get_sig("expr"), u, "expr", "Prod")
        assert result.holds
        assert (len(u), result.assignments) == (24, 9)

    def test_linked_arrow(self):
        """`['a = 'b -> 'c]`: an instance has an id of the universe
        only when both existentials are constants, 3 x 3 of them."""
        u = get_universe("arrow_bound", 2)
        result = self.result(get_sig("arrow_bound"), u, "arr", "A")
        assert (len(u), result.assignments) == (24, 9)

    def test_linked_pair_depth3(self):
        """At depth 3 the existentials range over the 24 types of depth
        2, not over all 1179 types."""
        u = get_universe("expr", 3)
        result = self.result(get_sig("expr"), u, "expr", "Prod")
        assert result.holds
        assert (len(u), result.assignments) == (1179, 24 ** 2)

    def test_three_unlinked(self):
        """Three groups of one existential, each under `=`.  The `+` and
        `-` parameters' groups visit all n types; the `=` one's reach set
        is its candidate set, so its group stops at its first: 2n + 1."""
        sig = parse_signature("base int\nbase bool\nsubbase bool <= int\n"
                              "type (+'a, -'b, ='c) t =\n"
                              "  | K of 'a * ('b -> 'c)\n")
        u = enumerate_types(sig, 2)
        result = self.result(sig, u, "t", "K")
        assert result.holds
        assert result.assignments == 2 * len(u) + 1

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
