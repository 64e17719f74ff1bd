"""Per-constructor verdicts: the soundness criterion in both modes."""
from __future__ import annotations

import pytest

from conftest import get_sig
from vgadt.criterion import (
    check_adt_constructor,
    check_gadt_constructor,
    check_gadt_constructor_bruteforce,
    check_signature,
    target_variance,
    verify_witnesses,
)
from vgadt.checker import check_variance, compute_closure_flags
from vgadt.syntax import (
    ConstraintRel,
    FORM_ADT,
    parse_signature,
)
from vgadt.variance import CONTRA, COV, INV, IRR, VarianceContext, const_ctx

CORPUS_FILES = [
    "expr", "eq_cov", "eq_inv", "fun_cov", "expr_sup", "pair_ref", "list",
    "private_fd", "object_emulation", "arrow_bound", "sink_sub",
    "ml_open_demo",
]


def verdicts_by_name(sig, mode="exact"):
    return {f"{v.datatype}.{v.ctor}": v
            for v in check_signature(sig, mode).verdicts}


class TestTargetVariance:
    def test_mapping(self):
        assert target_variance(ConstraintRel.EQ) is INV
        assert target_variance(ConstraintRel.SUP) is COV
        assert target_variance(ConstraintRel.SUB) is CONTRA


class TestAdtConstructors:
    def test_function_wrapper_rejected(self):
        sig = get_sig("fun_cov")
        decl = sig.info("t").decl
        verdict = check_adt_constructor(sig, decl, decl.ctors[0].arg)
        assert not verdict.accepted
        assert "'a" in verdict.reason

    def test_list_accepted(self):
        sig = get_sig("list")
        decl = sig.info("list").decl
        for k in decl.ctors:
            assert check_adt_constructor(sig, decl, k.arg).accepted

    def test_invariant_cell_accepted(self):
        sig = get_sig("pair_ref")
        decl = sig.info("ref").decl
        assert check_adt_constructor(sig, decl, decl.ctors[0].arg).accepted


class TestGadtConstructors:
    def test_expr_accepted(self):
        vs = verdicts_by_name(get_sig("expr"))
        assert all(v.accepted for v in vs.values())
        assert len(vs) == 4

    def test_expr_rejected_without_product_closure(self):
        vs = verdicts_by_name(get_sig("expr", "none"))
        assert not vs["expr.Prod"].accepted
        assert not vs["expr.Int"].accepted

    def test_expr_accepted_under_ml_open(self):
        vs = verdicts_by_name(get_sig("expr", "ml-open"))
        assert all(v.accepted for v in vs.values())

    def test_eq_covariant_rejected_with_zip_diagnosis(self):
        vs = verdicts_by_name(get_sig("eq_cov"))
        verdict = vs["eq.Refl"]
        assert not verdict.accepted
        assert verdict.empty_vars == ("g",)
        assert "zip(+, =) undefined" in verdict.reason

    def test_eq_invariant_accepted(self):
        vs = verdicts_by_name(get_sig("eq_inv"))
        verdict = vs["eq.Refl"]
        assert verdict.accepted
        assert verdict.gamma == VarianceContext([("g", INV)])

    def test_subtyping_constraint_expr_accepted_in_every_preset(self):
        for preset in ("atomic", "ml-open", "none"):
            vs = verdicts_by_name(get_sig("expr_sup", preset))
            assert all(v.accepted for v in vs.values()), preset

    def test_sink_with_upper_bound_accepted(self):
        vs = verdicts_by_name(get_sig("sink_sub"))
        verdict = vs["sink.S"]
        assert verdict.accepted
        assert verdict.gammas[0]["b"] in (CONTRA, INV)

    def test_private_world_rejection(self):
        vs = verdicts_by_name(get_sig("private_fd"))
        assert not vs["t.K"].accepted
        assert "not +-closed" in vs["t.K"].reason

    def test_mixed_constraint_relations(self):
        sig = parse_signature(
            "base int\n"
            "type (+'a, +'b) both = K : 'g 'h ['a = 'g, 'b >= 'h]. "
            "'g * 'h\n")
        compute_closure_flags(sig, "atomic")
        vs = verdicts_by_name(sig)
        assert vs["both.K"].accepted

    def test_sc_triv_shortcut_for_sup_constraints(self):
        # All-covariant parameters with lower-bound constraints are
        # accepted as soon as the all-covariant context types the
        # argument covariantly.
        sig = get_sig("expr_sup")
        decl = sig.info("expr").decl
        for k in decl.ctors:
            verdict = check_gadt_constructor(sig, decl, k)
            assert verdict.accepted
            norm = verdict.normalized
            all_cov = const_ctx(norm.exist_vars, COV)
            if check_variance(sig, all_cov, norm.arg, COV):
                assert verdict.accepted


class TestWitnesses:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_accepted_witnesses_reverify(self, name):
        sig = get_sig(name)
        for decl in sig.datatypes():
            for k in decl.ctors:
                if k.form == FORM_ADT:
                    continue
                verdict = check_gadt_constructor(sig, decl, k)
                if verdict.accepted:
                    assert verify_witnesses(sig, decl, verdict)

    def test_witness_order_prefers_informative(self):
        vs = verdicts_by_name(get_sig("expr"))
        # Thunk's search hits the invariant entry first for 'b.
        assert vs["expr.Thunk"].gamma == VarianceContext(
            [("b", INV), ("c", COV)])


class TestModeAgreement:
    @pytest.mark.parametrize("name", CORPUS_FILES)
    @pytest.mark.parametrize("preset", ["atomic", "ml-open", "none"])
    def test_fast_agrees_with_exact(self, name, preset):
        sig = get_sig(name, preset)
        fast = {k: v.accepted for k, v in verdicts_by_name(sig, "fast").items()}
        exact = {k: v.accepted for k, v in verdicts_by_name(sig, "exact").items()}
        assert fast == exact

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_exact_agrees_with_bruteforce(self, name):
        sig = get_sig(name)
        for decl in sig.datatypes():
            for k in decl.ctors:
                expected = check_gadt_constructor_bruteforce(sig, decl, k)
                got = check_gadt_constructor(sig, decl, k).accepted
                assert got == expected, f"{decl.name}.{k.name}"

    @pytest.mark.parametrize("name", CORPUS_FILES)
    def test_adt_path_agrees_with_criterion(self, name):
        # Plain constructors run through well-signedness; the criterion
        # on their normalized forms must agree.
        sig = get_sig(name)
        for decl in sig.datatypes():
            for k in decl.ctors:
                if k.form != FORM_ADT:
                    continue
                adt = check_adt_constructor(sig, decl, k.arg).accepted
                gadt = check_gadt_constructor(sig, decl, k).accepted
                assert adt == gadt, f"{decl.name}.{k.name}"


class TestReport:
    def test_declaration_order(self):
        sig = get_sig("ml_open_demo")
        names = [f"{v.datatype}.{v.ctor}"
                 for v in check_signature(sig).verdicts]
        assert names == ["pos.P", "pos.Q", "box.B"]

    def test_empty_signature(self):
        sig = parse_signature("base int\n")
        compute_closure_flags(sig, "atomic")
        report = check_signature(sig)
        assert report.verdicts == [] and report.ok


def wide_signature(family: str, m: int):
    """One constructor over m existential variables 'v0 .. 'v(m-1), in
    one of five shapes whose verdict under the atomic preset is fixed by
    construction (the same shapes as the check-wide benchmark)."""
    vs = [f"v{i}" for i in range(m)]
    half = m // 2

    def prod(names):
        return " * ".join(f"'{v}" for v in names)

    params, bounds, arg = {
        "eq-product": ("+'a", f"'a = {prod(vs)}", prod(vs)),
        "eq-split": ("+'a, +'b",
                     f"'a = {prod(vs[:half])}, 'b = {prod(vs[half:])}",
                     prod(vs)),
        "eq-shared-inv": ("='a, ='b", f"'a = {prod(vs)}, 'b = {prod(vs)}",
                          prod(vs)),
        "eq-contra-arg": ("+'a", f"'a = {prod(vs)}",
                          f"('{vs[0]} -> unit) * {prod(vs[1:])}"),
        "eq-shared-cov": ("+'a, +'b",
                          f"'a = {prod(vs[:half + 1])}, "
                          f"'b = {prod(vs[half:])}",
                          prod(vs)),
    }[family]
    binders = " ".join(f"'{v}" for v in vs)
    sig = parse_signature(f"type ({params}) w =\n"
                          f"  | K : {binders} [{bounds}]. {arg}\n")
    compute_closure_flags(sig, "atomic")
    return sig, vs


class TestWideScaling:
    """Exact mode on many existential variables: the verdicts fixed by
    construction and the closed-form first witnesses."""

    @pytest.mark.parametrize("m", [8, 10])
    def test_accepted_shapes_and_witnesses(self, m):
        def entries(vs, v):
            return VarianceContext((name, v) for name in vs)

        sig, vs = wide_signature("eq-product", m)
        verdict = verdicts_by_name(sig)["w.K"]
        assert verdict.accepted
        assert verdict.gamma == entries(vs, COV)
        assert verdict.gammas == (entries(vs, COV),)

        sig, vs = wide_signature("eq-split", m)
        verdict = verdicts_by_name(sig)["w.K"]
        half = m // 2
        assert verdict.accepted
        assert verdict.gamma == entries(vs, COV)
        assert verdict.gammas == (
            VarianceContext((v, COV if i < half else IRR)
                            for i, v in enumerate(vs)),
            VarianceContext((v, IRR if i < half else COV)
                            for i, v in enumerate(vs)))

        sig, vs = wide_signature("eq-shared-inv", m)
        verdict = verdicts_by_name(sig)["w.K"]
        assert verdict.accepted
        assert verdict.gamma == entries(vs, INV)
        assert verdict.gammas == (entries(vs, INV), entries(vs, INV))

    @pytest.mark.parametrize("m", [8, 10])
    @pytest.mark.parametrize("family", ["eq-contra-arg", "eq-shared-cov"])
    def test_rejected_shapes(self, family, m):
        sig, _ = wide_signature(family, m)
        for mode in ("fast", "exact"):
            verdict = verdicts_by_name(sig, mode)["w.K"]
            assert not verdict.accepted and verdict.gammas is None


class TestRepeatedVariable:
    def test_bound_using_a_variable_twice_is_a_rejection(self):
        # 'x occurs twice at + in the bound; zip(+, +) is undefined, so
        # no variance of 'x derives the constraint.
        sig = parse_signature("type (+'a) t =\n  | K : 'x ['a = 'x * 'x]. 'x\n")
        compute_closure_flags(sig, "atomic")
        for mode in ("fast", "exact"):
            verdict = verdicts_by_name(sig, mode)["t.K"]
            assert not verdict.accepted
            assert verdict.reason == ("variable 'x: no variance of it "
                                      "derives constraint 'a = 'x * 'x")
            assert verdict.failing_constraint == 0
