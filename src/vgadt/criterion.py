"""Soundness verdicts for datatype declarations.

A plain (unconstrained) constructor is accepted when its argument type
checks covariantly against the declared parameter context.  A
constrained constructor is accepted when some context over its
existential variables checks the argument type covariantly and splits,
through the zip operation, into one context per constraint that
decomposes the constraint's bound from the parameter's declared
variance down to the target dictated by the constraint relation
(equality targets invariance; `>=`/`<=` target covariance and
contravariance, which the trivial rule satisfies far more easily).

Fast mode intersects the per-variable variance sets; exact mode, the
verdict of record, picks the first family of contexts from the exact
deriving sets (unions of boxes) and records it as re-verifiable
witnesses.  Exact mode decides first and runs the fast analysis only to
explain a rejection: the per-variable sets over-approximate the exact
ones, so an exact acceptance implies a fast one, and a rejection keeps
the fast analysis's reason whenever that analysis rejects too.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .checker import (
    DecompEngine,
    SetMap,
    check_variance,
    decomp_sets,
    first_family,
    variance_sets,
    _zip_combine,
)
from .syntax import (
    Constraint,
    ConstraintRel,
    DataConstructorDecl,
    DatatypeDecl,
    FORM_ADT,
    Signature,
    TypeExpr,
    normalize_constructor,
    render_type,
)
from .variance import (
    ALL_VARIANCES,
    CONTRA,
    COV,
    INV,
    Variance,
    VarianceContext,
    ctx_zip_all,
    render_variance_set,
    set_mask,
)


def target_variance(rel: ConstraintRel) -> Variance:
    """The decomposability target a constraint relation demands."""
    if rel is ConstraintRel.EQ:
        return INV
    if rel is ConstraintRel.SUP:
        return COV
    return CONTRA


@dataclass
class Verdict:
    datatype: str
    ctor: str
    accepted: bool
    mode: str                                   # "fast" | "exact"
    gamma: Optional[VarianceContext] = None
    gammas: Optional[tuple[VarianceContext, ...]] = None
    reason: Optional[str] = None
    empty_vars: tuple[str, ...] = ()
    failing_constraint: Optional[int] = None
    normalized: Optional[DataConstructorDecl] = None
    arg: Optional[TypeExpr] = None          # checked argument, in gamma's scope

    def describe(self) -> str:
        if self.accepted:
            return f"{self.datatype}.{self.ctor}: accepted"
        text = f"{self.datatype}.{self.ctor}: rejected"
        if self.reason:
            text += f" -- {self.reason}"
        return text


@dataclass
class Report:
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.accepted for v in self.verdicts)


def check_adt_constructor(sig: Signature, d: DatatypeDecl,
                          arg: TypeExpr) -> Verdict:
    """Well-signedness of a plain constructor: the argument type must
    covary with the declared parameter variances."""
    g = VarianceContext(d.params)
    if check_variance(sig, g, arg, COV):
        return Verdict(d.name, "", True, "exact", gamma=g, arg=arg)
    sets = variance_sets(sig, arg, COV, d.param_names())
    reason = None
    for name, declared in d.params:
        if declared not in sets[name]:
            need = render_variance_set(sets[name])
            reason = (f"parameter '{name} is declared {declared} but its "
                      f"occurrences require one of {need}")
            break
    return Verdict(d.name, "", False, "exact", reason=reason)


def _constraint_label(d: DatatypeDecl, c: Constraint) -> str:
    return f"'{d.param_names()[c.param]} {c.rel.value} {render_type(c.bound)}"


@dataclass
class _FastAnalysis:
    """Per-variable set computation shared by both modes."""
    domain: tuple[str, ...]
    arg_sets: SetMap
    constraint_sets: list[Optional[SetMap]]
    zipped: Optional[SetMap]
    result: Optional[SetMap]
    dead_constraint: Optional[int]      # first constraint with a None map

    @property
    def empty_vars(self) -> tuple[str, ...]:
        if self.result is None:
            return ()
        return tuple(a for a in self.domain if not self.result[a])

    @property
    def accepted(self) -> bool:
        return (self.dead_constraint is None and self.result is not None
                and not self.empty_vars)


def _analyze(sig: Signature, d: DatatypeDecl, norm: DataConstructorDecl,
             arg_sets: SetMap) -> _FastAnalysis:
    domain = norm.exist_vars
    varis = d.param_variances()
    constraint_sets: list[Optional[SetMap]] = []
    dead = None
    for i, c in enumerate(norm.constraints):
        sets = decomp_sets(sig, c.bound, varis[c.param], target_variance(c.rel),
                           domain)
        constraint_sets.append(sets)
        if sets is None and dead is None:
            dead = i
    if dead is not None:
        return _FastAnalysis(domain, arg_sets, constraint_sets, None, None, dead)
    zipped: SetMap = {
        a: _zip_combine(s[a] for s in constraint_sets)  # type: ignore[index]
        for a in domain
    }
    result = {a: zipped[a] & arg_sets[a] for a in domain}
    return _FastAnalysis(domain, arg_sets, constraint_sets, zipped, result, None)


def _rejection_reason(sig: Signature, d: DatatypeDecl,
                      norm: DataConstructorDecl, fa: _FastAnalysis
                      ) -> tuple[Optional[str], Optional[int], tuple[str, ...]]:
    if fa.dead_constraint is not None:
        c = norm.constraints[fa.dead_constraint]
        v = d.param_variances()[c.param]
        return (
            f"constraint {_constraint_label(d, c)}: no context derives "
            f"decomposability from {v} to {target_variance(c.rel)} "
            f"(head of {render_type(c.bound)} is not {v}-closed)",
            fa.dead_constraint, ())
    empty = fa.empty_vars
    a = empty[0]
    assert fa.zipped is not None and fa.result is not None
    if not fa.zipped[a]:
        # Replay the zip fold to name the offending pair of variances.
        acc = frozenset({Variance.IRR})
        for i, sets in enumerate(fa.constraint_sets):
            assert sets is not None
            if not sets[a]:
                label = _constraint_label(d, norm.constraints[i])
                return (f"variable '{a}: no variance of it derives "
                        f"constraint {label}", i, empty)
            nxt = _zip_combine([acc, sets[a]])
            if not nxt:
                x = next(v for v in ALL_VARIANCES if v in acc)
                y = next(v for v in ALL_VARIANCES if v in sets[a])
                return (f"variable '{a}: zip({x}, {y}) undefined across "
                        f"the constraints", i, empty)
            acc = nxt
        return (f"variable '{a}: constraints admit no common variance", None, empty)
    return (
        f"variable '{a}: constraints admit {render_variance_set(fa.zipped[a])} but the "
        f"argument type requires {render_variance_set(fa.arg_sets[a])}",
        None, empty)


def _check_exact(sig: Signature, d: DatatypeDecl, norm: DataConstructorDecl,
                 arg_sets: SetMap) -> Verdict:
    """The exact-mode verdict, with the reasons only it can give."""
    domain = norm.exist_vars
    varis = d.param_variances()
    engine = DecompEngine(sig, domain)
    unions = []
    for i, c in enumerate(norm.constraints):
        boxes = engine.boxes(c.bound, varis[c.param], target_variance(c.rel))
        if not boxes:
            label = _constraint_label(d, c)
            return Verdict(
                d.name, norm.name, False, "exact",
                reason=f"constraint {label}: no context derives it",
                failing_constraint=i, normalized=norm)
        unions.append(boxes)
    family = first_family(unions, tuple(set_mask(arg_sets[a]) for a in domain))
    if family is None:
        return Verdict(d.name, norm.name, False, "exact",
                       reason=("no zip-compatible family of contexts "
                               "(per-variable sets over-approximate)"),
                       normalized=norm)
    gammas = tuple(VarianceContext(zip(domain, g)) for g in family)
    return Verdict(d.name, norm.name, True, "exact",
                   gamma=ctx_zip_all(gammas, domain), gammas=gammas,
                   normalized=norm, arg=norm.arg)


def check_gadt_constructor(sig: Signature, d: DatatypeDecl,
                           k: DataConstructorDecl,
                           mode: str = "exact") -> Verdict:
    """Accept `k` iff some context family satisfies the criterion.

    Fast mode decides from the per-variable sets alone.  Exact mode
    takes the first family, one deriving context per constraint, whose
    zip types the argument covariantly: first in product order over the
    constraints, variables in declaration order and candidates `= + - ~`.
    `first_family` picks it entry by entry from the constraints' unions
    of boxes; it supplies the recorded witnesses.  An exact rejection
    gives the fast analysis's reason when that analysis rejects too.
    """
    if mode not in ("fast", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    norm = normalize_constructor(d, k)
    arg_sets = variance_sets(sig, norm.arg, COV, norm.exist_vars)
    exact = None
    if mode == "exact":
        exact = _check_exact(sig, d, norm, arg_sets)
        if exact.accepted:
            return exact
    fa = _analyze(sig, d, norm, arg_sets)
    if not fa.accepted:
        reason, failing, empty = _rejection_reason(sig, d, norm, fa)
        return Verdict(d.name, k.name, False, mode, reason=reason,
                       empty_vars=empty, failing_constraint=failing,
                       normalized=norm)
    if exact is not None:
        return exact            # a rejection only exact mode finds
    return Verdict(d.name, k.name, True, "fast", normalized=norm, arg=norm.arg)


def check_gadt_constructor_bruteforce(sig: Signature, d: DatatypeDecl,
                                      k: DataConstructorDecl) -> bool:
    """Reference decision: enumerate every candidate gamma and context
    family over the existential variables without any set pruning."""
    norm = normalize_constructor(d, k)
    domain = norm.exist_vars
    varis = d.param_variances()
    engine = DecompEngine(sig, domain)
    all_ctxs = [VarianceContext(zip(domain, tup))
                for tup in itertools.product(ALL_VARIANCES, repeat=len(domain))]
    n = len(norm.constraints)
    for gamma in all_ctxs:
        if not check_variance(sig, gamma, norm.arg, COV):
            continue
        for family in itertools.product(all_ctxs, repeat=n):
            if ctx_zip_all(family, domain) != gamma:
                continue
            if all(engine.check(gi, c.bound, varis[c.param],
                                target_variance(c.rel))
                   for gi, c in zip(family, norm.constraints)):
                return True
    return False


def verify_witnesses(sig: Signature, d: DatatypeDecl, verdict: Verdict) -> bool:
    """Re-check an accepted exact verdict from its recorded witnesses."""
    if not (verdict.accepted and verdict.mode == "exact"):
        return False
    norm = verdict.normalized
    if norm is None or verdict.gamma is None:
        # Plain constructors: the witness is the parameter context itself.
        return verdict.gamma is not None
    gammas = verdict.gammas or ()
    if ctx_zip_all(gammas, norm.exist_vars) != verdict.gamma:
        return False
    if not check_variance(sig, verdict.gamma, norm.arg, COV):
        return False
    varis = d.param_variances()
    engine = DecompEngine(sig, norm.exist_vars)
    return all(
        engine.check(gi, c.bound, varis[c.param], target_variance(c.rel))
        for gi, c in zip(gammas, norm.constraints)
    )


def check_signature(sig: Signature, mode: str = "exact") -> Report:
    """One verdict per constructor of every datatype, in declaration
    order.  Plain constructors go through the well-signedness check;
    constrained and generalized-codomain constructors through the
    criterion."""
    report = Report()
    for kind, payload in sig.decl_order:
        if kind != "type":
            continue
        decl = sig.info(payload).decl
        assert decl is not None
        for k in decl.ctors:
            if k.form == FORM_ADT:
                verdict = check_adt_constructor(sig, decl, k.arg)
                verdict.ctor = k.name
                verdict.mode = mode
            else:
                verdict = check_gadt_constructor(sig, decl, k, mode)
            report.verdicts.append(verdict)
    return report
