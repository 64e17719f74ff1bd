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

Both modes read one box of deriving contexts per constraint from the
decomposability engine: the deriving contexts of a judgment always form
a box, so intersecting the per-variable sets is exact, and the two
modes give the same verdicts and rejection reasons.  Exact mode, the
verdict of record, also picks the first family of contexts from the
boxes and records it as re-verifiable witnesses.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional

from .checker import (
    DecompEngine,
    check_variance,
    first_family,
    principal_context,
    variance_sets,
)
from .syntax import (
    ConstraintRel,
    DataConstructorDecl,
    DatatypeDecl,
    FORM_ADT,
    Signature,
    TypeExpr,
    normalize_constructor,
    render_constraint,
    render_type,
)
from .variance import (
    ALL_VARIANCES,
    CONTRA,
    COV,
    INV,
    IRR,
    MASK,
    ZIP_MASK,
    Box,
    Variance,
    VarianceContext,
    box_zip,
    ctx_zip_all,
    mask_set,
    render_variance_set,
    set_mask,
    up_set,
    var_leq,
)


_TARGETS = {ConstraintRel.EQ: INV, ConstraintRel.SUP: COV,
            ConstraintRel.SUB: CONTRA}


def target_variance(rel: ConstraintRel) -> Variance:
    """The decomposability target a constraint relation demands."""
    return _TARGETS[rel]


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
    principal = principal_context(sig, arg, COV, d.param_names())
    for (name, declared), need in zip(d.params, principal.variances()):
        if not var_leq(need, declared):
            return Verdict(d.name, "", False, "exact", reason=(
                f"parameter '{name} is declared {declared} but its "
                f"occurrences require one of "
                f"{render_variance_set(up_set(need))}"))
    return Verdict(d.name, "", True, "exact",
                   gamma=VarianceContext(d.params), arg=arg)


def _rejection(d: DatatypeDecl, norm: DataConstructorDecl,
               boxes: list[Optional[Box]], arg: Box
               ) -> Optional[tuple[str, Optional[int], tuple[str, ...]]]:
    """Why no context family satisfies the criterion, as (reason,
    failing constraint, empty variables); None when one does."""
    for i, (c, box) in enumerate(zip(norm.constraints, boxes)):
        if box is None:
            v = d.param_variances()[c.param]
            return (
                f"constraint {render_constraint(d, c)}: no context derives "
                f"decomposability from {v} to {target_variance(c.rel)} "
                f"(head of {render_type(c.bound)} is not {v}-closed)", i, ())
    domain = norm.exist_vars
    zipped = functools.reduce(box_zip, boxes, (MASK[IRR],) * len(domain))
    empty = tuple(a for a, z, t in zip(domain, zipped, arg) if not z & t)
    if not empty:
        return None
    a = empty[0]
    x = domain.index(a)
    if zipped[x]:
        return (f"variable '{a}: constraints admit "
                f"{render_variance_set(mask_set(zipped[x]))} but the argument "
                f"type requires {render_variance_set(mask_set(arg[x]))}",
                None, empty)
    # Replay the zip fold to the constraint where it dies.
    acc, i = MASK[IRR], 0
    while ZIP_MASK[acc][boxes[i][x]]:
        acc = ZIP_MASK[acc][boxes[i][x]]
        i += 1
    died = boxes[i][x]
    if not died:
        return (f"variable '{a}: no variance of it derives "
                f"constraint {render_constraint(d, norm.constraints[i])}",
                i, empty)
    u, w = (next(v for v in ALL_VARIANCES if m & MASK[v]) for m in (acc, died))
    return (f"variable '{a}: zip({u}, {w}) undefined across the constraints",
            i, empty)


def check_gadt_constructor(sig: Signature, d: DatatypeDecl,
                           k: DataConstructorDecl,
                           mode: str = "exact") -> Verdict:
    """Accept `k` iff some context family satisfies the criterion.

    Each constraint's deriving contexts are one box, so the
    per-variable test decides both modes.  Exact mode also records the
    first family, one deriving context per constraint, whose zip types
    the argument covariantly: first in product order over the
    constraints, variables in declaration order and candidates
    `= + - ~`.  `first_family` picks it column by column; it supplies
    the recorded witnesses.
    """
    if mode not in ("fast", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    norm = normalize_constructor(d, k)
    domain = norm.exist_vars
    sets = variance_sets(sig, norm.arg, COV, domain)
    arg = tuple(set_mask(sets[a]) for a in domain)
    engine = DecompEngine(sig, domain)
    varis = d.param_variances()
    boxes = [engine.box(c.bound, varis[c.param], target_variance(c.rel))
             for c in norm.constraints]
    rejection = _rejection(d, norm, boxes, arg)
    if rejection is not None:
        reason, failing, empty = rejection
        return Verdict(d.name, k.name, False, mode, reason=reason,
                       empty_vars=empty, failing_constraint=failing,
                       normalized=norm)
    if mode == "fast":
        return Verdict(d.name, k.name, True, "fast", normalized=norm, arg=norm.arg)
    family = first_family(boxes, arg)
    assert family is not None
    gammas = tuple(VarianceContext(zip(domain, g)) for g in family)
    return Verdict(d.name, k.name, True, "exact",
                   gamma=ctx_zip_all(gammas, domain), gammas=gammas,
                   normalized=norm, arg=norm.arg)


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
    arg = verdict.arg if norm is None else norm.arg
    if verdict.gamma is None or arg is None:
        return False
    if not check_variance(sig, verdict.gamma, arg, COV):
        return False
    if norm is None:
        # Plain constructors: the witness is the parameter context itself.
        return verdict.gamma == VarianceContext(d.params)
    gammas = verdict.gammas or ()
    if ctx_zip_all(gammas, norm.exist_vars) != verdict.gamma:
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
    for decl in sig.datatypes():
        for k in decl.ctors:
            if k.form == FORM_ADT:
                verdict = check_adt_constructor(sig, decl, k.arg)
                verdict.ctor = k.name
                verdict.mode = mode
            else:
                verdict = check_gadt_constructor(sig, decl, k, mode)
            report.verdicts.append(verdict)
    return report
