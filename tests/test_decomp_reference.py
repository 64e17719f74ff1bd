"""Exact mode against a reference: the enumerative decomposability
engine, which lists every variance tuple over the domain and zips the
sets pairwise, and the search that walks context families in
`itertools.product` order.  Kept here as the specification that the box
engine and the first-family search must reproduce: the same deriving
contexts, the same witnesses and the same derivations.  Whole verdicts
are also compared with a reference that runs the fast analysis first and
the enumerative search only after a fast acceptance: exact mode now
decides first, and its verdicts, reasons and witnesses must not change.

`check_gadt_constructor_bruteforce` calls `DecompEngine.check`, so
criterion 8 does not test the engine by itself; this file does.
"""
from __future__ import annotations

import itertools
from typing import Optional

from hypothesis import given, seed, settings, strategies as st

from vgadt.checker import (
    PRESETS,
    DecompEngine,
    Derivation,
    check_variance,
    compute_closure_flags,
    derive_variance,
    is_closed,
    variance_sets,
)
from vgadt.criterion import (
    Verdict,
    _analyze,
    _rejection_reason,
    check_gadt_constructor,
    target_variance,
)
from vgadt.syntax import (
    App,
    Constraint,
    ConstraintRel,
    DataConstructorDecl,
    DatatypeDecl,
    FORM_CONSTRAINED,
    TypeExpr,
    Var,
    arrow,
    normalize_constructor,
    parse_signature,
    product,
    render_type,
)
from vgadt.variance import (
    ALL_VARIANCES,
    COV,
    IRR,
    VarianceContext,
    compose,
    ctx_zip_all,
    var_leq,
    zip_var,
)

PRELUDE = """\
base int
base bool
subbase bool <= int
private pint = int

type (='a) ref =
  | Mk of 'a -> 'a

type (+'a) list =
  | Nil of unit
  | Cons of 'a * 'a list

type (-'a) sink =
  | S of 'a -> unit

type (~'a) phantom =
  | P of unit
"""

def _signature(preset: str):
    sig = parse_signature(PRELUDE)
    compute_closure_flags(sig, preset)
    return sig


SIGS = {preset: _signature(preset) for preset in PRESETS}


def _zip_tuples(a, b):
    out = []
    for x, y in zip(a, b):
        z = zip_var(x, y)
        if z is None:
            return None
        out.append(z)
    return tuple(out)


class Reference:
    """The deriving contexts of every subterm as explicit sets of
    variance tuples, built rule by rule."""

    def __init__(self, sig, domain):
        self.sig = sig
        self.domain = tuple(domain)
        self.tuples = list(itertools.product(ALL_VARIANCES,
                                             repeat=len(self.domain)))
        self.memo = {}

    def valid_set(self, t: TypeExpr, v, v2) -> frozenset:
        key = (t, v, v2)
        if key in self.memo:
            return self.memo[key]
        out = set()
        if var_leq(v2, v):
            sets = variance_sets(self.sig, t, v, self.domain)
            per_var = [sets[name] for name in self.domain]
            out.update(tup for tup in self.tuples
                       if all(x in s for x, s in zip(tup, per_var)))
        if isinstance(t, Var):
            idx = self.domain.index(t.name)
            out.update(tup for tup in self.tuples if tup[idx] is v)
        elif is_closed(self.sig, t.ctor, v):
            if not t.args:
                out.update(self.tuples)
            else:
                states = {tuple(IRR for _ in self.domain)}
                for a, w in zip(t.args, self.sig.variances(t.ctor)):
                    child = self.valid_set(a, compose(v, w), compose(v2, w))
                    states = {z for s in states for c in child
                              if (z := _zip_tuples(s, c)) is not None}
                out.update(states)
        self.memo[key] = frozenset(out)
        return self.memo[key]

    def ordered(self, t, v, v2) -> list:
        members = self.valid_set(t, v, v2)
        return [tup for tup in self.tuples if tup in members]

    def family(self, d, norm) -> Optional[tuple]:
        """(gamma, gammas) of the first family in product order."""
        varis = d.param_variances()
        candidates = [
            [VarianceContext(zip(self.domain, tup))
             for tup in self.ordered(c.bound, varis[c.param],
                                     target_variance(c.rel))]
            for c in norm.constraints]
        for family in itertools.product(*candidates):
            gamma = ctx_zip_all(family, self.domain)
            if gamma is not None and check_variance(self.sig, gamma,
                                                    norm.arg, COV):
                return gamma, tuple(family)
        return None

    def derive(self, g, t, v, v2) -> Optional[Derivation]:
        if g.variances() not in self.valid_set(t, v, v2):
            return None
        judgment = f"{g} |- {render_type(t)} : {v} => {v2}"
        if var_leq(v2, v) and check_variance(self.sig, g, t, v):
            sub = derive_variance(self.sig, g, t, v)
            return Derivation("sc-Triv", f"{judgment}   ({v2} <= {v})", (sub,))
        if isinstance(t, Var):
            return Derivation("sc-Var", f"{judgment}   ({g[t.name]} = {v})")
        ws = self.sig.variances(t.ctor)
        if not t.args:
            return Derivation(
                "sc-Constr",
                f"{judgment}   ({t.ctor} is {v}-closed, no arguments)")
        subs = [(a, compose(v, w), compose(v2, w))
                for a, w in zip(t.args, ws)]
        for combo in itertools.product(*(self.ordered(*s) for s in subs)):
            acc = tuple(IRR for _ in self.domain)
            for tup in combo:
                acc = acc and _zip_tuples(acc, tup)
            if acc == g.variances():
                return Derivation(
                    "sc-Constr", f"{judgment}   ({t.ctor} is {v}-closed)",
                    tuple(self.derive(VarianceContext(zip(self.domain, tup)),
                                      *s) for tup, s in zip(combo, subs)))
        return None


def types(names: tuple[str, ...],
          unary: tuple[str, ...] = ("ref", "list", "sink", "phantom")):
    """Types over the variables `names`, the constants of PRELUDE, the
    product and the arrow, and the unary datatypes `unary`."""
    leaves = st.sampled_from(
        [Var(n) for n in names]
        + [App(c, ()) for c in ("int", "bool", "pint", "unit")])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(product, sub, sub),
        st.builds(arrow, sub, sub),
        *(st.builds(lambda a, c=c: App(c, (a,)), sub)
          for c in unary)),
        max_leaves=5)


#: Type strategies per number of existential variables, built once.
NAMES = [tuple(f"x{i}" for i in range(m)) for m in range(4)]
TYPES = [types(names) for names in NAMES]


@st.composite
def constructors(draw):
    """(preset, datatype, constructor) over at most 3 existential
    variables, with 1-3 constraints of mixed relations."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3))
    params = tuple((f"p{i}", draw(st.sampled_from(ALL_VARIANCES)))
                   for i in range(n))
    constraints = tuple(
        Constraint(i, draw(st.sampled_from(list(ConstraintRel))),
                   draw(TYPES[m]))
        for i in range(n))
    k = DataConstructorDecl("K", FORM_CONSTRAINED, NAMES[m], constraints,
                            draw(TYPES[m]))
    return (draw(st.sampled_from(PRESETS)), DatatypeDecl("t", params, (k,)),
            k)


def subterms(t: TypeExpr):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(constructors())
def test_boxes_equal_reference_sets(case):
    preset, d, k = case
    sig = SIGS[preset]
    norm = normalize_constructor(d, k)
    engine = DecompEngine(sig, norm.exist_vars)
    ref = Reference(sig, norm.exist_vars)
    terms = {s for c in norm.constraints for s in subterms(c.bound)}
    terms |= set(subterms(norm.arg))
    contexts = [VarianceContext(zip(norm.exist_vars, tup))
                for tup in ref.tuples]
    for t in terms:
        for v in ALL_VARIANCES:
            for v2 in ALL_VARIANCES:
                got = {g.variances() for g in contexts
                       if engine.check(g, t, v, v2)}
                assert got == ref.valid_set(t, v, v2), (render_type(t), v, v2)


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(constructors())
def test_witnesses_and_derivations_equal_reference(case):
    preset, d, k = case
    sig = SIGS[preset]
    norm = normalize_constructor(d, k)
    verdict = check_gadt_constructor(sig, d, k, "exact")
    ref = Reference(sig, norm.exist_vars)
    want = ref.family(d, norm)
    assert verdict.accepted == (want is not None)
    if want is None:
        return
    assert (verdict.gamma, verdict.gammas) == want
    engine = DecompEngine(sig, norm.exist_vars)
    varis = d.param_variances()
    for gi, c in zip(verdict.gammas, norm.constraints):
        args = (c.bound, varis[c.param], target_variance(c.rel))
        assert engine.derive(gi, *args) == ref.derive(gi, *args)


def reference_verdict(sig, d, k, mode: str) -> Verdict:
    """The verdict with the fast analysis run first: its rejection reason
    when it rejects, else the fast acceptance or the enumerative exact
    search."""
    norm = normalize_constructor(d, k)
    domain = norm.exist_vars
    fa = _analyze(sig, d, norm, variance_sets(sig, norm.arg, COV, domain))
    if not fa.accepted:
        reason, failing, empty = _rejection_reason(sig, d, norm, fa)
        return Verdict(d.name, k.name, False, mode, reason=reason,
                       empty_vars=empty, failing_constraint=failing,
                       normalized=norm)
    if mode == "fast":
        return Verdict(d.name, k.name, True, "fast", normalized=norm,
                       arg=norm.arg)
    ref = Reference(sig, domain)
    varis = d.param_variances()
    for i, c in enumerate(norm.constraints):
        if not ref.valid_set(c.bound, varis[c.param], target_variance(c.rel)):
            label = (f"'{d.param_names()[c.param]} {c.rel.value} "
                     f"{render_type(c.bound)}")
            return Verdict(d.name, k.name, False, "exact",
                           reason=f"constraint {label}: no context derives it",
                           failing_constraint=i, normalized=norm)
    found = ref.family(d, norm)
    if found is None:
        return Verdict(d.name, k.name, False, "exact",
                       reason=("no zip-compatible family of contexts "
                               "(per-variable sets over-approximate)"),
                       normalized=norm)
    gamma, gammas = found
    return Verdict(d.name, k.name, True, "exact", gamma=gamma, gammas=gammas,
                   normalized=norm, arg=norm.arg)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(constructors())
def test_verdicts_equal_fast_first_reference(case):
    preset, d, k = case
    sig = SIGS[preset]
    for mode in ("fast", "exact"):
        assert (check_gadt_constructor(sig, d, k, mode)
                == reference_verdict(sig, d, k, mode)), mode
