"""Exact mode against a reference: the enumerative decomposability
engine, which lists every variance tuple over the domain and zips the
sets pairwise, and the search that walks context families in
`itertools.product` order.  Kept here as the specification that the box
engine and the first-family search must reproduce: the same deriving
contexts, the same witnesses and the same derivations.  Whole verdicts
are also compared with a reference that runs a set-based per-variable
analysis first (`decomp_sets` over frozensets, as the checker once
computed it, copied below) and the enumerative search only after that
analysis accepts: its verdicts, reasons and witnesses must not change.

The enumerative engine also states the lemma the checker rests on: every
judgment's deriving contexts are one box, the product of their
per-variable projections.

`check_gadt_constructor_bruteforce` calls `DecompEngine.check`, so
criterion 8 does not test the engine by itself; this file does.  A
second strategy, `wide_constructors`, draws up to 8 variables and 12
leaves a type, where the enumerative engine would list 4^8 tuples; there
the engine is compared with the set-based analysis only.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from hypothesis import given, seed, settings, strategies as st

from vgadt import checker
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
    check_gadt_constructor,
    target_variance,
    verify_witnesses,
)
from vgadt.syntax import (
    App,
    Constraint,
    ConstraintRel,
    DataConstructorDecl,
    DatatypeDecl,
    FORM_CONSTRAINED,
    Signature,
    TypeExpr,
    Var,
    arrow,
    free_vars_ordered,
    normalize_constructor,
    parse_signature,
    product,
    render_type,
)
from vgadt.variance import (
    ALL_VARIANCES,
    COV,
    IRR,
    Variance,
    VarianceContext,
    compose,
    ctx_zip_all,
    render_variance_set,
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
          unary: tuple[str, ...] = ("ref", "list", "sink", "phantom"),
          max_leaves: int = 5):
    """Types over the variables `names`, the constants of PRELUDE, the
    product and the arrow, and the unary datatypes `unary`, with at most
    `max_leaves` leaves."""
    leaves = st.sampled_from(
        [Var(n) for n in names]
        + [App(c, ()) for c in ("int", "bool", "pint", "unit")])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(product, sub, sub),
        st.builds(arrow, sub, sub),
        *(st.builds(lambda a, c=c: App(c, (a,)), sub)
          for c in unary)),
        max_leaves=max_leaves)


#: Type strategies per number of existential variables, built once.
NAMES = [tuple(f"x{i}" for i in range(m)) for m in range(4)]
TYPES = [types(names) for names in NAMES]


def _constructor(draw, names: tuple[str, ...], types_):
    """(preset, datatype, constructor) binding `names`, with 1-3
    constraints of mixed relations, bounds and argument drawn from
    `types_`."""
    n = draw(st.integers(1, 3))
    params = tuple((f"p{i}", draw(st.sampled_from(ALL_VARIANCES)))
                   for i in range(n))
    constraints = tuple(
        Constraint(i, draw(st.sampled_from(list(ConstraintRel))),
                   draw(types_))
        for i in range(n))
    k = DataConstructorDecl("K", FORM_CONSTRAINED, names, constraints,
                            draw(types_))
    return (draw(st.sampled_from(PRESETS)), DatatypeDecl("t", params, (k,)),
            k)


@st.composite
def constructors(draw):
    """(preset, datatype, constructor) over at most 3 existential
    variables, with 1-3 constraints of mixed relations."""
    m = draw(st.integers(0, 3))
    return _constructor(draw, NAMES[m], TYPES[m])


#: Wider and deeper: 4-8 existential variables, up to 12 leaves a type.
WIDE_NAMES = {m: tuple(f"x{i}" for i in range(m)) for m in range(4, 9)}
WIDE_TYPES = {m: types(names, max_leaves=12)
              for m, names in WIDE_NAMES.items()}


@st.composite
def wide_constructors(draw):
    """As `constructors`, over 4-8 existential variables and types of up
    to 12 leaves, so that sc-Triv meets long chains of nested heads."""
    m = draw(st.integers(4, 8))
    return _constructor(draw, WIDE_NAMES[m], WIDE_TYPES[m])


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
                want = ref.valid_set(t, v, v2)
                got = {g.variances() for g in contexts
                       if engine.check(g, t, v, v2)}
                assert got == want, (render_type(t), v, v2)
                # The lemma: the deriving contexts are one box.
                projections = [{tup[i] for tup in want}
                               for i in range(len(ref.domain))]
                assert not want or want == set(
                    itertools.product(*projections)), (render_type(t), v, v2)


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


# ---------------------------------------------------------------------------
# The set-based per-variable analysis, as the checker computed it before
# decomposability was kept as one box per judgment.

SetMap = dict[str, frozenset[Variance]]

_FULL = frozenset(ALL_VARIANCES)


def _zip_combine(sets: Iterable[frozenset[Variance]]) -> frozenset[Variance]:
    acc: frozenset[Variance] = frozenset({IRR})
    for s in sets:
        acc = frozenset(
            z for x in acc for y in s if (z := zip_var(x, y)) is not None
        )
        if not acc:
            break
    return acc


def _union_maps(a: Optional[SetMap], b: Optional[SetMap],
                domain: Sequence[str]) -> Optional[SetMap]:
    if a is None:
        return b
    if b is None:
        return a
    return {name: a[name] | b[name] for name in domain}


def decomp_sets(sig: Signature, t: TypeExpr, v: Variance, v2: Variance,
                domain: Optional[Sequence[str]] = None) -> Optional[SetMap]:
    """Per-variable variance sets for the decomposability judgment.

    None means no context at all derives the judgment.  A variable may
    be mapped to the empty set when the zip of its per-child sets dies,
    which equally means no context exists.  The map over-approximates
    the exact deriving-context set (the union over rules of per-variable
    products need not be a product), so it is a pruning filter; the
    exact engine stays authoritative.  Variables absent from a subterm
    carry the full set there.
    """
    if domain is None:
        domain = free_vars_ordered(t)
    domain = tuple(domain)

    triv: Optional[SetMap] = None
    if var_leq(v2, v):
        triv = variance_sets(sig, t, v, domain)

    rule: Optional[SetMap]
    if isinstance(t, Var):
        rule = {name: (frozenset({v}) if name == t.name else _FULL)
                for name in domain}
    else:
        assert isinstance(t, App)
        if not is_closed(sig, t.ctor, v):
            rule = None
        elif not t.args:
            rule = {name: _FULL for name in domain}
        else:
            ws = sig.variances(t.ctor)
            children = [
                decomp_sets(sig, a, compose(v, w), compose(v2, w), domain)
                for a, w in zip(t.args, ws)
            ]
            if any(c is None for c in children):
                rule = None
            else:
                rule = {
                    name: _zip_combine(c[name] for c in children)  # type: ignore[index]
                    for name in domain
                }
    return _union_maps(triv, rule, domain)


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


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(constructors())
def test_decomp_sets_equal_set_based_reference(case):
    preset, d, k = case
    sig = SIGS[preset]
    norm = normalize_constructor(d, k)
    terms = {s for c in norm.constraints for s in subterms(c.bound)}
    terms |= set(subterms(norm.arg))
    for t in terms:
        for v in ALL_VARIANCES:
            for v2 in ALL_VARIANCES:
                want = decomp_sets(sig, t, v, v2, norm.exist_vars)
                assert (checker.decomp_sets(sig, t, v, v2, norm.exist_vars)
                        == want), (render_type(t), v, v2)
                assert (checker.decomp_sets(sig, t, v, v2)
                        == decomp_sets(sig, t, v, v2)), (render_type(t), v, v2)


@seed(20261024)
@settings(max_examples=300, deadline=None, database=None)
@given(wide_constructors())
def test_wide_constructors_equal_set_based_reference(case):
    """The box engine against the set-based analysis on every subterm
    and variance pair, fast verdicts against the fast-first reference,
    and every exact acceptance against its own witnesses.  The exact
    reference enumerates 4^m tuples, so it is not run here."""
    preset, d, k = case
    sig = SIGS[preset]
    norm = normalize_constructor(d, k)
    terms = {s for c in norm.constraints for s in subterms(c.bound)}
    terms |= set(subterms(norm.arg))
    for t in terms:
        for v in ALL_VARIANCES:
            for v2 in ALL_VARIANCES:
                assert (checker.decomp_sets(sig, t, v, v2, norm.exist_vars)
                        == decomp_sets(sig, t, v, v2, norm.exist_vars)), (
                    render_type(t), v, v2)
    fast = check_gadt_constructor(sig, d, k, "fast")
    assert fast == reference_verdict(sig, d, k, "fast")
    exact = check_gadt_constructor(sig, d, k, "exact")
    assert exact.accepted == fast.accepted
    assert not exact.accepted or verify_witnesses(sig, d, exact)
