"""Syntactic judgments over type expressions.

Two judgment families live here.  Variance checking decides whether a
type expression varies along `v` when its variables vary along a
context; it is monotone in the context, admits principal (pointwise
minimal) contexts, and per-variable *sets* of admissible variances are
exact because every occurrence constrains one variable independently.

Decomposability additionally asks that a supertype (subtype) of an
instance can be traced back to an instance over related arguments.  It
is decided rule-directed: a trivial rule when the target relation is
implied, a strict-equality variable rule, and a constructor rule that
requires the head to be closed for the queried variance and merges the
sub-derivation contexts with the partial zip operation.  Because the
judgment is not monotone in the context, the engine materializes the
exact set of deriving contexts per subterm (contexts over a finite
domain form a finite space) and memoizes it.

Closure flags record which constructors are v-closed under a chosen
world assumption (preset), with private-type edges and strict base-order
edges removing flags, and explicit `closed` declarations adding them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .syntax import (
    App,
    Diagnostic,
    Signature,
    SignatureError,
    TypeExpr,
    Var,
    free_vars_ordered,
    mentioned_ctors,
    render_type,
)
from .variance import (
    ALL_VARIANCES,
    CONTRA,
    COV,
    INV,
    IRR,
    Variance,
    VarianceContext,
    compose,
    up_set,
    var_leq,
    var_lub,
    zip_var,
)

PRESETS = ("atomic", "ml-open", "none")


# ---------------------------------------------------------------------------
# Variance checking


def check_variance(sig: Signature, g: VarianceContext, t: TypeExpr,
                   v: Variance) -> bool:
    """Is the judgment `g |- t : v` derivable?"""
    if isinstance(t, Var):
        return var_leq(v, g[t.name])
    assert isinstance(t, App)
    ws = sig.variances(t.ctor)
    return all(check_variance(sig, g, a, compose(v, w))
               for a, w in zip(t.args, ws))


def _occurrence_requirements(sig: Signature, t: TypeExpr, v: Variance,
                             acc: dict[str, Variance]) -> None:
    if isinstance(t, Var):
        acc[t.name] = var_lub(acc.get(t.name, IRR), v)
        return
    assert isinstance(t, App)
    for a, w in zip(t.args, sig.variances(t.ctor)):
        _occurrence_requirements(sig, a, compose(v, w), acc)


def principal_context(sig: Signature, t: TypeExpr, v: Variance,
                      domain: Optional[Sequence[str]] = None) -> VarianceContext:
    """The pointwise-minimal context deriving `_ |- t : v`.

    Each occurrence of a variable at composed variance u requires its
    entry to sit above u, so the minimum is the join of the occurrence
    requirements; variables without occurrences stay at the bottom.
    """
    if domain is None:
        domain = free_vars_ordered(t)
    acc: dict[str, Variance] = {}
    _occurrence_requirements(sig, t, v, acc)
    return VarianceContext((name, acc.get(name, IRR)) for name in domain)


def variance_sets(sig: Signature, t: TypeExpr, v: Variance,
                  domain: Optional[Sequence[str]] = None
                  ) -> dict[str, frozenset[Variance]]:
    """Per-variable admissible variances for `_ |- t : v`.

    Exact: a context derives the judgment iff each entry lies in its
    variable's set (the upward closure of the principal entry).
    """
    principal = principal_context(sig, t, v, domain)
    return {name: up_set(w) for name, w in principal.entries}


# ---------------------------------------------------------------------------
# Closure flags


def _strict_edges(sig: Signature) -> tuple[set[str], set[str]]:
    """Constructors with something strictly above / strictly below them,
    through private edges or the declared base order."""
    reach = sig.head_reach()
    has_above: set[str] = set()
    has_below: set[str] = set()
    for lo, outs in reach.items():
        for hi in outs:
            if hi != lo and lo not in reach.get(hi, {hi}):
                has_above.add(lo)
                has_below.add(hi)
    return has_above, has_below


def compute_closure_flags(sig: Signature, preset: str
                          ) -> dict[str, frozenset[Variance]]:
    """Assign per-constructor closure flags for a world assumption.

    atomic: every constructor is {+,-,=}-closed, except that an edge
    placing t' strictly below t strips `+` and `=` from t' and `-` and
    `=` from t.  ml-open: nothing is downward-closed or =-closed;
    upward closure holds for products and unaffected bases, and for
    datatypes whose constructor argument types mention only
    upward-closed constructors (greatest fixpoint); arrows are never
    upward-closed.  none: no flags at all.  Explicit `closed`
    declarations then add flags; adding a flag stripped by an edge is an
    error.

    The computed table is recorded on the signature and read through
    `is_closed`.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown closure preset {preset!r}")
    has_above, has_below = _strict_edges(sig)
    stripped: dict[str, set[Variance]] = {name: set() for name in sig.ctors}
    for name in sig.ctors:
        if name in has_above:
            stripped[name] |= {COV, INV}
        if name in has_below:
            stripped[name] |= {CONTRA, INV}

    flags: dict[str, set[Variance]] = {}
    if preset == "atomic":
        for name in sig.ctors:
            flags[name] = {COV, CONTRA, INV} - stripped[name]
    elif preset == "none":
        for name in sig.ctors:
            flags[name] = set()
    else:  # ml-open
        upward: set[str] = set()
        for name, info in sig.ctors.items():
            if name == "->":
                continue
            if COV in stripped[name]:
                continue
            upward.add(name)
        # Datatypes keep upward closure only if every constructor
        # argument type mentions only upward-closed constructors.
        changed = True
        while changed:
            changed = False
            for decl in sig.datatypes():
                if decl.name not in upward:
                    continue
                mentions = set()
                for k in decl.ctors:
                    mentions |= mentioned_ctors(k.arg)
                if not mentions <= upward:
                    upward.discard(decl.name)
                    changed = True
        for name in sig.ctors:
            flags[name] = {COV} if name in upward else set()

    diags: list[Diagnostic] = []
    for v, name in sig.closed_decls:
        if v in stripped.get(name, set()):
            line, col = sig.decl_pos.get(("closed", (v, name)), (0, 0))
            diags.append(Diagnostic(
                line, col,
                f"closed {v.value} {name}: contradicted by a private or "
                f"base-order edge"))
        else:
            flags.setdefault(name, set()).add(v)
    if diags:
        raise SignatureError(diags)

    table = {name: frozenset(fs) for name, fs in flags.items()}
    sig.closure_flags = table
    sig.preset = preset
    return table


def is_closed(sig: Signature, ctor: str, v: Variance) -> bool:
    """Is `ctor` v-closed under the computed flags?  IRR relates all
    types, so no constructor is ever IRR-closed."""
    if v is IRR:
        return False
    if sig.closure_flags is None:
        raise RuntimeError("closure flags not computed; "
                           "call compute_closure_flags first")
    if ctor not in sig.closure_flags:
        raise KeyError(f"unknown type constructor {ctor!r}")
    return v in sig.closure_flags[ctor]


# ---------------------------------------------------------------------------
# Decomposability

_VTuple = tuple[Variance, ...]


def _all_tuples(m: int) -> list[_VTuple]:
    return list(itertools.product(ALL_VARIANCES, repeat=m))


def _zip_tuples(a: _VTuple, b: _VTuple) -> Optional[_VTuple]:
    out = []
    for x, y in zip(a, b):
        z = zip_var(x, y)
        if z is None:
            return None
        out.append(z)
    return tuple(out)


@dataclass
class Derivation:
    """One node of a derivation tree, for diagnostics."""
    rule: str
    judgment: str
    children: tuple["Derivation", ...] = ()

    def lines(self, indent: int = 0) -> list[str]:
        out = [f"{'  ' * indent}[{self.rule}] {self.judgment}"]
        for c in self.children:
            out.extend(c.lines(indent + 1))
        return out


class DecompEngine:
    """Decides `g |- t : v => v2` over a fixed variable domain.

    For every subterm and variance pair the engine computes the exact
    set of contexts (as variance tuples over the domain) that derive the
    judgment, taking unions over the three rules; the constructor rule
    folds the children's sets through the zip operation.  Memoized per
    engine instance, so a checking run shares work across queries.
    """

    def __init__(self, sig: Signature, domain: Sequence[str]):
        self.sig = sig
        self.domain = tuple(domain)
        self._memo: dict[tuple[TypeExpr, Variance, Variance], frozenset[_VTuple]] = {}
        self._tuples = _all_tuples(len(self.domain))

    # -- exact context sets --------------------------------------------------

    def valid_set(self, t: TypeExpr, v: Variance, v2: Variance
                  ) -> frozenset[_VTuple]:
        key = (t, v, v2)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        out: set[_VTuple] = set()
        if var_leq(v2, v):
            # sc-Triv: any context that checks the variance alone.
            sets = variance_sets(self.sig, t, v, self.domain)
            per_var = [sets[name] for name in self.domain]
            out.update(
                tup for tup in self._tuples
                if all(x in s for x, s in zip(tup, per_var))
            )
        if isinstance(t, Var):
            # sc-Var: the entry must be exactly v; other entries are free.
            idx = self.domain.index(t.name)
            out.update(tup for tup in self._tuples if tup[idx] is v)
        else:
            assert isinstance(t, App)
            if is_closed(self.sig, t.ctor, v):
                ws = self.sig.variances(t.ctor)
                if not t.args:
                    # A v-closed constant type decomposes under every
                    # context: the witness can copy the input.
                    out.update(self._tuples)
                else:
                    states: set[_VTuple] = {tuple(IRR for _ in self.domain)}
                    for a, w in zip(t.args, ws):
                        child = self.valid_set(a, compose(v, w), compose(v2, w))
                        states = {
                            z
                            for s in states
                            for c in child
                            if (z := _zip_tuples(s, c)) is not None
                        }
                        if not states:
                            break
                    out.update(states)
        result = frozenset(out)
        self._memo[key] = result
        return result

    def valid_contexts(self, t: TypeExpr, v: Variance, v2: Variance
                       ) -> tuple[VarianceContext, ...]:
        """Deriving contexts in canonical order (variables in domain
        order, candidate variances in the order `= + - ~`)."""
        members = self.valid_set(t, v, v2)
        return tuple(
            VarianceContext(zip(self.domain, tup))
            for tup in self._tuples if tup in members
        )

    def check(self, g: VarianceContext, t: TypeExpr, v: Variance,
              v2: Variance) -> bool:
        if g.domain() != self.domain:
            raise ValueError("context domain does not match engine domain")
        return g.variances() in self.valid_set(t, v, v2)

    # -- derivation reconstruction -------------------------------------------

    def derive(self, g: VarianceContext, t: TypeExpr, v: Variance,
               v2: Variance) -> Optional[Derivation]:
        """Rebuild one derivation of `g |- t : v => v2` (None if not
        derivable).  Rule preference: sc-Triv, sc-Var, sc-Constr."""
        if not self.check(g, t, v, v2):
            return None
        judgment = f"{g} |- {render_type(t)} : {v} => {v2}"
        if var_leq(v2, v) and check_variance(self.sig, g, t, v):
            sub = derive_variance(self.sig, g, t, v)
            assert sub is not None
            return Derivation("sc-Triv", f"{judgment}   ({v2} <= {v})", (sub,))
        if isinstance(t, Var):
            return Derivation("sc-Var", f"{judgment}   ({g[t.name]} = {v})")
        assert isinstance(t, App)
        ws = self.sig.variances(t.ctor)
        if not t.args:
            return Derivation(
                "sc-Constr", f"{judgment}   ({t.ctor} is {v}-closed, no arguments)")
        child_sets = [
            self.valid_set(a, compose(v, w), compose(v2, w))
            for a, w in zip(t.args, ws)
        ]
        for combo in itertools.product(*(sorted(cs, key=self._tuples.index)
                                         for cs in child_sets)):
            acc: Optional[_VTuple] = tuple(IRR for _ in self.domain)
            for tup in combo:
                acc = _zip_tuples(acc, tup)
                if acc is None:
                    break
            if acc == g.variances():
                children = tuple(
                    self.derive(VarianceContext(zip(self.domain, tup)),
                                a, compose(v, w), compose(v2, w))
                    for tup, a, w in zip(combo, t.args, ws)
                )
                assert all(c is not None for c in children)
                return Derivation(
                    "sc-Constr", f"{judgment}   ({t.ctor} is {v}-closed)",
                    tuple(c for c in children if c is not None))
        return None


def check_decomp(sig: Signature, g: VarianceContext, t: TypeExpr,
                 v: Variance, v2: Variance) -> bool:
    """Is the decomposability judgment `g |- t : v => v2` derivable?"""
    return DecompEngine(sig, g.domain()).check(g, t, v, v2)


def derive_variance(sig: Signature, g: VarianceContext, t: TypeExpr,
                    v: Variance) -> Optional[Derivation]:
    """Rebuild the derivation of `g |- t : v` (None if not derivable)."""
    judgment = f"{g} |- {render_type(t)} : {v}"
    if isinstance(t, Var):
        if var_leq(v, g[t.name]):
            return Derivation("vc-Var", f"{judgment}   ({g[t.name]} >= {v})")
        return None
    assert isinstance(t, App)
    children = []
    for a, w in zip(t.args, sig.variances(t.ctor)):
        sub = derive_variance(sig, g, a, compose(v, w))
        if sub is None:
            return None
        children.append(sub)
    return Derivation("vc-Constr", judgment, tuple(children))


# ---------------------------------------------------------------------------
# Fast per-variable sets for decomposability

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
