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
sub-derivation contexts with the partial zip operation.  The judgment
is not monotone in the context, so the engine keeps the exact set of
deriving contexts per subterm as a union of boxes (one variance mask
per variable): every rule yields a box, and zip works per variable, so
the constructor rule zips the children's unions box by box.  Witness
families are picked from such unions one entry at a time
(`first_family`), without enumerating contexts.

Closure flags record which constructors are v-closed under a chosen
world assumption (preset), with private-type edges and strict base-order
edges removing flags, and explicit `closed` declarations adding them.
"""
from __future__ import annotations

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
    FULL_MASK,
    INV,
    IRR,
    MASK,
    ZIP_MASK,
    Box,
    Variance,
    VarianceContext,
    box_union,
    box_zip,
    compose,
    set_mask,
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

def first_family(unions: Sequence[Sequence[Box]], target: Box
                 ) -> Optional[list[tuple[Variance, ...]]]:
    """The first family (g_1, ..., g_n), each g_j a member of the union
    `unions[j]`, whose zip lies in the box `target`; None if there is
    none.  First in the order of `itertools.product` over the members
    in canonical order: constraint-major, variables in domain order,
    candidates `= + - ~`.

    Chosen greedily, one entry at a time: a partial choice is kept iff
    some box per constraint admits it and every variable's column can
    still zip into `target`.  Boxes are products, so that test is exact.
    """
    m = len(target)
    acc: Optional[Box] = (MASK[IRR],) * m   # zip of the entries chosen
    # suffix[j]: the zips of the members of unions[j:], as boxes.
    suffix = [(acc,)]
    for u in reversed(unions):
        suffix.insert(0, box_union(box_zip(x, y) for x in u for y in suffix[0]))

    def feasible(acc: Optional[Box], rest: Sequence[Box]) -> bool:
        return acc is not None and any(
            all(ZIP_MASK[x][y] & t for x, y, t in zip(acc, r, target))
            for r in rest)

    def extends(j: int, acc: Box, prefix: tuple[Variance, ...]) -> bool:
        head = tuple(MASK[x] for x in prefix)
        return any(feasible(box_zip(acc, head + box[len(head):]),
                            suffix[j + 1])
                   for box in unions[j]
                   if all(h & b for h, b in zip(head, box)))

    if not feasible(acc, suffix[0]):
        return None
    family = []
    for j in range(len(unions)):
        g: tuple[Variance, ...] = ()
        for _ in range(m):
            g += (next(x for x in ALL_VARIANCES if extends(j, acc, g + (x,))),)
        acc = box_zip(acc, tuple(MASK[x] for x in g))
        family.append(g)
    return family


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
    set of deriving contexts as a union of boxes, a box being one
    variance mask per domain variable.  Each rule yields one box:
    sc-Triv the up-sets of the principal context, sc-Var one fixed
    entry, a closed constant the full box.  The constructor rule zips
    the children's unions box by box; zip works per variable, so the
    zip of two boxes is a box.  Memoized per engine instance, so a
    checking run shares work across queries.
    """

    def __init__(self, sig: Signature, domain: Sequence[str]):
        self.sig = sig
        self.domain = tuple(domain)
        self._memo: dict[tuple[TypeExpr, Variance, Variance], tuple[Box, ...]] = {}

    def boxes(self, t: TypeExpr, v: Variance, v2: Variance) -> tuple[Box, ...]:
        """The deriving contexts of `_ |- t : v => v2`, as boxes."""
        key = (t, v, v2)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        full = (FULL_MASK,) * len(self.domain)
        out: list[Box] = []
        if var_leq(v2, v):
            # sc-Triv: any context that checks the variance alone.
            sets = variance_sets(self.sig, t, v, self.domain)
            out.append(tuple(set_mask(sets[name]) for name in self.domain))
        if isinstance(t, Var):
            # sc-Var: the entry must be exactly v; other entries are free.
            idx = self.domain.index(t.name)
            out.append((*full[:idx], MASK[v], *full[idx + 1:]))
        else:
            assert isinstance(t, App)
            if is_closed(self.sig, t.ctor, v):
                if not t.args:
                    # A v-closed constant type decomposes under every
                    # context: the witness can copy the input.
                    out.append(full)
                else:
                    states: Sequence[Box] = ((MASK[IRR],) * len(self.domain),)
                    for a, w in zip(t.args, self.sig.variances(t.ctor)):
                        child = self.boxes(a, compose(v, w), compose(v2, w))
                        states = box_union(box_zip(s, c)
                                           for s in states for c in child)
                    out.extend(states)
        result = box_union(out)
        self._memo[key] = result
        return result

    def check(self, g: VarianceContext, t: TypeExpr, v: Variance,
              v2: Variance) -> bool:
        if g.domain() != self.domain:
            raise ValueError("context domain does not match engine domain")
        point = [MASK[x] for x in g.variances()]
        return any(all(p & b for p, b in zip(point, box))
                   for box in self.boxes(t, v, v2))

    # -- derivation reconstruction -------------------------------------------

    def derive(self, g: VarianceContext, t: TypeExpr, v: Variance,
               v2: Variance) -> Optional[Derivation]:
        """Rebuild one derivation of `g |- t : v => v2` (None if not
        derivable).  Rule preference: sc-Triv, sc-Var, sc-Constr; the
        constructor rule takes the first family of child contexts."""
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
        if not t.args:
            return Derivation(
                "sc-Constr", f"{judgment}   ({t.ctor} is {v}-closed, no arguments)")
        subs = [(a, compose(v, w), compose(v2, w))
                for a, w in zip(t.args, self.sig.variances(t.ctor))]
        family = first_family([self.boxes(*sub) for sub in subs],
                              tuple(MASK[x] for x in g.variances()))
        assert family is not None
        return Derivation(
            "sc-Constr", f"{judgment}   ({t.ctor} is {v}-closed)",
            tuple(self.derive(VarianceContext(zip(self.domain, tup)), *sub)
                  for tup, sub in zip(family, subs)))


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
