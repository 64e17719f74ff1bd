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
is not monotone in the context, yet its deriving contexts always form
one box (one variance mask per variable; `DecompEngine` proves it), so
a single memoised recursion decides it for both checking modes, the
rejection reasons and the derivations.  Where the trivial rule applies
the box is the meet of the children's boxes (a node's principal entry
is the join of its children's, and up(a v b) = up(a) & up(b)), so each
subterm's box is built once from its children's, and a judgment costs
O(m) per node of the type for m variables.  Witness families are
picked from such boxes one variable at a time (`first_family`),
without enumerating contexts.

Closure flags record which constructors are v-closed under a chosen
world assumption (preset), with private-type edges and strict base-order
edges removing flags, and explicit `closed` declarations adding them.
"""
from __future__ import annotations

import itertools
from operator import and_
from typing import NamedTuple, Optional, Sequence

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
    UP_MASK,
    ZIP_MASK,
    Box,
    Variance,
    VarianceContext,
    box_zip,
    compose,
    mask_set,
    up_set,
    var_leq,
    var_lub,
)

PRESETS = ("atomic", "ml-open", "none")


# ---------------------------------------------------------------------------
# Variance checking


def _occurrence_requirements(sig: Signature, t: TypeExpr, v: Variance,
                             acc: dict[str, Variance]) -> dict[str, Variance]:
    """Add to `acc`, per variable of t in first-occurrence order, the
    join of the variances at which it occurs in `_ |- t : v`: vc-Constr
    composes them along the path, and vc-Var requires the variable's
    entry to lie above each one."""
    if isinstance(t, Var):
        acc[t.name] = var_lub(acc.get(t.name, IRR), v)
    else:
        for a, w in zip(t.args, sig.variances(t.ctor)):
            _occurrence_requirements(sig, a, compose(v, w), acc)
    return acc


def check_variance(sig: Signature, g: VarianceContext, t: TypeExpr,
                   v: Variance) -> bool:
    """Is the judgment `g |- t : v` derivable?"""
    need = _occurrence_requirements(sig, t, v, {})
    return all(var_leq(w, g[x]) for x, w in need.items())


def principal_context(sig: Signature, t: TypeExpr, v: Variance,
                      domain: Optional[Sequence[str]] = None) -> VarianceContext:
    """The pointwise-minimal context deriving `_ |- t : v`.

    Each occurrence of a variable at composed variance u requires its
    entry to sit above u, so the minimum is the join of the occurrence
    requirements; variables without occurrences stay at the bottom.
    The domain defaults to t's variables in first-occurrence order.
    """
    need = _occurrence_requirements(sig, t, v, {})
    return VarianceContext((x, need.get(x, IRR))
                           for x in (need if domain is None else domain))


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


_ALL_FLAGS = frozenset({COV, CONTRA, INV})
_NO_FLAGS: frozenset[Variance] = frozenset()


def _stripped(sig: Signature) -> dict[str, frozenset[Variance]]:
    """The flags that edges strip, per constructor they strip any from:
    `+` and `=` if something lies strictly above it, `-` and `=` if
    something lies strictly below it, through private edges or the
    declared base order."""
    reach = sig.head_reach()
    stripped: dict[str, frozenset[Variance]] = {}
    for lo, outs in reach.items():
        for hi in outs:
            if hi != lo and lo not in reach.get(hi, ()):
                stripped[lo] = stripped.get(lo, _NO_FLAGS) | {COV, INV}
                stripped[hi] = stripped.get(hi, _NO_FLAGS) | {CONTRA, INV}
    return stripped


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

    The edges are walked only where read (atomic, ml-open, a `closed`).
    The table is recorded on the signature and read by `is_closed`.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown closure preset {preset!r}")
    closed = [d for d in sig.decls if d.kind == "closed"]
    stripped = _stripped(sig) if closed or preset != "none" else {}
    table: dict[str, frozenset[Variance]]
    if preset == "atomic":
        table = dict.fromkeys(sig.ctors, _ALL_FLAGS)
        for name, flags in stripped.items():
            if name in table:
                table[name] = _ALL_FLAGS - flags
    elif preset == "none":
        table = dict.fromkeys(sig.ctors, _NO_FLAGS)
    else:  # ml-open
        upward = {name for name in sig.ctors if name != "->"
                  and COV not in stripped.get(name, _NO_FLAGS)}
        # Datatypes keep upward closure only if every constructor
        # argument type mentions only upward-closed constructors.
        mentions = {decl.name: mentioned_ctors(*(k.arg for k in decl.ctors))
                    for decl in sig.datatypes()}
        while dropped := {name for name, mentioned in mentions.items()
                          if name in upward and not mentioned <= upward}:
            upward -= dropped
        cov = frozenset({COV})
        table = {name: cov if name in upward else _NO_FLAGS
                 for name in sig.ctors}

    diags: list[Diagnostic] = []
    for d in closed:
        v, name = d.payload
        if v in stripped.get(name, _NO_FLAGS):
            diags.append(Diagnostic(
                *d.pos,
                f"closed {v.value} {name}: contradicted by a private or "
                f"base-order edge"))
        else:
            table[name] = table.get(name, _NO_FLAGS) | {v}
    if diags:
        raise SignatureError(diags)

    sig.closure_flags = table
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

#: The memo's mark for a judgment not yet decided (None means underivable).
_UNSEEN = object()


def first_family(boxes: Sequence[Box], target: Box
                 ) -> Optional[list[tuple[Variance, ...]]]:
    """The first family (g_1, ..., g_n), each g_j a member of the box
    `boxes[j]`, whose zip lies in the box `target`; None if there is
    none.  First in the order of `itertools.product` over the members
    in canonical order: constraint-major, variables in domain order,
    candidates `= + - ~`.

    Zip works per variable and boxes are products, so the families are
    the product of per-variable columns (g_1[x], ..., g_n[x]), and the
    first family takes each variable's first column.  A column depends
    only on the variable's masks in the boxes and its goal in `target`,
    so it is picked once per distinct pair (`_first_column`).
    """
    picked: dict[tuple[tuple[int, ...], int], list[Variance]] = {}
    columns = []
    per_var = zip(*boxes) if boxes else itertools.repeat(())
    for masks, goal in zip(per_var, target):
        column = picked.get((masks, goal))
        if column is None:
            column = _first_column(masks, goal)
            if column is None:
                return None
            picked[masks, goal] = column
        columns.append(column)
    return [tuple(col[j] for col in columns) for j in range(len(boxes))]


def _first_column(masks: tuple[int, ...], goal: int
                  ) -> Optional[list[Variance]]:
    """The first column (c_1, ..., c_n), each c_j in `masks[j]`, whose
    zip lies in `goal`; None if there is none.  Picked entry by entry:
    the first candidate whose zip with the entries before it and the
    members of the masks after it can meet `goal`."""
    rest = [MASK[IRR]]
    for m in reversed(masks):
        rest.append(ZIP_MASK[m][rest[-1]])
    rest.reverse()                      # rest[j]: the zips of masks[j:]
    if not rest[0] & goal:
        return None
    acc, column = MASK[IRR], []
    for m, after in zip(masks, rest[1:]):
        c = next(c for c in ALL_VARIANCES if MASK[c] & m
                 and ZIP_MASK[ZIP_MASK[acc][MASK[c]]][after] & goal)
        acc = ZIP_MASK[acc][MASK[c]]
        column.append(c)
    return column


class Derivation(NamedTuple):
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

    For every subterm and variance pair the engine computes the set of
    deriving contexts as one box, a box being one variance mask per
    domain variable: sc-Triv yields the up-sets of the principal
    context, sc-Var one fixed entry, a closed constant the full box, and
    sc-Constr the per-variable zip of the children's boxes.  The set is
    the union of the rules' boxes, taken per variable; that is exact
    because the union is always one box.  Proof, by induction on `t`:

    - If `v2 <= v` fails, sc-Triv does not apply and at most one other
      rule does.  Its set is a box: the zip of two boxes is the box of
      the per-variable zips, and the children's sets are boxes.
    - If `v2 <= v`, then `v2.w <= v.w` for every `w` (composition is
      monotone), so sc-Triv applies at every subterm, and by induction
      each child's set is its sc-Triv box.  sc-Var's entry `v` lies in
      `up(v)`, and a closed constant's sc-Triv box is already full.
      Under sc-Constr, let k be the number of children in which a
      variable's principal entry is not `~`.  Up-sets without `~` zip
      only at `=`, so the zip of the children's masks for the variable
      is the full mask for k = 0, that child's up-set for k = 1, and
      `{=}` for k >= 2.  The sc-Triv mask is the up-set of the join of
      the children's entries, which contains each of these.  So the
      other rules' boxes nest inside the sc-Triv box, and the set is
      that box.

    The meet rule builds that box without walking the subtree again.
    If `v2 <= v`, the box of h(t_1..t_n) is the per-variable AND of the
    children's boxes at `v.w_i => v2.w_i`; a variable gets `up(v)` at
    its own index, and a constant the full box.  Proof: a node's
    principal entry is the join of its children's, and
    `up(a v b) = up(a) & up(b)`.  So every (subterm, v, v2) is computed
    once, from its children's boxes, at O(m) for m domain variables,
    and a judgment costs O(m) per node of `t`.

    A 0 mask means that a zip died for the variable: the box is empty,
    and the other masks keep the values computed.  None means no rule
    applies.  Memoized per engine instance, so a checking run shares
    work across queries.
    """

    def __init__(self, sig: Signature, domain: Sequence[str]):
        self.sig = sig
        self.domain = tuple(domain)
        self._full = (FULL_MASK,) * len(self.domain)
        self._memo: dict[tuple[TypeExpr, Variance, Variance], Optional[Box]] = {}

    def box(self, t: TypeExpr, v: Variance, v2: Variance) -> Optional[Box]:
        """The deriving contexts of `_ |- t : v => v2`, as one box."""
        key = (t, v, v2)
        rule = self._memo.get(key, _UNSEEN)
        if rule is not _UNSEEN:
            return rule
        full, triv = self._full, var_leq(v2, v)
        if isinstance(t, Var):
            # sc-Triv admits up(v) at t's index, sc-Var exactly v; other
            # entries are free.
            idx = self.domain.index(t.name)
            mask = UP_MASK[v] if triv else MASK[v]
            rule = (*full[:idx], mask, *full[idx + 1:])
        elif triv:
            # sc-Triv, by the meet rule; a constant's box is full.
            rule = full
            for a, w in zip(t.args, self.sig.variances(t.ctor)):
                rule = tuple(map(and_, rule, self.box(
                    a, compose(v, w), compose(v2, w))))
        elif is_closed(self.sig, t.ctor, v):
            # sc-Constr.  A v-closed constant type decomposes under every
            # context: the witness can copy the input.
            rule = (MASK[IRR],) * len(self.domain) if t.args else full
            for a, w in zip(t.args, self.sig.variances(t.ctor)):
                child = self.box(a, compose(v, w), compose(v2, w))
                if child is None:
                    rule = None
                    break
                rule = box_zip(rule, child)
        else:
            rule = None
        self._memo[key] = rule
        return rule

    def check(self, g: VarianceContext, t: TypeExpr, v: Variance,
              v2: Variance) -> bool:
        if g.domain() != self.domain:
            raise ValueError("context domain does not match engine domain")
        box = self.box(t, v, v2)
        return box is not None and all(
            MASK[x] & b for x, b in zip(g.variances(), box))

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
        family = first_family([self.box(*sub) for sub in subs],
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


SetMap = dict[str, frozenset[Variance]]


def decomp_sets(sig: Signature, t: TypeExpr, v: Variance, v2: Variance,
                domain: Optional[Sequence[str]] = None) -> Optional[SetMap]:
    """The box of `DecompEngine.box` as per-variable variance sets.

    None means no rule derives the judgment.  A variable mapped to the
    empty set means that the zip died there, which equally means no
    context exists.  Variables absent from a subterm carry the full set
    there.
    """
    if domain is None:
        domain = free_vars_ordered(t)
    box = DecompEngine(sig, domain).box(t, v, v2)
    if box is None:
        return None
    return {name: mask_set(m) for name, m in zip(domain, box)}
