"""Brute-force semantics over bounded ground-type universes.

Every universally quantified semantic definition (variance
interpretation, decomposability, simultaneous decomposition,
well-signedness, the per-constructor req-SP condition and the two
structural requirements it presumes) is evaluated literally, with the
ground-type quantifiers finitized to all types of bounded syntactic
depth.  A bounded verdict is labeled with its depth by the caller and is
never a theorem: `True` means "no counterexample up to this depth".

Ground types are hash-consed into dense integer ids (Filliâtre &
Conchon, "Type-safe modular hash-consing", 2006): a type is its head
and the tuple of its children's ids, and children always get their ids
first.  The subtyping relation is kept as Python-int bitsets over the
ids, one row per type, so the quantifier loops run over integers and bit
tests instead of type trees.  Instances deeper than the universe (a
bound `'b pos` at depth d + 1) get an id on demand.

Existential witnesses are searched through the subterm-closed universe,
trying the subterms of the candidate supertype first: in head-atomic
worlds witnesses arise by inversion on that type, so a statement true at
depth d is not falsified by a witness living one level deeper.

The subtyping decision procedure is structural: same heads compare
pointwise under the declared variances, distinct heads are incomparable
unless an upward chain of private or base-order edges connects them
(such edges preserve arity and variances, so parameters still compare
pointwise).  Reflexivity and transitivity hold as consequences, not as
extra rules.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .checker import principal_context
from .criterion import target_variance
from .syntax import (
    App,
    Constraint,
    DataConstructorDecl,
    DatatypeDecl,
    Signature,
    TypeExpr,
    Var,
    free_vars,
    is_ground,
    normalize_constructor,
    render_type,
)
from .variance import (
    CONTRA,
    COV,
    INV,
    IRR,
    Variance,
    VarianceContext,
)

DEFAULT_UNIVERSE_CAP = 200_000


class UniverseSizeError(Exception):
    pass


def _members(bits: int) -> Iterator[int]:
    """The positions of the set bits of a non-negative int, ascending."""
    text = bin(bits)[:1:-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


class TypeTable:
    """Hash-consed ground types and their subtyping relation as bitsets.

    `build` fixes the ids interned so far as the dense ones and computes
    their rows: `le[i]` is the set of dense ids j with type i <= type j,
    and `ge[i]` the set of dense j with type j <= type i.  Ids interned
    later are deep: they keep no rows, and their relations are computed
    from their children's when asked for.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.heads: list[str] = []
        self.kids: list[tuple[int, ...]] = []
        self.le: list[int] = []
        self.ge: list[int] = []
        #: The number of dense ids, and their set.
        self.dense = 0
        self.full = 0
        #: The id of every type interned from a TypeExpr.
        self.index: dict[TypeExpr, int] = {}
        self._ids: dict[tuple[str, tuple[int, ...]], int] = {}
        self._variances = {name: info.variances
                           for name, info in sig.ctors.items()}
        ws = self._variances
        reach = sig.head_reach()
        # Heads a type of head h may lie below (up) or above (down); the
        # edges between heads preserve arity and variances.
        self._up = {h: frozenset(g for g in reach.get(h, {h})
                                 if ws.get(g) == ws[h])
                    for h in sig.ctors}
        self._down = {h: tuple(g for g in sig.ctors
                               if ws[g] == ws[h] and h in reach.get(g, ()))
                      for h in sig.ctors}
        self._head_ids: dict[str, int] = {}
        # (head, argument position) -> {child id -> ids with that child}.
        self._by_kid: dict[tuple[str, int], dict[int, int]] = {}

    def intern(self, head: str, kids: tuple[int, ...]) -> int:
        """The id of head(kids), added if new."""
        key = (head, kids)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.heads)
            self.heads.append(head)
            self.kids.append(kids)
        return i

    def intern_expr(self, t: TypeExpr) -> int:
        i = self.index.get(t)
        if i is None:
            if not isinstance(t, App):
                raise ValueError("ground types only")
            i = self.intern(t.ctor, tuple(self.intern_expr(a) for a in t.args))
            self.index[t] = i
        return i

    def build(self) -> None:
        """Make every id interned so far dense and compute the rows.

        Ids are related in order: type x is compared with every earlier
        type whose head is related to its own, as the intersection over
        argument positions of the types whose child there is related to
        x's child.  Children have smaller ids, so their rows exist."""
        if self.dense == len(self.heads):
            return
        le, ge = self.le, self.ge
        for x in range(self.dense, len(self.heads)):
            bit = 1 << x
            up, down = self._rows_from_kids(x)
            up |= bit
            down |= bit
            le.append(up)
            ge.append(down)
            for j in _members(down ^ bit):
                le[j] |= bit
            for j in _members(up ^ bit):
                ge[j] |= bit
            h = self.heads[x]
            self._head_ids[h] = self._head_ids.get(h, 0) | bit
            for p, k in enumerate(self.kids[x]):
                by_kid = self._by_kid.setdefault((h, p), {})
                by_kid[k] = by_kid.get(k, 0) | bit
            self.dense = x + 1
        self.full = (1 << self.dense) - 1

    def row(self, v: Variance, a: int) -> int:
        """The set of dense ids b with a prec_v b."""
        if v is IRR:
            return self.full
        if a < self.dense:
            return self._pick(v, self.le[a], self.ge[a])
        return self._pick(v, *self._rows_from_kids(a, v))

    def _pick(self, v: Variance, up: int, down: int) -> int:
        if v is COV:
            return up
        if v is CONTRA:
            return down
        if v is INV:
            return up & down
        return self.full

    def _up_down(self, a: int) -> tuple[int, int]:
        """The dense ids above and below a."""
        if a < self.dense:
            return self.le[a], self.ge[a]
        return self._rows_from_kids(a)

    def prec(self, v: Variance, a: int, b: int) -> bool:
        """a prec_v b: a bit test when both ids are dense."""
        if v is IRR:
            return True
        if a < self.dense and b < self.dense:
            if v is COV:
                return self.le[a] >> b & 1 == 1
            if v is CONTRA:
                return self.ge[a] >> b & 1 == 1
            return self.le[a] >> b & self.ge[a] >> b & 1 == 1
        if v is COV:
            return self._sub(a, b)
        if v is CONTRA:
            return self._sub(b, a)
        return self._sub(a, b) and self._sub(b, a)

    def _sub(self, a: int, b: int) -> bool:
        """a <= b, structurally down to pairs of dense ids."""
        if a == b:
            return True
        heads, d, le = self.heads, self.dense, self.le
        h = heads[a]
        if heads[b] not in self._up[h]:
            return False
        for w, x, y in zip(self._variances[h], self.kids[a], self.kids[b]):
            if w is IRR or x == y:
                continue
            if x < d and y < d:
                if w is COV:
                    ok = le[x] >> y & 1
                elif w is CONTRA:
                    ok = le[y] >> x & 1
                else:
                    ok = le[x] >> y & le[y] >> x & 1
            else:
                ok = self.prec(w, x, y)
            if not ok:
                return False
        return True

    def _rows_from_kids(self, x: int, v: Optional[Variance] = None
                        ) -> tuple[int, int]:
        """The dense ids other than x above and below x, from the rows
        of its children.  Given v, only as much as `row(v, x)` needs:
        the ids above x for COV, those below for CONTRA, and for INV
        those below among those above."""
        h = self.heads[x]
        ws = self._variances[h]
        above, below = [], []
        for w, k in zip(ws, self.kids[x]):
            up, down = self._up_down(k)
            above.append(self._pick(w, up, down))
            below.append(self._pick(_REVERSE[w], up, down))
        up = down = 0
        if v is not CONTRA:
            for g in self._up[h]:
                up |= self._with_kids(g, ws, above)
        if v is None or v is CONTRA or up and v is INV:
            within = up if v is INV else -1
            for g in self._down[h]:
                down |= self._with_kids(g, ws, below, within)
        return up, down

    def _with_kids(self, head: str, ws: Sequence[Variance],
                   allowed: Sequence[int], within: int = -1) -> int:
        """Dense ids of head `head` in `within` whose child at each
        position p lies in allowed[p] (positions of variance IRR are
        unconstrained)."""
        out = self._head_ids.get(head, 0) & within
        for p, (w, ok) in enumerate(zip(ws, allowed)):
            if not out:
                break
            if w is IRR:
                continue
            by_kid = self._by_kid.get((head, p), {})
            hits = 0
            for c in _members(ok):
                hits |= by_kid.get(c, 0)
            out &= hits
        return out


#: prec_v(a, b) iff prec_{_REVERSE[v]}(b, a).
_REVERSE = {COV: CONTRA, CONTRA: COV, INV: INV, IRR: IRR}


class GroundUniverse(TypeTable):
    """All variable-free types of bounded depth over a signature.

    Enumeration order is deterministic (by depth, then constructor
    declaration order, then argument order) and duplicate-free; the list
    is closed under subterms because every shallower type is included.
    The universe's types are the dense ids 0..n-1, in that order; deeper
    types (instances of a bound, say) are interned on demand.
    """

    def __init__(self, sig: Signature, depth: int):
        super().__init__(sig)
        self.depth = depth
        self.types: tuple[TypeExpr, ...] = ()
        self._subterms: dict[int, tuple[tuple[int, ...], int]] = {}
        self._related: dict[Variance, list[int]] = {}

    def __len__(self) -> int:
        return len(self.types)

    def _seal(self) -> None:
        """Fix the universe to the types enumerated so far."""
        self.build()
        types: list[TypeExpr] = []
        for head, kids in zip(self.heads, self.kids):
            types.append(App(head, tuple(types[k] for k in kids)))
        self.types = tuple(types)
        self.index = {t: i for i, t in enumerate(types)}

    def _subterm_ids(self, target: int) -> tuple[tuple[int, ...], int]:
        """The universe ids among the subterms of `target`, depth-first,
        and their set."""
        cached = self._subterms.get(target)
        if cached is None:
            n = len(self.types)
            first: list[int] = []
            seen = 0
            stack = [target]
            while stack:
                node = stack.pop()
                if node < n and not seen >> node & 1:
                    seen |= 1 << node
                    first.append(node)
                stack.extend(self.kids[node])
            cached = self._subterms[target] = (tuple(first), seen)
        return cached

    def witness_order(self, targets: Sequence[int],
                      allowed: int) -> Iterator[int]:
        """The universe ids in `allowed`, lazily: the subterms of every
        target first, then the remaining ids in order."""
        seen = 0
        for t in targets:
            ids, mask = self._subterm_ids(t)
            for i in ids:
                if allowed >> i & 1 and not seen >> i & 1:
                    yield i
            seen |= mask
        yield from _members(allowed & ~seen)


def _witness_tuples(orders: Sequence[Iterable[int]]
                    ) -> Iterator[tuple[int, ...]]:
    """The lexicographic product of the orders, lazy in the first one
    (a witness is usually among the first few candidates)."""
    if not orders:
        yield ()
        return
    tail = [tuple(o) for o in orders[1:]]
    for i in orders[0]:
        for rest in itertools.product(*tail):
            yield (i,) + rest


def enumerate_types(sig: Signature, depth: int,
                    cap: int = DEFAULT_UNIVERSE_CAP) -> GroundUniverse:
    """All ground types of syntactic depth <= depth (constants have
    depth 1).  Raises UniverseSizeError beyond `cap` types."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u = GroundUniverse(sig, depth)
    ctors = list(sig.ctors.values())
    for info in ctors:
        if info.arity == 0:
            u.intern(info.name, ())
    if len(u.heads) > cap:
        raise UniverseSizeError(f"universe exceeds cap of {cap} types")
    known = u._ids
    for _ in range(depth - 1):
        prev = range(len(u.heads))
        for info in ctors:
            if info.arity == 0:
                continue
            for kids in itertools.product(prev, repeat=info.arity):
                if (info.name, kids) not in known:
                    u.intern(info.name, kids)
                    if len(u.heads) > cap:
                        raise UniverseSizeError(
                            f"universe exceeds cap of {cap} types "
                            f"(depth {depth})")
    u._seal()
    return u


# ---------------------------------------------------------------------------
# Subtyping decision procedure


class SemanticOracle:
    """Subtyping on type expressions, and the per-variance relations of
    a universe.  Type expressions are interned into a table of the
    oracle's own, whose rows grow with every new type."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.table = TypeTable(sig)

    def subtype(self, a: TypeExpr, b: TypeExpr) -> bool:
        return self.prec(COV, a, b)

    def prec(self, v: Variance, a: TypeExpr, b: TypeExpr) -> bool:
        table = self.table
        i, j = table.intern_expr(a), table.intern_expr(b)
        table.build()
        return table.prec(v, i, j)

    def related(self, u: GroundUniverse, w: Variance) -> list[int]:
        """Bitset rows over the universe: related[i] = the set of j with
        types[i] prec_w types[j]."""
        cached = u._related.get(w)
        if cached is None:
            cached = u._related[w] = [u.row(w, i) for i in range(len(u))]
        return cached


_ORACLE_ATTR = "_semantic_oracle"


def oracle_for(sig: Signature) -> SemanticOracle:
    oracle = getattr(sig, _ORACLE_ATTR, None)
    if oracle is None:
        oracle = SemanticOracle(sig)
        object.__setattr__(sig, _ORACLE_ATTR, oracle)
    return oracle


def subtype(sig: Signature, a: TypeExpr, b: TypeExpr) -> bool:
    if not (is_ground(a) and is_ground(b)):
        raise ValueError("subtype compares ground types only")
    return oracle_for(sig).subtype(a, b)


def prec(sig: Signature, v: Variance, a: TypeExpr, b: TypeExpr) -> bool:
    if not (is_ground(a) and is_ground(b)):
        raise ValueError("prec compares ground types only")
    return oracle_for(sig).prec(v, a, b)


# ---------------------------------------------------------------------------
# Semantic definitions


def _assignments(u: GroundUniverse, m: int) -> Iterable[tuple[int, ...]]:
    return itertools.product(range(len(u.types)), repeat=m)


def _instantiator(u: GroundUniverse, t: TypeExpr, domain: Sequence[str]
                  ) -> Callable[[tuple[int, ...]], int]:
    """A function from an assignment of ids to `domain` to the id of the
    instance of t.  Interning memoizes it node by node; instances deeper
    than the universe are interned on demand."""
    pos = {a: k for k, a in enumerate(domain)}
    intern = u.intern

    def compile(node: TypeExpr) -> Callable[[tuple[int, ...]], int]:
        if isinstance(node, Var):
            if node.name not in pos:
                raise ValueError(f"unbound type variable '{node.name}")
            return operator.itemgetter(pos[node.name])
        assert isinstance(node, App)
        head, fns = node.ctor, [compile(a) for a in node.args]
        return lambda idx: intern(head, tuple([f(idx) for f in fns]))
    return compile(t)


def sem_variance_cex(
    sig: Signature, u: GroundUniverse, g: VarianceContext, t: TypeExpr,
    v: Variance,
) -> Optional[tuple[tuple[TypeExpr, ...], tuple[TypeExpr, ...]]]:
    """First counterexample to the variance interpretation over u, or
    None: assignments related under g whose instances are not related
    under v."""
    orc = oracle_for(sig)
    domain = g.domain()
    m = len(domain)
    if m == 0:
        return None
    rel = [orc.related(u, w) for w in g.variances()]
    inst = _instantiator(u, t, domain)
    for idx in _assignments(u, m):
        lhs = inst(idx)
        for jdx in itertools.product(*(_members(rel[k][i])
                                       for k, i in enumerate(idx))):
            if not u.prec(v, lhs, inst(jdx)):
                return (tuple(u.types[i] for i in idx),
                        tuple(u.types[j] for j in jdx))
    return None


def sem_variance(sig: Signature, u: GroundUniverse, g: VarianceContext,
                 t: TypeExpr, v: Variance) -> bool:
    return sem_variance_cex(sig, u, g, t, v) is None


def _decomp_cex(
    sig: Signature, u: GroundUniverse, g: VarianceContext,
    parts: Sequence[tuple[TypeExpr, Variance, Variance]],
) -> Optional[tuple[tuple[TypeExpr, ...], tuple[TypeExpr, ...]]]:
    """First counterexample to the simultaneous decomposition of
    `parts` over u, or None: an assignment and one supertype (subtype)
    per part admitting no common witness assignment in the universe."""
    orc = oracle_for(sig)
    domain = g.domain()
    m = len(domain)
    rel = [orc.related(u, w) for w in g.variances()]
    insts = [_instantiator(u, t, domain) for t, _, _ in parts]
    for idx in _assignments(u, m):
        lhss = [inst(idx) for inst in insts]
        allowed = [rel[k][i] for k, i in enumerate(idx)]
        targets = [_members(u.row(v, lhs))
                   for lhs, (_, v, _) in zip(lhss, parts)]
        for sdx in itertools.product(*targets):
            witnesses = _witness_tuples(
                [u.witness_order(sdx[:1], a) for a in allowed])
            if not any(all(u.prec(v2, inst(jdx), s)
                           for inst, (_, _, v2), s in zip(insts, parts, sdx))
                       for jdx in witnesses):
                return (tuple(u.types[i] for i in idx),
                        tuple(u.types[s] for s in sdx))
    return None


def sem_decomp_cex(
    sig: Signature, u: GroundUniverse, g: VarianceContext, t: TypeExpr,
    v: Variance, v2: Variance,
) -> Optional[tuple[tuple[TypeExpr, ...], TypeExpr]]:
    """First counterexample to decomposability over u, or None: an
    assignment and supertype (subtype) admitting no witness assignment
    in the universe."""
    cex = _decomp_cex(sig, u, g, [(t, v, v2)])
    return None if cex is None else (cex[0], cex[1][0])


def sem_decomp(sig: Signature, u: GroundUniverse, g: VarianceContext,
               t: TypeExpr, v: Variance, v2: Variance) -> bool:
    return sem_decomp_cex(sig, u, g, t, v, v2) is None


def sem_simultaneous_decomp(
    sig: Signature, u: GroundUniverse, g: VarianceContext,
    parts: Sequence[tuple[TypeExpr, Variance, Variance]],
) -> bool:
    """The simultaneous closure property for a family of type
    expressions over a shared context: related instances of all family
    members must admit one common witness assignment."""
    return _decomp_cex(sig, u, g, parts) is None


def sem_well_signed(sig: Signature, u: GroundUniverse, decl_params,
                    arg: TypeExpr) -> bool:
    """Well-signedness of a plain constructor over u: instances of the
    argument type covary whenever the parameters do."""
    g = VarianceContext(decl_params)
    return sem_variance(sig, u, g, arg, COV)


# ---------------------------------------------------------------------------
# req-SP


@dataclass
class ReqSpResult:
    holds: bool
    depth: int
    sigma: Optional[tuple[TypeExpr, ...]] = None
    sigma_prime: Optional[tuple[TypeExpr, ...]] = None
    rho: Optional[tuple[TypeExpr, ...]] = None
    #: Assignments of the existential groups visited: a cost, not part
    #: of the verdict.
    assignments: int = field(default=0, compare=False)

    def describe(self) -> str:
        if self.holds:
            return f"holds (depth {self.depth})"
        def tup(ts):
            return "(" + ", ".join(render_type(t) for t in ts) + ")"
        return (f"fails (depth {self.depth}): sigma={tup(self.sigma)} "
                f"sigma'={tup(self.sigma_prime)} rho={tup(self.rho)}")


class _Group(NamedTuple):
    """Existential coordinates that constraint bounds link, and the
    constraints over them.  Bounds are instantiated from assignments to
    the group's own coordinates, in ascending order."""
    coords: tuple[int, ...]
    params: tuple[int, ...]
    #: (parameter, v, bound instances), with "parameter rel bound" iff
    #: bound prec_v parameter.
    cons: tuple[tuple[int, Variance, Callable[[tuple[int, ...]], int]], ...]
    #: Bare-variable bounds: (local coordinate, parameter, v).
    pinned: tuple[tuple[int, int, Variance], ...]
    #: The other bounds, as in `cons`.
    others: tuple[tuple[int, Variance, Callable[[tuple[int, ...]], int]], ...]
    #: Per local coordinate, the principal entry of the argument: two
    #: instances of it have the same heads at its own nodes, which
    #: compare pointwise, so arg[rho] <= arg[rho'] iff rho(x) prec_w
    #: rho'(x) for each coordinate x and its entry w.
    uses: tuple[Variance, ...]


def _groups(sig: Signature, u: GroundUniverse,
            norm: DataConstructorDecl) -> list[_Group]:
    """The constraints of a normalized constructor, split into groups:
    two constraints share a group when their bounds share a variable,
    and the closed bounds form the group with no coordinate.  Groups
    come in the order of their coordinates."""
    domain = norm.exist_vars
    arg_uses = principal_context(sig, norm.arg, COV, domain).variances()
    parts: list[tuple[frozenset[str], list[Constraint]]] = []
    for c in norm.constraints:
        names = free_vars(c.bound)
        # A closed bound joins the part of the other closed bounds.
        linked = [p for p in parts if p[0] & names or not (p[0] or names)]
        for p in linked:
            parts.remove(p)
        parts.append((names.union(*(p[0] for p in linked)),
                      [x for p in linked for x in p[1]] + [c]))
    groups = []
    for names, cs in parts:
        coords = tuple(sorted(domain.index(x) for x in names))
        local = [domain[j] for j in coords]
        cs.sort(key=lambda c: c.param)
        cons = tuple((c.param, target_variance(c.rel),
                      _instantiator(u, c.bound, local)) for c in cs)
        groups.append(_Group(
            coords, tuple(c.param for c in cs), cons,
            tuple((local.index(c.bound.name), c.param, v)
                  for c, (_, v, _) in zip(cs, cons)
                  if isinstance(c.bound, Var)),
            tuple(con for c, con in zip(cs, cons)
                  if not isinstance(c.bound, Var)),
            tuple(arg_uses[j] for j in coords)))
    groups.sort(key=lambda g: g.coords)
    return groups


def req_sp(sig: Signature, u: GroundUniverse, d: DatatypeDecl,
           k: DataConstructorDecl) -> ReqSpResult:
    """The per-constructor soundness condition over u: whenever the
    instantiated datatype is coerced, constrained arguments stay
    constructible over some related witnesses.  Literally: for every
    rho, every sigma satisfying the constraints at rho and every sigma'
    above sigma (pointwise, under the declared variances), some rho'
    keeps the argument above its instance at rho and satisfies the
    constraints at sigma'.

    The condition factors over the groups of `_groups`.  After
    normalization each parameter carries exactly one constraint, so
    each group owns its parameters: the candidates for sigma, and the
    search for rho', split into one part per group.  So some rho fails
    iff every group has an assignment at which each of its parameters
    has a candidate, and some group has an assignment at which some
    sigma' fails.  Each group is searched over its own assignments,
    n^|group| of them in place of n^m.  At one assignment, sigma'
    ranges over the product of the parameters' reach sets (the
    parameters above some candidate), which is the union of the sigma'
    ranges of all sigma, so each sigma' is checked once.

    A failure reports the counterexample the literal reading finds
    first.  rho is the first failing assignment in product order: the
    product of the groups' sets of assignments is ordered coordinate by
    coordinate, so its first member takes the first member of each
    group's set, and the first type for existentials in no bound.  So
    one failing and one admissible assignment per group are enough, and
    no full assignment is walked.  At that rho, sigma is the first in
    product order with a failing sigma', and sigma' the first failing
    one above it.
    """
    orc = oracle_for(sig)
    norm = normalize_constructor(d, k)
    rel_up = [orc.related(u, w) for w in d.param_variances()]
    groups = _groups(sig, u, norm)
    prec_, row, types = u.prec, u.row, u.types

    def exists_witness(g: _Group, params: tuple, allowed: list[int]) -> bool:
        if not g.others:
            return all(allowed)
        targets = [params[p] for p in g.params]
        return any(all(prec_(v, bound_at(idx), params[p])
                       for p, v, bound_at in g.others)
                   for idx in _witness_tuples(
                       [u.witness_order(targets, a) for a in allowed]))

    def search(part: Sequence[_Group], rhos: Sequence[tuple[int, ...]],
               pairs: bool = False) -> Optional[tuple]:
        """The condition at one assignment of each group of `part`: None
        when some parameter has no candidate, () when no sigma' fails,
        else (sigma, sigma').  With `pairs` these are the first in the
        literal order, else sigma is None.  Parameters outside `part`
        are held at None."""
        cands: list[Optional[int]] = [None] * len(rel_up)
        bases = []
        for g, r in zip(part, rhos):
            for p, v, bound_at in g.cons:
                cands[p] = row(v, bound_at(r))
                if not cands[p]:
                    return None
            # Witness coordinates keeping the argument above its
            # instance at r.
            bases.append([row(w, i) for i, w in zip(r, g.uses)])

        def fails(params: tuple) -> bool:
            for g, above in zip(part, bases):
                allowed = list(above)
                for j, p, v in g.pinned:
                    allowed[j] &= row(_REVERSE[v], params[p])
                if not exists_witness(g, params, allowed):
                    return True
            return False

        def members(sets: Iterable[Optional[int]]) -> list:
            return [(None,) if s is None else tuple(_members(s))
                    for s in sets]

        if not pairs:
            # Per parameter, the ids above some candidate.
            reach = [None if s is None else
                     functools.reduce(operator.or_, map(up.__getitem__,
                                                        _members(s)))
                     for up, s in zip(rel_up, cands)]
            for spidx in itertools.product(*members(reach)):
                if fails(spidx):
                    return None, spidx
            return ()
        for sidx in itertools.product(*members(cands)):
            for spidx in itertools.product(*members(
                    None if s is None else up[s]
                    for up, s in zip(rel_up, sidx))):
                if fails(spidx):
                    return sidx, spidx
        return ()

    # Per group, its first assignment with candidates and its first
    # failing one, in product order.
    visited = 0
    firsts: list[tuple[tuple[int, ...], Optional[tuple[int, ...]]]] = []
    for g in groups:
        first = bad = None
        for r in itertools.product(range(len(types)), repeat=len(g.coords)):
            visited += 1
            found = search((g,), (r,))
            if found is None:
                continue
            if first is None:
                first = r
            if found:
                bad = r
                break
        if first is None:
            return ReqSpResult(True, u.depth, assignments=visited)
        firsts.append((first, bad))

    def spread(rhos: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
        """The assignment to all existentials, 0 outside the groups."""
        rho = [0] * len(norm.exist_vars)
        for g, r in zip(groups, rhos):
            for j, i in zip(g.coords, r):
                rho[j] = i
        return tuple(rho)

    # Per group that fails, the first rho at which it fails and every
    # other group has candidates.
    failing = [[bad if h == f else first
                for h, (first, _) in enumerate(firsts)]
               for f, (_, bad) in enumerate(firsts) if bad is not None]
    if not failing:
        return ReqSpResult(True, u.depth, assignments=visited)
    rhos = min(failing, key=spread)
    found = search(groups, rhos, pairs=True)
    assert found, "a group failed at this rho"
    sidx, spidx = found
    return ReqSpResult(
        False, u.depth,
        sigma=tuple(types[i] for i in sidx),
        sigma_prime=tuple(types[i] for i in spidx),
        rho=tuple(types[i] for i in spread(rhos)),
        assignments=visited)


# ---------------------------------------------------------------------------
# Structural requirements


@dataclass
class SpRequirementsReport:
    incomparability_violations: list[str] = field(default_factory=list)
    decomposition_violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.incomparability_violations
                    or self.decomposition_violations)


def check_sp_requirements(sig: Signature, u: GroundUniverse
                          ) -> SpRequirementsReport:
    """Exhaustively verify, over u, that distinct non-base heads are
    incomparable and that arrow and product types decompose
    componentwise.  Violations are listed, not raised: non-atomic worlds
    (private edges) are expected to violate incomparability."""
    report = SpRequirementsReport()
    le = u.le
    heads, kids, types = u.heads, u.kids, u.types
    is_base = {
        name: info.arity == 0 and info.kind != "builtin"
        for name, info in sig.ctors.items()
    }
    for i in range(len(types)):
        a = heads[i]
        for j in _members(le[i]):
            b = heads[j]
            if a == b:
                continue
            if is_base[a] and is_base[b] and sig.base_leq(a, b):
                continue
            report.incomparability_violations.append(
                f"{render_type(types[i])} <= {render_type(types[j])} "
                f"with distinct heads")
    for head, contra_first in (("->", True), ("*", False)):
        members = u._head_ids.get(head, 0)
        for f1 in _members(members):
            for f2 in _members(le[f1] & members):
                (d1, c1), (d2, c2) = kids[f1], kids[f2]
                d_ok = (u.prec(COV, d2, d1) if contra_first
                        else u.prec(COV, d1, d2))
                if not (d_ok and u.prec(COV, c1, c2)):
                    report.decomposition_violations.append(
                        f"{render_type(types[f1])} <= "
                        f"{render_type(types[f2])} does not "
                        f"decompose componentwise")
    return report
