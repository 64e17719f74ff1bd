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
first.  A universe's subtyping relation is kept as Python-int bitsets
over its ids, one row per type and direction, so the quantifier loops
run over integers and bit tests instead of type trees.  A row is built
from the rows of the type's children when it is first read, so a run
builds only the rows its verdicts read.  It is read off per-head plans:
the heads related to the type's head and, per argument position, a
table from a child's id to the ids whose child there is related to it.
Instances deeper than the universe (a bound `'b pos` at depth d + 1) get
an id on demand, and their rows come from the same plans.  A universe
type's tree is built only when it is rendered.  Types compared outside
a universe get no rows: they compare structurally.

Decomposability and req-SP find their witnesses by inversion: an
instance of a type t relates to a universe type s only through t's own
heads, so t compiles to one step per node, a leaf row or a set of
allowed ids, and the witnesses are read off rows at the subterms of s,
one coordinate at a time, and no witness is searched.

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
    compose,
    var_leq,
)

DEFAULT_UNIVERSE_CAP = 40_000


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
    """Hash-consed ground types and their subtyping relation.

    Ids are compared structurally (`prec`).  A universe calls `build`
    once, when it is enumerated: its ids become the dense ones, and
    every head gets its plans (`_plan`), but no row is computed.  The
    memos `le` and `ge` hold rows over the dense ids: `le[i]`, the set
    of dense j with type i <= type j, and `ge[i]`, the set of dense j
    with type j <= type i.  A missing row is read off the plans of its
    head on first use, for any id, dense or interned later (deep), so a
    run builds only the rows its verdicts read.
    A table that is never built has no dense id, and every comparison is
    structural.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.heads: list[str] = []
        self.kids: list[tuple[int, ...]] = []
        self.le = _Rows(self, COV)
        self.ge = _Rows(self, CONTRA)
        #: The number of dense ids, and their set.
        self.dense = 0
        self.full = 0
        # The id of every type interned from a TypeExpr.
        self._exprs: dict[TypeExpr, int] = {}
        self._ids: dict[tuple[str, tuple[int, ...]], int] = {}
        self._variances = {name: info.variances
                           for name, info in sig.ctors.items()}
        ws = self._variances
        reach = sig.head_reach()
        # The heads a type of head h may lie below; it may lie above the
        # heads g with h in _up[g].  The edges between heads preserve
        # arity and variances.
        self._up = {h: frozenset(g for g in reach.get(h, {h})
                                 if ws.get(g) == ws[h])
                    for h in sig.ctors}
        self._head_ids: dict[str, int] = {}
        # Per head h, the plans of the ids above and below a type of
        # head h (`_plan`), made by `build`.
        self._plans: dict[str, tuple[_Plan, _Plan]] = {}

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
        i = self._exprs.get(t)
        if i is None:
            if not isinstance(t, App):
                raise ValueError("ground types only")
            i = self.intern(self._known(t.ctor),
                            tuple(self.intern_expr(a) for a in t.args))
            self._exprs[t] = i
        return i

    def _known(self, head: str) -> str:
        if head not in self._variances:
            raise ValueError(f"unknown type constructor {head!r}")
        return head

    def build(self) -> None:
        """Make every id interned so far dense, index each id's head and
        children, and make each head's plans.  No row is computed: the
        ids above (below) x are those of a head related to x's whose
        child at each position is related to x's child there, read off
        the plans when x's row is first asked for."""
        assert not self.dense, "a table is built once"
        head_ids = self._head_ids
        # Per head and argument position: child id -> the ids with that
        # child there.
        by_kid: dict[str, list[dict[int, int]]] = {
            h: [{} for _ in ws] for h, ws in self._variances.items()}
        for x, (h, kids) in enumerate(zip(self.heads, self.kids)):
            bit = 1 << x
            head_ids[h] = head_ids.get(h, 0) | bit
            for k, at in zip(kids, by_kid[h]):
                at[k] = at.get(k, 0) | bit
        self.dense = len(self.heads)
        self.full = (1 << self.dense) - 1
        tables: dict[tuple[str, int, Variance], _KidTable] = {}
        for h in self._variances:
            self._plans[h] = (self._plan(h, COV, by_kid, tables),
                              self._plan(h, CONTRA, by_kid, tables))

    def row(self, v: Variance, a: int) -> int:
        """The set of dense ids b with a prec_v b."""
        if v is COV:
            return self.le[a]
        if v is CONTRA:
            return self.ge[a]
        if v is INV:
            return self.le[a] & self.ge[a]
        return self.full

    def prec(self, v: Variance, a: int, b: int) -> bool:
        """a prec_v b: a bit test when both ids are dense, else one
        structural recursion: the heads relate at v, and the children
        at each position of variance w relate at compose(v, w).  So `=`
        asks for heads related both ways and equivalent children at
        every position that is not `~`, one call per pair of children,
        not one per direction at every level."""
        if v is IRR or a == b:
            return True
        if a < self.dense and b < self.dense:
            return self.row(v, a) >> b & 1 == 1
        h, g = self.heads[a], self.heads[b]
        if (v is not CONTRA and g not in self._up[h]
                or v is not COV and h not in self._up[g]):
            return False
        for w, x, y in zip(self._variances[h], self.kids[a], self.kids[b]):
            if not self.prec(compose(v, w), x, y):
                return False
        return True

    def _plan(self, h: str, v: Variance,
              by_kid: dict[str, list[dict[int, int]]],
              tables: dict[tuple[str, int, Variance], _KidTable]) -> _Plan:
        """How the ids above (v = COV) or below (v = CONTRA) a type of
        head h are found: per head g in `_up[h]` (per head g with h in
        `_up[g]`), the ids of head g, and a step (p, table) per position p
        whose variance w is not `~`.  The table maps a child id k to the
        ids of head g whose child at p lies in row(w, k) (in
        row(_REVERSE[w], k) for the ids below); the edges between heads
        preserve variances, so w is also g's variance at p.  A table
        serves every plan that asks for its (g, p, variance)."""
        plan = []
        up = self._up
        for g in (up[h] if v is COV else [g for g in up if h in up[g]]):
            if g not in self._head_ids:
                continue
            steps = []
            for p, w in enumerate(self._variances[h]):
                if w is IRR:
                    continue
                key = (g, p, w if v is COV else _REVERSE[w])
                if key not in tables:
                    tables[key] = _KidTable(self, key[2], by_kid[g][p])
                steps.append((p, tables[key]))
            plan.append((self._head_ids[g], tuple(steps)))
        return tuple(plan)


class _Rows(dict):
    """Id x -> the dense ids above x (v = COV) or below it (v = CONTRA),
    read off the plan of x's head on first use.  x's children are read
    first, each through the tables of the plan."""

    def __init__(self, table: TypeTable, v: Variance):
        super().__init__()
        self.table, self.side = table, 0 if v is COV else 1

    def __missing__(self, x: int) -> int:
        table = self.table
        ids = self[x] = _select(table._plans[table.heads[x]][self.side],
                                table.kids[x])
        return ids


def _select(plan: _Plan, kids: tuple[int, ...]) -> int:
    """The ids that a plan selects for a type with children `kids`."""
    ids = 0
    for out, steps in plan:
        for p, table in steps:
            if not out:
                break
            out &= table[kids[p]]
        ids |= out
    return ids


class _KidTable(dict):
    """Child id k -> the dense ids of one head whose child at one
    position lies in row(v, k), filled on first use of each k."""

    def __init__(self, table: TypeTable, v: Variance,
                 by_kid: dict[int, int]):
        super().__init__()
        self.table, self.v, self.by_kid = table, v, by_kid
        self.present = sum(1 << c for c in by_kid)

    def __missing__(self, k: int) -> int:
        by_kid = self.by_kid
        hits = 0
        for c in _members(self.table.row(self.v, k) & self.present):
            hits |= by_kid[c]
        self[k] = hits
        return hits


#: Per head g related to a type's head, g's ids and a step (p, table)
#: per position p that is not `~`.
_Plan = tuple[tuple[int, tuple[tuple[int, _KidTable], ...]], ...]


#: prec_v(a, b) iff prec_{_REVERSE[v]}(b, a).
_REVERSE = {COV: CONTRA, CONTRA: COV, INV: INV, IRR: IRR}


class GroundUniverse(TypeTable):
    """All variable-free types of bounded depth over a signature.

    Enumeration order is deterministic (by depth, then constructor
    declaration order, then argument order) and duplicate-free; the list
    is closed under subterms because every shallower type is included.
    The universe's types are the dense ids 0..n-1, in that order; deeper
    types (instances of a bound, say) are interned on demand.  A type's
    tree is built only when it is asked for (`type`), since an oracle
    run renders only the few types of its counterexamples.
    """

    def __init__(self, sig: Signature, depth: int):
        super().__init__(sig)
        self.depth = depth
        #: within[k]: the ids of depth <= k, a prefix of the universe.
        self.within: list[int] = [0]
        self._trees: dict[int, TypeExpr] = {}

    def __len__(self) -> int:
        return self.dense

    def type(self, i: int) -> TypeExpr:
        """The type tree of id i, built once."""
        t = self._trees.get(i)
        if t is None:
            t = self._trees[i] = App(self.heads[i],
                                     tuple(map(self.type, self.kids[i])))
        return t

    @functools.cached_property
    def types(self) -> tuple[TypeExpr, ...]:
        """The universe's types, in id order."""
        return tuple(map(self.type, range(self.dense)))

    @functools.cached_property
    def index(self) -> dict[TypeExpr, int]:
        """The id of each of the universe's types."""
        return {t: i for i, t in enumerate(self.types)}


def enumerate_types(sig: Signature, depth: int,
                    cap: int = DEFAULT_UNIVERSE_CAP) -> GroundUniverse:
    """All ground types of syntactic depth <= depth (constants have
    depth 1).  Raises UniverseSizeError beyond `cap` types.  No row is
    built here: each is built when it is first read.  Rows are Python
    ints and each holds its own type's bit, so the rows of n types take
    at most about n^2/8 bytes, reached when every row is read (as
    `check_sp_requirements` does): the default cap of 40,000 types
    bounds them to about 200 MB."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    u = GroundUniverse(sig, depth)
    ctors = list(sig.ctors.values())
    for info in ctors:
        if info.arity == 0:
            u.intern(info.name, ())
    if len(u.heads) > cap:
        raise UniverseSizeError(f"universe exceeds cap of {cap} types")
    u.within.append((1 << len(u.heads)) - 1)
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
        u.within.append((1 << len(u.heads)) - 1)
    u.build()
    return u


# ---------------------------------------------------------------------------
# Subtyping decision procedure


class SemanticOracle:
    """Subtyping on type expressions, and the per-variance relations of
    a universe.  Type expressions are interned into a table of the
    oracle's own, which has no rows: its ids compare structurally."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.table = TypeTable(sig)

    def subtype(self, a: TypeExpr, b: TypeExpr) -> bool:
        return self.prec(COV, a, b)

    def prec(self, v: Variance, a: TypeExpr, b: TypeExpr) -> bool:
        table = self.table
        return table.prec(v, table.intern_expr(a), table.intern_expr(b))

    def related(self, u: GroundUniverse, w: Variance) -> list[int]:
        """Bitset rows over the universe: related[i] = the set of j with
        types[i] prec_w types[j]."""
        return [u.row(w, i) for i in range(len(u))]


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
    return itertools.product(range(len(u)), repeat=m)


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
        head, fns = u._known(node.ctor), [compile(a) for a in node.args]
        return lambda idx: intern(head, tuple([f(idx) for f in fns]))
    return compile(t)


#: A compiled walk: (path, w, x) per node, in preorder.  A leaf has the
#: composed variance w and its coordinate x; any other node has w None
#: and the set x of ids s|path may be.
_Walk = tuple[tuple[tuple[int, ...], Optional[Variance], int], ...]


def _walk(u: GroundUniverse, t: TypeExpr, v: Variance,
          domain: Sequence[str]) -> _Walk:
    """t at v over the variables `domain`, compiled for inversion.

    Types compare structurally, so an instance of t relates to a type s
    only through t's own heads: t[rho'] prec_v s iff at the path of each
    node of t (the argument positions from its root), s|path passes the
    node's step.  The step of a node at composed variance w is a leaf
    row or a set of allowed ids:

    - an occurrence of the variable of coordinate x: rho'(x) lies in
      row(_REVERSE[w], s|path);
    - a node with a variable below it: the ids whose head is related to
      the node's head at w, so the node's children exist in s;
    - a maximal closed subterm of id c: row(w, c).

    A node at composed variance IRR constrains nothing, so it and its
    subterms have no step.  The closed subterms are interned once, here,
    and a head outside the signature raises ValueError.
    """
    ids = u._head_ids
    steps = []
    stack = [((), v, t)]
    while stack:
        path, w, node = stack.pop()
        if w is IRR:
            continue
        if isinstance(node, Var):
            steps.append((path, w, domain.index(node.name)))
        elif is_ground(node):
            steps.append((path, None, u.row(w, u.intern_expr(node))))
        else:
            assert isinstance(node, App)
            head = u._known(node.ctor)
            # Each id has one head, so these sums are unions.
            up = sum(ids.get(g, 0) for g in u._up[head])
            down = sum(ids.get(g, 0) for g in u._up if head in u._up[g])
            steps.append((path, None, up if w is COV else
                          down if w is CONTRA else up & down))
            stack.extend((path + (i,), compose(w, x), a) for i, (a, x)
                         in enumerate(zip(node.args, u._variances[head])))
    return tuple(steps)


def _invert(u: GroundUniverse, walk: _Walk, s: int,
            allowed: list[int]) -> bool:
    """Whether the universe type s passes the id-set steps of the walk
    of t at v.  If it does, each allowed[j] is intersected with the rows
    of the leaves of coordinate j: of the rho' in the product of the
    masks as they were, t[rho'] prec_v s holds for exactly those in the
    product of the narrowed masks.  s and its subterms are universe
    types, so their ids are dense and each id-set test is exact."""
    kids, row = u.kids, u.row
    for path, w, x in walk:
        t = s
        for p in path:
            t = kids[t][p]
        if w is None:
            if not x >> t & 1:
                return False
        else:
            allowed[x] &= row(_REVERSE[w], t)
    return True


def _witnessed(u: GroundUniverse, walks: Sequence[_Walk],
               targets: Sequence[int], allowed: list[int]) -> bool:
    """Whether some rho' in the product of the masks `allowed` has
    t[rho'] prec_v s for the walk of each t at v and its target s.  The
    masks are narrowed in place."""
    for walk, s in zip(walks, targets):
        if not _invert(u, walk, s, allowed):
            return False
    return all(allowed)


def sem_variance_cex(
    sig: Signature, u: GroundUniverse, g: VarianceContext, t: TypeExpr,
    v: Variance,
) -> Optional[tuple[tuple[TypeExpr, ...], tuple[TypeExpr, ...]]]:
    """First counterexample to the variance interpretation over u, or
    None: assignments related under g whose instances are not related
    under v."""
    domain = g.domain()
    m = len(domain)
    if m == 0:
        return None
    ws = g.variances()
    inst = _instantiator(u, t, domain)
    for idx in _assignments(u, m):
        lhs = inst(idx)
        for jdx in itertools.product(*(_members(u.row(w, i))
                                       for w, i in zip(ws, idx))):
            if not u.prec(v, lhs, inst(jdx)):
                return (tuple(map(u.type, idx)), tuple(map(u.type, jdx)))
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
    domain = g.domain()
    ws = g.variances()
    insts = [_instantiator(u, t, domain) for t, _, _ in parts]
    walks = [_walk(u, t, v2, domain) for t, _, v2 in parts]
    for idx in _assignments(u, len(domain)):
        rows = [u.row(w, i) for w, i in zip(ws, idx)]
        # A part at v2 = ~ has an empty walk and asks nothing of its
        # target, so its first target stands for all of them: where a
        # tuple fails, so does the earlier one with that first target.
        targets = [itertools.islice(_members(u.row(v, inst(idx))),
                                    None if walk else 1)
                   for inst, (_, v, _), walk in zip(insts, parts, walks)]
        for sdx in itertools.product(*targets):
            if not _witnessed(u, walks, sdx, list(rows)):
                return (tuple(map(u.type, idx)), tuple(map(u.type, sdx)))
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


def _reach(u: GroundUniverse, v: Variance, w: Variance, at: int,
           cands: int) -> int:
    """The ids s' with c prec_w s' for some candidate c, at prec_v c:
    the union of the rows at w of the candidates `cands` = row(v, at),
    which is not empty.

    Rows are reflexive and transitive, and prec_w lies within prec_v
    iff var_leq(v, w).  So if var_leq(v, w), the union is the candidates
    themselves.  If var_leq(w, v), then w is ~ or v is =, so every
    candidate c has at prec_w c and c prec_w at, and the union is
    row(w, at).  Only the pair of + and - takes the union literally.
    """
    if var_leq(v, w):
        return cands
    if var_leq(w, v):
        return u.row(w, at)
    return functools.reduce(operator.or_,
                            (u.row(w, c) for c in _members(cands)))


class _Bound(NamedTuple):
    """A constraint "parameter rel bound", with "bound prec_v param"."""
    param: int
    v: Variance
    #: The bound's instances, from an assignment to the group.
    at: Callable[[tuple[int, ...]], int]


def _narrowed(u: GroundUniverse, walks: Sequence[_Walk],
              width: int) -> list[Sequence[int]]:
    """Per local coordinate, the ids it may take at an assignment rho
    where every bound has a candidate.  A universe type s with
    bound[rho] prec_v s has depth at most d, so at the path of each
    occurrence of x it has a subterm of depth at most d - |path| that
    rho(x) is prec_w: rho(x) lies in the union of the rows at
    _REVERSE[w] of the types of that depth.  An occurrence at the root
    asks nothing: s may be rho(x) itself."""
    needs: list[set[tuple[Variance, int]]] = [set() for _ in range(width)]
    for walk in walks:
        for path, w, j in walk:
            if w is not None and path:
                needs[j].add((w, max(u.depth - len(path), 0)))

    def prec_some(w: Variance, k: int) -> int:
        """The ids prec_w some type of depth <= k."""
        ids = 0
        for c in _members(u.within[k]):
            ids |= u.row(_REVERSE[w], c)
        return ids
    return [list(_members(functools.reduce(
                operator.and_, itertools.starmap(prec_some, n))))
            if n else range(len(u)) for n in needs]


class _Group(NamedTuple):
    """Existential coordinates that constraint bounds link, and the
    constraints over them.  Bounds are instantiated from assignments to
    the group's own coordinates, in ascending order."""
    coords: tuple[int, ...]
    bounds: tuple[_Bound, ...]
    #: Per bound, its walk at its variance over the local coordinates.
    walks: tuple[_Walk, ...]
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
        vs = [target_variance(c.rel) for c in cs]
        groups.append(_Group(
            coords,
            tuple(_Bound(c.param, v, _instantiator(u, c.bound, local))
                  for c, v in zip(cs, vs)),
            tuple(_walk(u, c.bound, v, local) for c, v in zip(cs, vs)),
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
    sigma' fails.  At one assignment, sigma' ranges over the product of
    the parameters' reach sets (the parameters above some candidate),
    which is the union of the sigma' ranges of all sigma, so each
    sigma' is checked once.  A reach set is one row unless the
    constraint's variance and the parameter's are + and - (`_reach`),
    and where every reach set is its candidate set no sigma' can fail.
    A group in which the variance of every parameter is at least its
    constraint's has such reach sets at every assignment, so it stops
    at its first assignment with candidates: `sink_sub.S` (`'a <= 'b`
    on a `-` parameter) visits one assignment at depth 3, not 1179.

    Both quantifiers are decided coordinate by coordinate.  The witness
    rho' is found by inversion through each bound (`_witnessed`): the
    argument and every bound at sigma' admit a set of witnesses per
    coordinate, so some rho' exists iff no test fails and no set is
    empty.  A group's assignments are the product of its narrowed
    coordinates (`_narrowed`); every assignment left out has a
    parameter with no candidate, where the literal search finds nothing
    either, so `expr.Prod` (`['a = 'b * 'c]`) visits 3 x 3 assignments
    at depth 2, not 24^2.

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
    norm = normalize_constructor(d, k)
    ws = d.param_variances()
    groups = _groups(sig, u, norm)
    row = u.row

    def candidates(part: Sequence[_Group], rhos: Sequence[tuple[int, ...]]
                   ) -> Optional[tuple[list[Optional[int]],
                                       list[Optional[int]]]]:
        """Per parameter, the ids sigma may take there at one assignment
        of each group of `part`, and its reach set, the ids above some
        candidate: the union of the sigma' ranges of all sigma.  Both
        are None outside `part`; or None when some parameter has no
        candidate."""
        cands: list[Optional[int]] = [None] * len(ws)
        reach = list(cands)
        for g, r in zip(part, rhos):
            for b in g.bounds:
                at = b.at(r)
                s = cands[b.param] = row(b.v, at)
                if not s:
                    return None
                reach[b.param] = _reach(u, b.v, ws[b.param], at, s)
        return cands, reach

    def first_failing(part: Sequence[_Group], rhos: Sequence[tuple[int, ...]],
                      reach: Sequence[Optional[int]]) -> Optional[tuple]:
        """The first sigma' in product order over `reach` (held at None
        where reach is None) at which some group of `part` has no witness
        at its assignment, or None."""
        # Per group, the witness coordinates keeping the argument above
        # its instance at the group's assignment.
        bases = [[row(w, i) for i, w in zip(r, g.uses)]
                 for g, r in zip(part, rhos)]
        for spidx in itertools.product(*[(None,) if s is None
                                         else tuple(_members(s))
                                         for s in reach]):
            for g, above in zip(part, bases):
                targets = [spidx[b.param] for b in g.bounds]
                if not _witnessed(u, g.walks, targets, list(above)):
                    return spidx
        return None

    # Per group, its first assignment with candidates and its first
    # failing one, in product order.
    visited = 0
    firsts: list[tuple[tuple[int, ...], Optional[tuple[int, ...]]]] = []
    for g in groups:
        first = bad = None
        # Where every reach set is its candidate set, each sigma'
        # satisfies the constraints at r, so r itself is a witness and
        # no sigma' fails.  In a safe group that holds at every
        # assignment (`_reach`), so its first with candidates is enough.
        safe = all(var_leq(b.v, ws[b.param]) for b in g.bounds)
        for r in itertools.product(*_narrowed(u, g.walks, len(g.coords))):
            visited += 1
            found = candidates((g,), (r,))
            if found is None:
                continue
            if first is None:
                first = r
                if safe:
                    break
            cands, reach = found
            if (reach != cands
                    and first_failing((g,), (r,), reach) is not None):
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
    # Every parameter has candidates at rho, and sigma' ranges above sigma.
    cands, _ = candidates(groups, rhos)
    for sidx in itertools.product(*map(_members, cands)):
        spidx = first_failing(groups, rhos,
                              [row(w, i) for w, i in zip(ws, sidx)])
        if spidx is not None:
            break
    assert spidx is not None, "a group failed at this rho"
    return ReqSpResult(
        False, u.depth,
        sigma=tuple(map(u.type, sidx)),
        sigma_prime=tuple(map(u.type, spidx)),
        rho=tuple(map(u.type, spread(rhos))),
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
    heads, kids, row = u.heads, u.kids, u.row

    def render(i: int) -> str:
        return render_type(u.type(i))
    is_base = {
        name: info.arity == 0 and info.kind != "builtin"
        for name, info in sig.ctors.items()
    }
    for i in range(len(u)):
        a = heads[i]
        for j in _members(row(COV, i)):
            b = heads[j]
            if a == b:
                continue
            if is_base[a] and is_base[b] and sig.base_leq(a, b):
                continue
            report.incomparability_violations.append(
                f"{render(i)} <= {render(j)} with distinct heads")
    for head, contra_first in (("->", True), ("*", False)):
        members = u._head_ids.get(head, 0)
        for f1 in _members(members):
            for f2 in _members(row(COV, f1) & members):
                (d1, c1), (d2, c2) = kids[f1], kids[f2]
                d_ok = (u.prec(COV, d2, d1) if contra_first
                        else u.prec(COV, d1, d2))
                if not (d_ok and u.prec(COV, c1, c2)):
                    report.decomposition_violations.append(
                        f"{render(f1)} <= {render(f2)} does not "
                        f"decompose componentwise")
    return report
