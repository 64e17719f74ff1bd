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
and the tuple of its children's ids.  A universe of depth d holds every
type of depth <= d, so its ids need no table: they are laid out by
arithmetic, in blocks of consecutive ids, one per level and head, each
a product of shallower ids in product order.  The id of a type is its
block's start plus its children's rank in the block, and the head and
children of an id are decoded from it when they are first read, so a
run decodes only the ids it reads and enumerates no type.  A universe's
subtyping relation is kept as Python-int bitsets over its ids, one row
per type and direction, so the quantifier loops run over integers and
bit tests instead of type trees.  A row is computed when it is first
read, so a run builds only the rows its verdicts read.  The types
related to h(k_1..k_n) are a product: a head related to h, and per
position an id of depth < d in the row of k_p.  A row is that product,
each tuple placed in the block of each related head.  Instances deeper
than the universe (a bound `'b pos` at depth d + 1) are interned on
demand, and their rows are computed the same way.  A universe type's
tree is built only when it is rendered.  Two types compare
structurally (`GroundUniverse.prec`), reading no row, whether their ids
are dense or deep; types compared outside a universe (`subtype` and
`prec`) are interned into a universe of depth 1.  Making a universe
lays out its blocks and starts its memos empty; the tables only
compiling a walk or a row reads are built on first read.

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

import bisect
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
    type_depth,
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


class _Decoded(dict):
    """Id -> its head (or its children), stored when it is interned, or
    else decoded from the id on first read (`GroundUniverse._decode`)."""

    def __init__(self, universe: GroundUniverse):
        self.universe = universe

    def __missing__(self, x: int):
        self.universe._decode(x)
        return self[x]


#: prec_v(a, b) iff prec_{_REVERSE[v]}(b, a).
_REVERSE = {v: compose(CONTRA, v) for v in ALL_VARIANCES}


class GroundUniverse:
    """All variable-free types of bounded depth over a signature, and
    their subtyping relation; and the ids of deeper types.

    The universe's types are the dense ids 0..n-1.  Their order is
    deterministic (by depth, then constructor declaration order, then
    product order of the children's ids) and duplicate-free, and it is
    closed under subterms because every shallower type comes first.
    The order is laid out by arithmetic, not enumerated: it is a
    sequence of blocks, recorded by the constructor, so the id of a type
    is its block's start plus the rank of its children in the block
    (`intern`), and the head and children of a dense id are decoded from
    it on first read (`heads`, `kids`).  So a run decodes only the ids
    it reads.  A deeper type (an instance of a bound, say) is a deep id:
    it is numbered from n in intern order, and its head and children are
    stored when it is interned.  A type's tree is built only when it is
    asked for (`type`), since an oracle run renders only the few types
    of its counterexamples.

    Rows are read through `row` alone.  It keeps them in the memos `le`
    and `ge`, over the dense ids: `le[i]`, the set of dense j with type
    i <= type j, and `ge[i]`, the set of dense j with type j <= type i.
    A row is computed from its children's rows on first read, for any
    id, dense or deep.  Any two ids compare structurally (`prec`), and
    read no row.
    """

    def __init__(self, sig: Signature, depth: int, cap: int):
        """Record the layout of the types of depth <= depth.

        The constants come first, in declaration order.  Then level by
        level, each non-constant head gets one block of consecutive ids:
        its tuples over the ids of depth < level that are not all of
        depth < level - 1, in product order.  So a head's ids are a
        union of ranges, one per level (`_head_ids`).  A block of a head
        of arity a holds exactly n^a - m^a types, where n counts the ids
        of depth < level and m those of depth < level - 1, so each
        level's size is known before the next is laid out: beyond `cap`
        types UniverseSizeError is raised.  No type is enumerated or
        decoded here, and no row is computed or read.

        What the loops read is made here, each memo empty.  The tables
        that only compiling a walk or a row reads (`_down`, `_head_ids`)
        are built on first read: they are `cached_property`s, whose
        loads CPython 3.11 does not specialise, so nothing the loops read
        is one."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._variances = ws = {name: info.variances
                                for name, info in sig.ctors.items()}
        reach = sig.head_reach()
        #: The heads a type of head h may lie below.  The edges between
        #: heads preserve arity and variances.
        self._up = up = {h: (h,) for h in ws}
        for h, above in reach.items():
            if h in ws:
                up[h] = tuple(g for g in above if ws.get(g) == ws[h])
        #: The head and the children of each id.
        self.heads: dict[int, str] = _Decoded(self)
        self.kids: dict[int, tuple[int, ...]] = _Decoded(self)
        # The id of every type interned, and of every type interned from
        # a TypeExpr.
        self._ids: dict[tuple[str, tuple[int, ...]], int] = {}
        self._exprs: dict[TypeExpr, int] = {}
        self._trees: dict[int, TypeExpr] = {}
        # The layout.  _ends[k]: the number of ids of depth <= k.
        # _starts[h][k]: the first id of the block of the types of head h
        # whose deepest child has depth k (0 for a constant).  The
        # blocks' starts in id order, and per block its head, arity and
        # k.
        ends = self._ends = [0]
        self._starts = starts = {h: {} for h in ws}
        self._block_starts = block_starts = []
        self._blocks = blocks = []
        ctors = sig.ctors.values()
        end = 0
        for deepest in range(depth):
            # k = 0 lays out the constants, and each k > 0 the other
            # heads over the n ids of depth <= k, not all among the m of
            # depth < k.
            n, m = end, ends[-1]
            if deepest:
                ends.append(n)
            for info in ctors:
                a = info.arity
                if (a > 0) == (deepest > 0):
                    block_starts.append(end)
                    blocks.append((info.name, a, deepest))
                    starts[info.name][deepest] = end
                    end += n ** a - m ** a if a else 1
            if end > cap:
                raise UniverseSizeError(
                    f"universe exceeds cap of {cap} types (depth {depth})")
        ends.append(end)
        #: The number of dense ids, and their set.
        self.dense = end
        self.full = (1 << end) - 1
        #: within[k]: the ids of depth <= k, a prefix of the universe.
        self.within = [(1 << e) - 1 for e in ends]
        #: The rows read so far at `+` and at `-` (`row`).
        self.le: dict[int, int] = {}
        self.ge: dict[int, int] = {}
        # The deep ids, in intern order.
        self._deep_ids = itertools.count(end)

    @functools.cached_property
    def _down(self) -> dict[str, list[str]]:
        """The heads a type of head h may lie above."""
        down: dict[str, list[str]] = {h: [] for h in self._up}
        for h, above in self._up.items():
            for g in above:
                down[g].append(h)
        return down

    @functools.cached_property
    def _head_ids(self) -> dict[str, int]:
        """Per head with a block, the set of its dense ids, one range per
        block."""
        ids: dict[str, int] = {}
        for (head, _, _), start, end in zip(
                self._blocks, self._block_starts,
                self._block_starts[1:] + [self.dense]):
            ids[head] = ids.get(head, 0) | (1 << end) - (1 << start)
        return ids

    def __len__(self) -> int:
        return self.dense

    def intern(self, head: str, kids: tuple[int, ...]) -> int:
        """The id of head(kids).  It is its block's start plus its rank
        in the block if its children have depth < d, so that it is a
        universe type, else the next deep id when it is first
        interned.  Its head and children are stored then, so that they
        need no decoding."""
        key = (head, kids)
        i = self._ids.get(key)
        if i is None:
            if max(kids, default=-1) < self._ends[-2]:
                deepest, rank = self._place(kids)
                i = self._starts[head][deepest] + rank
            else:
                i = next(self._deep_ids)
            self._ids[key] = i
            self.heads[i] = head
            self.kids[i] = kids
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

    def _place(self, kids: tuple[int, ...]) -> tuple[int, int]:
        """The depth k of the deepest of `kids`, dense ids of depth < d
        (0 if there are none), and the rank of `kids` in a block of
        that k: among the tuples over the n ids of depth <= k that are
        not all among the m ids of depth < k, in product order.  It is
        the tuple's rank in the whole product, less the tuples over the
        m ids that come before it."""
        ends = self._ends
        deepest = bisect.bisect_right(ends, max(kids, default=-1))
        if not deepest:
            return 0, 0
        n, m = ends[deepest], ends[deepest - 1]
        rank = before = 0
        # The children after the first one of depth k add 0 to `before`.
        below = m
        for k in kids:
            rank = rank * n + k
            if k < below:
                before = before * m + k
            else:
                before = before * m + below
                below = 0
        return deepest, rank - before

    def _decode(self, x: int) -> None:
        """Store the head and children of a dense id x that was not
        interned: the head of its block, and the tuple whose rank in the
        block (`_place`) is x's offset."""
        if not 0 <= x < self.dense:
            raise KeyError(x)
        b = bisect.bisect_right(self._block_starts, x) - 1
        head, arity, deepest = self._blocks[b]
        rank = x - self._block_starts[b]
        n, m = self._ends[deepest], self._ends[deepest - 1] if deepest else 0
        kids = []
        # Until a child of depth k is placed, each of the m ids at this
        # position heads `span - m ** rest` tuples of the block, and
        # each other id `span`; from then on, every id heads `span`.
        below = m
        for rest in reversed(range(arity)):
            span = n ** rest
            q = span - m ** rest
            if rank < below * q:
                k, rank = divmod(rank, q)
            else:
                k, rank = divmod(rank - below * q, span)
                k += below
                below = 0
            kids.append(k)
        self.heads[x] = head
        self.kids[x] = tuple(kids)

    def prec(self, v: Variance, a: int, b: int) -> bool:
        """a prec_v b, by one structural recursion for any two ids,
        dense or deep, that reads no row: the heads relate at v, and the
        children at each position of variance w relate at compose(v, w).
        So `=` asks for heads related both ways and equivalent children
        at every position that is not `~`, one call per pair of
        children, not one per direction at every level."""
        if v is IRR or a == b:
            return True
        heads, kids = self.heads, self.kids
        h, g = heads[a], heads[b]
        if (v is not CONTRA and g not in self._up[h]
                or v is not COV and h not in self._up[g]):
            return False
        for w, x, y in zip(self._variances[h], kids[a], kids[b]):
            if not self.prec(compose(v, w), x, y):
                return False
        return True

    def row(self, v: Variance, a: int) -> int:
        """The set of dense ids b with a prec_v b: `le[a]` at `+`, `ge[a]`
        at `-`, both at `=`, and every id at `~`.

        A universe of depth d holds every type of depth <= d.  So the
        dense ids related at v to a = h(k_1..k_n) are those of the types
        g(j_1..j_n), where g is a head related to h at v and each j_p is
        an id of depth < d in row(compose(v, w_p), k_p), w_p being h's
        variance at p (the edges between heads preserve variances, so it
        is g's too).  A `~` position needs no case of its own: its row is
        full.  A tuple whose deepest child has depth k is g's id
        `_starts[g][k]` plus its rank in that block (`_place`)."""
        if v is COV:
            rows = self.le
        elif v is CONTRA:
            rows = self.ge
        elif v is INV:
            return self.row(COV, a) & self.row(CONTRA, a)
        else:
            return self.full
        row = rows.get(a)
        if row is None:
            h = self.heads[a]
            near = self._up[h] if v is COV else self._down[h]
            starts = [self._starts[g] for g in near]
            cols = [_members(self.row(compose(v, w), k) & self.within[-2])
                    for w, k in zip(self._variances[h], self.kids[a])]
            row = 0
            for kids in itertools.product(*cols):
                deepest, rank = self._place(kids)
                for s in starts:
                    row |= 1 << s[deepest] + rank
            rows[a] = row
        return row

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


def enumerate_types(sig: Signature, depth: int,
                    cap: int = DEFAULT_UNIVERSE_CAP) -> GroundUniverse:
    """All ground types of syntactic depth <= depth (constants have
    depth 1): every head over every tuple of shallower types, laid out
    as a `GroundUniverse`.  Beyond `cap` types UniverseSizeError is
    raised.  Rows are Python ints and each holds its own type's bit, so
    the rows of n types take at most about n^2/8 bytes, reached when
    every row is read (as `check_sp_requirements` does): the default cap
    of 40,000 types bounds them to about 200 MB."""
    return GroundUniverse(sig, depth, cap)


# ---------------------------------------------------------------------------
# Subtyping decision procedure


class SemanticOracle:
    """Subtyping on type expressions, and the per-variance relations of
    a universe.  Type expressions are interned into the oracle's own
    universe of depth 1, which holds every constant whatever their
    number: constants are its dense ids, every other type is a deep id,
    and any two compare structurally (`GroundUniverse.prec`)."""

    def __init__(self, sig: Signature):
        self.table = enumerate_types(sig, 1, cap=len(sig.ctors))

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
            down = sum(ids.get(g, 0) for g in u._down[head])
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
    #: Where it holds vacuously, the bound that has no instance.
    vacuous: Optional[TypeExpr] = field(default=None, compare=False)

    def describe(self) -> str:
        if self.vacuous is not None:
            return (f"vacuous (no instance of {render_type(self.vacuous)} "
                    f"at depth {self.depth})")
        if self.holds:
            return f"holds (depth {self.depth})"
        def tup(ts):
            return "(" + ", ".join(render_type(t) for t in ts) + ")"
        return (f"fails (depth {self.depth}): sigma={tup(self.sigma)} "
                f"sigma'={tup(self.sigma_prime)} rho={tup(self.rho)}")


def _reach(u: GroundUniverse, v: Variance, w: Variance
           ) -> Callable[[int, int], int]:
    """The reach set as a function of (at, cands): the ids s' with c
    prec_w s' for some candidate c, at prec_v c, that is the union of
    the rows at w of the candidates `cands` = row(v, at), which is not
    empty.  Which of three functions computes it depends on v and w
    alone, so it is chosen once per bound, not per assignment.

    Rows are reflexive and transitive, and prec_w lies within prec_v
    iff var_leq(v, w).  So if var_leq(v, w), the union is the candidates
    themselves.  If var_leq(w, v), then w is ~ or v is =, so every
    candidate c has at prec_w c and c prec_w at, and the union is
    row(w, at).  Only the pair of + and - takes the union literally.
    """
    if var_leq(v, w):
        return lambda at, cands: cands
    row = u.row
    if var_leq(w, v):
        return lambda at, cands: row(w, at)
    return lambda at, cands: functools.reduce(
        operator.or_, map(row, itertools.repeat(w), _members(cands)))


class _Bound(NamedTuple):
    """A constraint "parameter rel bound", with "bound prec_v param",
    compiled: an assignment to the group gives the bound's instance
    `at`, the parameter's candidates row(v, at), and its reach set
    `reach(at, row(v, at))` (`_reach`)."""
    param: int
    v: Variance
    #: The bound's instances, from an assignment to the group.
    at: Callable[[tuple[int, ...]], int]
    #: None in a group that `req_sp` decides without the universe.
    reach: Optional[Callable[[int, int], int]]


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
    #: Per bound, its walk at its variance over the local coordinates;
    #: none where the group is safe and every bound fits the universe,
    #: since such a group is decided without the universe (`req_sp`).
    walks: tuple[_Walk, ...]
    #: Per local coordinate of a group that is not safe, the principal
    #: entry of the argument: two instances of it have the same heads
    #: at its own nodes, which compare pointwise, so arg[rho] <=
    #: arg[rho'] iff rho(x) prec_w rho'(x) for each coordinate x and its
    #: entry w.
    uses: tuple[Variance, ...]
    #: Whether no sigma' can fail at any assignment of the group
    #: (`_groups`), so that its first assignment with candidates is
    #: enough.
    safe: bool


def _rigid_linear(u: GroundUniverse, t: TypeExpr, w: Variance,
                  uses: dict[str, Variance]) -> bool:
    """Whether an `=` bound t on a parameter of declared variance w is
    decided by its own structure (`_groups`' third reason): each
    variable occurs in t once, every node sits at a composed variance c
    = w.(path) that is not `~`, every head is related at its c to itself
    only, and each variable x has var_leq(uses[x], c)."""
    seen: set[str] = set()
    stack = [(t, w)]
    while stack:
        node, c = stack.pop()
        if c is IRR:
            return False
        if isinstance(node, Var):
            if node.name in seen or not var_leq(uses[node.name], c):
                return False
            seen.add(node.name)
            continue
        assert isinstance(node, App)
        head = u._known(node.ctor)
        if (c is not CONTRA and len(u._up[head]) > 1
                or c is not COV and len(u._down[head]) > 1):
            return False
        stack.extend((a, compose(c, x))
                     for a, x in zip(node.args, u._variances[head]))
    return True


def _groups(sig: Signature, u: GroundUniverse, d: DatatypeDecl,
            norm: DataConstructorDecl) -> list[_Group]:
    """The constraints of a normalized constructor, split into groups:
    two constraints share a group when their bounds share a variable,
    and the closed bounds form the group with no coordinate.  Groups
    come in the order of their coordinates.

    A group is safe, unable to fail, for any of three reasons.  Take
    any rho, any sigma with bound[rho] prec_v sigma(a) for each bound
    and its parameter a of declared variance w, and any sigma' with
    sigma(a) prec_w sigma'(a).

    - Every bound has var_leq(v, w): then prec_w lies within prec_v,
      so bound[rho] prec_v sigma'(a) by transitivity, and rho' := rho
      is a witness.
    - The group has one bound, a bare existential x whose principal
      entry u in the argument has var_leq(u, v) and var_leq(u, w): then
      rho'(x) := sigma'(a), a universe type, meets the bound by
      reflexivity, and rho(x) prec_u sigma(a) prec_u sigma'(a), since
      prec_v and prec_w lie within prec_u, keeps the argument above its
      instance at rho.
    - The group has one bound B, with v = `=`, that is rigid and linear
      (`_rigid_linear`): each existential x occurs in B once, at a path
      p_x; every node of B sits at a composed variance c = w.(path)
      that is not `~`; every head of B is related at its c to itself
      only; and the principal entry u_x of each x has var_leq(u_x,
      c_x).  Take rho'(x) := sigma'(a)|p_x.  B[rho] is equivalent to
      sigma(a), so B[rho] prec_w sigma'(a), and types compare
      structurally: at each node of B, sigma'(a) has B's head, so
      sigma'(a) = B[rho'], which meets the bound by reflexivity, and
      rho(x) prec_{c_x} rho'(x), which lies within prec_{u_x} and so
      keeps the argument above its instance at rho.  For `=`, this
      subsumes the second reason wherever w is not `~`: a bare B is x
      at c = w.

    A plain constructor's parameter used at its own variance, `'a =
    'x`, is safe for the second reason, and `expr.Prod` (`['a = 'b *
    'c]`), `arrow_bound.A` and `ml_open_demo`'s `box.B` for the third.
    Two bounds on one x, an `=` bound that repeats an existential or
    has a head that a private or base-order edge leaves in the
    direction of its c, a `+` parameter used at `-`, or a `~` parameter
    used at `=` are not, and their groups are searched in full.  A safe
    group needs no reach set and no principal entry, and one whose
    bounds all fit the universe (depth <= d) no walk either: only its
    bounds' parameters, variances and instances are compiled."""
    domain = norm.exist_vars
    ws = d.param_variances()
    arg_uses: Optional[tuple[Variance, ...]] = None
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
        safe = all(var_leq(v, ws[c.param]) for c, v in zip(cs, vs))
        if not safe and arg_uses is None:
            arg_uses = principal_context(sig, norm.arg, COV,
                                         domain).variances()
        if not safe and len(cs) == 1:
            (c,), (v,), w = cs, vs, ws[cs[0].param]
            if isinstance(c.bound, Var):
                use = arg_uses[coords[0]]
                safe = var_leq(use, v) and var_leq(use, w)
            elif v is INV:
                safe = _rigid_linear(u, c.bound, w, {
                    x: arg_uses[j] for x, j in zip(local, coords)})
        bounds = tuple(_Bound(c.param, v, _instantiator(u, c.bound, local),
                              None) for c, v in zip(cs, vs))
        if (safe and u.dense
                and all(type_depth(c.bound) <= u.depth for c in cs)):
            groups.append(_Group(coords, bounds, (), (), True))
            continue
        groups.append(_Group(
            coords,
            tuple(b._replace(reach=_reach(u, b.v, ws[b.param]))
                  for b in bounds),
            tuple(_walk(u, c.bound, v, local) for c, v in zip(cs, vs)),
            () if safe else tuple(arg_uses[j] for j in coords), safe))
    groups.sort(key=lambda g: g.coords)
    return groups


def req_sp(sig: Signature, u: GroundUniverse, d: DatatypeDecl,
           k: DataConstructorDecl,
           norm: Optional[DataConstructorDecl] = None) -> ReqSpResult:
    """The per-constructor soundness condition over u: whenever the
    instantiated datatype is coerced, constrained arguments stay
    constructible over some related witnesses.  Literally: for every
    rho, every sigma satisfying the constraints at rho and every sigma'
    above sigma (pointwise, under the declared variances), some rho'
    keeps the argument above its instance at rho and satisfies the
    constraints at sigma'.  `norm`, if given, is k normalized.

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
    A group that can fail at no assignment (`_Group.safe`, for any of
    the three reasons `_groups` gives) stops at its first assignment
    with candidates: `sink_sub.S` (`'a <= 'b` on a `-` parameter),
    `expr.Prod` (`['a = 'b * 'c]`) and every plain constructor's
    parameter used at its own variance, such as `ml_open_demo`'s
    `pos.P`, visit one assignment at any depth.  Where every bound of a
    safe group has depth <= d, that assignment is known without the
    universe: 0 is a constant, related to itself at every variance, so
    it lies in every narrowed coordinate, and the first assignment is
    all 0; there each bound's instance has depth <= d, a dense id and
    a candidate of itself.  Such a group counts one visit, builds only
    its bounds' instantiators (read where another group fails) and
    reads no row.  A safe group with a deeper bound is searched, so
    that a bound with no instance in the universe is reported vacuous.
    Each bound's tests are compiled once (`_Bound`), so an assignment
    costs one instance, one candidate row and one reach set per bound,
    and each reach set is kept per parameter as it is computed.  The
    sigma' search (`first_failing`) is made only at an assignment where
    some reach set is wider than its candidates.

    Both quantifiers are decided coordinate by coordinate.  The witness
    rho' is found by inversion through each bound (`_witnessed`): the
    argument and every bound at sigma' admit a set of witnesses per
    coordinate, so some rho' exists iff no test fails and no set is
    empty.  A group's assignments are the product of its narrowed
    coordinates (`_narrowed`); every assignment left out has a
    parameter with no candidate, where the literal search finds nothing
    either, so a linked group such as `['a <= 'b * 'c]` on a `+`
    parameter visits 3 x 3 assignments of expr's universe at depth 2,
    not 24^2.

    A failure reports the counterexample the literal reading finds
    first.  rho is the first failing assignment in product order: the
    product of the groups' sets of assignments is ordered coordinate by
    coordinate, so its first member takes the first member of each
    group's set, and the first type for existentials in no bound.  So
    one failing and one admissible assignment per group are enough, and
    no full assignment is walked.  At that rho, sigma is the first in
    product order with a failing sigma', and sigma' the first failing
    one above it; a safe group has a witness at every sigma', so only
    the other groups are searched.
    """
    norm = norm or normalize_constructor(d, k)
    ws = d.param_variances()
    groups = _groups(sig, u, d, norm)
    row = u.row

    def first_failing(part: Sequence[tuple[_Group, tuple[int, ...]]],
                      reach: Sequence[Optional[int]]) -> Optional[tuple]:
        """The first sigma' in product order over `reach` (held at None
        where reach is None) at which some group of `part` has no
        witness at its assignment, or None."""
        # Per group, the witness coordinates keeping the argument above
        # its instance at the group's assignment.
        bases = [[row(w, i) for i, w in zip(r, g.uses)] for g, r in part]
        for spidx in itertools.product(*[(None,) if s is None
                                         else tuple(_members(s))
                                         for s in reach]):
            for (g, _), above in zip(part, bases):
                targets = [spidx[b.param] for b in g.bounds]
                if not _witnessed(u, g.walks, targets, list(above)):
                    return spidx
        return None

    # Per group, its first assignment with candidates and its first
    # failing one, in product order.
    visited = 0
    firsts: list[tuple[tuple[int, ...], Optional[tuple[int, ...]]]] = []
    for g in groups:
        if not g.walks:
            # A safe group whose bounds fit the universe: 0, a constant,
            # lies in every narrowed coordinate (`_narrowed`), so the
            # first assignment is all 0, and there each bound's instance
            # has depth <= d, so it is a dense id, a candidate of itself.
            visited += 1
            firsts.append(((0,) * len(g.coords), None))
            continue
        first = bad = None
        # Per parameter of g, its reach set at the assignment r, the ids
        # above some candidate: the union of the sigma' ranges of all
        # sigma.  None outside g.
        reach: list[Optional[int]] = [None] * len(ws)
        for r in itertools.product(*_narrowed(u, g.walks, len(g.coords))):
            visited += 1
            # Whether every parameter has a candidate, and some reach set
            # is wider than its candidates.  Where every reach set is its
            # candidate set, each sigma' satisfies the constraints at r,
            # so r itself is a witness and no sigma' fails.
            wide = False
            for p, v, at, reach_of in g.bounds:
                i = at(r)
                s = row(v, i)
                if not s:
                    break
                reach[p] = t = reach_of(i, s)
                wide = wide or t != s
            else:
                if first is None:
                    first = r
                    if g.safe:
                        break
                if wide and first_failing([(g, r)], reach) is not None:
                    bad = r
                    break
        if first is None:
            return ReqSpResult(True, u.depth, assignments=visited,
                               vacuous=norm.constraints[g.bounds[0].param].bound)
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
    # Every parameter has candidates at rho, and sigma' ranges above
    # sigma; a safe group has a witness at every sigma', so only the
    # others are searched.
    cands = [0] * len(ws)
    for g, r in zip(groups, rhos):
        for b in g.bounds:
            cands[b.param] = row(b.v, b.at(r))
    part = [(g, r) for g, r in zip(groups, rhos) if not g.safe]
    for sidx in itertools.product(*map(_members, cands)):
        spidx = first_failing(part, [row(w, i) for w, i in zip(ws, sidx)])
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
