"""The four-element variance algebra.

Variances order the subtyping behaviour of a type parameter: covariant
(`+`), contravariant (`-`), invariant (`=`) and irrelevant (`~`).  Each
rule is stated once: composition in `_COMPOSE`, the lattice order in
`var_leq`, variance sets as 4-bit masks in `_SETS`, and the partial zip
in `ZIP_MASK`, which the zips of variances, of contexts (finite ordered
maps from type-variable names to variances) and of boxes (products of
per-variable sets of variances) read.

Everything here is a pure table-driven function over immutable values.
"""
from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional


class Variance(Enum):
    INV = "="
    COV = "+"
    CONTRA = "-"
    IRR = "~"

    # Members are singletons and compare by identity, so the identity
    # hash is consistent with equality; Enum's own `__hash__` hashes the
    # member name in Python on every dict and set operation.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Variance({self.value!r})"

    def __str__(self) -> str:
        return self.value


INV = Variance.INV
COV = Variance.COV
CONTRA = Variance.CONTRA
IRR = Variance.IRR

#: All variances, in the witness-search order used throughout: `= + - ~`.
ALL_VARIANCES = (INV, COV, CONTRA, IRR)

#: Rendering order for variance sets: `+ - = ~`.
DISPLAY_ORDER = (COV, CONTRA, INV, IRR)

#: Each variance's symbol; a dict read is cheaper than Enum's `.value`.
SYMBOL = {v: v.value for v in ALL_VARIANCES}


def render_variance_set(s: Iterable[Variance]) -> str:
    members = set(s)
    return "{" + ",".join(v.value for v in DISPLAY_ORDER if v in members) + "}"


def variance_of(symbol: str) -> Variance:
    """Parse one of `= + - ~` into a Variance."""
    try:
        return Variance(symbol)
    except ValueError:
        raise ValueError(f"not a variance symbol: {symbol!r}") from None


# Composition v.w: the variance of a w-position nested inside a v-position.
# COV is the identity; IRR is absorbing on the left and on the right.
_COMPOSE = {
    (INV, INV): INV, (INV, COV): INV, (INV, CONTRA): INV, (INV, IRR): IRR,
    (COV, INV): INV, (COV, COV): COV, (COV, CONTRA): CONTRA, (COV, IRR): IRR,
    (CONTRA, INV): INV, (CONTRA, COV): CONTRA, (CONTRA, CONTRA): COV, (CONTRA, IRR): IRR,
    (IRR, INV): IRR, (IRR, COV): IRR, (IRR, CONTRA): IRR, (IRR, IRR): IRR,
}


def compose(v: Variance, w: Variance) -> Variance:
    """Variance of a w-position inside a v-position (associative, commutative)."""
    return _COMPOSE[(v, w)]


def var_leq(v: Variance, w: Variance) -> bool:
    """Lattice order: IRR at the bottom, INV at the top, COV/CONTRA incomparable."""
    return v is w or v is IRR or w is INV


def var_glb(v: Variance, w: Variance) -> Variance:
    """Greatest lower bound in the var_leq lattice."""
    if var_leq(v, w):
        return v
    if var_leq(w, v):
        return w
    return IRR


def var_lub(v: Variance, w: Variance) -> Variance:
    """Least upper bound in the var_leq lattice."""
    if var_leq(v, w):
        return w
    if var_leq(w, v):
        return v
    return INV


class VarianceContext(Mapping[str, Variance]):
    """An ordered, immutable map from type-variable names to variances.

    Entry order is the declaration order of the variables described, so
    iteration and rendering are stable.  Hashable, usable as a memo key.
    """

    __slots__ = ("_entries", "_index", "_hash", "_domain", "_variances")

    def __init__(self, entries: Iterable[tuple[str, Variance]]):
        entries = tuple(entries)
        index = dict(entries)
        if len(index) != len(entries):
            raise ValueError("duplicate variable in context")
        self._entries = entries
        self._index = index
        self._hash = hash(entries)
        self._domain = tuple(index)
        self._variances = tuple(index.values())

    @property
    def entries(self) -> tuple[tuple[str, Variance], ...]:
        return self._entries

    def domain(self) -> tuple[str, ...]:
        return self._domain

    def variances(self) -> tuple[Variance, ...]:
        return self._variances

    def __getitem__(self, name: str) -> Variance:
        return self._index[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._entries)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, VarianceContext):
            return self._entries == other._entries
        return NotImplemented

    def __repr__(self) -> str:
        return f"VarianceContext({self._entries!r})"

    def __str__(self) -> str:
        return "(" + ", ".join(f"{v}'{n}" for n, v in self._entries) + ")"


def const_ctx(domain: Iterable[str], v: Variance) -> VarianceContext:
    return VarianceContext((name, v) for name in domain)


def _require_same_domain(g1: VarianceContext, g2: VarianceContext) -> None:
    if g1.domain() != g2.domain():
        raise ValueError(f"context domain mismatch: {g1.domain()} vs {g2.domain()}")


def ctx_leq(g1: VarianceContext, g2: VarianceContext) -> bool:
    """Pointwise lattice order; domains must coincide."""
    _require_same_domain(g1, g2)
    return all(var_leq(v1, v2) for (_, v1), (_, v2) in zip(g1.entries, g2.entries))


def ctx_glb(g1: VarianceContext, g2: VarianceContext) -> VarianceContext:
    _require_same_domain(g1, g2)
    return VarianceContext(zip(g1.domain(), map(var_glb, g1.variances(),
                                                g2.variances())))


def ctx_lub(g1: VarianceContext, g2: VarianceContext) -> VarianceContext:
    _require_same_domain(g1, g2)
    return VarianceContext(zip(g1.domain(), map(var_lub, g1.variances(),
                                                g2.variances())))


def ctx_zip(g1: VarianceContext, g2: VarianceContext) -> Optional[VarianceContext]:
    """Pointwise zip; None as soon as one entry's zip is undefined."""
    _require_same_domain(g1, g2)
    return ctx_zip_all((g1, g2), g1.domain())


def ctx_zip_all(
    contexts: Iterable[VarianceContext], domain: Iterable[str]
) -> Optional[VarianceContext]:
    """Zip a family of contexts over `domain`; None if a zip is undefined.

    The zip of the empty family is the all-IRR context over the domain:
    IRR is the neutral element of zipping, and a constant type (which
    decomposes with a trivial witness) must be reachable through it.
    """
    domain = tuple(domain)
    acc = (MASK[IRR],) * len(domain)
    for g in contexts:
        # An undefined zip, a 0 mask, stays 0 and outranks a later fault.
        if g._domain != domain:
            if 0 in acc:
                return None
            raise ValueError(
                f"context domain mismatch: {domain} vs {g._domain}")
        merged = []
        for m, v in zip(acc, g._variances):
            merged.append(_ZIP_ROW[v][m])
        acc = merged
    if 0 in acc:
        return None
    return VarianceContext(zip(domain, map(_VARIANCE.__getitem__, acc)))


# Sets of variances as 4-bit masks, and boxes: one mask per variable of a
# domain, standing for every context whose entries lie in their masks.
# Zip works per variable, so the zip of two boxes is again a box, and
# the deriving contexts of a decomposability judgment are one box.

#: One bit per variance; the bits ascend in the order `= + - ~`.
MASK = {v: 1 << i for i, v in enumerate(ALL_VARIANCES)}
FULL_MASK = 0b1111

Box = tuple[int, ...]


#: _SETS[m] is the set of the variances whose bits m has.
_SETS = tuple(frozenset(v for v in ALL_VARIANCES if m & MASK[v])
              for m in range(FULL_MASK + 1))
_MASKS = {s: m for m, s in enumerate(_SETS)}
#: The variance of each one-bit mask.
_VARIANCE = {m: v for v, m in MASK.items()}


def set_mask(s: Iterable[Variance]) -> int:
    return _MASKS[frozenset(s)]


def mask_set(m: int) -> frozenset[Variance]:
    return _SETS[m]


#: UP_MASK[v] is the mask of `up_set(v)`.  An entry lies above the join
#: of two variances iff it lies above both, so
#: UP_MASK[var_lub(a, b)] == UP_MASK[a] & UP_MASK[b].
UP_MASK = {v: set_mask(w for w in ALL_VARIANCES if var_leq(v, w))
           for v in ALL_VARIANCES}


def up_set(v: Variance) -> frozenset[Variance]:
    """All variances above v (inclusive)."""
    return _SETS[UP_MASK[v]]


#: ZIP_MASK[a][b] is the mask of every defined zip of a member of `a`
#: with a member of `b`; 0 when none is defined.  This is the zip rule:
#: IRR is the identity of zip, and INV zips only with itself.
ZIP_MASK = tuple(
    tuple((b if a & MASK[IRR] else 0) | (a if b & MASK[IRR] else 0)
          | (a & b & MASK[INV]) for b in range(16))
    for a in range(16))

#: Each variance's row of ZIP_MASK, which is also its column: zip commutes.
_ZIP_ROW = {v: ZIP_MASK[MASK[v]] for v in ALL_VARIANCES}


def zip_var(v: Variance, w: Variance) -> Optional[Variance]:
    """Partial zip of two variances: their cell of ZIP_MASK, or None."""
    return _VARIANCE.get(_ZIP_ROW[v][MASK[w]])


def zip_fold(variances: Iterable[Variance]) -> Optional[Variance]:
    """Zip a family of variances together; IRR for the empty family."""
    acc = MASK[IRR]
    for v in variances:
        acc = _ZIP_ROW[v][acc]
    return _VARIANCE.get(acc)


def box_zip(a: Box, b: Box) -> Box:
    """Every defined zip of a member of `a` with a member of `b`.  A
    variable whose zips are all undefined gets a 0 mask, which makes the
    box empty."""
    return tuple(ZIP_MASK[x][y] for x, y in zip(a, b))
