"""The arithmetic id layout of oracle universes, against the block
enumeration it replaced.

`reference_layout` interns a universe's types one by one, a block at a
time: constants first, in declaration order, then per level and
non-constant head its tuples over the ids of smaller depth, in product
order, less those interned before.  `enumerate_types` records only the
blocks, and computes ids and decodes them by arithmetic; it must agree
with the reference id by id.  The corpus has no ternary head, so the
signature here has one, besides constants, a unary head and a binary
one, a base order and a private edge.
"""
from __future__ import annotations

import itertools
import random

import pytest

from test_relation import Reference
from vgadt.oracle import enumerate_types
from vgadt.syntax import CtorInfo, Decl, Signature
from vgadt.variance import ALL_VARIANCES, CONTRA, COV, INV, IRR


def signature() -> Signature:
    """Two ordered constants declared apart, two unary heads joined by
    a private edge, a binary and a ternary head."""
    return Signature(
        ctors={"a": CtorInfo("a", 0, (), "base"),
               "box": CtorInfo("box", 1, (COV,), "datatype"),
               "b": CtorInfo("b", 0, (), "base"),
               "->": CtorInfo("->", 2, (CONTRA, COV), "builtin"),
               "pbox": CtorInfo("pbox", 1, (COV,), "datatype"),
               "tri": CtorInfo("tri", 3, (INV, IRR, CONTRA), "datatype")},
        decls=(Decl("subbase", ("a", "b"), (1, 1)),
               Decl("private", ("pbox", "box"), (2, 1))))


def reference_layout(sig: Signature, depth: int
                     ) -> list[tuple[str, tuple[int, ...]]]:
    """The universe's types in id order, each as its head and its
    children's ids, interned a block at a time."""
    ids: dict[tuple[str, tuple[int, ...]], int] = {}
    types: list[tuple[str, tuple[int, ...]]] = []

    def intern(key: tuple[str, tuple[int, ...]]) -> None:
        if key not in ids:
            ids[key] = len(types)
            types.append(key)
    ctors = list(sig.ctors.values())
    for info in ctors:
        if info.arity == 0:
            intern((info.name, ()))
    for _ in range(depth - 1):
        n = len(types)
        for info in ctors:
            if info.arity:
                for js in itertools.product(range(n), repeat=info.arity):
                    intern((info.name, js))
    return types


#: The reference's sizes, per depth.
SIZES = {1: 2, 2: 2 + 2 + 4 + 2 + 8, 3: 18 + 16 + 320 + 16 + 5824}


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_layout_equals_reference(depth):
    """Every id decodes to the reference's type, and every type interns
    to its reference id; each head's mask and each depth's prefix
    agree too."""
    sig = signature()
    types = reference_layout(sig, depth)
    u = enumerate_types(sig, depth)
    assert len(u) == len(types) == SIZES[depth]
    for i, (head, kids) in enumerate(types):
        assert (u.heads[i], u.kids[i]) == (head, kids), i
        assert u.intern(head, kids) == i, (head, kids)
    masks: dict[str, int] = {}
    depths: list[int] = []
    for i, (head, kids) in enumerate(types):
        masks[head] = masks.get(head, 0) | 1 << i
        depths.append(1 + max((depths[k] for k in kids), default=0))
    assert u._head_ids == masks
    assert u.within == [sum(1 << i for i, e in enumerate(depths) if e <= k)
                        for k in range(depth + 1)]


#: Per depth, the universe ids the deep instances are made of: the
#: first and the last ones, of depth 1 and of depth d, so that each
#: head over them makes instances of both kinds.
POOLS = {1: [0, 1], 2: [0, 1, 16, 17], 3: [0, 6193]}


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_deep_ids_follow_the_universe(depth):
    """An instance with a child of depth d is one level deeper than the
    universe: it gets the next id from len(u) on, in intern order, once,
    and its rows at every variance are the dense ids it relates to
    structurally.  An instance whose children are all shallower is a
    universe type, and gets its reference id."""
    sig = signature()
    types = reference_layout(sig, depth)
    reference = {key: i for i, key in enumerate(types)}
    u = enumerate_types(sig, depth)
    n = len(u)
    pool = POOLS[depth]
    assert pool[-1] == n - 1
    structural = Reference(sig)
    deep = []
    for info in sig.ctors.values():
        for js in itertools.product(pool, repeat=info.arity):
            i = u.intern(info.name, js)
            if (info.name, js) in reference:
                assert i == reference[info.name, js]
            else:
                assert i == n + len(deep), (info.name, js)
                deep.append(i)
            assert u.intern(info.name, js) == i
    assert deep
    # The rows of a universe type agree with the reference on trees too.
    for x in [*deep, *pool]:
        for v in ALL_VARIANCES:
            assert u.row(v, x) == sum(
                1 << b for b, s in enumerate(u.types)
                if structural.prec(v, u.type(x), s)), (x, v)


def test_sampled_rows_depth3():
    """Twenty rows of the depth-3 universe (6194 types), drawn with a
    fixed seed, at every variance, equal the dense ids the reference
    relates them to.  Most are rows of `tri` types, so they are read
    off the rows of three children at `=`, `~` and `-`."""
    sig = signature()
    u = enumerate_types(sig, 3)
    n = len(u)
    assert n == SIZES[3]
    structural = Reference(sig)
    for x in random.Random(30).sample(range(n), 20):
        for v in ALL_VARIANCES:
            assert u.row(v, x) == sum(
                1 << b for b, s in enumerate(u.types)
                if structural.prec(v, u.type(x), s)), (x, v)
