"""The bitset subtype relation of a universe against a reference: the
recursive structural decision procedure on type trees, kept here as the
specification the interned relation must reproduce."""
from __future__ import annotations

import random

import pytest

from conftest import CORPUS, get_sig
from vgadt.oracle import enumerate_types, oracle_for
from vgadt.syntax import App, Signature, TypeExpr, parse_type
from vgadt.variance import ALL_VARIANCES, CONTRA, COV, INV, IRR, Variance

CORPUS_FILES = sorted(p.stem for p in CORPUS.glob("*.vt"))


class Reference:
    """Same heads compare pointwise under the declared variances;
    distinct heads only through an upward chain of private or
    base-order edges."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.reach = sig.head_reach()
        self.memo: dict[tuple[TypeExpr, TypeExpr], bool] = {}

    def subtype(self, a: App, b: App) -> bool:
        if a == b:
            return True
        key = (a, b)
        if key not in self.memo:
            self.memo[key] = (
                (a.ctor == b.ctor or b.ctor in self.reach.get(a.ctor, ()))
                and all(self.prec(w, x, y) for w, x, y
                        in zip(self.sig.variances(a.ctor), a.args, b.args)))
        return self.memo[key]

    def prec(self, v: Variance, a: App, b: App) -> bool:
        if v is IRR:
            return True
        if v is COV:
            return self.subtype(a, b)
        if v is CONTRA:
            return self.subtype(b, a)
        return self.subtype(a, b) and self.subtype(b, a)


def assert_agrees(u, ref, pairs):
    for i, j in pairs:
        for v in ALL_VARIANCES:
            assert u.prec(v, i, j) == ref.prec(v, u_type(u, i), u_type(u, j)), \
                (v, u_type(u, i), u_type(u, j))


def u_type(u, i) -> App:
    """The type tree of an id, universe member or not."""
    return App(u.heads[i], tuple(u_type(u, k) for k in u.kids[i]))


@pytest.mark.parametrize("preset", ["atomic", "ml-open", "none"])
@pytest.mark.parametrize("name", CORPUS_FILES)
def test_all_pairs_depth2(name, preset):
    sig = get_sig(name, preset)
    u = enumerate_types(sig, 2)
    ref = Reference(sig)
    n = len(u)
    assert_agrees(u, ref, [(i, j) for i in range(n) for j in range(n)])
    orc = oracle_for(sig)
    for w in ALL_VARIANCES:
        rows = orc.related(u, w)
        for i in range(n):
            assert rows[i] == sum(1 << j for j in range(n)
                                  if ref.prec(w, u.types[i], u.types[j]))


def test_sampled_pairs_world_min_depth3(world_min, world_min_u3):
    u = world_min_u3
    rng = random.Random(11)
    n = len(u)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
    # Random pairs are mostly unrelated; add related ones from the rows.
    for i in rng.sample(range(n), 50):
        related = [j for j in range(n) if u.prec(COV, i, j)]
        pairs.append((i, rng.choice(related)))
    assert_agrees(u, Reference(world_min), pairs)


def test_types_deeper_than_the_universe():
    sig = get_sig("world")
    u = enumerate_types(sig, 2)
    n = len(u)
    deep = [u.intern_expr(parse_type(text)) for text in (
        "int list list list", "bool list list list",
        "(bool -> int) list ref", "(int -> bool) list ref",
        "(bool * int) list -> int list",
        "bool list -> int list", "int list -> bool list",
        "int list ref", "int list list ref")]
    assert min(deep) >= n
    ids = list(range(n)) + deep
    assert_agrees(u, Reference(sig),
                  [(i, j) for i in ids for j in ids if i in deep or j in deep])
    assert u.prec(COV, deep[1], deep[0])
    assert not u.prec(COV, deep[0], deep[1])
    assert u.prec(INV, deep[2], deep[2])
    # The universe's own relation is unchanged by the deeper types.
    # Their rows over the universe come from their children's rows.
    ref = Reference(sig)
    for x in deep:
        for v in ALL_VARIANCES:
            assert u.row(v, x) == sum(1 << j for j in range(n)
                                      if ref.prec(v, u_type(u, x), u.types[j]))
