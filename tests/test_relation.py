"""The bitset subtype relation of a universe against a reference: the
recursive structural decision procedure on type trees, kept here as the
specification the interned relation must reproduce."""
from __future__ import annotations

import random

import pytest

from conftest import CORPUS, get_sig, get_universe
from test_decomp_reference import SIGS
from vgadt.oracle import TypeTable, enumerate_types, oracle_for
from vgadt.oracle import prec as prec_expr
from vgadt.syntax import App, Signature, TypeExpr, parse_signature, parse_type
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


#: Per signature and universe depth, types deeper than the universe, and
#: checks (v, i, j, holds) on them: the PRELUDE of test_decomp_reference
#: has a private edge (pint = int) and a `~` parameter (phantom).  Over
#: a depth-2 universe a deep row is empty or reaches the universe only
#: through phantom's `~` position, so it reads the same both ways; over
#: the depth-3 one (5,620 types), each of the two types has 8 ids above
#: it and 4 below, so a row read the wrong way round differs.
DEEP = {
    ("world", 2): (
        ("int list list list", "bool list list list",
         "(bool -> int) list ref", "(int -> bool) list ref",
         "(bool * int) list -> int list",
         "bool list -> int list", "int list -> bool list",
         "int list ref", "int list list ref"),
        ((COV, 1, 0, True), (COV, 0, 1, False), (INV, 2, 2, True))),
    ("prelude", 2): (
        ("pint list list list", "int list list list",
         "int sink sink sink", "pint sink sink sink",
         "int list phantom ref", "bool sink phantom ref",
         "(pint -> int) list phantom", "pint ref list list",
         "int phantom phantom phantom", "pint phantom list ref"),
        ((COV, 0, 1, True), (COV, 1, 0, False), (COV, 2, 3, True),
         (COV, 3, 2, False), (INV, 4, 5, True), (INV, 6, 8, True),
         (INV, 7, 7, True), (COV, 7, 0, False))),
    ("prelude", 3): (
        ("pint * int list phantom", "int list phantom -> pint"),
        ((COV, 0, 1, False), (INV, 1, 1, True))),
}


def test_types_deeper_than_the_universe():
    for (name, depth), (texts, checks) in DEEP.items():
        sig = SIGS["atomic"] if name == "prelude" else get_sig(name)
        u = enumerate_types(sig, depth)
        n = len(u)
        deep = [u.intern_expr(parse_type(text)) for text in texts]
        assert min(deep) >= n
        # Pairs with the universe's ids too, where it is small.
        ids = (list(range(n)) if depth == 2 else []) + deep
        assert_agrees(u, Reference(sig), [(i, j) for i in ids for j in ids
                                          if i in deep or j in deep])
        for v, i, j, holds in checks:
            assert u.prec(v, deep[i], deep[j]) == holds, (v, texts[i], texts[j])
        # The universe's own relation is unchanged by the deeper types.
        # Their rows over the universe come from their children's rows.
        ref = Reference(sig)
        for x in deep:
            for v in ALL_VARIANCES:
                assert u.row(v, x) == sum(
                    1 << j for j in range(n)
                    if ref.prec(v, u_type(u, x), u.types[j]))


def transpose(rows: list[int]) -> list[int]:
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j, bit in enumerate(reversed(bin(row)[2:])):
            if bit == "1":
                out[j] |= 1 << i
    return out


@pytest.mark.parametrize("name", ["sink_sub", "object_emulation"])
def test_rows_depth3(name):
    """The rows of a 1179-type universe, with a base order (sink_sub) or
    a private edge (object_emulation): every row of both directions,
    read through `row`, and the rows above and below are transposes
    everywhere, and sampled rows equal the reference."""
    u = get_universe(name, 3)
    n = len(u)
    assert n == 1179
    assert (transpose([u.row(COV, i) for i in range(n)])
            == [u.row(CONTRA, i) for i in range(n)])
    ref = Reference(get_sig(name))
    for i in random.Random(12).sample(range(n), 50):
        for v in ALL_VARIANCES:
            assert u.row(v, i) == sum(
                1 << j for j in range(n)
                if ref.prec(v, u.types[i], u.types[j])), (v, u.types[i])


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_rows_built_on_demand(name):
    """Enumeration builds no row.  A row is built when it is read, in
    its own direction: `=` reads both.  Id 0 is a constant, so its row
    reads no other."""
    u = enumerate_types(get_sig(name), 2)
    assert (len(u.le), len(u.ge)) == (0, 0)
    u.row(COV, 0)
    assert (list(u.le), len(u.ge)) == ([0], 0)
    u.row(INV, 0)
    assert (list(u.le), list(u.ge)) == ([0], [0])


#: Two distinct but equivalent bases under an invariant parameter.
EQUIV = ("base b1\nbase b2\nbase b3\nsubbase b1 <= b2\nsubbase b2 <= b1\n"
         "type (='a) ref = | Mk of 'a -> 'a\n")


def test_invariant_comparison_is_linear(monkeypatch):
    """b2 ref^k and b1 ref^k are equivalent; deciding it compares each
    level once, not once per direction of every enclosing `=`."""
    sig = parse_signature(EQUIV)
    u = enumerate_types(sig, 2)
    k = 40
    types = [parse_type(b + " ref" * k) for b in ("b1", "b2", "b3")]
    ids = [u.intern_expr(t) for t in types]
    assert min(ids) >= len(u)
    calls = [0]
    prec = TypeTable.prec

    def counted(table, v, a, b):
        calls[0] += 1
        assert calls[0] <= 4 * k, "prec recursed more than linearly"
        return prec(table, v, a, b)
    monkeypatch.setattr(TypeTable, "prec", counted)
    for v in (COV, CONTRA, INV):
        for i, j, holds in ((1, 0, True), (0, 1, True),
                            (2, 0, False), (0, 2, False)):
            # On deep universe ids, and on a table with no rows.
            for decide in (lambda: u.prec(v, ids[i], ids[j]),
                           lambda: prec_expr(sig, v, types[i], types[j])):
                calls[0] = 0
                assert decide() is holds, (v, types[i], types[j])
                assert calls[0] <= k + 1
