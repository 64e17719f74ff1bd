"""Semantic decomposability against a reference, and the syntactic
judgment against the semantic one.

`_decomp_cex`, behind `sem_decomp_cex` and `sem_simultaneous_decomp`,
finds witnesses by inversion through each part.  The reference below
tries every witness tuple in product order instead; both must give the
same verdict and the same first counterexample.  Then a derivable
judgment must decompose on the universe, and so must the context that
an exact acceptance records, for all its constraints at once.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import CORPUS, get_sig
import vgadt.oracle
from vgadt.checker import PRESETS, check_decomp, compute_closure_flags
from vgadt.criterion import Verdict, check_signature, target_variance
from vgadt.oracle import (
    GroundUniverse,
    _assignments,
    _decomp_cex,
    _instantiator,
    _members,
    _walk,
    enumerate_types,
    oracle_for,
    prec,
    sem_decomp,
    sem_decomp_cex,
    sem_simultaneous_decomp,
    subtype,
)
from vgadt.syntax import (
    DatatypeDecl,
    Signature,
    TypeExpr,
    parse_signature,
    parse_type,
)
from vgadt.variance import (
    ALL_VARIANCES,
    CONTRA,
    COV,
    INV,
    IRR,
    Variance,
    VarianceContext,
)

from test_decomp_reference import NAMES, SIGS, TYPES

Parts = Sequence[tuple[TypeExpr, Variance, Variance]]


def reference_decomp_cex(sig: Signature, u: GroundUniverse,
                         g: VarianceContext, parts: Parts):
    """For every assignment and every tuple of targets in product
    order, some witness tuple in product order relates every part."""
    orc = oracle_for(sig)
    domain = g.domain()
    rel = [orc.related(u, w) for w in g.variances()]
    insts = [_instantiator(u, t, domain) for t, _, _ in parts]
    for idx in _assignments(u, len(domain)):
        allowed = [rel[k][i] for k, i in enumerate(idx)]
        targets = [_members(u.row(v, inst(idx)))
                   for inst, (_, v, _) in zip(insts, parts)]
        for sdx in itertools.product(*targets):
            if not any(all(u.prec(v2, inst(jdx), s)
                           for inst, (_, _, v2), s in zip(insts, parts, sdx))
                       for jdx in itertools.product(*map(_members, allowed))):
                return (tuple(u.types[i] for i in idx),
                        tuple(u.types[s] for s in sdx))
    return None


#: The PRELUDE of test_decomp_reference.py at depth 2 (52 types): the
#: private edge `pint = int`, `ref`, `list`, `sink` and the `~` datatype
#: `phantom`.
SIG = SIGS["atomic"]
UNIVERSE = enumerate_types(SIG, 2)
VARIANCES = st.sampled_from(ALL_VARIANCES)


@st.composite
def contexts(draw):
    """A context over 0-2 variables."""
    m = draw(st.integers(0, 2))
    return VarianceContext((x, draw(VARIANCES)) for x in NAMES[m])


@st.composite
def judgments(draw):
    """(g, t, v, v2): t of the `types` strategy of
    test_decomp_reference.py, over the variables of g."""
    g = draw(contexts())
    return (g,) + draw(st.tuples(TYPES[len(g.domain())], VARIANCES, VARIANCES))


@st.composite
def families(draw):
    """(g, parts): 1-2 judgments over one context.  Each (assignment,
    tuple of targets) asks for one witness search, and a part at v = ~
    has all 52 types as targets: so two variables come with one part,
    at a v other than ~."""
    g = draw(contexts())
    m = len(g.domain())
    sources = VARIANCES if m < 2 else st.sampled_from([COV, CONTRA, INV])
    parts = draw(st.lists(st.tuples(TYPES[m], sources, VARIANCES),
                          min_size=1, max_size=1 if m == 2 else 2))
    return g, parts


#: One-variable types small enough to try every context and every pair
#: of variances: the variable alone, under each unary datatype, twice
#: under a product and an arrow, beside a closed leaf, and two heads
#: deep.
SMALL = ["'x0", "'x0 list", "'x0 sink", "'x0 phantom", "'x0 ref",
         "'x0 * 'x0", "'x0 -> 'x0", "'x0 * int", "'x0 list sink"]


@pytest.mark.parametrize("text", SMALL)
def test_small_decomp_equals_reference(text):
    """Every context and pair of variances, so that a walk that skips a
    head test, does not reverse a leaf row or keeps the witness masks
    from one target tuple to the next fails here, whichever examples
    are drawn below."""
    t = parse_type(text)
    fails = 0
    for w, v, v2 in itertools.product(ALL_VARIANCES, repeat=3):
        g = VarianceContext([("x0", w)])
        want = reference_decomp_cex(SIG, UNIVERSE, g, [(t, v, v2)])
        assert _decomp_cex(SIG, UNIVERSE, g, [(t, v, v2)]) == want, (w, v, v2)
        fails += want is not None
    assert fails


#: Parts at v2 = ~, whose walks are empty, and parts with a walk.
TILDE_PARTS = [("'x0 list sink", IRR, IRR), ("'x0 phantom", COV, IRR),
               ("'x0 ref", INV, IRR)]
WALKED_PARTS = [("'x0", CONTRA, CONTRA), ("'x0 list", COV, INV),
                ("'x0 sink", CONTRA, COV), ("'x0", COV, INV),
                ("'x0 -> 'x0", COV, COV)]


@pytest.mark.parametrize("tilde", TILDE_PARTS)
def test_tilde_parts_equal_reference(tilde):
    """A part at v2 = ~ asks nothing of its target, and `_decomp_cex`
    tries only its first one; the reference tries them all.  Every
    context, with the `~` part first and last."""
    fails = 0
    for w, walked, tilde_first in itertools.product(
            ALL_VARIANCES, WALKED_PARTS, (True, False)):
        g = VarianceContext([("x0", w)])
        parts = [(parse_type(t), v, v2) for t, v, v2
                 in ((tilde, walked) if tilde_first else (walked, tilde))]
        want = reference_decomp_cex(SIG, UNIVERSE, g, parts)
        assert _decomp_cex(SIG, UNIVERSE, g, parts) == want, (w, parts)
        fails += want is not None
    assert fails


def test_tilde_parts_try_one_target(monkeypatch):
    """Two parts at v = v2 = ~ over two variables: each of the 52^2
    assignments has 52^2 target tuples of theirs, one witness search
    each, which took 14.6M inversions.  With one target per `~` part, an
    assignment costs at most one inversion per part and target of the
    walked part, and the counterexample is the walked part's own, with
    the first universe type as the target of each `~` part."""
    g = VarianceContext([("x0", INV), ("x1", CONTRA)])
    parts = [(parse_type(t), v, v2) for t, v, v2 in
             (("'x0 list", COV, INV), ("'x0 list sink", IRR, IRR),
              ("'x1 sink", IRR, IRR))]
    want = reference_decomp_cex(SIG, UNIVERSE, g, parts[:1])
    assert want is not None
    n = len(UNIVERSE)
    targets = sum(bin(UNIVERSE.row(COV, UNIVERSE.intern("list", (i,))))
                  .count("1") for i in range(n))
    bound = len(parts) * n * targets
    calls = [0]
    invert = vgadt.oracle._invert

    def counted(*args):
        calls[0] += 1
        assert calls[0] <= bound, "a `~` part's targets were all tried"
        return invert(*args)
    monkeypatch.setattr(vgadt.oracle, "_invert", counted)
    first = UNIVERSE.type(0)
    assert _decomp_cex(SIG, UNIVERSE, g, parts) == (
        want[0], want[1] + (first, first))
    assert 0 < calls[0] <= bound


def test_decomp_equals_reference():
    holds = []

    @seed(20261018)
    @settings(max_examples=50, deadline=None, database=None)
    @given(families())
    def check(case):
        g, parts = case
        want = reference_decomp_cex(SIG, UNIVERSE, g, parts)
        assert _decomp_cex(SIG, UNIVERSE, g, parts) == want
        if len(parts) == 1:
            assert sem_decomp_cex(SIG, UNIVERSE, g, *parts[0]) == (
                None if want is None else (want[0], want[1][0]))
        holds.append(want is None)

    check()
    # Failures must be common, so the counterexample is compared on many
    # inputs, not on a few.
    assert holds.count(False) >= 0.1 * len(holds)


def test_derivable_judgments_decompose():
    """check_decomp => sem_decomp: the syntactic judgment is sound on
    generated types."""
    derivable = []

    @seed(20261018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(judgments())
    def check(case):
        if check_decomp(SIG, *case):
            derivable.append(case)
            assert sem_decomp(SIG, UNIVERSE, *case), case

    check()
    assert len(derivable) >= 0.5 * 150


def constraint_parts(d: DatatypeDecl, verdict: Verdict) -> Parts:
    """Per constraint of an accepted constructor, its bound, the
    declared variance of its parameter and the target of its relation."""
    varis = d.param_variances()
    return [(c.bound, varis[c.param], target_variance(c.rel))
            for c in verdict.normalized.constraints]


def test_accepted_gamma_decomposes_simultaneously():
    """The context of every exact acceptance in the corpus decomposes
    all its constraints at once, from the parameters' variances down to
    the targets of their relations."""
    accepted = 0
    for path in sorted(CORPUS.glob("*.vt")):
        sig = get_sig(path.stem)
        u = enumerate_types(sig, 2)
        decls = {d.name: d for d in sig.datatypes()}
        for verdict in check_signature(sig, "exact").verdicts:
            if not (verdict.accepted and verdict.gammas is not None):
                continue
            parts = constraint_parts(decls[verdict.datatype], verdict)
            assert sem_simultaneous_decomp(sig, u, verdict.gamma, parts), (
                path.stem, verdict.ctor)
            accepted += 1
    assert accepted == 11


#: ROADMAP item 1's GADT repro: accepted under every preset with gamma
#: (='x0, ='x1), although matching K at (int, unit) t gives int <= x0
#: together with an x0 ref that holds a unit.
TILDE_GADT = """\
base int
base bool
subbase bool <= int

type (='a) ref =
  | Mk of 'a -> 'a

type (~'p0, ~'p1) t =
  | K : 'x0 'x1 ['p0 <= 'x0, 'p1 >= 'x1]. 'x0 ref
"""


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: sc-Var at ~ is zipped as absent")
def test_accepted_tilde_gamma_decomposes_simultaneously():
    for preset in PRESETS:
        sig = parse_signature(TILDE_GADT)
        compute_closure_flags(sig, preset)
        u = enumerate_types(sig, 2)
        verdict = next(v for v in check_signature(sig, "exact").verdicts
                       if (v.datatype, v.ctor) == ("t", "K"))
        if verdict.accepted:
            parts = constraint_parts(sig.info("t").decl, verdict)
            assert sem_simultaneous_decomp(sig, u, verdict.gamma, parts), (
                preset)


@pytest.mark.parametrize("text", ["'b list", "int list", "'b * int list"])
def test_unknown_constructor(text):
    """A type naming a head outside the signature is refused before any
    assignment is tried, whatever the order of evaluation."""
    sig = get_sig("private_fd")
    u = enumerate_types(sig, 1)
    t = parse_type(text)
    message = "unknown type constructor 'list'"
    with pytest.raises(ValueError, match=message):
        _instantiator(u, t, ["b"])
    with pytest.raises(ValueError, match=message):
        _walk(u, t, COV, ["b"])
    g = VarianceContext([("b", COV)])
    for v, v2 in itertools.product(ALL_VARIANCES, repeat=2):
        with pytest.raises(ValueError, match=message):
            sem_decomp_cex(sig, u, g, t, v, v2)
    int_list, int_ = parse_type("int list"), parse_type("int")
    with pytest.raises(ValueError, match=message):
        subtype(sig, int_list, int_)
    with pytest.raises(ValueError, match=message):
        prec(sig, INV, int_, int_list)
