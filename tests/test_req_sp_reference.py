"""`req_sp` against a reference: the literal evaluation of req-SP, which
visits every assignment to all existentials, then every sigma, then
every sigma' above each sigma.  Kept here as the specification that the
search per group of existentials, over reach sets, with witnesses found
by inversion through the bounds and assignments narrowed per
coordinate, must reproduce: the same verdict and the same first
counterexample (sigma, sigma', rho).
The reference keeps every occurrence variance of the argument
(`_occurrence_variances`, once the oracle's own); `req_sp` reads one
principal entry per existential in their place.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import pytest
from hypothesis import given, seed, settings, strategies as st

from vgadt.checker import PRESETS, compute_closure_flags
from vgadt.criterion import target_variance
from vgadt.oracle import (
    _REVERSE,
    GroundUniverse,
    ReqSpResult,
    _Walk,
    _assignments,
    _groups,
    _instantiator,
    _invert,
    _members,
    _narrowed,
    _reach,
    _walk,
    enumerate_types,
    oracle_for,
    req_sp,
)
from vgadt.syntax import (
    App,
    Constraint,
    ConstraintRel,
    DataConstructorDecl,
    DatatypeDecl,
    FORM_CONSTRAINED,
    Signature,
    TypeExpr,
    Var,
    arrow,
    free_vars,
    normalize_constructor,
    parse_signature,
    product,
    render_type,
)
from vgadt.variance import (
    ALL_VARIANCES,
    CONTRA,
    COV,
    INV,
    IRR,
    Variance,
    compose,
)

import test_decomp_reference
from conftest import CORPUS, get_sig, get_universe
from test_decomp_reference import NAMES, types

CORPUS_FILES = sorted(p.stem for p in CORPUS.glob("*.vt"))


def _occurrence_variances(sig: Signature, t: TypeExpr,
                          domain: Sequence[str]) -> list[list[Variance]]:
    """Per variable of `domain`, the variance of each of its occurrences
    in t, composed along the path from the root.  Two instances of t
    have the same heads at t's own nodes, which compare pointwise, so
    t[rho] <= t[rho'] iff rho(x) prec_w rho'(x) for all these x and w."""
    uses: dict[str, list[Variance]] = {x: [] for x in domain}
    stack = [(t, COV)]
    while stack:
        node, v = stack.pop()
        if isinstance(node, Var):
            uses[node.name].append(v)
        else:
            assert isinstance(node, App)
            stack.extend((a, compose(v, w)) for a, w
                         in zip(node.args, sig.variances(node.ctor)))
    return [uses[x] for x in domain]


def reference_req_sp(sig: Signature, u: GroundUniverse, d: DatatypeDecl,
                     k: DataConstructorDecl) -> ReqSpResult:
    orc = oracle_for(sig)
    norm = normalize_constructor(d, k)
    domain = norm.exist_vars
    m = len(domain)
    rel_up = [orc.related(u, w) for w in d.param_variances()]
    arg_uses = _occurrence_variances(sig, norm.arg, domain)
    # Per constraint: the parameter, the variance v with "parameter rel
    # bound" iff bound prec_v parameter, and the bound's instances.
    cons = [(c.param, target_variance(c.rel),
             _instantiator(u, c.bound, domain)) for c in norm.constraints]
    # A constraint whose bound is a bare variable restricts that witness
    # coordinate alone: (coordinate, parameter, variance).
    pinned = [(domain.index(c.bound.name), c.param, target_variance(c.rel))
              for c in norm.constraints if isinstance(c.bound, Var)]
    others = [con for con, c in zip(cons, norm.constraints)
              if not isinstance(c.bound, Var)]
    prec_, row, full, types = u.prec, u.row, u.full, u.types

    def satisfied(params: tuple[int, ...], idx: tuple[int, ...]) -> bool:
        return all(prec_(v, bound_at(idx), params[p])
                   for p, v, bound_at in others)

    def exists_witness(params: tuple[int, ...], allowed: list[int]) -> bool:
        if not others:
            return all(allowed)
        return any(satisfied(params, idx) for idx in itertools.product(
            *(_members(a) for a in allowed)))

    for ridx in _assignments(u, m):
        # Parameter tuples satisfying the constraints at this rho.
        per_param: list[list[int]] = [[] for _ in rel_up]
        for p, v, bound_at in cons:
            per_param[p] = list(_members(row(v, bound_at(ridx))))
        if not all(per_param):
            continue
        # Witness coordinates keeping the argument above its instance at
        # rho.
        above_arg = [full] * m
        for j, (i, uses) in enumerate(zip(ridx, arg_uses)):
            for w in uses:
                above_arg[j] &= row(w, i)
        for sidx in itertools.product(*per_param):
            for spidx in itertools.product(*(_members(rel_up[p][s])
                                             for p, s in enumerate(sidx))):
                allowed = list(above_arg)
                for j, p, v in pinned:
                    allowed[j] &= row(_REVERSE[v], spidx[p])
                if not exists_witness(spidx, allowed):
                    return ReqSpResult(
                        False, u.depth,
                        sigma=tuple(types[i] for i in sidx),
                        sigma_prime=tuple(types[i] for i in spidx),
                        rho=tuple(types[i] for i in ridx))
    return ReqSpResult(True, u.depth)


#: A subbase chain (pint <= bool <= int, the first edge private), an
#: invariant and a contravariant datatype.
PRELUDE = """\
base int
base bool
subbase bool <= int
private pint = bool

type (='a) ref =
  | Mk of 'a -> 'a

type (-'a) sink =
  | S of 'a -> unit
"""


def _signature(preset: str) -> Signature:
    sig = parse_signature(PRELUDE)
    compute_closure_flags(sig, preset)
    return sig


SIGS = {preset: _signature(preset) for preset in PRESETS}
#: Depth 1 and 2 universes, of 4 and 44 types.
UNIVERSES = {(preset, depth): enumerate_types(sig, depth)
             for preset, sig in SIGS.items() for depth in (1, 2)}
#: The most existentials and parameters per depth.  The reference visits
#: n^m assignments, and up to n^2 pairs (sigma, sigma') per parameter at
#: each, so the 44 types of depth 2 take fewer of both.
MAX_SIZE = {1: 3, 2: 2}

#: Types over 0..3 existentials and the datatypes of PRELUDE.
TYPES = [types(names, ("ref", "sink")) for names in NAMES]
CLOSED = st.sampled_from([App(c, ()) for c in ("int", "bool", "pint", "unit")]
                         + [App("ref", (App("bool", ()),)),
                            arrow(App("int", ()), App("pint", ()))])
CLOSED_LEAVES = st.sampled_from([App(c, ())
                                 for c in ("int", "bool", "pint", "unit")])


@st.composite
def bounds(draw, names: tuple[str, ...]):
    """A bound of one of four shapes: a bare existential (often one
    another parameter is pinned to), a closed type, a type linking two
    existentials, or any type over the existentials."""
    shapes = ["closed", "any"] + (["pinned"] * 2 + ["linked"] if names else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "closed":
        return draw(CLOSED)
    if shape == "any":
        return draw(TYPES[len(names)])
    a = draw(st.sampled_from(names[:2]))
    if shape == "pinned":
        return Var(a)
    b = draw(st.sampled_from(names))
    pair = draw(st.sampled_from([product, arrow]))(Var(a), Var(b))
    return draw(st.sampled_from([pair, App("ref", (pair,)),
                                 App("sink", (pair,))]))


@st.composite
def cases(draw):
    """(preset, depth, datatype, constructor): 1-3 parameters (1-2 at
    depth 2), each with one constraint of a mixed relation, and an
    argument over the same existentials, so some of them may occur in
    the argument only."""
    depth = draw(st.sampled_from([1, 1, 2]))
    m = draw(st.integers(0, MAX_SIZE[depth]))
    n = draw(st.integers(1, MAX_SIZE[depth]))
    params = tuple((f"p{i}", draw(st.sampled_from(ALL_VARIANCES)))
                   for i in range(n))
    constraints = tuple(
        Constraint(i, draw(st.sampled_from(list(ConstraintRel))),
                   draw(bounds(NAMES[m])))
        for i in range(n))
    k = DataConstructorDecl("K", FORM_CONSTRAINED, NAMES[m], constraints,
                            draw(TYPES[m]))
    return (draw(st.sampled_from(PRESETS)), depth,
            DatatypeDecl("t", params, (k,)), k)


@st.composite
def unlinked_cases(draw):
    """(preset, 1, datatype, constructor): 2-3 parameters, each pinned
    to an existential of its own, so that each is a group and the first
    failing rho is put together from the assignments of several.  Depth
    1 only: at depth 2 the reference takes seconds on one such case."""
    depth = 1
    n = draw(st.integers(2, MAX_SIZE[depth]))
    params = tuple((f"p{i}", draw(st.sampled_from(ALL_VARIANCES)))
                   for i in range(n))
    constraints = tuple(
        Constraint(i, draw(st.sampled_from(list(ConstraintRel))), Var(x))
        for i, x in enumerate(NAMES[n]))
    k = DataConstructorDecl("K", FORM_CONSTRAINED, NAMES[n], constraints,
                            draw(TYPES[n]))
    return (draw(st.sampled_from(PRESETS)), depth,
            DatatypeDecl("t", params, (k,)), k)


@st.composite
def linked_bounds(draw, names: tuple[str, ...]):
    """A bound that is never a bare variable: a product, an arrow, a
    `ref` or a `sink` over existentials and closed leaves, now and then
    nested one level more, with at least one existential.  Variables
    repeat when drawn twice; a nested bound has no instance of depth 2,
    so it tests that skipping assignments loses no candidate."""
    def node(nest: int) -> TypeExpr:
        head = draw(st.sampled_from(["*", "->", "ref", "sink"]))
        arity = 2 if head in ("*", "->") else 1
        var_at = draw(st.integers(0, arity - 1))
        return App(head, tuple(child(nest, i == var_at)
                               for i in range(arity)))

    def child(nest: int, need_var: bool) -> TypeExpr:
        if nest and not draw(st.integers(0, 3)):
            return node(nest - 1)
        if need_var or draw(st.integers(0, 2)):
            return Var(draw(st.sampled_from(names)))
        return draw(CLOSED_LEAVES)
    return node(1)


@st.composite
def linked_cases(draw):
    """(preset, 2, datatype, constructor): 1-2 parameters, each bounded
    by a type of `linked_bounds` over 1-2 existentials, so two bounds
    often share one.  Depth 2 only: at depth 1 no bound that is not a
    variable has an instance in the universe."""
    depth = 2
    m = draw(st.integers(1, MAX_SIZE[depth]))
    n = draw(st.integers(1, MAX_SIZE[depth]))
    params = tuple((f"p{i}", draw(st.sampled_from(ALL_VARIANCES)))
                   for i in range(n))
    constraints = tuple(
        Constraint(i, draw(st.sampled_from(list(ConstraintRel))),
                   draw(linked_bounds(NAMES[m])))
        for i in range(n))
    k = DataConstructorDecl("K", FORM_CONSTRAINED, NAMES[m], constraints,
                            draw(TYPES[m]))
    return (draw(st.sampled_from(PRESETS)), depth,
            DatatypeDecl("t", params, (k,)), k)


def compare(case) -> bool:
    """Whether req-SP holds on the case, once it is asserted to give the
    reference's result."""
    preset, depth, d, k = case
    sig, u = SIGS[preset], UNIVERSES[preset, depth]
    got = req_sp(sig, u, d, k)
    assert got == reference_req_sp(sig, u, d, k)
    return got.holds


def test_req_sp_equals_reference():
    holds = []

    @seed(20261018)
    @settings(max_examples=500, deadline=None, database=None)
    @given(cases())
    def check(case):
        holds.append(compare(case))

    check()
    # Failures must be common, so the counterexample is compared on many
    # inputs, not on a few.
    assert holds.count(False) >= 0.15 * len(holds)


def test_unlinked_groups_equal_reference():
    holds = []

    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(unlinked_cases())
    def check(case):
        holds.append(compare(case))

    check()
    assert holds.count(False) >= 0.25 * len(holds)


def test_linked_groups_equal_reference():
    holds = []

    @seed(20261018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(linked_cases())
    def check(case):
        holds.append(compare(case))

    check()
    assert holds.count(False) >= 0.15 * len(holds)


#: Bounds over x0 and x1 whose inversion is pinned below: two linked
#: existentials, the same under `ref`, a repeated one under an arrow
#: under `sink`, a closed leaf, and a bare variable.
INVERTED = [
    product(Var("x0"), Var("x1")),
    App("ref", (product(Var("x0"), Var("x1")),)),
    App("sink", (arrow(Var("x0"), Var("x0")),)),
    product(Var("x0"), App("int", ())),
    Var("x0"),
]

#: PRELUDE with a private edge between two covariant datatypes, so that
#: a bound's head relates to a head other than its own: a `pbox` lies
#: below the `box` of the same argument.
PRIVATE_SIG = parse_signature(PRELUDE + """
type (+'a) box =
  | B of 'a

type (+'a) pbox =
  | P of 'a

private pbox = box
""")
PRIVATE_UNIVERSES = {depth: enumerate_types(PRIVATE_SIG, depth)
                     for depth in (1, 2)}
PRIVATE_BOUNDS = [
    App("box", (Var("x0"),)),
    App("pbox", (Var("x0"),)),
    App("pbox", (product(Var("x0"), Var("x1")),)),
]


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize(
    "universes,bound",
    [({d: UNIVERSES["atomic", d] for d in (1, 2)}, b) for b in INVERTED]
    + [(PRIVATE_UNIVERSES, b) for b in PRIVATE_BOUNDS],
    ids=[render_type(b) for b in INVERTED + PRIVATE_BOUNDS])
def test_inversion_and_narrowing(depth, universes, bound):
    """Against every assignment: the witnesses `_invert` admits for a
    universe type s are exactly the rho' with bound[rho'] prec_v s, and
    every assignment `_narrowed` skips has no candidate at all."""
    u = universes[depth]
    local = [x for x in NAMES[2] if x in free_vars(bound)]
    rhos = list(itertools.product(range(len(u)), repeat=len(local)))
    at = _instantiator(u, bound, local)
    instances = [at(r) for r in rhos]
    for v in ALL_VARIANCES:
        walk = _walk(u, bound, v, local)
        for s in range(len(u)):
            allowed = [u.full] * len(local)
            admitted = (set(itertools.product(*map(_members, allowed)))
                        if _invert(u, walk, s, allowed) else set())
            assert admitted == {r for r, i in zip(rhos, instances)
                                if u.prec(v, i, s)}, (v, s)
        kept = set(itertools.product(*_narrowed(u, [walk], len(local))))
        for r, i in zip(rhos, instances):
            assert r in kept or not u.row(v, i), (v, r)
        if v is not IRR and not isinstance(bound, Var):
            assert len(kept) < len(rhos)


def narrowed_per_type(u: GroundUniverse, walks: Sequence[_Walk],
                      width: int) -> list[list[int]]:
    """`_narrowed` by its definition: the ids i whose row at w meets the
    types of depth <= d - |path|, for each occurrence of the coordinate
    at a path that is not the root."""
    needs: list[list[tuple[Variance, int]]] = [[] for _ in range(width)]
    for walk in walks:
        for path, w, j in walk:
            if w is not None and path:
                needs[j].append((w, u.within[max(u.depth - len(path), 0)]))
    return [[i for i in range(len(u)) if all(u.row(w, i) & ok
                                             for w, ok in n)]
            for n in needs]


NARROWED_CASES = ([(name, 2) for name in CORPUS_FILES]
                  + [(name, 3) for name in ("ml_open_demo", "object_emulation",
                                            "sink_sub", "expr")])


@pytest.mark.parametrize("name,depth", NARROWED_CASES)
def test_narrowed_equals_per_type(name, depth):
    """`_narrowed` takes a union of rows over the shallow types; it must
    give the lists of the per-type definition, for every group of every
    constructor."""
    sig = get_sig(name)
    u = get_universe(name, depth)
    groups = 0
    for info in sig.ctors.values():
        if info.decl is None:
            continue
        for k in info.decl.ctors:
            for g in _groups(sig, u, normalize_constructor(info.decl, k)):
                groups += 1
                width = len(g.coords)
                assert (list(map(list, _narrowed(u, g.walks, width)))
                        == narrowed_per_type(u, g.walks, width)), (k.name, g)
    # world_min declares no datatype.
    assert groups or name == "world_min"


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("rels", list(itertools.product(ConstraintRel,
                                                        repeat=2)))
def test_two_constraints_on_one_parameter(depth, rels):
    """The parser rejects this, and so does normalization of a
    constructor built in code, before req_sp searches anything."""
    k = DataConstructorDecl(
        "K", FORM_CONSTRAINED, ("x0", "x1"),
        tuple(Constraint(0, rel, Var(x)) for rel, x in zip(rels, NAMES[2])),
        product(Var("x0"), Var("x1")))
    d = DatatypeDecl("t", (("p0", COV),), (k,))
    message = "t.K: parameter 'p0 is constrained more than once"
    with pytest.raises(ValueError, match=message):
        normalize_constructor(d, k)
    with pytest.raises(ValueError, match=message):
        req_sp(SIGS["atomic"], UNIVERSES["atomic", depth], d, k)


@pytest.mark.parametrize("name", ["sink_sub", "object_emulation", "prelude"])
def test_reach_equals_union(name):
    """`_reach` reads one row where it can; it must equal the union of
    the candidates' rows at w, for every v a constraint gives, every w
    and every instance `at` of the depth-2 universe.  The universes have
    a base order (sink_sub), a private edge (object_emulation) and a `~`
    parameter (the PRELUDE of test_decomp_reference.py); each head over
    each type of depth 2 adds a deeper `at`, and under `~` such an
    instance has candidates."""
    sig = (test_decomp_reference.SIGS["atomic"] if name == "prelude"
           else get_sig(name))
    u = enumerate_types(sig, 2)
    n = len(u)
    deep = [u.intern(h, (i,) * info.arity) for h, info in sig.ctors.items()
            if info.arity for i in _members(u.within[2] & ~u.within[1])]
    assert min(deep) >= n
    deep_with_candidates = 0
    for at in [*range(n), *deep]:
        for v in (INV, COV, CONTRA):
            cands = u.row(v, at)
            if not cands:
                continue
            deep_with_candidates += at >= n
            for w in ALL_VARIANCES:
                union = 0
                for c in _members(cands):
                    union |= u.row(w, c)
                assert _reach(u, v, w, at, cands) == union, (v, w, at)
    if name == "prelude":
        assert deep_with_candidates
