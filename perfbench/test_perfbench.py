"""Self-checks of the benchmark's inputs and known answers.

Every `check-wide` family, at small m, gets its built-in verdict from
the unpruned brute-force decision and from fast mode, and the known-answer
table adds up to the counts it claims.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""
from __future__ import annotations

import random

import pytest

from vgadt.checker import compute_closure_flags
from vgadt.criterion import (
    check_gadt_constructor,
    check_gadt_constructor_bruteforce,
)
from vgadt.syntax import parse_signature

import known_answers
import wide


def _ctor(case: wide.WideCase):
    sig = parse_signature(case.text)
    compute_closure_flags(sig, "atomic")
    decl = sig.info(case.type_name).decl
    (k,) = decl.ctors
    assert k.name == case.ctor
    return sig, decl, k


@pytest.mark.parametrize("family", wide.FAMILIES)
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_family_verdict_at_small_m(family, m, seed):
    case = wide.generate(family, m, random.Random(seed))
    sig, decl, k = _ctor(case)
    expected = case.expected == wide.ACCEPTED
    assert check_gadt_constructor_bruteforce(sig, decl, k) is expected
    assert check_gadt_constructor(sig, decl, k, "fast").accepted is expected
    assert check_gadt_constructor(sig, decl, k, "exact").accepted is expected


def test_pass_is_seeded_and_shape_fixed():
    a, b, c = wide.generate_pass(7), wide.generate_pass(7), wide.generate_pass(8)
    assert a == b
    assert a != c
    shape = sorted((x.family, x.m) for x in a)
    assert shape == sorted((x.family, x.m) for x in c)
    assert shape == sorted(
        (f, m) for f in wide.FAMILIES for m in wide.SIZES
        if wide.RULES[f][0] == wide.ACCEPTED or m == wide.SIZES[-1])


def test_known_answer_totals():
    assert known_answers.totals() == known_answers.EXPECTED_TOTALS
