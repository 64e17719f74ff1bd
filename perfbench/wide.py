"""Seeded generator for the `check-wide` workload.

Every generated file holds one datatype with one constrained constructor
over m existential variables.  Each family fixes its verdict under the
atomic preset by construction; `RULES` states the rule that fixes it.
The seed chooses the names only.  Variables appear in binder order
everywhere, because the engine's cost depends on where in the binder
list each bound puts its variables, so a pass costs the same under
every seed.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass

ACCEPTED, REJECTED = "accepted", "rejected"

#: family -> (expected verdict, the rule that fixes it).
RULES = {
    "eq-product": (
        ACCEPTED,
        "'a = v1 * ... * vm with +'a: * is +-closed, sc-Constr splits the "
        "bound and sc-Var fixes every variable at +, which types the "
        "product argument covariantly"),
    "eq-split": (
        ACCEPTED,
        "'a and 'b (both +) are pinned to products over disjoint halves of "
        "the variables: each constraint fixes its half at + and leaves the "
        "rest ~, and zip(+, ~) = +"),
    "eq-shared-inv": (
        ACCEPTED,
        "'a and 'b (both =) are pinned to the same product: both "
        "constraints derive = for every variable, zip(=, =) = =, and = "
        "types the argument covariantly"),
    "eq-contra-arg": (
        REJECTED,
        "'a = v1 * ... * vm with +'a fixes every variable at +, but one "
        "variable also sits left of an arrow in the argument, which needs "
        "- or ="),
    "eq-shared-cov": (
        REJECTED,
        "'a and 'b (both +) are pinned to products that share one "
        "variable: each constraint fixes it at +, and zip(+, +) is "
        "undefined"),
}

FAMILIES = tuple(RULES)
SIZES = (4, 5, 6)


@dataclass(frozen=True)
class WideCase:
    family: str
    m: int
    type_name: str
    ctor: str
    text: str

    @property
    def expected(self) -> str:
        return RULES[self.family][0]


def _names(rng: random.Random, count: int, prefix: str) -> list[str]:
    out: set[str] = set()
    while len(out) < count:
        out.add(prefix + "".join(rng.choices(string.ascii_lowercase, k=3)))
    return sorted(out)


def _product(vs: list[str]) -> str:
    return " * ".join(f"'{v}" for v in vs)


def generate(family: str, m: int, rng: random.Random) -> WideCase:
    """One constructor of `family` over m existential variables."""
    if family not in RULES:
        raise ValueError(f"unknown family {family!r}")
    if m < 2:
        raise ValueError("wide families need m >= 2")
    vs = _names(rng, m, "v")
    binders = " ".join(f"'{v}" for v in vs)
    type_name = _names(rng, 1, "w")[0]
    ctor = "K" + _names(rng, 1, "")[0]
    half = m // 2

    if family == "eq-product":
        params, bounds, arg = "+'a", f"'a = {_product(vs)}", _product(vs)
    elif family == "eq-split":
        params = "+'a, +'b"
        bounds = f"'a = {_product(vs[:half])}, 'b = {_product(vs[half:])}"
        arg = _product(vs)
    elif family == "eq-shared-inv":
        params = "='a, ='b"
        bounds = f"'a = {_product(vs)}, 'b = {_product(vs)}"
        arg = _product(vs)
    elif family == "eq-contra-arg":
        params, bounds = "+'a", f"'a = {_product(vs)}"
        arg = f"('{vs[0]} -> unit) * {_product(vs[1:])}"
    else:  # eq-shared-cov
        params = "+'a, +'b"
        bounds = (f"'a = {_product(vs[:half + 1])}, "
                  f"'b = {_product(vs[half:])}")
        arg = _product(vs)
    text = (f"# check-wide family {family}, m = {m}\n"
            f"type ({params}) {type_name} =\n"
            f"  | {ctor} : {binders} [{bounds}]. {arg}\n")
    return WideCase(family, m, type_name, ctor, text)


def generate_pass(seed: int) -> list[WideCase]:
    """One pass, in a seeded order: every accepted family at every size,
    and every rejected family at the largest size.

    Fast analysis rejects those before the engine runs, at any m, so one
    size shows that path; with fewer cheap ops the median op is an
    engine-bound acceptance in the middle of the size range.
    """
    rng = random.Random(seed)
    cases = [generate(f, m, rng) for m in SIZES for f in FAMILIES
             if RULES[f][0] == ACCEPTED or m == SIZES[-1]]
    rng.shuffle(cases)
    return cases
