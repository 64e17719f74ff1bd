"""Known answers for every record the corpus workloads produce.

Written by hand from the corpus files, the claims in README.md and
PAPER.md, the assertions of tests/test_acceptance.py, tests/test_cli.py
and tests/test_criterion.py, and the judgment rules those documents
state.  Nothing here was copied from a run of the checker.  The source
of each entry is named beside it.
"""
from __future__ import annotations

PRESETS = ("atomic", "ml-open", "none")
MODES = ("exact", "fast")

#: Constructors of each corpus file, in declaration order, as
#: `datatype.Constructor` (read off the corpus files).
CORPUS = {
    "arrow_bound": ("arr.A",),
    "eq_cov": ("eq.Refl",),
    "eq_inv": ("eq.Refl",),
    "expr": ("expr.Val", "expr.Int", "expr.Thunk", "expr.Prod"),
    "expr_sup": ("expr.Val", "expr.Int", "expr.Thunk", "expr.Prod"),
    "fun_cov": ("t.Fun",),
    "list": ("list.Nil", "list.Cons"),
    "ml_open_demo": ("pos.P", "pos.Q", "box.B"),
    "object_emulation": ("t.K",),
    "pair_ref": ("ref.Mk", "pair_ref.Pack"),
    "private_fd": ("t.K",),
    "sink_sub": ("sink.S",),
    "world": ("ref.Mk", "list.Nil", "list.Cons"),
    "world_min": (),
    "world_ref": ("ref.Mk",),
}

_ALL = frozenset(PRESETS)

#: Rejected constructors: (file, constructor) -> (presets that reject it,
#: source).  Every constructor not listed is accepted under every preset.
#: Verdicts are the same in both modes (test_criterion.py
#: TestModeAgreement::test_fast_agrees_with_exact, README "Both agree on
#: the shipped corpus"; plain constructors take the same path in both).
REJECTED = {
    ("arrow_bound", "arr.A"): (
        frozenset({"ml-open", "none"}),
        "corpus comment: fine while arrows are upward-closed, conservative "
        "presets reject it; test_cli.py test_preset_flag_changes_verdict"),
    ("eq_cov", "eq.Refl"): (
        _ALL,
        "README: a covariant eq is rejected at Refl, 'g, zip(+, =); the "
        "bounds are variables, so no closure flag is consulted"),
    ("expr", "expr.Int"): (
        frozenset({"none"}),
        "test_criterion.py test_expr_rejected_without_product_closure"),
    ("expr", "expr.Prod"): (
        frozenset({"none"}),
        "acceptance criterion 4: Prod goes without product closure"),
    ("fun_cov", "t.Fun"): (
        _ALL,
        "acceptance criterion 3; plain constructors use vc-* only"),
    ("ml_open_demo", "box.B"): (
        frozenset({"none"}),
        "sc-Constr needs pos to be +-closed, and none has no flags "
        "(README presets); ml-open accepts it (acceptance criterion 4)"),
    ("object_emulation", "t.K"): (
        _ALL,
        "obj_m sits strictly below obj_empty, so no preset makes it "
        "+-closed (README closure rules); the oracle confirms it"),
    ("private_fd", "t.K"): (
        _ALL,
        "README forgery example; test_private_world_rejection: fd is not "
        "+-closed under any preset"),
}

#: Per mode, over the corpus and the three presets.
EXPECTED_TOTALS = {"accepted": 61, "rejected": 17}

#: Claims about single structured check records, as (file, preset,
#: mode or None for both, constructor, field, expected).  A string
#: expected for `reason` is a required substring.
RECORD_CLAIMS = (
    ("eq_cov", "atomic", None, "eq.Refl", "reason", "zip(+, =) undefined"),
    ("eq_cov", "atomic", None, "eq.Refl", "reason", "'g"),
    ("private_fd", "atomic", None, "t.K", "reason", "not +-closed"),
    # test_cli.py test_structured_witnesses
    ("expr", "atomic", "exact", "expr.Prod", "gamma", {"b": "+", "c": "+"}),
    ("expr", "atomic", "exact", "expr.Prod", "gammas",
     [{"b": "+", "c": "+"}]),
    # test_criterion.py test_witness_order_prefers_informative
    ("expr", "atomic", "exact", "expr.Thunk", "gamma", {"b": "=", "c": "+"}),
    # test_criterion.py test_eq_invariant_accepted
    ("eq_inv", "atomic", "exact", "eq.Refl", "gamma", {"g": "="}),
)

CHECK_FIELDS = ("type", "ctor", "verdict", "gamma", "gammas", "reason")
ORACLE_FIELDS = ("type", "ctor", "verdict", "req_sp", "depth", "agree",
                 "counterexample")

#: `req_sp` outcomes under the atomic preset, (file, constructor) ->
#: holds, for every depth the workloads use.  Accepted constructors
#: satisfy req-SP (acceptance criterion 7 at depth 2; the soundness
#: claim in PAPER.md for depth 3).  The four atomic rejections fail it
#: already at depth 2: eq_cov by test_cli.py test_agreement_exit_codes,
#: private_fd by criterion 7, fun_cov because a coercion from bool to
#: int in its contravariant domain cannot be undone (bool <= int, not
#: int <= bool), object_emulation with the counterexample below.  Hence
#: every record agrees and every oracle op exits 0.
REQ_SP_FAILS = {("eq_cov", "eq.Refl"), ("fun_cov", "t.Fun"),
                ("private_fd", "t.K"), ("object_emulation", "t.K")}

#: Counterexample shapes of the rejections, at every depth: the
#: constraint forces sigma, and its only strict supertype is sigma'.
#: README / criterion 7 for private_fd; the private edge of
#: object_emulation for the other.
COUNTEREXAMPLES = {
    ("private_fd", "t.K"): "sigma=(fd) sigma'=(int)",
    ("object_emulation", "t.K"): "sigma=(obj_m) sigma'=(obj_empty)",
}

#: Files the depth-3 oracle workload runs; `expr` is left out because it
#: does not finish in minutes (ROADMAP baseline).
ORACLE_D3_FILES = ("ml_open_demo", "object_emulation", "sink_sub")


def rejected_under(name: str, ctor: str, preset: str) -> bool:
    entry = REJECTED.get((name, ctor))
    return entry is not None and preset in entry[0]


def expected_check(name: str, preset: str
                   ) -> tuple[int, list[tuple[str, str, str]]]:
    """Exit code and (type, ctor, verdict) records of one check op."""
    records = []
    for qualified in CORPUS[name]:
        typ, ctor = qualified.split(".")
        verdict = ("rejected" if rejected_under(name, qualified, preset)
                   else "accepted")
        records.append((typ, ctor, verdict))
    code = 1 if any(v == "rejected" for _, _, v in records) else 0
    return code, records


def totals() -> dict[str, int]:
    """Accepted/rejected counts per mode over corpus x presets."""
    out = {"accepted": 0, "rejected": 0}
    for name in CORPUS:
        for preset in PRESETS:
            for _, _, verdict in expected_check(name, preset)[1]:
                out[verdict] += 1
    return out


def expected_oracle(name: str, depth: int
                    ) -> tuple[int, list[dict]]:
    """Exit code and expected records of one `oracle --depth` op under
    the atomic preset and exact mode; `shape` is a required substring of
    the counterexample, when one is known."""
    records = []
    for qualified in CORPUS[name]:
        typ, ctor = qualified.split(".")
        rejected = rejected_under(name, qualified, "atomic")
        holds = (name, qualified) not in REQ_SP_FAILS
        records.append({
            "type": typ, "ctor": ctor,
            "verdict": "rejected" if rejected else "accepted",
            "req_sp": holds, "depth": depth, "agree": "yes",
            "shape": COUNTEREXAMPLES.get((name, qualified)),
        })
    return 0, records
