"""The four benchmark workloads: their inputs, ops and known answers.

An op is one call of `vgadt.cli.run(argv, out, err)` on one input file
with `--format=structured`.  `prepare` writes a workload's inputs for a
seed and returns the ops of one pass; `check_op` compares an op's exit
code and records with the known answer.

Run as a script (`python3 perfbench/workloads.py WORKLOAD SEED DIR`) it
is the set-up probe: it imports `vgadt.cli`, writes the inputs, prints
`ready` and exits, so the caller can time a fresh process's set-up.
"""
from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Optional

import known_answers as ka
import wide

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS_DIR = os.path.join(ROOT, "corpus")

# Why each workload (BENCHMARK.json names them and gives a short form):
#
# check-corpus  Everyday use: `check` on the 15 corpus files x 3 presets
#               x 2 modes (90 ops a pass).  Small files, so syntax and cli
#               dominate; the decomposability engine sees m <= 3 and is
#               bypassed.
# check-wide    Exact-mode `check` on generated constructors over m = 4..6
#               existential variables (3 accepted families x 3 sizes and 2
#               rejected families at m = 6, 11 ops a pass).
#               DecompEngine.valid_set is over 95% of the time; the
#               workload on which box-union context sets (ROADMAP item 2)
#               would show.
# oracle-d2     `oracle --depth 2` on every corpus file (15 ops a pass).
#               Small universes (14-40 types), so the time goes to the
#               quantifier loops of req_sp, not to building relations.
# oracle-d3     `oracle --depth 3` on ml_open_demo, object_emulation and
#               sink_sub.  Universes of 900-1200 types: building the n^2
#               relation in SemanticOracle.related dominates time and
#               memory.

#: Layer metric -> the end-to-end metrics and workloads it should move.
#: A later change that claims a gain names its claim from here; every
#: other workload is a no-change workload for it.
LAYER_MAP = {
    "cli.self_ms": "op_p50_ms on check-corpus",
    "syntax.parse_ms": "op_p50_ms, verdicts_per_s on check-corpus",
    "syntax.parse_calls": "op_p50_ms, verdicts_per_s on check-corpus",
    "syntax.bytes_per_s": "op_p50_ms, verdicts_per_s on check-corpus",
    "checker.flags_ms": "op_p50_ms, verdicts_per_s on check-corpus",
    "checker.variance_sets_ms": "fast-mode share of check-corpus",
    "checker.variance_sets_calls": "fast-mode share of check-corpus",
    "checker.decomp_sets_ms": "fast-mode share of check-corpus",
    "checker.engine_ms": "verdicts_per_s, op_p50_ms on check-wide; "
                         "near zero elsewhere",
    "checker.engine_contexts": "verdicts_per_s, op_p50_ms on check-wide",
    "criterion.self_ms": "verdicts_per_s on check-wide",
    "criterion.families_tried": "verdicts_per_s on check-wide",
    "criterion.family_hit_ratio": "verdicts_per_s on check-wide",
    "oracle.enumerate_ms": "size descriptor, oracle-d2 and oracle-d3",
    "oracle.universe_types": "size descriptor, oracle-d2 and oracle-d3",
    "oracle.related_ms": "verdicts_per_s, peak_rss_mb on oracle-d3; "
                         "smaller share on oracle-d2",
    "oracle.subtype_calls": "verdicts_per_s, peak_rss_mb on oracle-d3",
    "oracle.subtype_memo_entries": "peak_rss_mb on oracle-d3",
    "oracle.subtype_memo_hit_ratio": "verdicts_per_s on oracle-d3",
    "oracle.req_sp_self_ms": "verdicts_per_s on oracle-d2",
    "oracle.req_sp_calls": "verdicts_per_s on oracle-d2",
    "trace.overhead_ratio": "cost of the tracer itself, every workload",
}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str                 # "check" | "wide" | "oracle"
    name: str                 # corpus file name or generated type name
    preset: str = "atomic"
    mode: str = "exact"
    depth: int = 0
    expected: Optional[str] = None      # check-wide verdict


def _copy_corpus(names, dest: str) -> dict[str, str]:
    paths = {}
    for name in names:
        with open(os.path.join(CORPUS_DIR, f"{name}.vt"), "rb") as fh:
            data = fh.read()
        path = os.path.join(dest, f"{name}.vt")
        with open(path, "wb") as fh:
            fh.write(data)
        paths[name] = path
    return paths


def prepare(workload: str, seed: int, dest: str) -> list[Op]:
    """Write the inputs of `workload` for `seed` into `dest` and return
    the ops of one pass, in a seeded order."""
    os.makedirs(dest, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    if workload == "check-corpus":
        paths = _copy_corpus(ka.CORPUS, dest)
        for name, path in paths.items():
            for preset in ka.PRESETS:
                for mode in ka.MODES:
                    ops.append(Op(("check", path, f"--preset={preset}",
                                   f"--mode={mode}", "--format=structured"),
                                  "check", name, preset, mode))
    elif workload == "check-wide":
        for case in wide.generate_pass(rng.randrange(2**32)):
            path = os.path.join(dest, f"{case.type_name}.vt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(case.text)
            ops.append(Op(("check", path, "--mode=exact",
                           "--format=structured"),
                          "wide", case.type_name, expected=case.expected))
    elif workload in ("oracle-d2", "oracle-d3"):
        depth = 2 if workload == "oracle-d2" else 3
        names = ka.CORPUS if depth == 2 else ka.ORACLE_D3_FILES
        for name, path in _copy_corpus(names, dest).items():
            ops.append(Op(("oracle", path, f"--depth={depth}",
                           "--format=structured"),
                          "oracle", name, depth=depth))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Known-answer checks


def _missing_fields(rec: dict, fields) -> list[str]:
    return [f for f in fields if f not in rec]


def _check_wide(op: Op, code: int, records: list[dict]) -> Optional[str]:
    want_code = 0 if op.expected == wide.ACCEPTED else 1
    want = [(op.name, op.expected)]
    got = [(r.get("type"), r.get("verdict")) for r in records]
    if got != want or code != want_code:
        return f"got {got} exit {code}, want {want} exit {want_code}"
    return None


def _check_corpus(op: Op, code: int, records: list[dict]) -> Optional[str]:
    want_code, want = ka.expected_check(op.name, op.preset)
    got = [(r.get("type"), r.get("ctor"), r.get("verdict")) for r in records]
    if got != want or code != want_code:
        return f"got {got} exit {code}, want {want} exit {want_code}"
    for rec in records:
        missing = _missing_fields(rec, ka.CHECK_FIELDS)
        if missing:
            return f"record lacks {missing}"
        if rec["verdict"] == "rejected" and (
                rec["gamma"] is not None or not rec["reason"]):
            return f"rejection without a reason or with a witness: {rec}"
    by_ctor = {f"{r['type']}.{r['ctor']}": r for r in records}
    for name, preset, mode, ctor, field, value in ka.RECORD_CLAIMS:
        if (name, preset) != (op.name, op.preset) or \
                mode not in (None, op.mode):
            continue
        got_value = by_ctor[ctor][field]
        ok = (value in (got_value or "") if field == "reason"
              else got_value == value)
        if not ok:
            return f"{ctor}.{field} = {got_value!r}, want {value!r}"
    return None


def _check_oracle(op: Op, code: int, records: list[dict]) -> Optional[str]:
    want_code, want = ka.expected_oracle(op.name, op.depth)
    if code != want_code or len(records) != len(want):
        return (f"exit {code} with {len(records)} records, want exit "
                f"{want_code} with {len(want)}")
    for rec, exp in zip(records, want):
        missing = _missing_fields(rec, ka.ORACLE_FIELDS)
        if missing:
            return f"record lacks {missing}"
        for field in ("type", "ctor", "verdict", "req_sp", "depth", "agree"):
            if rec[field] != exp[field]:
                return (f"{exp['type']}.{exp['ctor']}.{field} = "
                        f"{rec[field]!r}, want {exp[field]!r}")
        cex = rec["counterexample"]
        if exp["req_sp"]:
            if cex is not None:
                return f"{exp['ctor']}: counterexample {cex!r} on a pass"
        elif not isinstance(cex, str) or (
                exp["shape"] is not None and exp["shape"] not in cex):
            return (f"{exp['ctor']}: counterexample {cex!r}, want "
                    f"{exp['shape']!r}")
    return None


_CHECKS = {"wide": _check_wide, "check": _check_corpus,
           "oracle": _check_oracle}


def check_op(op: Op, code: int, out: str, err: str
             ) -> tuple[int, Optional[str]]:
    """(verdicts returned, failure message or None) for one op."""
    try:
        records = [json.loads(line) for line in out.splitlines()]
    except ValueError as exc:
        return 0, f"unparsable output: {exc}"
    if err:
        return len(records), f"unexpected diagnostics: {err.strip()[:200]}"
    return len(records), _CHECKS[op.kind](op, code, records)


def probe(workload: str, seed: int, dest: str) -> None:
    """The set-up a fresh workload process pays before its first op."""
    sys.path.insert(0, SRC)
    import vgadt.cli  # noqa: F401  (the import is what is timed)
    prepare(workload, seed, dest)
    print("ready", flush=True)


if __name__ == "__main__":
    probe(sys.argv[1], int(sys.argv[2]), sys.argv[3])
