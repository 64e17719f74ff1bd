"""Command-line driver.

Three commands over declaration files: `check` runs the soundness
criterion and reports per-constructor verdicts, `infer` prints the
per-variable variance sets the judgments admit, and `oracle`
cross-checks syntactic verdicts against the brute-force semantics on a
bounded universe.

Exit codes: 0 all accepted / full agreement, 1 at least one rejection or
disagreement, 2 unreadable input, parse error, ill-formed signature or
internal error (reported in one line, never as a traceback).
Structured output (`--format=structured`) is one JSON record per line on
stdout; diagnostics go to stderr.

`run` may be called repeatedly in one process.  The argument parser is
built once per process, on the first call; nothing else outlives a
call.  All output of a call, argparse's usage and help text included,
goes to the `out` and `err` streams it is given, by default to
`sys.stdout` and `sys.stderr` as they are when it is called.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

from .checker import (
    DecompEngine,
    PRESETS,
    compute_closure_flags,
    decomp_sets,
    derive_variance,
    principal_context,
    variance_sets,
)
from .criterion import (
    Verdict,
    check_signature,
    target_variance,
)
from .oracle import (
    UniverseSizeError,
    enumerate_types,
    req_sp,
)
from .syntax import (
    FORM_ADT,
    Signature,
    SignatureError,
    normalize_constructor,
    parse_signature,
    render_type,
)
from .variance import COV, Variance, VarianceContext, render_variance_set

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2

INCOMPLETENESS_NOTE = (
    "note: a rejected constructor whose argument type is uninhabited may "
    "still be sound; no inhabitation reasoning is performed.")


@dataclass
class RunConfig:
    command: str
    paths: list[str]
    preset: str = "atomic"
    mode: str = "exact"
    depth: int = 2
    format: str = "text"
    explain: bool = False


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vgadt",
        description="Check variance annotations on datatype declarations "
                    "with subtyping.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("paths", nargs="+", metavar="FILE")
        p.add_argument("--preset", choices=PRESETS, default="atomic",
                       help="closure-flag preset (default: atomic)")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")

    check = sub.add_parser("check", help="check declarations")
    common(check)
    check.add_argument("--mode", choices=("fast", "exact"), default="exact")
    check.add_argument("--explain", action="store_true",
                       help="print derivations with rule names")

    infer = sub.add_parser("infer", help="print admissible variance sets")
    common(infer)

    oracle = sub.add_parser("oracle",
                            help="cross-check verdicts against the "
                                 "brute-force semantics")
    common(oracle)
    oracle.add_argument("--mode", choices=("fast", "exact"), default="exact")
    oracle.add_argument("--depth", type=int, default=2,
                        help="universe depth bound (default: 2)")
    return parser


def _load(path: str, err: TextIO) -> Optional[Signature]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"{path}: {exc}", file=err)
        return None
    try:
        return parse_signature(text)
    except SignatureError as exc:
        for d in exc.diagnostics:
            print(f"{path}:{d}", file=err)
        return None


def _render_gamma(g: Optional[VarianceContext]) -> Optional[dict[str, str]]:
    if g is None:
        return None
    return {name: v.value for name, v in g.entries}


def _structured_record(verdict: Verdict) -> str:
    record = {
        "type": verdict.datatype,
        "ctor": verdict.ctor,
        "verdict": "accepted" if verdict.accepted else "rejected",
        "gamma": _render_gamma(verdict.gamma),
        "gammas": ([_render_gamma(g) for g in verdict.gammas]
                   if verdict.gammas is not None else None),
        "reason": verdict.reason,
    }
    return json.dumps(record)


def _sets_text(sets: dict[str, frozenset[Variance]],
               domain: Sequence[str]) -> str:
    return "  ".join(f"{a}: {render_variance_set(sets[a])}" for a in domain)


def _explain_verdict(sig: Signature, verdict: Verdict, out: TextIO) -> None:
    norm = verdict.normalized
    if not verdict.accepted or verdict.gamma is None:
        return
    if verdict.arg is not None:
        tree = derive_variance(sig, verdict.gamma, verdict.arg, COV)
        if tree is not None:
            for line in tree.lines(1):
                print(line, file=out)
    if norm is None or verdict.gammas is None:
        return
    decl = sig.info(verdict.datatype).decl
    assert decl is not None
    engine = DecompEngine(sig, norm.exist_vars)
    varis = decl.param_variances()
    for gi, c in zip(verdict.gammas, norm.constraints):
        sub = engine.derive(gi, c.bound, varis[c.param], target_variance(c.rel))
        if sub is not None:
            for line in sub.lines(1):
                print(line, file=out)


def _cmd_check(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    any_rejected = False
    for path in cfg.paths:
        sig = _load(path, err)
        if sig is None:
            return EXIT_ERROR
        try:
            compute_closure_flags(sig, cfg.preset)
        except SignatureError as exc:
            for d in exc.diagnostics:
                print(f"{path}:{d}", file=err)
            return EXIT_ERROR
        try:
            report = check_signature(sig, cfg.mode)
        except ValueError as exc:
            print(f"{path}: {exc}", file=err)
            return EXIT_ERROR
        for verdict in report.verdicts:
            if cfg.format == "structured":
                print(_structured_record(verdict), file=out)
            else:
                print(verdict.describe(), file=out)
                if cfg.explain:
                    _explain_verdict(sig, verdict, out)
        if not report.ok:
            any_rejected = True
    if any_rejected and cfg.format == "text":
        print(INCOMPLETENESS_NOTE, file=out)
    return EXIT_REJECTED if any_rejected else EXIT_OK


def _cmd_infer(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    for path in cfg.paths:
        sig = _load(path, err)
        if sig is None:
            return EXIT_ERROR
        try:
            compute_closure_flags(sig, cfg.preset)
        except SignatureError as exc:
            for d in exc.diagnostics:
                print(f"{path}:{d}", file=err)
            return EXIT_ERROR
        for kind, payload in sig.decl_order:
            if kind != "type":
                continue
            decl = sig.info(payload).decl
            assert decl is not None
            varis = decl.param_variances()
            for k in decl.ctors:
                if k.form == FORM_ADT:
                    domain = decl.param_names()
                    sets = variance_sets(sig, k.arg, COV, domain)
                    principal = principal_context(sig, k.arg, COV, domain)
                    record = {
                        "type": decl.name, "ctor": k.name,
                        "arg_sets": {a: render_variance_set(sets[a]) for a in domain},
                        "principal": _render_gamma(principal),
                        "constraints": [],
                    }
                    if cfg.format == "structured":
                        print(json.dumps(record), file=out)
                    else:
                        print(f"{decl.name}.{k.name}: "
                              f"{_sets_text(sets, domain)}", file=out)
                        print(f"  principal: {principal}", file=out)
                    continue
                try:
                    norm = normalize_constructor(decl, k)
                except ValueError as exc:
                    print(f"{path}: {exc}", file=err)
                    return EXIT_ERROR
                domain = norm.exist_vars
                sets = variance_sets(sig, norm.arg, COV, domain)
                principal = principal_context(sig, norm.arg, COV, domain)
                constraints = []
                for c in norm.constraints:
                    dsets = decomp_sets(sig, c.bound, varis[c.param],
                                        target_variance(c.rel), domain)
                    label = (f"'{decl.param_names()[c.param]} {c.rel.value} "
                             f"{render_type(c.bound)}")
                    constraints.append((label, dsets))
                if cfg.format == "structured":
                    record = {
                        "type": decl.name, "ctor": k.name,
                        "arg_sets": {a: render_variance_set(sets[a]) for a in domain},
                        "principal": _render_gamma(principal),
                        "constraints": [
                            {"constraint": label,
                             "sets": ({a: render_variance_set(ds[a]) for a in domain}
                                      if ds is not None else None)}
                            for label, ds in constraints
                        ],
                    }
                    print(json.dumps(record), file=out)
                else:
                    print(f"{decl.name}.{k.name}: "
                          f"{_sets_text(sets, domain)}", file=out)
                    print(f"  principal: {principal}", file=out)
                    for label, ds in constraints:
                        if ds is None:
                            print(f"  [{label}]: unsatisfiable", file=out)
                        else:
                            print(f"  [{label}]: {_sets_text(ds, domain)}",
                                  file=out)
    return EXIT_OK


def _cmd_oracle(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    all_agree = True
    for path in cfg.paths:
        sig = _load(path, err)
        if sig is None:
            return EXIT_ERROR
        try:
            compute_closure_flags(sig, cfg.preset)
        except SignatureError as exc:
            for d in exc.diagnostics:
                print(f"{path}:{d}", file=err)
            return EXIT_ERROR
        try:
            universe = enumerate_types(sig, cfg.depth)
            report = check_signature(sig, cfg.mode)
        except (UniverseSizeError, ValueError) as exc:
            print(f"{path}: {exc}", file=err)
            return EXIT_ERROR
        for verdict in report.verdicts:
            decl = sig.info(verdict.datatype).decl
            assert decl is not None
            k = next(c for c in decl.ctors if c.name == verdict.ctor)
            result = req_sp(sig, universe, decl, k)
            if verdict.accepted:
                agree = "yes" if result.holds else "DISAGREE"
            else:
                agree = ("yes" if not result.holds
                         else "unconfirmed (bounded search)")
            if agree != "yes":
                all_agree = False
            if cfg.format == "structured":
                record = {
                    "type": verdict.datatype, "ctor": verdict.ctor,
                    "verdict": "accepted" if verdict.accepted else "rejected",
                    "req_sp": result.holds,
                    "depth": universe.depth,
                    "agree": agree,
                    "counterexample": (None if result.holds else
                                       result.describe()),
                }
                print(json.dumps(record), file=out)
            else:
                line = (f"{verdict.datatype}.{verdict.ctor}: "
                        f"syntactic={'accepted' if verdict.accepted else 'rejected'} "
                        f"req-sp={result.describe()} agree={agree}")
                print(line, file=out)
    return EXIT_OK if all_agree else EXIT_REJECTED


def run(argv: Sequence[str], out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    """Run one command; `out` and `err` default to the process streams
    current at the call."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize the code.
        return EXIT_ERROR if exc.code else EXIT_OK
    cfg = RunConfig(
        command=ns.command,
        paths=list(ns.paths),
        preset=ns.preset,
        mode=getattr(ns, "mode", "exact"),
        depth=getattr(ns, "depth", 2),
        format=ns.format,
        explain=getattr(ns, "explain", False),
    )
    if cfg.depth < 1:
        print("--depth must be >= 1", file=err)
        return EXIT_ERROR
    command = {"check": _cmd_check, "infer": _cmd_infer,
               "oracle": _cmd_oracle}[cfg.command]
    try:
        return command(cfg, out, err)
    except Exception as exc:   # exit 1 means "rejected", never a crash
        print(f"vgadt: internal error: {type(exc).__name__}: {exc}",
              file=err)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
