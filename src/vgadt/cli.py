"""Command-line driver.

Three commands over declaration files: `check` runs the soundness
criterion and reports per-constructor verdicts, `infer` prints the
per-variable variance sets the judgments admit, and `oracle`
cross-checks syntactic verdicts against the brute-force semantics on a
bounded universe.

Every command runs one pipeline: each file in turn is read, parsed and
given the preset's closure flags, then handed to the command's body,
which prints the file's records and says whether all of them are fine.
`check` and `oracle` check the whole file before they print any of its
records; `infer` prints each constructor as it goes.  The first
file with a user error (unreadable or not UTF-8, a parse or
well-formedness error, a constructor that cannot be normalized, a
universe over the size cap) stops the run with its diagnostics on
stderr; what earlier files printed stays.

Exit codes: 0 all accepted / full agreement, 1 at least one rejection or
disagreement, 2 a user error or an internal error (reported in one line,
never as a traceback).  Structured output (`--format=structured`) is one
JSON record per line on stdout; diagnostics go to stderr.

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
import io
import json
import sys
from typing import Optional, Sequence, TextIO

from .checker import (
    DecompEngine,
    PRESETS,
    compute_closure_flags,
    decomp_sets,
    derive_variance,
    principal_context,
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
    Diagnostic,
    Signature,
    SignatureError,
    normalize_constructor,
    parse_signature,
    render_constraint,
)
from .variance import COV, VarianceContext, render_variance_set, up_set

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2

INCOMPLETENESS_NOTE = (
    "note: a rejected constructor whose argument type is uninhabited may "
    "still be sound; no inhabitation reasoning is performed.")


def _render_gamma(g: Optional[VarianceContext]) -> Optional[dict[str, str]]:
    if g is None:
        return None
    return {name: v.value for name, v in g.entries}


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


def _check(ns: argparse.Namespace, sig: Signature, out: TextIO) -> bool:
    report = check_signature(sig, ns.mode)
    for verdict in report.verdicts:
        if ns.format == "structured":
            print(json.dumps({
                "type": verdict.datatype,
                "ctor": verdict.ctor,
                "verdict": "accepted" if verdict.accepted else "rejected",
                "gamma": _render_gamma(verdict.gamma),
                "gammas": ([_render_gamma(g) for g in verdict.gammas]
                           if verdict.gammas is not None else None),
                "reason": verdict.reason,
            }), file=out)
        else:
            print(verdict.describe(), file=out)
            if ns.explain:
                _explain_verdict(sig, verdict, out)
    return report.ok


def _rendered_sets(sets, domain: Sequence[str]) -> Optional[dict[str, str]]:
    if sets is None:
        return None
    return {a: render_variance_set(sets[a]) for a in domain}


def _sets_line(sets: dict[str, str]) -> str:
    return "  ".join(f"{a}: {s}" for a, s in sets.items())


def _infer(ns: argparse.Namespace, sig: Signature, out: TextIO) -> bool:
    for decl in sig.datatypes():
        varis = decl.param_variances()
        for k in decl.ctors:
            if k.form == FORM_ADT:
                domain, arg, constraints = decl.param_names(), k.arg, ()
            else:
                norm = normalize_constructor(decl, k)
                domain, arg, constraints = (norm.exist_vars, norm.arg,
                                            norm.constraints)
            principal = principal_context(sig, arg, COV, domain)
            record = {
                "type": decl.name, "ctor": k.name,
                "arg_sets": {a: render_variance_set(up_set(w))
                             for a, w in principal.entries},
                "principal": _render_gamma(principal),
                "constraints": [
                    {"constraint": render_constraint(decl, c),
                     "sets": _rendered_sets(decomp_sets(
                         sig, c.bound, varis[c.param],
                         target_variance(c.rel), domain), domain)}
                    for c in constraints],
            }
            if ns.format == "structured":
                print(json.dumps(record), file=out)
                continue
            print(f"{decl.name}.{k.name}: {_sets_line(record['arg_sets'])}",
                  file=out)
            print(f"  principal: {principal}", file=out)
            for c in record["constraints"]:
                sets = ("unsatisfiable" if c["sets"] is None
                        else _sets_line(c["sets"]))
                print(f"  [{c['constraint']}]: {sets}", file=out)
    return True


def _oracle(ns: argparse.Namespace, sig: Signature, out: TextIO) -> bool:
    universe = enumerate_types(sig, ns.depth)
    ctors = [(decl, k) for decl in sig.datatypes() for k in decl.ctors]
    all_agree = True
    for (decl, k), verdict in zip(ctors, check_signature(sig).verdicts):
        result = req_sp(sig, universe, decl, k)
        if verdict.accepted:
            agree = "yes" if result.holds else "DISAGREE"
        else:
            agree = ("yes" if not result.holds
                     else "unconfirmed (bounded search)")
        all_agree = all_agree and agree == "yes"
        syntactic = "accepted" if verdict.accepted else "rejected"
        if ns.format == "structured":
            print(json.dumps({
                "type": decl.name, "ctor": k.name,
                "verdict": syntactic,
                "req_sp": result.holds,
                "depth": universe.depth,
                "agree": agree,
                "counterexample": None if result.holds else result.describe(),
            }), file=out)
        else:
            print(f"{decl.name}.{k.name}: syntactic={syntactic} "
                  f"req-sp={result.describe()} agree={agree}", file=out)
    return all_agree


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vgadt",
        description="Check variance annotations on datatype declarations "
                    "with subtyping.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, body, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(body=body, parser=p)
        p.add_argument("paths", nargs="+", metavar="FILE")
        p.add_argument("--preset", choices=PRESETS, default="atomic",
                       help="closure-flag preset (default: atomic)")
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")
        return p

    check = command("check", _check, "check declarations")
    check.add_argument("--mode", choices=("fast", "exact"), default="exact")
    check.add_argument("--explain", action="store_true",
                       help="print derivations with rule names "
                            "(text format only)")
    command("infer", _infer, "print admissible variance sets")
    oracle = command("oracle", _oracle,
                     "cross-check verdicts against the brute-force semantics")
    oracle.add_argument("--depth", type=int, default=2,
                        help="universe depth bound (default: 2)")
    return parser


def _decode(data: bytes) -> str:
    text = io.StringIO(data.decode("utf-8"), newline=None).read()
    return text.removeprefix("\ufeff")


def _read(path: str) -> str:
    """The UTF-8 text of `path` with newlines translated as in text mode
    and one leading byte-order mark dropped; a byte that is not UTF-8
    raises a positioned SignatureError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _decode(data)
    except UnicodeDecodeError as exc:
        lines = _decode(data[:exc.start]).split("\n")
        raise SignatureError([Diagnostic(
            len(lines), len(lines[-1]) + 1,
            f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})")]
        ) from None


def run(argv: Sequence[str], out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    """Run one command; `out` and `err` default to the process streams
    current at the call."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = _build_parser().parse_args(list(argv))
            if getattr(ns, "explain", False) and ns.format != "text":
                ns.parser.error("--explain prints text only, "
                                "not --format=structured")
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize the code.
        return EXIT_ERROR if exc.code else EXIT_OK
    if getattr(ns, "depth", 1) < 1:
        print("--depth must be >= 1", file=err)
        return EXIT_ERROR
    ok = True
    try:
        for path in ns.paths:
            sig = parse_signature(_read(path))
            compute_closure_flags(sig, ns.preset)
            ok = ns.body(ns, sig, out) and ok
    except (OSError, SignatureError, ValueError, UniverseSizeError) as exc:
        if isinstance(exc, SignatureError):
            for d in exc.diagnostics:
                print(f"{path}:{d}", file=err)
        else:
            print(f"{path}: {exc}", file=err)
        return EXIT_ERROR
    except Exception as exc:   # exit 1 means "rejected", never a crash
        print(f"vgadt: internal error: {type(exc).__name__}: {exc}",
              file=err)
        return EXIT_ERROR
    if not ok and ns.command == "check" and ns.format == "text":
        print(INCOMPLETENESS_NOTE, file=out)
    return EXIT_OK if ok else EXIT_REJECTED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
