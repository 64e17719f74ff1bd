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

The argv is read by one parser driven by two tables, `_COMMANDS` and
`_OPTIONS`.  An option takes its value as `--name=value` or as
`--name value`, a long name may be cut to any unique prefix, FILE
operands may come anywhere and everything after `--` is one, and
`-h`/`--help` prints help.  Help and usage errors keep the layout,
wording and order of argparse's, wrapped at 80 columns.

`run` may be called repeatedly in one process; nothing outlives a call.
All output of a call, help and usage errors included, goes to the `out`
and `err` streams it is given, by default to `sys.stdout` and
`sys.stderr` as they are when it is called.
"""
from __future__ import annotations

import json
import re
import sys
from typing import Collection, Optional, Sequence, TextIO

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
from .variance import COV, SYMBOL, VarianceContext, render_variance_set, up_set

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_ERROR = 2

INCOMPLETENESS_NOTE = (
    "note: a rejected constructor whose argument type is uninhabited may "
    "still be sound; no inhabitation reasoning is performed.")


def _render_gamma(g: Optional[VarianceContext]) -> Optional[dict[str, str]]:
    if g is None:
        return None
    return {name: SYMBOL[v] for name, v in g.entries}


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


def _check(opts: dict, sig: Signature, out: TextIO) -> bool:
    report = check_signature(sig, opts["mode"])
    for verdict in report.verdicts:
        if opts["format"] == "structured":
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
            if opts["explain"]:
                _explain_verdict(sig, verdict, out)
    return report.ok


def _rendered_sets(sets, domain: Sequence[str]) -> Optional[dict[str, str]]:
    if sets is None:
        return None
    return {a: render_variance_set(sets[a]) for a in domain}


def _sets_line(sets: dict[str, str]) -> str:
    return "  ".join(f"{a}: {s}" for a, s in sets.items())


def _infer(opts: dict, sig: Signature, out: TextIO) -> bool:
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
            if opts["format"] == "structured":
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


def _oracle(opts: dict, sig: Signature, out: TextIO) -> bool:
    ctors = [(decl, k) for decl in sig.datatypes() for k in decl.ctors]
    if not ctors:       # no verdict would read the universe
        return True
    universe = enumerate_types(sig, opts["depth"])
    all_agree = True
    # Fast mode: the verdicts and normal forms read here need no witness.
    verdicts = check_signature(sig, "fast").verdicts
    for (decl, k), verdict in zip(ctors, verdicts):
        result = req_sp(sig, universe, decl, k, verdict.normalized)
        if result.vacuous is not None:
            agree = "unconfirmed (no instance)"
        elif verdict.accepted:
            agree = "yes" if result.holds else "DISAGREE"
        else:
            agree = ("yes" if not result.holds
                     else "unconfirmed (bounded search)")
        all_agree = all_agree and agree == "yes"
        syntactic = "accepted" if verdict.accepted else "rejected"
        if opts["format"] == "structured":
            print(json.dumps({
                "type": decl.name, "ctor": k.name,
                "verdict": syntactic,
                "req_sp": ("vacuous" if result.vacuous is not None
                           else result.holds),
                "depth": universe.depth,
                "agree": agree,
                "counterexample": None if result.holds else result.describe(),
            }), file=out)
        else:
            print(f"{decl.name}.{k.name}: syntactic={syntactic} "
                  f"req-sp={result.describe()} agree={agree}", file=out)
    return all_agree


#: command -> (body, summary, options).  Every command also takes
#: one or more FILE operands, anywhere in the argv.
_COMMANDS = {
    "check": (_check, "check declarations",
              ("help", "preset", "format", "mode", "explain")),
    "infer": (_infer, "print admissible variance sets",
              ("help", "preset", "format")),
    "oracle": (_oracle, "cross-check verdicts against the brute-force "
               "semantics", ("help", "preset", "format", "depth")),
}
#: option -> (choices, `int`, or None for a flag; default; help or None).
_OPTIONS = {
    "help": (None, None, "show this help message and exit"),
    "preset": (PRESETS, "atomic", "closure-flag preset (default: atomic)"),
    "format": (("text", "structured"), "text", None),
    "mode": (("fast", "exact"), "exact", None),
    "explain": (None, False,
                "print derivations with rule names (text format only)"),
    "depth": (int, 2, "universe depth bound (default: 2)"),
}
#: command -> {option: default}, in the command's order.
_DEFAULTS = {command: {name: _OPTIONS[name][1] for name in spec[2]}
             for command, spec in _COMMANDS.items()}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _UsageError(Exception):
    """(command, or None for the program; message) of a refused argv."""


def _braced(names) -> str:
    return "{" + ",".join(names) + "}"


def _invocation(name: str) -> str:
    kind = _OPTIONS[name][0]
    return ("-h, --help" if name == "help" else f"--{name}" if kind is None
            else f"--{name} {name.upper() if kind is int else _braced(kind)}")


def _usage(command: Optional[str]) -> str:
    """The usage lines, wrapped at 80 columns as argparse wraps them."""
    if command is None:
        return f"usage: vgadt [-h] {_braced(_COMMANDS)} ...\n"
    lines = [f"usage: vgadt {command}"]
    indent = " " * len(lines[0])
    for name in _COMMANDS[command][2]:
        part = "-h" if name == "help" else _invocation(name)
        if len(lines[-1]) + len(part) + 3 > 78:     # " [part]" past 78
            lines.append(indent)
        lines[-1] += f" [{part}]"
    return "\n".join(lines) + f"\n{indent} FILE [FILE ...]\n"


def _help(command: Optional[str]) -> str:
    """Help text at 80 columns; each entry's text starts at column 24."""
    if command is None:
        head = ("\nCheck variance annotations on datatype declarations with "
                f"subtyping.\n\npositional arguments:\n  {_braced(_COMMANDS)}"
                "\n" + "".join(f"    {name:18}  {spec[1]}\n"
                               for name, spec in _COMMANDS.items()))
    else:
        head = "\npositional arguments:\n  FILE\n"
    names = _COMMANDS[command][2] if command else ("help",)
    rows = [(_invocation(name), _OPTIONS[name][2]) for name in names]
    return _usage(command) + head + "\noptions:\n" + "".join(
        f"  {name}\n" if text is None else f"  {name:20}  {text}\n"
        if len(name) <= 20 else f"  {name}\n{'':24}{text}\n"
        for name, text in rows)


def _value(command: Optional[str], what: str, value: str, kind):
    """`value` as an int when `kind` is `int`, else checked against the
    choices `kind`."""
    if kind is int:
        try:
            return int(value)
        except ValueError:
            problem = f"invalid int value: {value!r}"
    elif value in kind:
        return value
    else:
        problem = (f"invalid choice: {value!r} (choose from "
                   f"{', '.join(map(repr, kind))})")
    raise _UsageError(command, f"argument {what}: {problem}")


def _option(arg: str, names: Collection[str], command: Optional[str]):
    """(name, value given after `=` or None) of the option among `names`
    that `arg` gives: ("", None) for an unknown option, (None, None) for
    an operand.  A long name may be cut to any unique prefix."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None, None
    if arg[1] == "-":
        name, eq, value = arg[2:].partition("=")
        hits = ([name] if name in names       # a full name wins, in one lookup
                else [n for n in names if n.startswith(name)])
        if len(hits) > 1:
            raise _UsageError(command, f"ambiguous option: {arg} could "
                              f"match {', '.join('--' + n for n in hits)}")
        if hits:
            return hits[0], value if eq else None
    elif arg[:2] == "-h":     # -hh is -h -h
        return "help", (arg[3:] if arg[2:3] == "="
                        else arg[2:].lstrip("h") or None)
    return (None, None) if _NEGATIVE_NUMBER.match(arg) or " " in arg \
        else ("", None)


def _parse(argv: Sequence[str]) -> tuple[Optional[str], Optional[dict]]:
    """(command, options with the FILEs as "paths") of `argv`, or
    (command, None) when it asks for help; a refused argv raises
    _UsageError.  As with argparse, options take effect in order, so a
    bad value before -h is reported and one after it is not, and a
    missing FILE, then unknown options, are reported after them all."""
    command, names, unknown, opts = None, ("help",), [], {"paths": []}
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg == "--" and (command or not args):
            opts["paths"] += args
            break
        name, value = _option(arg, names, command)
        if name is None and command:
            opts["paths"].append(arg)
        elif name is None:
            command = _value(None, "command", arg, _COMMANDS)
            names = _DEFAULTS[command]
            opts.update(names)
        elif not name:
            unknown.append(arg)
        elif _OPTIONS[name][0] is None:
            if value is not None:
                what = "-h/--help" if name == "help" else f"--{name}"
                raise _UsageError(command, f"argument {what}: ignored "
                                  f"explicit argument {value!r}")
            if name == "help":
                return command, None
            opts[name] = True
        else:
            if value is None:
                if not args or args[0] == "--" or \
                        _option(args[0], names, command)[0] is not None:
                    raise _UsageError(command, f"argument --{name}: "
                                      "expected one argument")
                value = args.pop(0)
            opts[name] = _value(command, f"--{name}", value, _OPTIONS[name][0])
    if command is None or not opts["paths"]:
        raise _UsageError(command, "the following arguments are required: "
                          + ("FILE" if command else "command"))
    if unknown:
        raise _UsageError(None, f"unrecognized arguments: {' '.join(unknown)}")
    if opts.get("explain") and opts["format"] != "text":
        raise _UsageError(command, "--explain prints text only, "
                          "not --format=structured")
    return command, opts


def _decode(data: bytes) -> str:
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return text.removeprefix("\ufeff")


def _read(path: str) -> str:
    """The UTF-8 text of `path` with newlines translated as in text mode
    and one leading byte-order mark dropped; a byte that is not UTF-8
    raises a positioned SignatureError."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
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
        command, opts = _parse(argv)
    except _UsageError as exc:
        command, message = exc.args
        prog = "vgadt" if command is None else f"vgadt {command}"
        err.write(f"{_usage(command)}{prog}: error: {message}\n")
        return EXIT_ERROR
    if opts is None:
        out.write(_help(command))
        return EXIT_OK
    if opts.get("depth", 1) < 1:
        print("--depth must be >= 1", file=err)
        return EXIT_ERROR
    ok = True
    try:
        body = _COMMANDS[command][0]
        for path in opts["paths"]:
            sig = parse_signature(_read(path))
            compute_closure_flags(sig, opts["preset"])
            ok = body(opts, sig, out) and ok
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
    if not ok and command == "check" and opts["format"] == "text":
        print(INCOMPLETENESS_NOTE, file=out)
    return EXIT_OK if ok else EXIT_REJECTED


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
