"""Write the golden CLI outputs that test_golden.py diffs.

    PYTHONPATH=src python tests/golden/capture.py [SUITE ...]

Five suites, one directory each:

- `oracle/`: `vgadt oracle` at depths 2 and 3 over every corpus file x
  preset x format;
- `check/`: `vgadt check` over every corpus file x preset x mode x
  format, `check --explain` (text) over every corpus file x preset x
  mode, and exact `check` / `check --explain` for the generated wide
  constructors in `inputs/` (4-6 existential variables);
- `infer/`: `vgadt infer` over every corpus file x preset x format;
- `diagnostics/`: `vgadt check` on each malformed file in `bad/`
  (lexical errors, a token missing after a trailing comment, non-ASCII
  names, nesting over the depth limit in parentheses and in `*`, `->`
  and postfix chains, duplicate declarations, bad constraints,
  constrained parameters that also occur in the argument or a bound,
  unbound variables, and one file for each other message of the parser
  and of `wf_check`).  These files live outside `inputs/`
  because the `check` suite runs every file there;
- `usage/`: the command line itself: help text, usage errors, every
  accepted form of an option, and FILE operands among the options.
  Help is captured with `COLUMNS=80`, which the test sets too.

Each case is one in-process `vgadt.cli.run` call with the working
directory at the repository root, so paths in diagnostics are relative.
The file `<case>.out` holds the exit code on its first line, then
stdout, then (if any) stderr after a `--- stderr` line.  Regenerate only
when a change of output is intended, and review the diff.
"""
from __future__ import annotations

import io
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "oracle"

PRESETS = ("atomic", "ml-open", "none")
FORMATS = ("text", "structured")
MODES = ("exact", "fast")


def _corpus() -> list[str]:
    return sorted(p.stem for p in (ROOT / "corpus").glob("*.vt"))


def _inputs() -> list[str]:
    return sorted(p.stem for p in (HERE / "inputs").glob("*.vt"))


def cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) of every `oracle` golden case."""
    return [(f"d{depth}-{preset}-{fmt}-{name}",
             ["oracle", f"corpus/{name}.vt", f"--depth={depth}",
              f"--preset={preset}", f"--format={fmt}"])
            for depth in (2, 3) for name in _corpus()
            for preset in PRESETS for fmt in FORMATS]


def check_cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) of every `check` golden case."""
    out = []
    for name in _corpus():
        path = f"corpus/{name}.vt"
        for preset in PRESETS:
            for mode in MODES:
                for fmt in FORMATS:
                    out.append((f"{mode}-{preset}-{fmt}-{name}",
                                ["check", path, f"--preset={preset}",
                                 f"--mode={mode}", f"--format={fmt}"]))
                out.append((f"{mode}-{preset}-explain-{name}",
                            ["check", path, f"--preset={preset}",
                             f"--mode={mode}", "--explain"]))
    for name in _inputs():
        path = f"tests/golden/inputs/{name}.vt"
        for fmt in FORMATS:
            out.append((f"exact-atomic-{fmt}-{name}",
                        ["check", path, "--mode=exact", f"--format={fmt}"]))
        out.append((f"exact-atomic-explain-{name}",
                    ["check", path, "--mode=exact", "--explain"]))
    return out


def infer_cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) of every `infer` golden case."""
    return [(f"{preset}-{fmt}-{name}",
             ["infer", f"corpus/{name}.vt", f"--preset={preset}",
              f"--format={fmt}"])
            for name in _corpus() for preset in PRESETS for fmt in FORMATS]


def diagnostics_cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) of every `diagnostics` golden case."""
    return [(p.stem, ["check", f"tests/golden/bad/{p.name}"])
            for p in sorted((HERE / "bad").glob("*.vt"))]


def usage_cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) of every `usage` golden case."""
    f = "corpus/list.vt"
    return [
        ("no-arguments", []),
        ("help", ["--help"]),
        ("h", ["-h"]),
        ("check-help", ["check", "--help"]),
        ("infer-h", ["infer", "-h"]),
        ("oracle-help", ["oracle", "--help"]),
        ("check-file-help", ["check", f, "--help"]),
        ("check-bogus-help", ["check", "--bogus", "--help"]),
        ("unknown-command", ["frobnicate", f]),
        ("check-no-file", ["check"]),
        ("check-bogus-no-file", ["check", "--bogus"]),
        ("preset-bogus", ["check", f, "--preset=bogus"]),
        ("format-bogus", ["check", f, "--format", "bogus"]),
        ("mode-slow", ["check", f, "--mode=slow"]),
        ("depth-two", ["oracle", f, "--depth=two"]),
        ("depth-0", ["oracle", f, "--depth=0"]),
        ("depth-minus-1", ["oracle", f, "--depth", "-1"]),
        ("preset-no-value", ["check", f, "--preset"]),
        ("explain-yes", ["check", f, "--explain=yes"]),
        ("explain-structured", ["check", f, "--explain",
                                "--format=structured"]),
        ("infer-mode", ["infer", f, "--mode=fast"]),
        ("check-depth", ["check", f, "--depth=3"]),
        ("unknown-short", ["check", f, "-x"]),
        ("unknown-long", ["check", f, "--bogus"]),
        ("two-token-values", ["check", "--preset", "none", "--format",
                              "structured", "corpus/expr.vt",
                              "corpus/eq_cov.vt"]),
        ("prefixes", ["check", "corpus/expr.vt", "--pre=none",
                      "--form=structured", "--mo=fast"]),
        ("last-value-wins", ["check", f, "--mode=fast", "--mode=exact"]),
        ("explain-prefix", ["check", f, "--exp"]),
        ("double-dash", ["check", "--", f]),
        ("oracle-depth-1", ["oracle", f, "--depth", "1",
                            "--format=structured"]),
        ("infer-ml-open", ["infer", "corpus/arrow_bound.vt",
                           "--preset=ml-open"]),
        ("file-after-option", ["check", "corpus/eq_cov.vt", "--mode=fast",
                               "corpus/expr.vt"]),
        ("empty-name", ["check", f, "--=fast"]),
        ("help-yes", ["check", f, "--help=yes"]),
        ("hh", ["-hh"]),
    ]


#: directory -> cases stored there.
SUITES = {"oracle": cases, "check": check_cases, "infer": infer_cases,
          "diagnostics": diagnostics_cases, "usage": usage_cases}


def render(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one run, as stored in a golden
    file.  Must be called with the repository root as working directory."""
    from vgadt.cli import run

    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    text = f"exit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"--- stderr\n{err.getvalue()}"
    return text


def main() -> None:
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    suites = sys.argv[1:] or list(SUITES)
    for suite in suites:
        target = HERE / suite
        target.mkdir(exist_ok=True)
        for name, argv in SUITES[suite]():
            (target / f"{name}.out").write_text(render(argv),
                                                encoding="utf-8")
            print(f"{suite}/{name}", file=sys.stderr)


if __name__ == "__main__":
    main()
