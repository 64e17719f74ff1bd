"""Write the golden CLI outputs that test_golden.py diffs.

    PYTHONPATH=src python tests/golden/capture.py [SUITE ...]

Four suites, one directory each:

- `oracle/`: `vgadt oracle` at depths 2 and 3 over every corpus file x
  preset x format;
- `check/`: `vgadt check` over every corpus file x preset x mode x
  format, `check --explain` (text) over every corpus file x preset x
  mode, and exact `check` / `check --explain` for the generated wide
  constructors in `inputs/` (4-6 existential variables);
- `infer/`: `vgadt infer` over every corpus file x preset x format;
- `diagnostics/`: `vgadt check` on each malformed file in `bad/`
  (lexical errors, a token missing after a trailing comment, non-ASCII
  names, nesting over the depth limit, duplicate declarations, bad
  constraints, unbound variables).  These files live outside `inputs/`
  because the `check` suite runs every file there.

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
DEPTH3_FILES = ("arrow_bound", "eq_cov", "eq_inv", "expr", "expr_sup",
                "fun_cov", "list", "ml_open_demo", "object_emulation",
                "pair_ref", "private_fd", "sink_sub", "world", "world_min",
                "world_ref")


def _corpus() -> list[str]:
    return sorted(p.stem for p in (ROOT / "corpus").glob("*.vt"))


def _inputs() -> list[str]:
    return sorted(p.stem for p in (HERE / "inputs").glob("*.vt"))


def cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) of every `oracle` golden case."""
    out = []
    for name in _corpus():
        for preset in PRESETS:
            for fmt in FORMATS:
                out.append((f"d2-{preset}-{fmt}-{name}",
                            ["oracle", f"corpus/{name}.vt", "--depth=2",
                             f"--preset={preset}", f"--format={fmt}"]))
    for name in DEPTH3_FILES:
        for preset in PRESETS:
            for fmt in FORMATS:
                out.append((f"d3-{preset}-{fmt}-{name}",
                            ["oracle", f"corpus/{name}.vt", "--depth=3",
                             f"--preset={preset}", f"--format={fmt}"]))
    return out


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


#: directory -> cases stored there.
SUITES = {"oracle": cases, "check": check_cases, "infer": infer_cases,
          "diagnostics": diagnostics_cases}


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
