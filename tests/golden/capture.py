"""Write the golden outputs of `vgadt oracle` that test_golden.py diffs.

    PYTHONPATH=src python tests/golden/capture.py

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
GOLDEN = pathlib.Path(__file__).resolve().parent / "oracle"

PRESETS = ("atomic", "ml-open", "none")
FORMATS = ("text", "structured")
DEPTH3_FILES = ("ml_open_demo", "object_emulation", "sink_sub")


def cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) of every golden case."""
    names = sorted(p.stem for p in (ROOT / "corpus").glob("*.vt"))
    out = []
    for name in names:
        for preset in PRESETS:
            for fmt in FORMATS:
                out.append((f"d2-{preset}-{fmt}-{name}",
                            ["oracle", f"corpus/{name}.vt", "--depth=2",
                             f"--preset={preset}", f"--format={fmt}"]))
    for name in DEPTH3_FILES:
        for fmt in FORMATS:
            out.append((f"d3-atomic-{fmt}-{name}",
                        ["oracle", f"corpus/{name}.vt", "--depth=3",
                         "--preset=atomic", f"--format={fmt}"]))
    return out


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
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in cases():
        (GOLDEN / f"{name}.out").write_text(render(argv), encoding="utf-8")
        print(name, file=sys.stderr)


if __name__ == "__main__":
    main()
