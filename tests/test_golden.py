"""Golden output of `vgadt oracle`: exit code, stdout and stderr of every
case in golden/capture.py must match the stored files byte for byte.

The files pin the first counterexample of every rejection.  Regenerate
them with `PYTHONPATH=src python tests/golden/capture.py` only for an
intended change of output.
"""
from __future__ import annotations

import difflib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "golden"))
import capture  # noqa: E402


CASES = capture.cases()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_oracle_output_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(capture.ROOT)
    want = (capture.GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    got = capture.render(argv)
    assert got == want, "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        f"golden/{name}.out", "current"))
