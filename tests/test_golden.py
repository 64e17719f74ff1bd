"""Golden CLI output: exit code, stdout and stderr of every case in
golden/capture.py must match the stored files byte for byte.

The `oracle` files pin the first counterexample of every rejection; the
`check` files pin verdicts, witnesses (`gamma`, `gammas`), rejection
reasons and `--explain` derivations; the `infer` files pin the printed
variance sets; the `diagnostics` files pin the positioned messages for
malformed input; the `usage` files pin help text and usage errors.  Regenerate them with
`PYTHONPATH=src python tests/golden/capture.py` only for an intended
change of output.
"""
from __future__ import annotations

import difflib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "golden"))
import capture  # noqa: E402


def assert_matches(suite: str, name: str, argv: list[str]) -> None:
    want = (capture.HERE / suite / f"{name}.out").read_text(encoding="utf-8")
    got = capture.render(argv)
    assert got == want, "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        f"golden/{suite}/{name}.out", "current"))


def parametrize(cases):
    return pytest.mark.parametrize("name,argv", cases,
                                   ids=[name for name, _ in cases])


@parametrize(capture.cases())
def test_oracle_output_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(capture.ROOT)
    assert_matches("oracle", name, argv)


@parametrize(capture.check_cases())
def test_check_output_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(capture.ROOT)
    assert_matches("check", name, argv)


@parametrize(capture.infer_cases())
def test_infer_output_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(capture.ROOT)
    assert_matches("infer", name, argv)


@parametrize(capture.diagnostics_cases())
def test_diagnostics_match_golden(name, argv, monkeypatch):
    monkeypatch.chdir(capture.ROOT)
    assert_matches("diagnostics", name, argv)


@parametrize(capture.usage_cases())
def test_usage_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(capture.ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    assert_matches("usage", name, argv)
