"""The package has no runtime dependencies: every module of `vgadt`
imports only the standard library and the package itself, and
`pyproject.toml` declares no dependency.  The installed `vgadt` script
runs `vgadt.cli:main`, which prints what `vgadt.cli.run` prints."""
from __future__ import annotations

import ast
import io
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "vgadt").glob("*.py"))


def top_level_imports(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_package_has_modules():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    foreign = {name for name in top_level_imports(path)
               if name != "vgadt" and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project.get("dependencies", []) == []


def test_the_script_entry_point_is_cli_main():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["vgadt"] == "vgadt.cli:main"


def test_importing_the_cli_loads_no_argparse():
    """The command line is parsed without argparse, so a call pays for
    neither it nor the gettext it imports."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, vgadt.cli; "
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr


def test_main_prints_what_run_prints(monkeypatch):
    from vgadt.cli import EXIT_REJECTED, run

    argv = ["check", "corpus/expr.vt", "corpus/eq_cov.vt"]
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "vgadt.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, timeout=60)
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == EXIT_REJECTED
    assert proc.returncode == EXIT_REJECTED, proc.stderr
    assert proc.stdout == out.getvalue().encode("utf-8")
