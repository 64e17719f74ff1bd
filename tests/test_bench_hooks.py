"""The benchmark's hook points in the package.

`perfbench/tracer.py` wraps the functions listed in its `TARGETS`, by
module, class and attribute, and reports a target it cannot find as
absent instead of failing.  So a renamed or removed function would
silently zero a per-layer metric.  This test pins which targets resolve:
all of them except two that name functions the package no longer has
there (`criterion` stopped importing `decomp_sets`, and
`DecompEngine.valid_contexts` is gone).  `perfbench/test_perfbench.py`
also imports the brute-force decision by name.
"""
from __future__ import annotations

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Targets the tracer reports as absent, and only these.
ABSENT = {"vgadt.criterion.decomp_sets",
          "vgadt.checker.DecompEngine.valid_contexts"}


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_except_the_known_absent():
    absent = set()
    for module_name, class_name, attr, _, _ in load_tracer().TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            absent.add(".".join(filter(None, (module_name, class_name, attr))))
    assert absent == ABSENT


def test_perfbench_imports_resolve():
    from vgadt.criterion import check_gadt_constructor_bruteforce

    assert callable(check_gadt_constructor_bruteforce)
