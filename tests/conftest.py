from __future__ import annotations

import pathlib

import pytest

from vgadt.checker import compute_closure_flags
from vgadt.oracle import enumerate_types
from vgadt.syntax import parse_signature

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

_SIGS: dict = {}
_UNIVERSES: dict = {}


def corpus_text(name: str) -> str:
    return (CORPUS / f"{name}.vt").read_text(encoding="utf-8")


def get_sig(name: str, preset: str = "atomic"):
    """One signature object per (corpus file, preset), flags computed.

    Cached so the oracle's interned types and relation rows, which live
    on the signature and its universes, are shared across tests.
    """
    key = (name, preset)
    if key not in _SIGS:
        sig = parse_signature(corpus_text(name))
        compute_closure_flags(sig, preset)
        _SIGS[key] = sig
    return _SIGS[key]


def get_universe(name: str, depth: int):
    """Universe over the atomic-preset signature of a corpus file."""
    key = (name, depth)
    if key not in _UNIVERSES:
        _UNIVERSES[key] = enumerate_types(get_sig(name, "atomic"), depth)
    return _UNIVERSES[key]


@pytest.fixture(scope="session")
def world():
    return get_sig("world")


@pytest.fixture(scope="session")
def world_u2():
    return get_universe("world", 2)


@pytest.fixture(scope="session")
def world_min():
    return get_sig("world_min")


@pytest.fixture(scope="session")
def world_min_u3():
    return get_universe("world_min", 3)
