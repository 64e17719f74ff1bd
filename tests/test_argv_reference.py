"""The argv parser against a reference: the argparse parser that
`vgadt.cli._parse` replaced, kept here verbatim as the specification
(`_build_parser`), with the checks the old `run` made after it.

On generated argvs, both must agree: where the reference accepts, on
the command and every option; where it refuses or prints help, on the
exit code, stdout and stderr.  One change is intended: FILE operands
may follow options.  argparse's `FILE...` positional stops at the
first option, so where the reference reports "unrecognized arguments"
the new parser reads as the reference reads the same argv with its
operands moved behind the options and a `--`.

Only argparse 3.10 and 3.11 behave as the specification: later
releases print choices without quotes and take a `--` before the
command as a separator, so the comparison is skipped there.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

from vgadt import cli
from vgadt.checker import PRESETS
from vgadt.cli import _check, _infer, _oracle

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="argparse 3.12 and later word and parse some argvs differently")


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


def reference(argv: list[str]):
    """What the old `run` did with `argv` before it read any file."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ns = _build_parser().parse_args(list(argv))
            if getattr(ns, "explain", False) and ns.format != "text":
                ns.parser.error("--explain prints text only, "
                                "not --format=structured")
    except SystemExit as exc:
        return (2 if exc.code else 0), out.getvalue(), err.getvalue()
    if getattr(ns, "depth", 1) < 1:
        return 2, "", "--depth must be >= 1\n"
    return ("accepted", ns.command, ns.paths, ns.preset, ns.format,
            getattr(ns, "mode", None), getattr(ns, "explain", None),
            getattr(ns, "depth", None))


def new(argv: list[str]):
    """The same for `vgadt.cli`: `run` stops before reading a file
    unless the argv is accepted."""
    try:
        command, opts = cli._parse(argv)
    except cli._UsageError:
        opts = None
    if opts is not None and opts.get("depth", 1) >= 1:
        return ("accepted", command, opts["paths"], opts["preset"],
                opts["format"], opts.get("mode"), opts.get("explain"),
                opts.get("depth"))
    out, err = io.StringIO(), io.StringIO()
    return cli.run(argv, out, err), out.getvalue(), err.getvalue()


#: The options of each command, and the values tried for each option.
COMMANDS = {"check": ("preset", "format", "mode", "explain"),
            "infer": ("preset", "format"),
            "oracle": ("preset", "format", "depth")}
VALUES = {"preset": (*PRESETS, "bogus"),
          "format": ("text", "structured", "bogus"),
          "mode": ("fast", "exact", "slow"),
          "explain": ("yes",),
          "depth": ("-1", "0", "1", "2", "3", "4", "two")}


def _prefixes(name: str) -> list[str]:
    """Every unique prefix of `--name`: no two options share a letter."""
    return [name[:k] for k in range(1, len(name) + 1)]


def _valued(names):
    """Items giving one of `names` a value, in `=` or two-token form."""
    return st.sampled_from(names).flatmap(
        lambda name: st.tuples(st.sampled_from(_prefixes(name)),
                               st.sampled_from(VALUES[name]),
                               st.booleans()).map(
            lambda t: (name, [f"--{t[0]}={t[1]}"] if t[2]
                       else [f"--{t[0]}", t[1]])))


def _items(command):
    """An argv after `command`: 1-3 FILEs and up to 5 other items, in
    any order.  An item is (option name or None for a FILE, its tokens);
    the options of `command` come three times as often as the others."""
    own = COMMANDS.get(command, ("preset", "format"))
    explain = st.sampled_from(_prefixes("explain")).map(
        lambda p: ("explain", [f"--{p}"]))
    token = st.sampled_from(("--", "-h", "--help", "--bogus", "-x")).map(
        lambda t: (t, [t]))
    files = st.lists(st.sampled_from(("a.vt", "b.vt", "c.vt")).map(
        lambda f: (None, [f])), min_size=1, max_size=3)
    other = st.one_of(_valued(sorted(VALUES)), explain, token)
    rest = st.lists(st.one_of(*[_valued(own)] * 3, other), max_size=5)
    return st.tuples(rest, files).flatmap(
        lambda t: st.permutations(t[0] + t[1]))


#: (command or None, items); one argv in five has no valid command.
argvs = st.sampled_from(("check", "check", "infer", "oracle", "oracle",
                         "check", "infer", "oracle", "frobnicate", None)
                        ).flatmap(lambda c: st.tuples(st.just(c), _items(c)))


def flatten(command, items) -> list[str]:
    return [*([command] if command else []),
            *(tok for _, tokens in items for tok in tokens)]


def hoisted(command: str, items) -> list[str]:
    """`argv` with its operands after its options and a `--`: FILEs, the
    token after a flag or an option `command` does not know, and all
    after a `--`."""
    options, operands, after_dashes = [], [], False
    for name, tokens in items:
        if after_dashes or name is None:
            operands += tokens
        elif name == "--":
            after_dashes = True
        elif len(tokens) == 1 or (name in COMMANDS[command]
                                  and name != "explain"):
            options += tokens
        else:
            options.append(tokens[0])
            operands.append(tokens[1])
    return [command, *options, "--", *operands]


@seed(20261020)
@settings(max_examples=1000, deadline=None, database=None)
@given(argvs)
def test_the_parser_reads_argv_as_the_reference(case):
    command, items = case
    argv = flatten(command, items)
    want = reference(argv)
    if want[0] == 2 and "unrecognized arguments" in want[2]:
        want = reference(hoisted(command, items))
    assert new(argv) == want, argv
