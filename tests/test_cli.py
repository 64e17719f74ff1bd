"""The command-line driver: verdict lines, exit codes, machine output."""
from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re
import tempfile
import time

import pytest
from hypothesis import given, seed, settings, strategies as st

import vgadt.cli
import vgadt.oracle
from vgadt.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECTED, run

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run([str(a) for a in argv], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestCheck:
    def test_expr_accepted(self):
        code, out, _ = invoke("check", CORPUS / "expr.vt", "--preset=atomic")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.endswith(": accepted")]
        assert len(lines) == 4

    def test_eq_cov_rejected_names_refl_and_variable(self):
        code, out, _ = invoke("check", CORPUS / "eq_cov.vt")
        assert code == EXIT_REJECTED
        assert "Refl" in out
        assert "'g" in out
        assert "zip(+, =) undefined" in out

    def test_rejection_prints_incompleteness_note(self):
        _, out, _ = invoke("check", CORPUS / "fun_cov.vt")
        assert "uninhabited" in out

    def test_multiple_files(self):
        code, out, _ = invoke("check", CORPUS / "list.vt", CORPUS / "expr.vt")
        assert code == EXIT_OK
        assert out.index("list.Nil") < out.index("expr.Val")

    def test_file_after_an_option(self):
        """FILE operands may follow options, as in README's synopsis."""
        code, out, err = invoke("check", CORPUS / "eq_cov.vt", "--mode=fast",
                                CORPUS / "expr.vt")
        assert (code, err) == (EXIT_REJECTED, "")
        assert out.index("eq.Refl: rejected") < out.index("expr.Val: accepted")

    def test_fast_mode(self):
        code, out, _ = invoke("check", CORPUS / "expr.vt", "--mode=fast")
        assert code == EXIT_OK

    def test_preset_flag_changes_verdict(self):
        code, _, _ = invoke("check", CORPUS / "arrow_bound.vt",
                            "--preset=ml-open")
        assert code == EXIT_REJECTED
        code, _, _ = invoke("check", CORPUS / "arrow_bound.vt",
                            "--preset=atomic")
        assert code == EXIT_OK

    def test_explain_prints_rule_names(self):
        _, out, _ = invoke("check", CORPUS / "expr.vt", "--explain")
        for rule in ("vc-Var", "vc-Constr", "sc-Var", "sc-Constr"):
            assert rule in out
        _, out, _ = invoke("check", CORPUS / "expr_sup.vt", "--explain")
        assert "sc-Triv" in out

    def test_structured_records(self):
        code, out, _ = invoke("check", CORPUS / "eq_cov.vt",
                              "--format=structured")
        assert code == EXIT_REJECTED
        records = [json.loads(l) for l in out.splitlines()]
        assert len(records) == 1
        rec = records[0]
        assert set(rec) == {"type", "ctor", "verdict", "gamma", "gammas",
                            "reason"}
        assert rec["type"] == "eq" and rec["ctor"] == "Refl"
        assert rec["verdict"] == "rejected"
        assert rec["gamma"] is None

    def test_structured_witnesses(self):
        _, out, _ = invoke("check", CORPUS / "expr.vt", "--format=structured")
        records = {r["ctor"]: r for r in map(json.loads, out.splitlines())}
        assert records["Prod"]["verdict"] == "accepted"
        assert records["Prod"]["gamma"] == {"b": "+", "c": "+"}
        assert records["Prod"]["gammas"] == [{"b": "+", "c": "+"}]

    def test_structured_is_stable(self):
        _, out1, _ = invoke("check", CORPUS / "expr.vt", "--format=structured")
        _, out2, _ = invoke("check", CORPUS / "expr.vt", "--format=structured")
        assert out1 == out2

    def test_text_and_structured_verdicts_agree(self):
        _, text, _ = invoke("check", CORPUS / "ml_open_demo.vt")
        _, structured, _ = invoke("check", CORPUS / "ml_open_demo.vt",
                                  "--format=structured")
        text_verdicts = {
            line.split(":")[0]: ("accepted" in line)
            for line in text.splitlines() if line.count(":") and "." in line
        }
        for rec in map(json.loads, structured.splitlines()):
            key = f"{rec['type']}.{rec['ctor']}"
            assert text_verdicts[key] == (rec["verdict"] == "accepted")


class TestInfer:
    def test_pragmatic_query_rendering(self):
        code, out, _ = invoke("infer", CORPUS / "pair_ref.vt")
        assert code == EXIT_OK
        assert "a: {+,=}  b: {=}" in out

    def test_constraint_sets_printed(self):
        _, out, _ = invoke("infer", CORPUS / "eq_cov.vt")
        assert "'a = 'g" in out
        assert "g: {+}" in out


class TestOracleCommand:
    def test_agreement_exit_codes(self):
        code, out, _ = invoke("oracle", CORPUS / "expr.vt", "--depth=2")
        assert code == EXIT_OK
        assert "agree=yes" in out
        code, out, _ = invoke("oracle", CORPUS / "eq_cov.vt", "--depth=2")
        assert code == EXIT_OK          # confirmed rejection is agreement
        assert "req-sp=fails" in out

    def test_conservative_preset_is_flagged_unconfirmed(self):
        # ml-open rejects the arrow bound although the atomic world
        # semantics satisfies it: the oracle reports no counterexample.
        code, out, _ = invoke("oracle", CORPUS / "arrow_bound.vt",
                              "--preset=ml-open", "--depth=2")
        assert code == EXIT_REJECTED
        assert "unconfirmed" in out

    def test_structured(self):
        _, out, _ = invoke("oracle", CORPUS / "private_fd.vt", "--depth=2",
                           "--format=structured")
        rec = json.loads(out.splitlines()[0])
        assert rec["verdict"] == "rejected"
        assert rec["req_sp"] is False
        assert "fd" in rec["counterexample"]

    def test_no_datatype_builds_no_universe(self, tmp_path, monkeypatch):
        """Seven bases give 36,992 types at depth 3, but with no
        constructor to check no verdict reads them."""
        bases = tmp_path / "bases.vt"
        bases.write_text("".join(f"base b{i}\n" for i in range(7)))

        def enumerate_types(*_):
            raise AssertionError("universe enumerated")
        monkeypatch.setattr(vgadt.cli, "enumerate_types", enumerate_types)
        assert invoke("oracle", "--depth=3", bases) == (EXIT_OK, "", "")


class TestEdgeInputs:
    def test_empty_file_is_success(self, tmp_path):
        empty = tmp_path / "empty.vt"
        empty.write_text("")
        code, out, err = invoke("check", empty)
        assert code == EXIT_OK
        assert out == "" and err == ""


class TestErrors:
    def test_unreadable_file(self):
        code, _, err = invoke("check", CORPUS / "missing.vt")
        assert code == EXIT_ERROR
        assert "missing.vt" in err

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.vt"
        bad.write_text("type +'a) t = K of 'a\n")
        code, _, err = invoke("check", bad)
        assert code == EXIT_ERROR
        assert "bad.vt:1:" in err

    def test_wf_error(self, tmp_path):
        bad = tmp_path / "bad.vt"
        bad.write_text("type (+'a) t = K of 'missing\n")
        code, _, err = invoke("check", bad)
        assert code == EXIT_ERROR
        assert "unbound" in err

    def test_bad_flags(self):
        code, _, _ = invoke("check", CORPUS / "expr.vt", "--preset=bogus")
        assert code == EXIT_ERROR

    def test_bad_depth(self):
        code, _, err = invoke("oracle", CORPUS / "expr.vt", "--depth=0")
        assert code == EXIT_ERROR
        assert "depth" in err

    def test_usage_errors_go_to_the_given_stream(self, capsys):
        for _ in range(2):      # the parser is shared between calls
            code, out, err = invoke("check", "--bogus", CORPUS / "expr.vt")
            assert code == EXIT_ERROR
            assert out == ""
            assert err.startswith("usage: vgadt")
            assert "--bogus" in err
        assert capsys.readouterr() == ("", "")

    def test_explain_is_text_only(self):
        """Structured records carry no derivations, so the combination
        is a usage error rather than a silent drop of `--explain`."""
        code, out, err = invoke("check", CORPUS / "list.vt", "--explain",
                                "--format=structured")
        assert (code, out) == (EXIT_ERROR, "")
        assert err.startswith("usage: vgadt check")
        assert "--explain prints text only" in err

    def test_help_goes_to_the_given_stream(self, capsys):
        code, out, err = invoke("--help")
        assert code == EXIT_OK
        assert out.startswith("usage: vgadt") and err == ""
        code, out, err = invoke("oracle", "--help")
        assert code == EXIT_OK
        assert out.startswith("usage: vgadt oracle") and "--depth" in out
        assert capsys.readouterr() == ("", "")

    def test_default_streams_follow_redirection(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert run(["check", str(CORPUS / "expr.vt")]) == EXIT_OK
            assert run(["check", "--bogus"]) == EXIT_ERROR
        assert out.getvalue() == invoke("check", CORPUS / "expr.vt")[1]
        assert err.getvalue().startswith("usage: vgadt")

    def test_constrained_parameter_in_the_argument(self, tmp_path):
        bad = tmp_path / "bad.vt"
        bad.write_text("base int\ntype (+'a) t = | K : ['a = int]. 'a\n")
        want = (f"{bad}:2:18: t.K: parameter 'a is constrained and may not "
                f"also occur in the argument or a bound\n")
        for command in ("check", "infer", "oracle"):
            assert invoke(command, bad) == (EXIT_ERROR, "", want), command


class TestOutputOrder:
    """A file's output stays when a later file fails.  The later file
    here fails its well-formedness check, so none of its constructors
    is printed."""

    LIST_LINES = {
        "check": "list.Nil: accepted\nlist.Cons: accepted\n",
        "infer": ("list.Nil: a: {+,-,=,~}\n  principal: (~'a)\n"
                  "list.Cons: a: {+,=}\n  principal: (+'a)\n"),
        "oracle": ("list.Nil: syntactic=accepted req-sp=holds (depth 2) "
                   "agree=yes\nlist.Cons: syntactic=accepted req-sp=holds "
                   "(depth 2) agree=yes\n"),
    }

    @pytest.mark.parametrize("command", ("check", "infer", "oracle"))
    def test_error_in_a_later_file(self, command, tmp_path):
        bad = tmp_path / "t.vt"
        bad.write_text("base int\n"
                       "type (+'a) t = K of 'a | L : ['a = int]. 'a\n")
        code, out, err = invoke(command, CORPUS / "list.vt", bad)
        assert code == EXIT_ERROR
        assert out == self.LIST_LINES[command]
        assert err == (f"{bad}:2:26: t.L: parameter 'a is constrained and "
                       f"may not also occur in the argument or a bound\n")


#: Module attributes of `vgadt.cli` that perfbench/tracer.py wraps, and
#: the commands that must call each through the module.
HOOKS = (
    ("parse_signature", ("check", "infer", "oracle")),
    ("compute_closure_flags", ("check", "infer", "oracle")),
    ("check_signature", ("check", "oracle")),
    ("enumerate_types", ("oracle",)),
    ("req_sp", ("oracle",)),
)


@pytest.mark.parametrize("name,commands", HOOKS, ids=[n for n, _ in HOOKS])
def test_commands_call_the_traced_module_attributes(name, commands,
                                                    monkeypatch):
    calls = []
    original = getattr(vgadt.cli, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(vgadt.cli, name, counted)
    for command in commands:
        calls.clear()
        code, _, _ = invoke(command, CORPUS / "expr.vt", "--format=structured")
        assert code == EXIT_OK, command
        assert calls, f"{command} does not call vgadt.cli.{name}"


class TestRobustness:
    """Every input ends in a verdict or a one-line diagnostic."""

    def assert_one_line_error(self, code, err, *needles):
        assert code == EXIT_ERROR
        assert len(err.splitlines()) == 1, err
        assert "Traceback" not in err
        for needle in needles:
            assert needle in err

    def test_deeply_nested_parentheses(self, tmp_path):
        bad = tmp_path / "deep.vt"
        bad.write_text("type (+'a) t =\n  | K of " + "(" * 1200 + "int"
                       + ")" * 1200 + "\n")
        for command in ("check", "infer", "oracle"):
            code, _, err = invoke(command, bad)
            self.assert_one_line_error(code, err, "deep.vt:2:110:",
                                       "nested more than 100 levels")

    def test_deeply_nested_postfix_application(self, tmp_path):
        bad = tmp_path / "deep.vt"
        bad.write_text("type (+'a) list = Nil of unit | Cons of 'a * 'a list\n"
                       "type (+'a) t =\n  | K of 'a" + " list" * 1200 + "\n")
        code, _, err = invoke("check", bad)
        self.assert_one_line_error(code, err, "deep.vt:3:10:",
                                   "nested more than 100 levels")

    def test_universe_over_the_cap(self, tmp_path, monkeypatch):
        """Nine bases alone give 88,210 types at depth 3, whose rows would
        take about 1 GB (n^2/8 bytes): the universe is refused while it
        is enumerated, before any row is built.  The datatype gives the
        oracle a constructor to check."""
        bases = tmp_path / "bases.vt"
        bases.write_text("".join(f"base b{i}\n" for i in range(9))
                         + "type (+'a) box = B of 'a\n")

        def row(self, v, a):
            raise AssertionError("rows built past the cap")
        monkeypatch.setattr(vgadt.oracle.GroundUniverse, "row", row)
        code, out, err = invoke("oracle", "--depth=3", bases)
        assert out == ""
        self.assert_one_line_error(
            code, err,
            f"{bases}: universe exceeds cap of 40000 types (depth 3)")

    def test_huge_depth_meets_the_cap(self):
        """A depth far past what the cap allows ends in the cap's
        diagnostic: the layout takes memory per level it reaches, not
        per level the depth asks for."""
        path = CORPUS / "list.vt"
        code, out, err = invoke("oracle", "--depth=1000000000000", path)
        assert out == ""
        self.assert_one_line_error(
            code, err, f"{path}: universe exceeds cap of 40000 types "
            f"(depth 1000000000000)")

    def test_many_heads_up_to_the_cap(self, tmp_path):
        """39,999 bases and unit are 40,000 types at depth 1, which the
        cap admits.  Setting up the rows and the inversion steps finds
        the heads below each head in one inverted map (`_down`): scanning
        every head per head took about 2 minutes on a 2-vCPU x86 host,
        the inverted map about 1 s."""
        path = tmp_path / "bases.vt"
        path.write_text("".join(f"base b{i}\n" for i in range(39_999))
                        + "type (+'a) box = B of 'a\n")
        start = time.perf_counter()
        code, out, err = invoke("oracle", "--depth=1", path)
        assert time.perf_counter() - start < 10
        assert (code, err) == (EXIT_OK, "")
        assert out == ("box.B: syntactic=accepted req-sp=holds (depth 1) "
                       "agree=yes\n")

    def test_positions_deep_in_a_file(self, tmp_path):
        """On the last of 40,000 declarations, the scanner's and the
        parser's diagnostics carry their exact line:col, and come in
        linear time: lines are counted as the scanner passes them."""
        path = tmp_path / "deep.vt"
        path.write_text("".join(f"base b{i}\n" for i in range(39_999))
                        + "type (+'a) box = B of 'a $ ]\n")
        start = time.perf_counter()
        code, out, err = invoke("check", path)
        assert time.perf_counter() - start < 5
        assert (code, out) == (EXIT_ERROR, "")
        assert err == (f"{path}:40000:26: unexpected character '$'\n"
                       f"{path}:40000:28: expected declaration, found ']'\n")

    def test_nesting_at_the_limit_is_checked(self, tmp_path):
        ok = tmp_path / "ok.vt"
        ok.write_text("type (+'a) list = Nil of unit | Cons of 'a * 'a list\n"
                      "type (+'a) t =\n  | K of 'a" + " list" * 99 + "\n")
        for command in ("check", "infer", "oracle"):
            code, _, _ = invoke(command, ok)
            assert code == EXIT_OK

    def test_non_utf8_input(self, tmp_path):
        bad = tmp_path / "bad.vt"
        bad.write_bytes(b"base int\n# caf\xc3\xa9\r\n"
                        b"type (+'a) t = K of \xff'a\n")
        for command in ("check", "infer", "oracle"):
            code, out, err = invoke(command, bad)
            assert out == ""
            self.assert_one_line_error(code, err, f"{bad}:3:21: ", "0xff")

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        bom = tmp_path / "bom.vt"
        bom.write_bytes(b"\xef\xbb\xbf" + (CORPUS / "expr.vt").read_bytes())
        for command in ("check", "infer", "oracle"):
            assert invoke(command, bom) == invoke(command, CORPUS / "expr.vt")
        # Line 1 counts columns from the character after the mark.
        bom.write_bytes(b"\xef\xbb\xbfbase \xff\n")
        code, _, err = invoke("check", bom)
        self.assert_one_line_error(code, err, f"{bom}:1:6: ", "0xff")
        # Only one mark is dropped.
        bom.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfbase int\n")
        code, _, err = invoke("check", bom)
        self.assert_one_line_error(code, err, f"{bom}:1:1: ",
                                   "unexpected character")

    def test_unexpected_exception_exits_2(self, monkeypatch):
        import vgadt.cli

        def boom(*_args, **_kwargs):
            raise RuntimeError("boom")
        monkeypatch.setattr(vgadt.cli, "check_signature", boom)
        code, out, err = invoke("check", CORPUS / "expr.vt")
        assert out == ""
        self.assert_one_line_error(code, err, "internal error", "boom")


class TestExplainWide:
    def test_explain_on_eight_variables(self, tmp_path):
        vs = [f"'v{i}" for i in range(8)]
        path = tmp_path / "wide.vt"
        path.write_text(
            f"type (+'a, +'b) w =\n  | K : {' '.join(vs)} "
            f"['a = {' * '.join(vs[:4])}, 'b = {' * '.join(vs[4:])}]. "
            f"{' * '.join(vs)}\n", encoding="utf-8")
        code, out, _ = invoke("check", path, "--explain")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "w.K: accepted"
        assert sum("[sc-Var]" in l for l in lines) == 8
        assert sum("[sc-Constr]" in l for l in lines) == 6


#: A source text as pieces: runs of blanks and tokens.  Joined, they
#: give the text back.
_PIECES = re.compile(r"\s+|'?\w+|->|<=|>=|\S")
_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.vt"))]
_VOCABULARY = sorted({piece for text in _TEXTS
                      for piece in _PIECES.findall(text)
                      if not piece.isspace()} | {"\ufeff", "\u00e9", "@"})
_COMMANDS = (["check"], ["check", "--explain", "--preset=none"], ["infer"],
             ["oracle", "--depth=1"])


@st.composite
def _mutated(draw):
    """A corpus file with 1-3 tokens deleted, inserted or replaced."""
    pieces = _PIECES.findall(draw(st.sampled_from(_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from([i for i, p in enumerate(pieces)
                                   if p.strip()]))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "delete":
            del pieces[at]
        elif edit == "insert":
            pieces[at:at] = [draw(st.sampled_from(_VOCABULARY)), " "]
        else:
            pieces[at] = draw(st.sampled_from(_VOCABULARY))
    return "".join(pieces)


class TestGeneratedInput:
    @seed(20261018)
    @settings(max_examples=120, deadline=None, database=None)
    @given(_mutated())
    def test_every_input_ends_in_a_verdict_or_a_diagnostic(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "mutated.vt"
            path.write_text(text, encoding="utf-8")
            positioned = re.compile(re.escape(str(path)) + r"(:\d+:\d+)?: ")
            for command in _COMMANDS:
                code, _, err = invoke(*command, path)
                assert code in (EXIT_OK, EXIT_REJECTED, EXIT_ERROR)
                assert "internal error" not in err, (command, err)
                if code == EXIT_ERROR:
                    lines = err.splitlines()
                    assert lines and all(positioned.match(line)
                                         for line in lines), (command, err)
