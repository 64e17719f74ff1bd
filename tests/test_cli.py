"""The command-line driver: verdict lines, exit codes, machine output."""
from __future__ import annotations

import io
import json
import pathlib

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

    def test_nesting_at_the_limit_is_checked(self, tmp_path):
        ok = tmp_path / "ok.vt"
        ok.write_text("type (+'a) list = Nil of unit | Cons of 'a * 'a list\n"
                      "type (+'a) t =\n  | K of 'a" + " list" * 99 + "\n")
        for command in ("check", "infer", "oracle"):
            code, _, _ = invoke(command, ok)
            assert code == EXIT_OK

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
