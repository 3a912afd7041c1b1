"""Command-line behavior: reports, formats, exit codes."""

import ast
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import redvote
from redvote import bayes, cli, compose, ctmc, dsl, nmr, report
from redvote.errors import ValidationError

from oracles import from_json

MODELS = Path(__file__).resolve().parent.parent / "models"
CASE_STUDY = str(MODELS / "case-study.rvm")
CASE_STUDY_2 = str(MODELS / "case-study-2.rvm")
INLINE_MAINTENANCE = str(MODELS / "inline-maintenance.rvm")


#: A workflow of one single-node network; format with its table and bindings.
ONE_NODE = ('workflow "w" {{\n  bayes b {{ node X states (F, T) cpt ({cpt}); }}\n'
            "  instance n : b {{ {bindings} }}\n  output p = n.p_X_T;\n}}\n")


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_threshold_fail_exits_5(self, capsys):
        code, out, _ = run(capsys, "solve", CASE_STUDY, "--threshold", "1e-9")
        assert code == 5
        assert "verdict: FAIL" in out
        assert "HFR_2oo3 = 3.3227e-07" in out

    def test_threshold_pass_exits_0(self, capsys):
        code, out, _ = run(capsys, "solve", CASE_STUDY_2, "--threshold", "1e-9")
        assert code == 0
        assert "verdict: PASS" in out
        assert "HFR_2oo3 = 9.0085e-10" in out

    def test_no_threshold_no_verdict(self, capsys):
        code, out, _ = run(capsys, "solve", CASE_STUDY)
        assert code == 0
        assert "verdict" not in out

    def test_missing_file_exits_2_with_position(self, capsys):
        code, _, err = run(capsys, "solve", "missing.rvm")
        assert code == 2
        assert err.startswith("missing.rvm:1:1: error:")

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.rvm"
        bad.write_text('workflow "w" { instance }')
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2
        assert f"{bad}:1:" in err

    def test_file_not_utf8_exits_2_with_position(self, capsys, tmp_path):
        bad = tmp_path / "latin1.rvm"
        bad.write_bytes('workflow "café" { }'.encode("latin-1"))
        code, out, err = run(capsys, "solve", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith(f"{bad}:1:1: error: not valid UTF-8: ")

    def test_validation_error_exits_3(self, capsys, tmp_path):
        cyclic = tmp_path / "cyclic.rvm"
        cyclic.write_text(
            'workflow "w" {\n'
            "  instance mu : builtin.maintenance5 {\n"
            "    PAR_4 = mu.PAR_10; PAR_5 = mu.PAR_10;\n"
            "    PAR_6 = 1; PAR_7 = 1e-2; PAR_8 = 1e-4; PAR_9 = 3;\n"
            "  }\n}"
        )
        code, _, err = run(capsys, "solve", str(cyclic))
        assert code == 3
        assert "cycle" in err
        assert "mu -> mu" in err

    def test_solver_error_exits_4(self, capsys, tmp_path):
        broken = tmp_path / "broken.rvm"
        # par5 > 2*par4 passes static validation but fails in the solver
        broken.write_text(
            'workflow "w" {\n'
            "  instance mu : builtin.maintenance5 {\n"
            "    PAR_4 = 1e-9; PAR_5 = 1e-5;\n"
            "    PAR_6 = 1; PAR_7 = 1e-2; PAR_8 = 1e-4; PAR_9 = 3;\n"
            "  }\n}"
        )
        code, _, err = run(capsys, "solve", str(broken))
        assert code == 4
        assert "mu" in err

    def test_non_finite_figure_exits_4_without_bare_nan(self, capsys, tmp_path):
        # repair and restore rates near the double limit overflow inside GTH
        text = Path(CASE_STUDY).read_text()
        text = text.replace("PAR_6 = 1;", "PAR_6 = 1e308;").replace("PAR_9 = 3;", "PAR_9 = 1e308;")
        overflowing = tmp_path / "overflow.rvm"
        overflowing.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning may escape to stderr
            code, out, err = run(capsys, "solve", str(overflowing), "--format", "json",
                                 "--threshold", "1e-9")
        assert code == 4
        assert out == ""
        assert "PAR_10" in err and "finite" in err

    def test_nan_rate_exits_4_naming_the_rate(self, capsys, tmp_path):
        # Y * Y overflows, so the rate A -> B is inf - inf + 1 = nan
        chain = tmp_path / "nan-rate.rvm"
        chain.write_text(
            'workflow "w" {\n'
            "  ctmc c { state A init; state B;\n"
            "    rate A -> B : Y * Y - Y * Y + 1; rate B -> A : 2; }\n"
            "  instance m : c { Y = 1e200; }\n"
            "  output P = m.pi_A;\n}"
        )
        code, out, err = run(capsys, "solve", str(chain))
        assert code == 4
        assert out == ""
        assert "transition 'A' -> 'B': rate nan must be finite" in err

    def test_infinite_literal_exits_3_naming_the_input(self, capsys, tmp_path):
        infinite = tmp_path / "infinite.rvm"
        infinite.write_text(Path(CASE_STUDY).read_text().replace("PAR_6 = 1;", "PAR_6 = 1e400;"))
        code, out, err = run(capsys, "solve", str(infinite))
        assert code == 3
        assert out == ""
        assert "'PAR_6' must be finite, got inf" in err

    def test_negative_verdict_metric_exits_4(self, capsys, tmp_path):
        text = Path(CASE_STUDY).read_text().replace(
            "output HFR_2oo3 = 3 * mu.PAR_10;", "output HFR_2oo3 = phi.PAR_5 - phi.PAR_4;"
        )
        negative = tmp_path / "negative.rvm"
        negative.write_text(text)
        code, out, err = run(capsys, "solve", str(negative), "--threshold", "1e-9")
        assert code == 4
        assert "verdict" not in out
        assert "HFR_2oo3" in err and "negative" in err

    @pytest.mark.parametrize("threshold, code, verdict", [("1e-12", 0, "PASS"),
                                                          ("1e-13", 5, "FAIL")])
    def test_a_sole_export_is_the_verdict_metric(self, capsys, tmp_path, threshold, code,
                                                 verdict):
        sole = tmp_path / "sole.rvm"
        sole.write_text(Path(CASE_STUDY).read_text().replace(
            "  output HFR_2oo3 = 3 * mu.PAR_10;\n", "").replace(
            "  output MTBHE_2oo3 = 1 / (3 * mu.PAR_10);\n", ""))
        got, out, _ = run(capsys, "solve", str(sole), "--format", "json",
                          "--threshold", threshold)
        assert got == code
        rep = from_json(out)
        assert list(rep.exports) == ["HR_2oo2"]
        assert (rep.verdict_metric, rep.verdict) == ("HR_2oo2", verdict)

    def test_no_verdict_metric_among_several_exports_exits_3(self, capsys, tmp_path):
        several = tmp_path / "several.rvm"
        several.write_text(Path(CASE_STUDY).read_text().replace(
            "  output HFR_2oo3 = 3 * mu.PAR_10;\n", ""))
        code, out, err = run(capsys, "solve", str(several), "--threshold", "1e-9")
        assert code == 3
        assert out == ""
        assert "cannot pick a verdict metric" in err

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run(capsys, "solve", CASE_STUDY, "--format", "json",
                           "--threshold", "1e-9")
        assert code == 5
        rep = from_json(out)
        assert rep == from_json(report.to_json(rep))
        assert rep.workflow == "case-study"
        assert rep.verdict == "FAIL"
        assert rep.exports["HFR_2oo3"] == pytest.approx(3.3227269156628564e-07)

    def test_reports_identical_modulo_timestamp(self, capsys):
        _, first, _ = run(capsys, "solve", CASE_STUDY, "--format", "json")
        _, second, _ = run(capsys, "solve", CASE_STUDY, "--format", "json")
        a, b = from_json(first), from_json(second)
        assert a.digest_region() == b.digest_region()

    def test_csv_is_rfc4180(self, capsys):
        for threshold, want_code, verdict_rows in [
                ((), 0, []),
                (("--threshold", "1e-9"), 5, [["threshold", "1e-09"], ["verdict", "FAIL"]])]:
            code, out, _ = run(capsys, "solve", CASE_STUDY, "--format", "csv", *threshold)
            assert code == want_code
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[0] == ["name", "value"]
            names = [row[0] for row in rows]
            assert "phi.PAR_4" in names
            assert "HFR_2oo3" in names
            assert [row for row in rows if row[0] in ("threshold", "verdict")] == verdict_rows

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1"])
    def test_meaningless_threshold_exits_2(self, capsys, threshold, fmt):
        # '=' keeps argparse from reading "-inf" as an option
        code, out, err = run(capsys, "solve", CASE_STUDY, "--format", fmt,
                             f"--threshold={threshold}")
        assert code == 2
        assert out == ""
        assert err == f"error: --threshold must be finite and >= 0, got {float(threshold)!r}\n"

    @pytest.mark.parametrize("threshold", ["-1e-9", "-inf"])
    def test_negative_threshold_as_its_own_argument_exits_2(self, capsys, threshold):
        # argparse alone would read these as options and stop at "expected one argument"
        code, out, err = run(capsys, "solve", CASE_STUDY, "--threshold", threshold)
        assert code == 2
        assert out == ""
        assert err == f"error: --threshold must be finite and >= 0, got {float(threshold)!r}\n"

    def test_builtin_and_inline_maintenance_agree_bitwise(self, capsys):
        figures = []
        for path in (CASE_STUDY, INLINE_MAINTENANCE):
            code, out, _ = run(capsys, "solve", path, "--format", "json")
            assert code == 0
            figures.append(json.loads(out)["exports"]["HFR_2oo3"])
        assert figures == [3.3227269156628564e-07] * 2

    def test_no_safe_shutdown_exits_4(self, capsys, tmp_path):
        # PAR_1 = 0 gives PAR_4 = PAR_5 = 0; the inline copy of the chain
        # drops the zero rates instead, as any inline chain does
        no_faults = tmp_path / "no-faults.rvm"
        no_faults.write_text(
            Path(CASE_STUDY).read_text().replace("PAR_1 = 1.666e-5;", "PAR_1 = 0;"))
        code, out, err = run(capsys, "solve", str(no_faults))
        assert code == 4
        assert out == ""
        assert err == ("error: instance 'mu': safe-shutdown rate 2*par4 - par5 "
                       "must be positive, got 0.0\n")

    @pytest.mark.parametrize("old, new, message", [
        ("PAR_7 = 1e-2;", "PAR_7 = phi.PAR_4 * 1e6;",
         "instance 'mu': ratio input 'PAR_7' must lie in [0, 1], got 2.19"),
        ("  output HFR_2oo3", "  instance psi : builtin.failure2oo2 {\n"
         "    PAR_1 = phi.PAR_4 * 1e6; PAR_2 = 0.1; PAR_3 = 0.1;\n  }\n  output HFR_2oo3",
         "instance 'psi': probability input 'PAR_1' must lie in [0, 1], got 2.19"),
    ], ids=["maintenance", "failure"])
    def test_reference_bound_input_out_of_range_exits_4(self, capsys, tmp_path, old, new, message):
        # each kinded input is range-checked when its value is known: at solve time
        bad = tmp_path / "bad.rvm"
        bad.write_text(Path(CASE_STUDY).read_text().replace(old, new))
        code, out, err = run(capsys, "solve", str(bad))
        assert code == 4
        assert out == ""
        assert err.startswith(f"error: {message}")

    def test_parametric_table_checked_when_bound_literal_table_when_validated(
            self, capsys, tmp_path):
        body = ('workflow "w" {{\n  bayes b {{ node X states (F, T) cpt ({cpt}); }}\n'
                "  instance n : b {{ {bindings} }}\n  output p = n.p_X_T;\n}}\n")
        parametric = tmp_path / "parametric.rvm"
        parametric.write_text(body.format(cpt="q, 0.5", bindings="q = 0.25;"))
        assert run(capsys, "validate", str(parametric))[0] == 0
        code, _, err = run(capsys, "solve", str(parametric))
        assert code == 4
        assert "sums to 0.75, not 1" in err
        literal = tmp_path / "literal.rvm"
        literal.write_text(body.format(cpt="0.25, 0.5", bindings=""))
        code, _, err = run(capsys, "validate", str(literal))
        assert code == 3
        assert "sums to 0.75, not 1" in err

    def test_division_by_zero_in_a_table_names_the_model_and_node(self, capsys, tmp_path):
        literal = tmp_path / "literal.rvm"
        literal.write_text(ONE_NODE.format(cpt="1 / 0, 0.5", bindings=""))
        assert run(capsys, "validate", str(literal)) == (
            3, "", "error: model 'b': node 'X': division by zero in a table entry\n")
        parametric = tmp_path / "parametric.rvm"
        parametric.write_text(ONE_NODE.format(cpt="1 / q, 0.5", bindings="q = 0;"))
        assert run(capsys, "validate", str(parametric))[0] == 0
        assert run(capsys, "solve", str(parametric)) == (
            4, "", "error: instance 'n': node 'X': division by zero in a table entry\n")

    def test_division_by_zero_in_an_export_names_the_export(self, capsys, tmp_path):
        bad = tmp_path / "bad.rvm"
        bad.write_text(ONE_NODE.format(cpt="0.5, 0.5", bindings="").replace(
            "output p = n.p_X_T;", "output p = n.p_X_T / 0;"))
        assert run(capsys, "solve", str(bad)) == (
            4, "", "error: export 'p': division by zero\n")

    def test_division_by_zero_in_a_binding_names_the_instance_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.rvm"
        bad.write_text(Path(CASE_STUDY).read_text().replace(
            "PAR_6 = 1;", "PAR_6 = phi.PAR_4 / 0;"))
        assert run(capsys, "solve", str(bad)) == (
            4, "", "error: instance 'mu' input 'PAR_6': division by zero\n")

    def test_table_entry_out_of_range_is_named_with_its_value(self, capsys, tmp_path):
        parametric = tmp_path / "parametric.rvm"
        parametric.write_text(ONE_NODE.format(cpt="1 - q, q", bindings="q = 2;"))
        assert run(capsys, "solve", str(parametric)) == (
            4, "", "error: instance 'n': CPT row () for 'X' has its entry for state 'F' "
            "at -1.0, outside [0, 1]\n")

    def test_json_report_keys_in_field_order(self, capsys):
        _, out, _ = run(capsys, "solve", CASE_STUDY, "--format", "json", "--threshold", "1e-9")
        keys = ["workflow", "tool_version", "input_digest", "generated_at", "instances",
                "exports", "provenance", "posteriors", "threshold", "verdict",
                "verdict_metric", "sil_note"]
        assert list(json.loads(out)) == keys
        keys.remove("generated_at")
        assert list(from_json(out).digest_region()) == keys

    def test_unwritable_out_path_exits_4_naming_it(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "solve", CASE_STUDY, "--format", "json",
                             "--out", str(target))
        assert code == 4
        assert out == ""
        assert err == f"error: cannot write report to {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_out_path_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "solve", CASE_STUDY, "--format", "json",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["workflow"] == "case-study"

    def test_color_disabled_by_env(self):
        os.environ["REDVOTE_NO_COLOR"] = "1"
        try:
            class FakeTty(io.StringIO):
                def isatty(self):
                    return True

            assert cli._use_color(FakeTty()) is False
        finally:
            del os.environ["REDVOTE_NO_COLOR"]


def test_timestamp_is_utc_iso8601_to_the_second():
    from datetime import datetime, timezone

    stamp = report.timestamp()
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    now = datetime.now(timezone.utc)
    assert abs((datetime.fromisoformat(stamp) - now).total_seconds()) <= 2.0


@pytest.mark.parametrize("rate, note", [
    (9.99e-10, "below the SIL-4 band (rate < 1e-09/h)"),
    (1e-9, "inside the SIL-4 band [1e-09, 1e-08)/h"),
    (9.99e-9, "inside the SIL-4 band [1e-09, 1e-08)/h"),
    (1e-8, "above the SIL-4 band (rate >= 1e-08/h)"),
])
def test_sil_band_note_names_the_band(rate, note):
    assert report.sil_band_note(rate) == note


@pytest.mark.parametrize("record, fields, defaults", [
    (report.AnalysisReport,
     ("workflow", "tool_version", "input_digest", "generated_at", "instances", "exports",
      "provenance", "posteriors", "threshold", "verdict", "verdict_metric", "sil_note"),
     dict.fromkeys(("posteriors", "threshold", "verdict", "verdict_metric", "sil_note"))),
    (report.SweepReport,
     ("workflow", "parameter", "tool_version", "input_digest", "generated_at",
      "export_names", "rows"), {}),
    (nmr.FailureParams, ("par1", "par2", "par3"), {}),
    (dsl.ParseResult, ("workflow", "diagnostics", "origin"), {"origin": "<string>"}),
], ids=lambda value: value.__name__ if isinstance(value, type) else "")
def test_record_fields_and_defaults(record, fields, defaults):
    # a report's key order is its records' field order, through _asdict()
    assert record._fields == fields
    assert record._field_defaults == defaults


#: A checked record, and a change of its fields that its constructor refuses.
CHECKED_RECORDS = [
    (ctmc.Ctmc(("A", "B"), "A", (ctmc.Transition("A", "B", 1.0), ctmc.Transition("B", "A", 2.0))),
     {"transitions": (ctmc.Transition("A", "B", -1.0), ctmc.Transition("B", "A", 2.0))}),
    (bayes.Variable("A", ("F", "T")), {"states": ("F", "F")}),
    (compose.ParamDecl("x"), {"kind": "speed"}),
]


@pytest.mark.parametrize("record, change", CHECKED_RECORDS,
                         ids=[type(record).__name__ for record, _ in CHECKED_RECORDS])
def test_replace_and_make_run_the_constructor_checks(record, change):
    kind = type(record)
    assert record._replace() == record and kind._make(record) == record
    with pytest.raises(ValidationError):
        record._replace(**change)
    with pytest.raises(ValidationError):
        kind._make(change.get(name, value) for name, value in zip(record._fields, record))


class TestPosteriors:
    def test_hazard_posterior_table(self, capsys):
        code, out, _ = run(
            capsys, "posteriors", CASE_STUDY, "--instance", "phi",
            "--evidence", "UNSAFE_OUTPUT=True",
        )
        assert code == 0
        assert "Error_due_to_Transient_A" in out

        def row(name):
            return next(l for l in out.splitlines() if l.strip().startswith(name))

        assert "True=6.84" in row("Error_due_to_Transient_A")
        assert "True=7.6" in row("Non_detectable_Fault_A")

    def test_evidence_row_is_point_mass(self, capsys):
        code, out, _ = run(
            capsys, "posteriors", CASE_STUDY, "--instance", "phi",
            "--evidence", "Excl_A=True", "--format", "json",
        )
        assert code == 0
        rep = from_json(out)
        assert rep.posteriors["Excl_A"]["True"] == 1.0

    def test_table_is_posterior_report_plus_point_masses(self, capsys):
        evidence = {"UNSAFE_OUTPUT": "True", "Excl_A": "True"}
        argv = [arg for vid, state in evidence.items() for arg in ("--evidence", f"{vid}={state}")]
        code, out, _ = run(
            capsys, "posteriors", CASE_STUDY, "--instance", "phi", "--format", "json", *argv
        )
        assert code == 0
        net = nmr.build_failure_bn(nmr.FailureParams(1.666e-5, 0.1, 0.1))
        want = {d.variable: dict(d.probabilities) for d in bayes.posterior_report(net, evidence)}
        for vid, state in evidence.items():
            want[vid] = {s: float(s == state) for s in net.variable(vid).states}
        rep = from_json(out)
        assert list(rep.posteriors) == sorted(want)
        assert rep.posteriors == want

    def test_rows_sorted_by_variable_id(self, capsys):
        code, out, _ = run(
            capsys, "posteriors", CASE_STUDY, "--instance", "phi",
            "--evidence", "UNSAFE_OUTPUT=True", "--format", "json",
        )
        rep = from_json(out)
        assert list(rep.posteriors) == sorted(rep.posteriors)

    def test_unknown_instance_exits_3(self, capsys):
        code, _, err = run(capsys, "posteriors", CASE_STUDY, "--instance", "nope")
        assert code == 3
        assert "unknown instance" in err

    def test_non_bayes_instance_exits_3(self, capsys):
        code, _, err = run(capsys, "posteriors", CASE_STUDY, "--instance", "mu")
        assert code == 3
        assert "BAYES" in err

    def test_unknown_variable_exits_3(self, capsys):
        code, _, err = run(
            capsys, "posteriors", CASE_STUDY, "--instance", "phi",
            "--evidence", "Nonsense=True",
        )
        assert code == 3

    def test_zero_probability_evidence_exits_4(self, capsys):
        code, _, err = run(
            capsys, "posteriors", CASE_STUDY, "--instance", "phi",
            "--evidence", "Fault_A=False", "--evidence", "Transient_Fault_A=True",
        )
        assert code == 4
        assert "probability 0" in err

    def test_subnormal_evidence_probability_exits_4_naming_it(self, capsys, tmp_path):
        # P(A=T, B=T) = 1e-200 * 1e-120 is subnormal: C's posterior read
        # F=2.9990e-01 T=7.0010e-01 against the exact 0.3/0.7
        tiny = tmp_path / "tiny.rvm"
        tiny.write_text(
            'workflow "w" {\n  bayes b {\n'
            "    node A states (F, T) cpt (1 - 1e-200, 1e-200);\n"
            "    node B states (F, T) parents (A) cpt (1 - 1e-120, 1e-120, 1 - 1e-120, 1e-120);\n"
            "    node C states (F, T) parents (B) cpt (0.5, 0.5, 0.3, 0.7);\n"
            "  }\n  instance n : b { }\n  output p = n.p_C_T;\n}\n")
        assert run(capsys, "posteriors", str(tiny), "--instance", "n",
                   "--evidence", "A=T", "--evidence", "B=T") == (
            4, "", "error: evidence {'A': 'T', 'B': 'T'} has probability 1e-320, "
            "below the smallest normal float\n")

    def test_subnormal_joint_probability_exits_4_naming_the_state(self, capsys, tmp_path):
        # P(A=T) = 1e-200 is normal, P(A=T, B=T) = 1e-320 is not: B's True
        # read 9.99988867e-121 against the exact 1e-120
        tiny = tmp_path / "tiny.rvm"
        tiny.write_text(
            'workflow "w" {\n  bayes b {\n'
            "    node A states (F, T) cpt (1 - 1e-200, 1e-200);\n"
            "    node B states (F, T) parents (A) cpt (1 - 1e-120, 1e-120, 1 - 1e-120, 1e-120);\n"
            "  }\n  instance n : b { }\n  output p = n.p_B_T;\n}\n")
        assert run(capsys, "posteriors", str(tiny), "--instance", "n", "--evidence", "A=T") == (
            4, "", "error: B=T with evidence {'A': 'T'} has probability 1e-320, "
            "below the smallest normal float\n")

    def test_negative_zero_entries_print_as_zero(self, capsys, tmp_path):
        # 0 * (0 - 1) is -0.0: the kernel folds it out as it does 0.0, so Z=T
        # has no term at all, and no posterior prints as -0.0
        model = tmp_path / "negzero.rvm"
        model.write_text(
            'workflow "w" {\n  bayes b {\n'
            "    node A states (F, T) cpt (1 - q, q);\n"
            "    node B states (F, T) parents (A) cpt (1, 0 * (0 - 1), 0.5, 0.5);\n"
            "    node Z states (F, T) cpt (1, 0 * (0 - 1));\n"
            "  }\n  instance n : b { q = 0.25; }\n  output p = n.p_B_T;\n}\n")
        for evidence, want in (
            ([], ["A.F,0.75", "A.T,0.25", "B.F,0.875", "B.T,0.125"]),
            (["--evidence", "B=T"], ["A.F,0.0", "A.T,1.0", "B.F,0.0", "B.T,1.0"]),
            (["--evidence", "A=F"], ["A.F,1.0", "A.T,0.0", "B.F,1.0", "B.T,0.0"]),
            (["--evidence", "Z=F"], ["A.F,0.75", "A.T,0.25", "B.F,0.875", "B.T,0.125"]),
        ):
            code, out, err = run(capsys, "posteriors", str(model), "--instance", "n",
                                 "--format", "csv", *evidence)
            assert (code, err) == (0, "")
            assert [line[len("posterior."):] for line in out.splitlines()
                    if line.startswith("posterior.")] == want + ["Z.F,1.0", "Z.T,0.0"]
            assert "-0" not in out

    def test_conflicting_evidence_exits_3_naming_both_states(self, capsys):
        code, out, err = run(
            capsys, "posteriors", CASE_STUDY, "--instance", "phi",
            "--evidence", "UNSAFE_OUTPUT=True", "--evidence", "UNSAFE_OUTPUT=False",
        )
        assert code == 3
        assert out == ""
        assert err == "error: conflicting evidence for UNSAFE_OUTPUT: True and False\n"

    def test_evidence_without_a_state_exits_3(self, capsys):
        code, out, err = run(capsys, "posteriors", CASE_STUDY, "--instance", "phi",
                             "--evidence", "UNSAFE_OUTPUT")
        assert (code, out) == (3, "")
        assert err == "error: evidence must look like NODE=STATE, got 'UNSAFE_OUTPUT'\n"

    def test_repeated_evidence_is_allowed(self, capsys):
        argv = ["posteriors", CASE_STUDY, "--instance", "phi", "--format", "json",
                "--evidence", "UNSAFE_OUTPUT=True"]
        once, twice = run(capsys, *argv), run(capsys, *argv, "--evidence", "UNSAFE_OUTPUT=True")
        assert once[0] == twice[0] == 0
        assert from_json(once[1]).posteriors == from_json(twice[1]).posteriors


class TestSweep:
    def test_factor_table_csv(self, capsys):
        code, out, _ = run(
            capsys, "sweep", CASE_STUDY, "--param", "phi.PAR_1",
            "--factors", "1,0.1", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["factor", "HFR_2oo3", "MTBHE_2oo3", "HR_2oo2"]
        base = float(rows[1][3])
        tenth = float(rows[2][3])
        assert tenth == pytest.approx(base / 100, rel=1e-1)

    def test_single_factor_matches_solve(self, capsys):
        code, sweep_out, _ = run(
            capsys, "sweep", CASE_STUDY, "--param", "phi.PAR_1",
            "--factors", "1", "--format", "json",
        )
        assert code == 0
        sweep_rep = json.loads(sweep_out)
        code, solve_out, _ = run(capsys, "solve", CASE_STUDY, "--format", "json")
        solve_rep = json.loads(solve_out)
        assert sweep_rep["rows"][0]["exports"] == solve_rep["exports"]

    def test_reference_bound_param_exits_3(self, capsys):
        code, _, err = run(
            capsys, "sweep", CASE_STUDY, "--param", "mu.PAR_4", "--factors", "1",
        )
        assert code == 3
        assert "cannot be swept" in err

    @pytest.mark.parametrize("factor", ["nan", "inf"])
    def test_non_finite_factor_exits_3_naming_the_input(self, capsys, factor):
        code, out, err = run(
            capsys, "sweep", INLINE_MAINTENANCE, "--param", "mu.PAR_6", "--factors", f"1,{factor}",
        )
        assert code == 3
        assert out == ""
        assert f"'PAR_6' must be finite, got {factor}" in err

    def test_json_report_keys_in_field_order(self, capsys):
        _, out, _ = run(capsys, "sweep", CASE_STUDY, "--param", "phi.PAR_1",
                        "--factors", "1,0.1", "--format", "json")
        keys = ["workflow", "parameter", "tool_version", "input_digest", "generated_at",
                "export_names", "rows"]
        assert list(json.loads(out)) == keys
        keys.remove("generated_at")
        assert list(report.SweepReport(**json.loads(out)).digest_region()) == keys

    def test_negative_factor_as_its_own_argument_exits_3(self, capsys):
        code, out, err = run(
            capsys, "sweep", CASE_STUDY, "--param", "phi.PAR_1", "--factors", "-1,2",
        )
        assert code == 3
        assert out == ""
        assert err == ("error: instance 'phi': probability input 'PAR_1' "
                       "must lie in [0, 1], got -1.666e-05\n")

    def test_sweep_of_an_input_no_expression_reads_notes_it(self, capsys, tmp_path):
        # maintenance4 accepts PAR_9 like the other chains, but none of its rates reads it
        m4 = tmp_path / "m4.rvm"
        m4.write_text(Path(CASE_STUDY).read_text().replace("maintenance5", "maintenance4"))
        code, out, err = run(capsys, "sweep", str(m4), "--param", "mu.PAR_9",
                             "--factors", "1,2", "--format", "json")
        assert code == 0
        assert err == ("note: no rate, table entry or requires expression of 'maintenance4' "
                       "reads PAR_9, so the sweep leaves every figure unchanged\n")
        rows = json.loads(out)["rows"]
        assert rows[0]["exports"] == rows[1]["exports"]
        for path, param in ((m4, "mu.PAR_8"), (CASE_STUDY, "mu.PAR_9")):
            code, _, err = run(capsys, "sweep", str(path), "--param", param, "--factors", "1,2")
            assert (code, err) == (0, "")

    def test_bad_factors_exit_2(self, capsys):
        code, _, err = run(
            capsys, "sweep", CASE_STUDY, "--param", "phi.PAR_1", "--factors", "x",
        )
        assert code == 2

    def test_no_factors_exit_2(self, capsys):
        code, out, err = run(capsys, "sweep", CASE_STUDY, "--param", "phi.PAR_1", "--factors", ",")
        assert (code, out, err) == (2, "", "error: --factors is empty\n")


class TestValidate:
    def test_valid_file_silent_zero(self, capsys):
        code, out, err = run(capsys, "validate", CASE_STUDY)
        assert (code, out, err) == (0, "", "")

    def test_cycle_exits_3_with_path(self, capsys, tmp_path):
        cyclic = tmp_path / "cyclic.rvm"
        cyclic.write_text(
            'workflow "w" {\n'
            "  instance mu : builtin.maintenance5 {\n"
            "    PAR_4 = mu.PAR_10; PAR_5 = mu.PAR_10;\n"
            "    PAR_6 = 1; PAR_7 = 1e-2; PAR_8 = 1e-4; PAR_9 = 3;\n"
            "  }\n}"
        )
        code, _, err = run(capsys, "validate", str(cyclic))
        assert code == 3
        assert "mu -> mu" in err

    def test_unknown_builtin_exits_3_named(self, capsys, tmp_path):
        bad = tmp_path / "unknown.rvm"
        bad.write_text('workflow "w" { instance x : builtin.nosuch { } }')
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 3
        assert "nosuch" in err

    def test_binding_to_an_unknown_instance_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "dangling.rvm"
        bad.write_text(Path(CASE_STUDY).read_text().replace("phi.PAR_4", "psi.PAR_4", 1))
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out) == (3, "")
        assert err == ("error: instance 'mu': binding for 'PAR_4' references unknown "
                       "instance 'psi'\n")

    def test_parse_failure_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.rvm"
        bad.write_text("not a workflow at all")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2


#: Structural faults of a network: its nodes as ``(id, parents, entry
#: count)``, the index of the node the diagnostic points at, and its message.
NETWORK_FAULTS = {
    "duplicate node": ([("A", (), 2), ("A", (), 2)], 1, "duplicate node 'A'"),
    "unknown parent": ([("A", (), 2), ("B", ("Z",), 4)], 1,
                       "node 'B' references unknown parent 'Z'"),
    "repeated parent": ([("A", (), 2), ("B", ("A", "A"), 8)], 1, "node 'B' repeats parent 'A'"),
    "parent cycle": ([("A", ("B",), 4), ("B", ("A",), 4)], 0,
                     "cycle in the parent graph: A -> B -> A"),
    "entry count": ([("A", (), 2), ("B", ("A",), 2)], 1, "node 'B' needs 4 table entries, got 2"),
}


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("with_input", [True, False], ids=["input", "no-input"])
@pytest.mark.parametrize("fault", sorted(NETWORK_FAULTS))
def test_network_structure_fault_exits_2_at_the_node(capsys, tmp_path, fault, with_input,
                                                      command):
    nodes, at, message = NETWORK_FAULTS[fault]
    lines = ['workflow "w" {', "  bayes b {"]
    for vid, parents, count in nodes:
        rows = ["1 - q, q" if with_input else "0.8, 0.2"] + ["0.5, 0.5"] * (count // 2 - 1)
        listed = f" parents ({', '.join(parents)})" if parents else ""
        lines.append(f"    node {vid} states (F, T){listed} cpt ({', '.join(rows)});")
    lines += ["  }", f"  instance n : b {{ {'q = 0.2;' if with_input else ''} }}", "}"]
    path = tmp_path / "net.rvm"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == f"{path}:{3 + at}:10: error: model 'b': {message}\n"


def _raise_internal_error(args, data, workflow):
    raise RuntimeError("boom")


def test_internal_error_exits_4_with_its_traceback(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_validate", _raise_internal_error)
    code, out, err = run(capsys, "validate", CASE_STUDY)
    assert (code, out) == (4, "")
    assert err.startswith("internal error: boom\nTraceback (most recent call last)")
    assert "_raise_internal_error" in err
    assert err.endswith("RuntimeError: boom\n")


def test_import_does_not_load_hashlib():
    # hashlib pulls in OpenSSL; only the input digest needs it
    src = str(Path(redvote.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, redvote; print('hashlib' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_import_does_not_load_dataclasses_or_inspect():
    # records are collections.namedtuple subclasses, which eval one __new__ per
    # class, and __slots__ classes; dataclasses would add inspect, ast, dis and
    # tokenize to every start. A solve reads the clock through time and writes
    # CSV only on request, so datetime and csv stay out too. The posteriors
    # kernel is compiled from source by the builtin compile, so none of the
    # compiler's library modules loads on a posteriors run either
    src = str(Path(redvote.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import contextlib, io, sys, redvote.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'datetime', 'csv') if m in sys.modules])\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = redvote.cli.main(['posteriors', sys.argv[1], '--instance', 'phi',\n"
        "                             '--evidence', 'UNSAFE_OUTPUT=True'])\n"
        "print(code, [m for m in ('ast', 'dis', 'inspect', 'tokenize') if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, CASE_STUDY], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.splitlines() == ["[]", "0 []"]


def test_solve_does_not_load_numpy():
    # nothing in redvote imports numpy: solving, sweeps and posteriors all run
    # on the standard library
    src = str(Path(redvote.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import contextlib, io, sys\n"
        "from redvote import cli, nmr\n"
        "for path in sys.argv[1:]:\n"
        "    for argv in (['solve', path, '--format', 'json', '--threshold', '1e-9'],\n"
        "                 ['sweep', path, '--param', 'phi.PAR_1', '--factors', '1,0.1'],\n"
        "                 ['posteriors', path, '--instance', 'phi',\n"
        "                  '--evidence', 'UNSAFE_OUTPUT=True']):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            code = cli.main(argv)\n"
        "        assert code in (0, 5), (argv, code)\n"
        "nmr.build_maintenance_ctmc('maintenance5', {'PAR_4': 2e-3, 'PAR_5': 1e-3, 'PAR_6': 1.0,\n"
        "                                            'PAR_7': 1e-2, 'PAR_8': 1e-3, 'PAR_9': 3.0})\n"
        "print('numpy' in sys.modules)\n"
    )
    models = sorted(str(p) for p in MODELS.glob("*.rvm"))
    assert len(models) == 3
    done = subprocess.run([sys.executable, "-c", probe, *models], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "False"


def test_solve_and_sweep_build_no_posteriors_kernel(capsys, tmp_path):
    # the shipped models and the shapes the benchmark generates read a subset
    # of the failure network, through per-target plans: compiling the
    # all-variable kernel would cost a one-shot solve more than it saves
    text = Path(CASE_STUDY).read_text()
    shapes = [tmp_path / f"{chain}.rvm" for chain in ("maintenance4", "maintenance8")]
    for path in shapes:
        path.write_text(text.replace("maintenance5", path.stem))
    bayes._kernel.cache_clear()
    for path in sorted(MODELS.glob("*.rvm")) + shapes:
        assert run(capsys, "solve", str(path), "--threshold", "1e-9")[0] in (0, 5)
        for param in ("phi.PAR_1", "mu.PAR_6"):
            assert run(capsys, "sweep", str(path), "--param", param, "--factors", "1,0.5")[0] == 0
    assert bayes._kernel.cache_info().misses == 0
    run(capsys, "posteriors", CASE_STUDY, "--instance", "phi")
    assert bayes._kernel.cache_info().misses == 1


def test_reports_do_not_depend_on_the_sum_builtin(capsys, monkeypatch):
    # `sum` of floats is compensated from CPython 3.12; every figure sum adds
    # left to right, so a compensated `sum` in any module changes no output
    models = sorted(MODELS.glob("*.rvm"))
    assert len(models) == 3
    commands = [("solve", "--threshold", "1e-9", "--format", "json"),
                ("posteriors", "--instance", "phi", "--evidence", "UNSAFE_OUTPUT=True",
                 "--format", "json"),
                ("sweep", "--param", "phi.PAR_1", "--factors", "0.5,1,2", "--format", "csv")]

    def outputs():
        bayes._kernel.cache_clear()  # a kernel compiled now would see a patched name
        runs = [run(capsys, command, str(path), *options)
                for path in models for command, *options in commands]
        return [(code, [line for line in out.splitlines() if '"generated_at"' not in line], err)
                for code, out, err in runs]

    want = outputs()
    assert all(code in (0, 5) and out and not err for code, out, err in want)
    for name, module in list(sys.modules.items()):
        if name == "redvote" or name.startswith("redvote."):
            monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    try:
        assert outputs() == want
    finally:
        bayes._kernel.cache_clear()


def test_each_module_imports_first_in_a_fresh_interpreter():
    # nmr builds its records from compose's, so compose must not need nmr at import
    package = Path(redvote.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    for path in sorted(package.glob("*.py")):
        module = "redvote" if path.stem == "__init__" else f"redvote.{path.stem}"
        done = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (module, done.stderr)


def test_benchmark_hooks_resolve_on_the_package():
    # the benchmark wraps these attributes by name; read its table without importing it
    spans = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text(), str(spans))
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"]
    assert layers
    for module, attrs in layers.values():
        for attr in attrs:
            assert callable(getattr(importlib.import_module(f"redvote.{module}"), attr, None)), (
                module, attr)


def test_package_parses_as_python_3_10():
    # the oldest Python that pyproject.toml's requires-python admits
    paths = sorted(Path(redvote.__file__).resolve().parent.glob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


def test_package_imports_only_the_standard_library():
    # every import anywhere in the package, including those inside functions
    allowed = sys.stdlib_module_names | {"redvote"}
    foreign = []
    for path in sorted(Path(redvote.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert foreign == []
