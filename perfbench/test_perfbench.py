"""Tests of the benchmark itself: inputs, oracle checks and call counts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracle as oracle_module  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from redvote import bayes, compose, dsl, nmr  # noqa: E402


@pytest.fixture(scope="module")
def oracle():
    return oracle_module.Oracle(ROOT)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _sweep_op(models: list[str], workload: str, i: int) -> tuple[dict, list]:
    inp = inputs.op_input(workload, 7, i, models)
    validated = compose.validate_workflow(dsl.parse(Path(models[inp["model"]]).read_text()).workflow)
    results = compose.sweep(validated, inp["param"], inp["factors"])
    return inp, [{"instances": {k: dict(v) for k, v in r.instances.items()},
                  "exports": dict(r.exports)} for r in results]


def _posteriors_op(i: int) -> list:
    inp = inputs.op_input("posteriors", 7, i, [])
    net = nmr.build_failure_bn(nmr.FailureParams(*inp["params"]))
    return [(d.variable, dict(d.probabilities)) for d in bayes.posterior_report(net, inp["evidence"])]


def _op(out) -> dict:
    return {"wall": 0.1, "cpu": 0.1, "error": None, "out": out}


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    for workload in inputs.WORKLOADS:
        a = inputs.write_models(workload, 3, tmp_path / f"{workload}-a")
        b = inputs.write_models(workload, 3, tmp_path / f"{workload}-b")
        c = inputs.write_models(workload, 4, tmp_path / f"{workload}-c")
        text = [[Path(p).read_text() for p in paths] for paths in (a, b, c)]
        assert text[0] == text[1]
        assert all(x != y for x, y in zip(text[0], text[2]))
        ops = [[inputs.op_input(workload, seed, i, a) for i in range(30)] for seed in (3, 3, 4)]
        assert ops[0] == ops[1]
        if workload != "cli-solve":  # cli ops name files, which differ in content
            assert all(x != y for x, y in zip(ops[0], ops[2]))


def test_no_op_repeats_an_earlier_ops_inputs(tmp_path):
    for workload in inputs.WORKLOADS:
        models = inputs.write_models(workload, 5, tmp_path / workload)
        seen = [inputs.op_input(workload, 5, i, models) for i in range(-1, 120)]
        generated = [op for op in seen if op.get("file") not in inputs.SHIPPED]
        assert all(generated[j] not in generated[:j] for j in range(len(generated)))


def test_generated_models_span_the_ranges(tmp_path):
    for k in range(8):
        shape, params = inputs.model_params("cli-solve", 1, k)
        assert shape == inputs.SHAPES[k % 4]
        for name, (lo, hi) in inputs.RANGES.items():
            assert lo <= params[name] <= hi
    inp = inputs.op_input("sweep-maintenance", 1, 4, inputs.write_models(
        "sweep-maintenance", 1, tmp_path))
    base = inputs.model_params("sweep-maintenance", 1, 4)[1]["PAR_7"]
    assert inp["param"] == "mu.PAR_7"
    assert all(1e-3 <= base * f <= 0.1 for f in inp["factors"])


def test_evidence_always_has_nonzero_probability(oracle):
    for i in range(60):
        inp = inputs.op_input("posteriors", 11, i, [])
        assert len(inp["evidence"]) == 1 + i % 3
        oracle_module.posteriors(nmr.FailureParams(*inp["params"]), inp["evidence"])


def test_sweep_ops_pass_and_a_perturbed_point_fails(tmp_path, oracle):
    for workload in ("sweep-failure", "sweep-maintenance"):
        models = inputs.write_models(workload, 7, tmp_path / workload)
        ops = [_op(_sweep_op(models, workload, i)[1]) for i in range(4)]
        assert run.check_ops(workload, 7, models, ops, oracle) == []
        bad = copy.deepcopy(ops)
        bad[2]["out"][57]["exports"]["HFR_2oo3"] *= 1 + 1e-9
        bad[3]["out"][3]["instances"]["phi"]["PAR_4"] *= 1 - 1e-9
        failures = run.check_ops(workload, 7, models, bad, oracle)
        assert [f.split(":")[0] for f in failures] == ["op 2", "op 3"]


def test_posteriors_perturbed_or_missing_fails(oracle):
    ops = [_op(_posteriors_op(i)) for i in range(3)]
    assert run.check_ops("posteriors", 7, [], ops, oracle) == []
    bad = copy.deepcopy(ops)
    var, dist = bad[0]["out"][5]
    dist["True"] *= 1 + 1e-9
    del bad[1]["out"][0]
    bad[2] = {"wall": 0.1, "cpu": 0.1, "error": "ValidationError: boom", "out": None}
    assert len(run.check_ops("posteriors", 7, [], bad, oracle)) == 3


def test_cli_wrong_exit_code_or_figure_fails(tmp_path, oracle):
    models = inputs.write_models("cli-solve", 7, tmp_path)
    for i in (0, 3, 4, 5):  # generated shapes and shipped files
        inp = inputs.op_input("cli-solve", 7, i, models)
        record = run_cli_inprocess(inp["file"])
        assert oracle.check_cli(inp, record) == []
        assert oracle.check_cli(inp, dict(record, code=5 - record["code"]))
        report = json.loads(record["stdout"])
        report["exports"]["HFR_2oo3"] *= 1 + 1e-9
        assert oracle.check_cli(inp, dict(record, stdout=json.dumps(report)))


def run_cli_inprocess(path: str) -> dict:
    import contextlib
    import io

    from redvote import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", path, "--threshold", "1e-09", "--format", "json"])
    return {"code": code, "stdout": out.getvalue()}


def test_shipped_models_give_both_verdicts(oracle):
    codes = {run_cli_inprocess(path)["code"] for path in inputs.SHIPPED}
    assert codes == {0, 5}


def _traced(fn, *args):
    tracer = spans.Tracer()
    tracer.install()
    try:
        fn(*args)
    finally:
        tracer.uninstall()
    return spans.layer_metrics([tracer.dump()], 1)


def test_sweep_call_counts_match_the_code(tmp_path):
    for workload in ("sweep-failure", "sweep-maintenance"):
        models = inputs.write_models(workload, 7, tmp_path / workload)
        metrics = _traced(_sweep_op, models, workload, 0)
        assert metrics["compose.sweep.calls_per_op"] == 1
        assert metrics["compose.validate_workflow.calls_per_op"] == 101  # +1: the test's own
        assert metrics["compose.run_workflow.calls_per_op"] == 100
        assert metrics["nmr.failure_interface.calls_per_op"] == 100
        assert metrics["bayes.elimination_order.calls_per_op"] == 200
        assert metrics["bayes.marginal.calls_per_op"] == 200
        assert metrics["ctmc.steady_state.calls_per_op"] == 100
        assert metrics["bayes.elimination_order.useful_ratio"] == 0.01
        want = 1.0 if workload == "sweep-failure" else 0.01
        assert metrics["nmr.failure_interface.useful_ratio"] == want


def test_posteriors_call_counts_match_the_code():
    for i in range(3):
        metrics = _traced(_posteriors_op, i)
        assert metrics["bayes.posterior_report.calls_per_op"] == 1
        assert metrics["bayes.marginal.calls_per_op"] == 24 - (1 + i % 3)
        assert metrics["bayes.elimination_order.calls_per_op"] == 24 - (1 + i % 3)
        assert metrics["bayes.elimination_order.useful_ratio"] == 1.0


def test_wrappers_are_removed_and_self_time_excludes_children():
    originals = {name: getattr(__import__(f"redvote.{mod}", fromlist=["x"]), attrs[0])
                 for name, (mod, attrs) in spans.LAYERS.items()}
    metrics = _traced(_posteriors_op, 0)
    for name, (mod, attrs) in spans.LAYERS.items():
        assert getattr(__import__(f"redvote.{mod}", fromlist=["x"]), attrs[0]) is originals[name]
    total = sum(v for k, v in metrics.items() if k.endswith("self_ms_per_op"))
    report = metrics["bayes.posterior_report.self_ms_per_op"]
    assert 0 < report < total


def test_times_are_scaled_by_the_reference_before_each_op():
    def part(wall, ref):
        ops = [{"wall": wall, "cpu": wall, "rss_kb": 1024, "out": None, "error": None}] * 4
        return {"ops": ops, "reference_s": [ref] * 4, "peak_rss_kb": 2048}

    unit = run.calibration.REFERENCE_S["kernel"]
    # a machine twice as slow doubles op and reference time alike
    parts = [part(0.2, unit), part(0.4, 2 * unit), part(0.2, unit)]
    metrics, details = run.end_to_end("posteriors", parts, [0.5, 1.0], [unit, 2 * unit])
    assert metrics["latency_ms.p50"][0] == pytest.approx(200.0)
    assert metrics["cpu_ms_per_op"][0] == pytest.approx(200.0)
    assert metrics["ops_per_s"][0] == pytest.approx(5.0)
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    assert metrics["peak_rss_mb"][0] == 2.0
    assert details["unscaled"]["latency_ms.p50"] == pytest.approx(200.0)
    # one odd process does not move the median over processes
    parts[1] = part(0.9, unit)
    assert run.end_to_end("posteriors", parts, [0.5], [unit])[0]["latency_ms.p50"][0] == \
        pytest.approx(200.0)


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "posteriors", "--seed", "1", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
