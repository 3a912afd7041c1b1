"""The measured process: set up one workload, then run its ops.

Run from the repository root with ``src`` on ``PYTHONPATH``; ``run.py``
starts it. Modes:

- ``setup``: import, read and validate the inputs, run one untimed warm-up
  op and print ``ready`` (``run.py`` times this from spawn to ``ready``);
  then print the median of three runs of the reference kernel and exit;
- ``measure``: set up, then run ops from ``--first-op`` on in a closed loop
  with one caller for ``--seconds``, each preceded by a speed reference
  from ``calibration.py``; write each op's wall time, CPU time and output
  as JSON;
- ``trace``: set up, then run ``--ops`` ops, each once untraced and once
  traced;
- ``cli``: run ``redvote.cli.main`` once under the tracer (the traced
  cli-solve op) and write its spans.

Input generation and output conversion happen outside each op's timer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

CLI_ARGS = ("--threshold", repr(inputs.THRESHOLD), "--format", "json")


class Workload:
    """Set-up state and the op of one workload."""

    def __init__(self, name: str, seed: int, run_dir: str) -> None:
        from redvote import bayes, compose, dsl, nmr

        self.name, self.seed, self.run_dir = name, seed, Path(run_dir)
        self.bayes, self.compose, self.nmr = bayes, compose, nmr
        self.models = sorted(str(p) for p in self.run_dir.glob("model-*.rvm"))
        files = list(self.models)
        if name == "cli-solve":
            import redvote.cli  # noqa: F401

            files += list(inputs.SHIPPED)
        self.validated = []
        for path in files:
            parsed = dsl.parse(Path(path).read_text(encoding="utf-8"), origin=path)
            if not parsed.ok:
                raise SystemExit("\n".join(parsed.rendered_diagnostics()))
            self.validated.append(compose.validate_workflow(parsed.workflow))
        self.run(-1)  # warm-up

    def input(self, i: int) -> dict:
        return inputs.op_input(self.name, self.seed, i, self.models)

    def run(self, i: int, traced_cli: str | None = None) -> dict:
        """One op; returns its wall and CPU seconds, output and any error."""
        inp = self.input(i)
        if self.name == "cli-solve":
            return run_cli(["solve", inp["file"], *CLI_ARGS], traced_cli, i,
                           self.run_dir / "stderr")
        record = {"error": None, "out": None}
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            if self.name == "posteriors":
                net = self.nmr.build_failure_bn(self.nmr.FailureParams(*inp["params"]))
                result = self.bayes.posterior_report(net, inp["evidence"])
            else:
                result = self.compose.sweep(self.validated[inp["model"]], inp["param"],
                                            inp["factors"])
        except Exception as exc:  # a failed op is counted, not fatal
            result, record["error"] = None, f"{type(exc).__name__}: {exc}"
        record["wall"] = time.perf_counter() - wall
        record["cpu"] = time.process_time() - cpu
        if result is not None:
            if self.name == "posteriors":
                record["out"] = [(d.variable, dict(d.probabilities)) for d in result]
            else:
                record["out"] = [
                    {"instances": {k: dict(v) for k, v in r.instances.items()},
                     "exports": dict(r.exports)}
                    for r in result
                ]
        return record


def run_cli(argv: list[str], traced_spans: str | None, op: int, stderr_path: Path) -> dict:
    """One CLI subprocess; its CPU time and peak RSS come from ``wait4``."""
    if traced_spans is None:
        cmd = [sys.executable, "-m", "redvote.cli", *argv]
    else:
        cmd = [sys.executable, __file__, "cli", traced_spans, str(op), *argv]
    with open(stderr_path, "w+b") as err:
        wall = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - wall
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace")
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "error": None if code in (0, 5) else f"exit {code}: {message[-500:]}",
        "out": {"code": code, "stdout": out.decode(errors="replace")},
    }


def measure(work: Workload, seconds: float, first: int) -> dict:
    """Ops ``first``, ``first + 1``, ... for ``seconds``, each preceded by
    one run of the workload's speed reference."""
    import calibration

    reference = calibration.kind(work.name)
    ops, ref = [], []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ref.append(calibration.seconds(reference))
        ops.append(work.run(first + len(ops)))
    return {"ops": ops, "reference_s": ref,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def trace(work: Workload, n_ops: int, spans_dir: Path) -> dict:
    """Each op untraced, then the same op traced, so drift over the run
    affects both sides of the overhead ratio alike."""
    import spans

    tracer = spans.Tracer()
    untraced, traced, dumps = [], [], []
    for i in range(n_ops):
        untraced.append(work.run(i))
        tracer.op = i
        if work.name == "cli-solve":
            path = spans_dir / f"spans-{i}.json"
            traced.append(work.run(i, traced_cli=str(path)))
            dumps.append(json.loads(path.read_text(encoding="utf-8")))
            continue
        tracer.install()
        try:
            traced.append(work.run(i))
        finally:
            tracer.uninstall()
    if work.name != "cli-solve":
        dumps.append(tracer.dump())
    return {"untraced": untraced, "traced": traced, "spans": dumps}


def traced_cli_main(spans_path: str, op: int, argv: list[str]) -> int:
    import spans
    from redvote import cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = op
    try:
        return cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.dump()), encoding="utf-8")


def main() -> int:
    if sys.argv[1:2] == ["cli"]:  # worker.py cli SPANS_PATH OP_ID CLI_ARGS...
        return traced_cli_main(sys.argv[2], int(sys.argv[3]), sys.argv[4:])
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--run-dir")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    work = Workload(args.workload, args.seed, args.run_dir)
    if args.mode == "setup":
        print("ready", flush=True)
        import calibration  # after ready: scales this process's set-up time

        print(statistics.median(calibration.kernel_seconds() for _ in range(3)), flush=True)
        return 0
    if args.mode == "measure":
        result = measure(work, args.seconds, args.first_op)
    else:
        result = trace(work, args.ops, Path(args.run_dir))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
