"""redvote benchmark: one seeded workload, checked op by op against oracles.

    python3 perfbench/run.py --workload sweep-failure --seed 1 --seconds 10 --trace 0

Run it from the repository root. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes the separate traced run that gives the
per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the details (sample counts, tail latency, the start-up
floor, versions). Both are also written under ``.perfbench/results/``.
Workloads, metrics and the layer each metric answers to are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

SETUP_RUNS = 5
#: The measured time is split over this many worker processes, because the
#: same code runs a few percent faster or slower from one process to the next.
MEASURE_PROCESSES = 3
STARTUP_RUNS = 5
#: Ops of the traced run: a fixed count, so call counts repeat exactly.
#: Multiples of the rotations (7 cli files, 3 evidence sizes, 16 sweep
#: shapes and swept inputs) so every seed runs the same mix.
TRACE_OPS = {"cli-solve": 14, "sweep-failure": 16, "sweep-maintenance": 16, "posteriors": 150}
#: Tail latency is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
CHILD_TIMEOUT = 170
NOTES = (
    "cli-solve CPU is the children's user+sys from wait4. numpy's BLAS thread "
    "pool makes it exceed wall time; thread counts are left at their defaults."
)
REQUIRED = ("src/redvote/__init__.py", "tests/oracles.py", "models")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_cmd(mode: str, workload: str, seed: int, run_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
            "--seed", str(seed), "--run-dir", str(run_dir), *extra]


def setup_seconds(workload: str, seed: int, run_dir: Path,
                  env: dict) -> tuple[list[float], list[float]]:
    """Spawn-to-ready times of fresh set-up processes, and the reference
    kernel's time that each process measures right after it is ready."""
    times, kernel = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.Popen(worker_cmd("setup", workload, seed, run_dir),
                                stdout=subprocess.PIPE, env=env)
        try:
            with proc.stdout:
                ready = proc.stdout.readline()
                times.append(time.perf_counter() - start)
                kernel.append(float(proc.stdout.readline() or "nan"))
            if proc.wait(timeout=CHILD_TIMEOUT) != 0 or ready.strip() != b"ready":
                raise RuntimeError(f"set-up process exited {proc.returncode}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return times, kernel


_IMPORTS = ("import json, time; t0 = time.perf_counter(); import numpy; "
            "t1 = time.perf_counter(); import redvote, redvote.cli; "
            "t2 = time.perf_counter(); print(json.dumps([t1 - t0, t2 - t1]))")


def startup_floor(env: dict) -> dict[str, float]:
    """Median bare interpreter start, numpy import and redvote's own import."""
    bare, numpy_s, redvote_s = [], [], []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=CHILD_TIMEOUT)
        bare.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", _IMPORTS], env=env, check=True,
                             capture_output=True, timeout=CHILD_TIMEOUT).stdout
        a, b = json.loads(out)
        numpy_s.append(a)
        redvote_s.append(b)
    return {
        "startup.interpreter_ms": 1e3 * statistics.median(bare),
        "startup.numpy_import_ms": 1e3 * statistics.median(numpy_s),
        "startup.redvote_import_ms": 1e3 * statistics.median(redvote_s),
    }


def run_worker(cmd: list[str], out: Path, env: dict) -> dict:
    subprocess.run(cmd + ["--out", str(out)], env=env, check=True, timeout=CHILD_TIMEOUT)
    return json.loads(out.read_text(encoding="utf-8"))


def check_ops(workload: str, seed: int, models: list[str], ops: list[dict],
              oracle) -> list[str]:
    """Check every op; returns one line per failed op."""
    failures = []
    for i, op in enumerate(ops):
        problems = []
        if op["error"]:
            problems.append(op["error"])
        elif op["out"] is None:
            problems.append("no output")
        else:
            inp = inputs.op_input(workload, seed, i, models)
            if workload == "cli-solve":
                problems = oracle.check_cli(inp, op["out"])
            elif workload == "posteriors":
                problems = oracle.check_posteriors(inp, op["out"])
            else:
                shape, params = oracle.model_file(models[inp["model"]])
                problems = oracle.check_sweep(shape, params, inp, op["out"])
        if problems:
            failures.append(f"op {i}: {problems[0]}" + (
                f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))
    return failures


def end_to_end(workload: str, parts: list[dict], setup: list[float],
               setup_kernel: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, with times scaled to the reference speed.

    Each op's time is scaled by the reference measured just before it, and
    throughput by the ratio of summed reference times. Each time metric is
    the median over the worker processes of that process's figure, so one
    process that ran unusually fast or slow does not move it.
    """
    reference = calibration.kind(workload)
    unit = calibration.REFERENCE_S[reference]

    def scaled(part: dict, key: str) -> list[float]:
        return [op[key] / r * unit for op, r in zip(part["ops"], part["reference_s"])]

    def throughput(part: dict) -> float:
        return (len(part["ops"]) / sum(op["wall"] for op in part["ops"])
                * statistics.fmean(part["reference_s"]) / unit)

    ops = [op for part in parts for op in part["ops"]]
    if workload == "cli-solve":
        rss_kb = statistics.median(op["rss_kb"] for op in ops)  # the children doing the work
    else:
        rss_kb = max(part["peak_rss_kb"] for part in parts)
    latency = [1e3 * statistics.median(scaled(part, "wall")) for part in parts]
    metrics = {
        "setup_s": (statistics.median(
            t / k * calibration.REFERENCE_S["kernel"] for t, k in zip(setup, setup_kernel)), "s"),
        "latency_ms.p50": (statistics.median(latency), "ms"),
        "ops_per_s": (statistics.median(throughput(part) for part in parts), "ops/s"),
        "cpu_ms_per_op": (statistics.median(
            1e3 * statistics.median(scaled(part, "cpu")) for part in parts), "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MiB"),
    }
    raw_walls = [op["wall"] for op in ops]
    walls = [w for part in parts for w in scaled(part, "wall")]
    refs = [r for part in parts for r in part["reference_s"]]
    details = {
        "samples": len(ops), "speed_reference": reference,
        "speed_scale.median": unit / statistics.median(refs),
        "unscaled": {"setup_s": statistics.median(setup),
                     "latency_ms.p50": 1e3 * statistics.median(raw_walls),
                     "ops_per_s": len(ops) / sum(raw_walls),
                     "cpu_ms_per_op": 1e3 * statistics.median(op["cpu"] for op in ops)},
        "setup_s.samples": setup, "setup_kernel_s": setup_kernel,
        "latency_ms.p50.per_process": latency,
        "latency_ms.max": 1e3 * max(walls),
    }
    # the highest decile with at least TAIL_SAMPLES samples beyond it
    if len(walls) >= 10 * TAIL_SAMPLES:
        details["latency_ms.p90"] = 1e3 * statistics.quantiles(walls, n=10)[-1]
    return metrics, details


def per_layer(result: dict, floor: dict) -> dict:
    n_ops = len(result["traced"])
    values = spans.layer_metrics(result["spans"], n_ops)
    metrics = {}
    for name, value in values.items():
        unit = ("ratio" if name.endswith("useful_ratio")
                else "ms" if name.endswith("_ms_per_op") else "count")
        metrics[name] = (value, unit)
    for name, value in floor.items():
        metrics[name] = (value, "ms")
    metrics["trace.overhead_ratio"] = (
        sum(op["wall"] for op in result["traced"])
        / sum(op["wall"] for op in result["untraced"]), "ratio")
    return metrics


def environment(root: Path) -> dict:
    import numpy

    sha = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=root, timeout=30)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).exists()]
    if missing:
        print(f"perfbench: run from a redvote checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    import oracle as oracle_module  # needs src/ and tests/ of the checkout

    oracle = oracle_module.Oracle(root)
    bench_dir = Path(".perfbench")
    run_dir = bench_dir / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    env = worker_env()
    try:
        models = inputs.write_models(args.workload, args.seed, run_dir)
        out = run_dir / "result.json"
        if args.trace:
            floor = startup_floor(env)
            result = run_worker(
                worker_cmd("trace", args.workload, args.seed, run_dir,
                           "--ops", str(TRACE_OPS[args.workload])), out, env)
            ops = result["untraced"] + result["traced"]
            failures = [f"{side}: {line}" for side in ("untraced", "traced")
                        for line in check_ops(args.workload, args.seed, models,
                                              result[side], oracle)]
            metrics = per_layer(result, floor)
            details = {"samples": len(result["traced"])}
        else:
            setup, setup_kernel = setup_seconds(args.workload, args.seed, run_dir, env)
            parts, ops = [], []
            for _ in range(MEASURE_PROCESSES):
                parts.append(run_worker(
                    worker_cmd("measure", args.workload, args.seed, run_dir,
                               "--seconds", str(args.seconds / MEASURE_PROCESSES),
                               "--first-op", str(len(ops))), out, env))
                ops += parts[-1]["ops"]
            failures = check_ops(args.workload, args.seed, models, ops, oracle)
            metrics, details = end_to_end(args.workload, parts, setup, setup_kernel)
            if args.workload == "cli-solve":
                details["startup_floor"] = startup_floor(env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    details.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        fail_ratio=len(failures) / len(ops), failures=failures[:20],
        environment=environment(root), notes=NOTES,
    )
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value!r}")
    summary = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = bench_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": summary}, indent=1), encoding="utf-8")
    print(json.dumps(details))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
