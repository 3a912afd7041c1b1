"""Command-line driver for `.rvm` workflow files.

Commands: ``solve``, ``posteriors``, ``sweep``, ``validate``. Exit codes
are fixed: 0 success (and verdict pass), 2 parse failure, 3 validation
failure, 4 numeric or solver failure, an unwritable ``--out`` or an internal
error (whose traceback goes to stderr), 5 verdict fail against a supplied
threshold. Set ``REDVOTE_NO_COLOR`` to disable ANSI styling.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__, bayes, compose, dsl, report
from .errors import SolverError, ValidationError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_VERDICT = 5

#: Per ``--format``: the ``report`` renderers of an analysis and of a sweep report.
_RENDERERS = {
    "text": ("render_text", "render_sweep_text"),
    "json": ("to_json", "sweep_to_json"),
    "csv": ("render_csv", "render_sweep_csv"),
}


def _use_color(stream) -> bool:
    if os.environ.get("REDVOTE_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _write_report(
    rep: report.AnalysisReport | report.SweepReport, args: argparse.Namespace, code: int = EXIT_OK
) -> int:
    """Write ``rep`` in ``args.format``; return ``code``, or 4 if ``args.out`` is unwritable."""
    name = _RENDERERS[args.format][isinstance(rep, report.SweepReport)]
    options = {"color": _use_color(sys.stdout) and not args.out} if name == "render_text" else {}
    # looked up at call time, so that wrappers installed on ``report`` see the call
    text = getattr(report, name)(rep, **options)
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write report to {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_SOLVER
    return code


def _load(path: str) -> tuple[bytes, compose.Workflow] | int:
    """Read and parse a workflow file; on failure print diagnostics and
    return the exit code."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        print(f"{path}:1:1: error: cannot read file: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        print(f"{path}:1:1: error: not valid UTF-8: {exc.reason}", file=sys.stderr)
        return EXIT_PARSE
    result = dsl.parse(text, origin=path)
    if not result.ok:
        for line in result.rendered_diagnostics():
            print(line, file=sys.stderr)
        return EXIT_PARSE
    return data, result.workflow


def _verdict_metric(workflow: compose.Workflow) -> str:
    names = [export.name for export in workflow.exports]
    if "HFR_2oo3" in names:
        return "HFR_2oo3"
    if len(names) == 1:
        return names[0]
    raise ValidationError(
        "cannot pick a verdict metric: export one value or name one export HFR_2oo3"
    )


def _base_report(
    workflow: compose.Workflow, data: bytes, result: compose.SolveResult, **extra: object
) -> report.AnalysisReport:
    return report.AnalysisReport(
        workflow=workflow.name,
        tool_version=__version__,
        input_digest=report.input_digest(data),
        generated_at=report.timestamp(),
        instances={name: dict(outputs) for name, outputs in result.instances.items()},
        exports=dict(result.exports),
        provenance=list(result.provenance),
        **extra,
    )


def cmd_solve(args: argparse.Namespace, data: bytes, workflow: compose.Workflow) -> int:
    threshold = args.threshold
    if threshold is not None and not compose.literal_in_range(threshold):
        print(f"error: --threshold is {threshold!r}; {compose.LITERAL_RANGE}", file=sys.stderr)
        return EXIT_PARSE
    validated = compose.validate_workflow(workflow)
    if threshold is None:
        return _write_report(_base_report(workflow, data, compose.run_workflow(validated)), args)
    metric = _verdict_metric(workflow)  # fail fast before solving
    result = compose.run_workflow(validated)
    value = result.exports[metric]  # run_workflow refuses a negative or non-finite figure
    verdict = "PASS" if value <= threshold else "FAIL"
    rep = _base_report(
        workflow, data, result, threshold=threshold, verdict=verdict, verdict_metric=metric,
        sil_note=report.sil_band_note(value),
    )
    return _write_report(rep, args, EXIT_VERDICT if verdict == "FAIL" else EXIT_OK)


def cmd_posteriors(args: argparse.Namespace, data: bytes, workflow: compose.Workflow) -> int:
    evidence: dict[str, str] = {}
    for item in args.evidence or []:
        if "=" not in item:
            print(f"error: evidence must look like NODE=STATE, got {item!r}", file=sys.stderr)
            return EXIT_VALIDATION
        node, state = (part.strip() for part in item.split("=", 1))
        if evidence.setdefault(node, state) != state:
            print(f"error: conflicting evidence for {node}: {evidence[node]} and {state}",
                  file=sys.stderr)
            return EXIT_VALIDATION

    validated = compose.validate_workflow(workflow)
    result = compose.run_workflow(validated)
    net = compose.instance_net(validated, result, args.instance)

    # observed variables are listed too, as point masses on their observed state
    dists = bayes.posteriors(net, evidence)
    table = {vid: dict(dists[vid].probabilities) for vid in sorted(dists)}
    return _write_report(_base_report(workflow, data, result, posteriors=table), args)


def cmd_sweep(args: argparse.Namespace, data: bytes, workflow: compose.Workflow) -> int:
    try:
        factors = [float(f) for f in args.factors.split(",") if f.strip()]
    except ValueError:
        print(f"error: --factors must be comma-separated numbers, got {args.factors!r}",
              file=sys.stderr)
        return EXIT_PARSE
    if not factors:
        print("error: --factors is empty", file=sys.stderr)
        return EXIT_PARSE

    validated = compose.validate_workflow(workflow)
    results = compose.sweep(validated, args.param, factors)
    inst_name, pname = args.param.split(".", 1)  # sweep has checked both
    _, cls = validated.instances[inst_name]
    if pname not in compose.read_inputs(cls):
        print(f"note: no rate, table entry or requires expression of {cls.name!r} reads "
              f"{pname}, so the sweep leaves every figure unchanged", file=sys.stderr)

    rep = report.SweepReport(
        workflow=workflow.name,
        parameter=args.param,
        tool_version=__version__,
        input_digest=report.input_digest(data),
        generated_at=report.timestamp(),
        export_names=[export.name for export in workflow.exports],
        rows=[
            {"factor": factor, "exports": dict(result.exports)}
            for factor, result in zip(factors, results)
        ],
    )
    return _write_report(rep, args)


def cmd_validate(args: argparse.Namespace, data: bytes, workflow: compose.Workflow) -> int:
    compose.validate_workflow(workflow)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redvote",
        description="Solve hazard-rate workflows over voting-architecture models.",
    )
    parser.add_argument("--version", action="version", version=f"redvote {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="workflow file (.rvm)")
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", help="write the report to this path instead of stdout")

    p_solve = sub.add_parser("solve", help="run a workflow and report its figures")
    add_common(p_solve)
    p_solve.add_argument(
        "--threshold", type=float,
        help="tolerable hazard rate per hour; adds a PASS/FAIL verdict",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_post = sub.add_parser("posteriors", help="per-variable posteriors of a network instance")
    add_common(p_post)
    p_post.add_argument("--instance", required=True, help="name of a BAYES instance")
    p_post.add_argument(
        "--evidence", action="append", metavar="NODE=STATE",
        help="observed state, repeatable",
    )
    p_post.set_defaults(func=cmd_posteriors)

    p_sweep = sub.add_parser("sweep", help="re-run a workflow with a scaled input")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, metavar="INSTANCE.INPUT",
                         help="literal-bound input to scale")
    p_sweep.add_argument("--factors", required=True,
                         help="comma-separated multipliers, e.g. 1,0.1")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="parse and validate only")
    p_val.add_argument("file", help="workflow file (.rvm)")
    p_val.set_defaults(func=cmd_validate)

    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """``--threshold -1e-9`` as ``--threshold=-1e-9``, and so for ``--factors``:
    argparse takes such a value for an option, and stops at "expected one argument"."""
    out: list[str] = []
    for arg in argv:
        negative = arg.startswith("-") and not arg.startswith("--")
        if negative and out and out[-1] in ("--threshold", "--factors"):
            out[-1] += f"={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        loaded = _load(args.file)
        if isinstance(loaded, int):
            return loaded
        return args.func(args, *loaded)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception as exc:  # safety net for the exit-code contract
        import traceback  # only on this path, to keep start-up lean

        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
