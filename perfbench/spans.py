"""Timing wrappers around redvote's public functions, and span statistics.

``Tracer.install`` replaces module attributes with wrappers. The package
looks its module globals up at call time, so the wrappers also see its
internal calls (``bayes.marginal`` from ``nmr.failure_interface``, and so
on). Spans stay in memory until ``Tracer.dump``. Nothing inside the package
changes; all timing is taken at these boundaries from outside.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

#: Layer name -> (module, the module attributes timed under that name).
LAYERS = {
    "cli.main": ("cli", ("main",)),
    "dsl.parse": ("dsl", ("parse",)),
    "compose.validate_workflow": ("compose", ("validate_workflow",)),
    "compose.run_workflow": ("compose", ("run_workflow",)),
    "compose.sweep": ("compose", ("sweep",)),
    "nmr.failure_interface": ("nmr", ("failure_interface",)),
    "nmr.build_failure_bn": ("nmr", ("build_failure_bn",)),
    "nmr.build_maintenance_ctmc": ("nmr", ("build_maintenance_ctmc",)),
    "bayes.build_net": ("bayes", ("build_net",)),
    "bayes.elimination_order": ("bayes", ("elimination_order",)),
    "bayes.marginal": ("bayes", ("marginal",)),
    "bayes.posterior_report": ("bayes", ("posterior_report",)),
    "ctmc.steady_state": ("ctmc", ("steady_state",)),
    "ctmc.reachable_closed_class": ("ctmc", ("reachable_closed_class",)),
    "report.render": ("report", ("to_json", "render_text", "render_csv",
                                 "sweep_to_json", "render_sweep_csv", "render_sweep_text")),
}


def _expr_shape(expr) -> object:
    """An expression with its literal values erased."""
    kind = type(expr).__name__
    if kind == "Literal":
        return "L"
    if kind == "BinOp":
        return (expr.op, _expr_shape(expr.left), _expr_shape(expr.right))
    return (kind, getattr(expr, "instance", None), getattr(expr, "output", None),
            getattr(expr, "name", None))


def _workflow_key(workflow) -> object:
    return (
        workflow.name, workflow.classes,
        tuple((i.name, i.class_name, tuple((p, _expr_shape(e)) for p, e in i.bindings.items()))
              for i in workflow.instances),
        tuple((e.name, _expr_shape(e.expr)) for e in workflow.exports),
    )


def _net_key(net) -> object:
    return tuple((v.id, v.states, net.cpts[v.id].parents) for v in net.variables)


#: Layers with a waste ratio, and the input key that makes two calls the same
#: work: the failure parameters; the workflow's structure; the network's
#: structure with the query and the evidence variables.
KEYS = {
    "nmr.failure_interface": lambda args, kwargs: args[0],
    "compose.validate_workflow": lambda args, kwargs: _workflow_key(args[0]),
    "bayes.elimination_order": lambda args, kwargs: (
        _net_key(args[0]),
        args[1] if isinstance(args[1], str) else frozenset(args[1]),
        frozenset((args[2] if len(args) > 2 else kwargs.get("evidence")) or ()),
    ),
}


class Tracer:
    """Collects one span per wrapped call: name, start, end, parent, op."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, error, args, kwargs]
        self.op = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep_args = name in KEYS

        def timed(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, False,
                    args if keep_args else None, kwargs if keep_args else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return timed

    def install(self) -> None:
        for name, (module_name, attrs) in LAYERS.items():
            module = importlib.import_module(f"redvote.{module_name}")
            for attr in attrs:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def dump(self) -> list[dict]:
        """The spans as plain records; waste-ratio keys are computed here,
        after timing, and kept only as hashes."""
        out = []
        for name, start, end, parent, op, error, args, kwargs in self.spans:
            record = {"name": name, "start": start, "end": end, "parent": parent,
                      "op": op, "error": error}
            if args is not None:
                record["key"] = hash(KEYS[name](args, kwargs))
            out.append(record)
        return out


def layer_metrics(dumps: list[list[dict]], n_ops: int) -> dict[str, float]:
    """Per-layer calls, self time and errors per op, and waste ratios, from
    the dumps of one or more processes. A span's self time is its duration
    minus its children's; calls are sequential, so children never overlap."""
    spans: list[dict] = []
    self_s: list[float] = []
    for dump in dumps:
        base = len(spans)
        for span in dump:
            spans.append(span)
            self_s.append(span["end"] - span["start"])
            if span["parent"] is not None:
                self_s[base + span["parent"]] -= span["end"] - span["start"]
    metrics: dict[str, float] = {}
    for name in LAYERS:
        mine = [i for i, s in enumerate(spans) if s["name"] == name]
        metrics[f"{name}.calls_per_op"] = len(mine) / n_ops
        metrics[f"{name}.self_ms_per_op"] = 1e3 * sum(self_s[i] for i in mine) / n_ops
        metrics[f"{name}.errors_per_op"] = sum(bool(spans[i]["error"]) for i in mine) / n_ops
    for name in KEYS:
        per_op: dict[int, list] = {}
        for s in spans:
            if s["name"] == name:
                per_op.setdefault(s["op"], []).append(s["key"])
        ratios = [len(set(keys)) / len(keys) for keys in per_op.values()]
        # no calls means no repeated work
        metrics[f"{name}.useful_ratio"] = statistics.fmean(ratios) if ratios else 1.0
    return metrics
