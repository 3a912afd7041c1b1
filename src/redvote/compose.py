"""Model classes, parameter bindings, and sequential workflow composition.

A workflow is a DAG of model instances. Each instance belongs to a model
class (a builtin template or a model defined inline in the same file) that
declares typed input and output parameters. Inputs are bound to literals or
to scalar expressions over other instances' outputs; running the workflow
solves the instances in topological order, feeding solved outputs forward,
then evaluates the exported expressions.

Only this results-feed-instantiation style of composition is implemented;
operators that rewrite the composed models themselves are out of scope, as
is any coupling through shared states or actions.
"""

from __future__ import annotations

import graphlib
import itertools
import math
from collections import deque
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from . import bayes, ctmc, nmr
from .errors import RedvoteError, SolverError, ValidationError

KINDS = ("probability", "rate", "ratio")


class _Record:
    """An immutable record with its ``__slots__`` as fields, in constructor order; equality
    is exact in type, so a ``Param("x")`` never equals a ``Literal("x")`` or a tuple."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through the constructor
        return type(self), self._values()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


# --- scalar expressions ------------------------------------------------------


class Expr(_Record):
    """Base class of the scalar expression AST (+, -, *, / and constants)."""

    __slots__ = ()


class Literal(Expr):
    __slots__ = ("value",)


class Ref(Expr):
    """A reference to another instance's output parameter."""

    __slots__ = ("instance", "output")


class Param(Expr):
    """A bare parameter name; only valid inside inline model rate expressions."""

    __slots__ = ("name",)


class BinOp(Expr):
    __slots__ = ("op", "left", "right")  # op is one of + - * /


def expr_refs(expr: Expr) -> Iterator[Ref]:
    if isinstance(expr, Ref):
        yield expr
    elif isinstance(expr, BinOp):
        yield from expr_refs(expr.left)
        yield from expr_refs(expr.right)


def expr_params(expr: Expr) -> Iterator[Param]:
    if isinstance(expr, Param):
        yield expr
    elif isinstance(expr, BinOp):
        yield from expr_params(expr.left)
        yield from expr_params(expr.right)


def eval_expr(expr: Expr, lookup: Callable[[Expr], float]) -> float:
    """Evaluate an expression; Ref and Param leaves resolve through ``lookup``."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, (Ref, Param)):
        return lookup(expr)
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, lookup)
        right = eval_expr(expr.right, lookup)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            if right == 0.0:
                raise SolverError("division by zero in a binding or export expression")
            return left / right
        raise ValidationError(f"unknown operator {expr.op!r}")
    raise ValidationError(f"unknown expression node {expr!r}")


# --- inline model templates --------------------------------------------------


class InlineCtmc(NamedTuple):
    """A chain defined inline; rates may reference the class's input parameters."""

    name: str
    states: tuple[str, ...]
    initial: str
    rates: tuple[tuple[str, str, Expr], ...]


class InlineNode(NamedTuple):
    id: str
    states: tuple[str, ...]
    parents: tuple[str, ...]
    cpt: tuple[float, ...]


class InlineBayes(NamedTuple):
    """A network defined inline; tables are flat numeric lists, so no inputs."""

    name: str
    nodes: tuple[InlineNode, ...]


# --- model classes and workflows ---------------------------------------------


class ParamDecl(NamedTuple("ParamDecl", [("name", str), ("direction", str), ("kind", str | None)])):
    """A model-class parameter; a ``kind`` of None means unkinded (inline-model parameters)."""

    __slots__ = ()

    def __new__(cls, name: str, direction: str, kind: str | None = None) -> ParamDecl:
        if direction not in ("input", "output"):
            raise ValidationError(f"parameter direction must be input/output, got {direction!r}")
        if kind is not None and kind not in KINDS:
            raise ValidationError(f"unknown parameter kind {kind!r}")
        return tuple.__new__(cls, (name, direction, kind))


class ModelClass(_Record):
    """A solvable, parameterized model template with a declared interface:
    ``formalism`` is "BAYES" or "CTMC", ``template`` a builtin name or an inline model."""

    __slots__ = ("name", "formalism", "params", "template")

    @property
    def inputs(self) -> tuple[ParamDecl, ...]:
        return tuple(p for p in self.params if p.direction == "input")

    @property
    def outputs(self) -> tuple[ParamDecl, ...]:
        return tuple(p for p in self.params if p.direction == "output")

    def output_kind(self, name: str) -> str | None:
        for p in self.outputs:
            if p.name == name:
                return p.kind
        raise ValidationError(f"model class {self.name!r} has no output {name!r}")


class ModelInstance(_Record):
    __slots__ = ("name", "class_name", "bindings")

    def __init__(self, name: str, class_name: str, bindings: Mapping[str, Expr]) -> None:
        super().__init__(name, class_name, dict(bindings))


class Export(NamedTuple):
    name: str
    expr: Expr


class Workflow(_Record):
    """A named DAG of model instances plus exported output expressions."""

    __slots__ = ("name", "classes", "instances", "exports")

    def __init__(self, name: str, classes: Iterable[ModelClass] = (),
                 instances: Iterable[ModelInstance] = (), exports: Iterable[Export] = ()) -> None:
        super().__init__(name, tuple(classes), tuple(instances), tuple(exports))


class SolveResult(NamedTuple):
    """Solved output values per instance, export values, and provenance notes."""

    instances: Mapping[str, Mapping[str, float]]
    exports: Mapping[str, float]
    provenance: tuple[str, ...]


def builtin_classes() -> dict[str, ModelClass]:
    """Model classes for the registered builtin templates."""
    classes: dict[str, ModelClass] = {}
    for name, spec in nmr.BUILTIN_TEMPLATES.items():
        params = tuple(
            ParamDecl(pname, "input", kind) for pname, kind in spec.inputs
        ) + tuple(ParamDecl(pname, "output", kind) for pname, kind in spec.outputs)
        classes[name] = ModelClass(name, spec.formalism, params, name)
    return classes


def class_from_inline(template: InlineCtmc | InlineBayes) -> ModelClass:
    """Derive the interface of an inline model definition.

    Inline chain inputs are the free parameter names of its rate expressions,
    in first appearance order, left unkinded so that quantities of any kind
    can feed a rate formula. Outputs are the steady-state probability of each
    state (``pi_<state>``) for chains and every per-state marginal
    (``p_<node>_<state>``) for networks.
    """
    params: list[ParamDecl] = []
    if isinstance(template, InlineCtmc):
        seen: dict[str, None] = {}
        for _, _, expr in template.rates:
            for p in expr_params(expr):
                seen.setdefault(p.name, None)
        params.extend(ParamDecl(name, "input", None) for name in seen)
        params.extend(
            ParamDecl(f"pi_{state}", "output", "probability") for state in template.states
        )
        return ModelClass(template.name, "CTMC", tuple(params), template)
    if isinstance(template, InlineBayes):
        for node in template.nodes:
            params.extend(
                ParamDecl(f"p_{node.id}_{state}", "output", "probability")
                for state in node.states
            )
        return ModelClass(template.name, "BAYES", tuple(params), template)
    raise ValidationError(f"unknown inline template {template!r}")


def inline_bayes_net(template: InlineBayes) -> bayes.BayesNet:
    """Instantiate an inline network definition; raises on malformed tables."""
    variables = _inline_variables(template)
    node_states = {node.id: node.states for node in template.nodes}
    cpts = []
    for node in template.nodes:
        combos = itertools.product(*(node_states[p] for p in node.parents))
        width = len(node.states)
        rows = {combo: node.cpt[i * width:(i + 1) * width] for i, combo in enumerate(combos)}
        cpts.append(bayes.Cpt(node.id, node.parents, rows))
    return bayes.build_net(variables, cpts)


def _inline_variables(template: InlineBayes) -> list[bayes.Variable]:
    """The network's variables, once its nodes are known to be well formed:
    valid state labels, unique ids, declared parents, and one table entry
    per state and parent-state combination."""
    variables = []
    for j, node in enumerate(template.nodes):
        try:
            variables.append(bayes.Variable(node.id, node.states))
        except ValidationError as exc:
            raise ValidationError(str(exc), ("nodes", j)) from None
    try:
        bayes.check_nodes(tuple((n.id, n.parents, len(n.states)) for n in template.nodes))
    except ValidationError as exc:
        raise ValidationError(str(exc), ("nodes", *exc.element)) from None
    cards = {node.id: len(node.states) for node in template.nodes}
    for j, node in enumerate(template.nodes):
        expected = math.prod(cards[p] for p in node.parents) * len(node.states)
        if len(node.cpt) != expected:
            raise ValidationError(
                f"node {node.id!r} needs {expected} table entries, got {len(node.cpt)}",
                ("nodes", j),
            )
    return variables


def _check_chain(template: InlineCtmc) -> None:
    """An inline chain's shape, every rate pair counted whatever its rate,
    and rate expressions that use only the model's own parameters."""
    try:
        ctmc.check_structure(
            template.states, template.initial, [(src, dst) for src, dst, _ in template.rates]
        )
    except ValidationError as exc:
        # the chain's j-th transition is the template's j-th rate
        element = tuple("rates" if part == "transitions" else part for part in exc.element)
        raise ValidationError(str(exc), element) from None
    for j, (src, dst, expr) in enumerate(template.rates):
        for ref in expr_refs(expr):
            raise ValidationError(
                f"rate {src} -> {dst} references {ref.instance}.{ref.output}; "
                "rate expressions may only use the model's own parameters",
                ("rates", j),
            )


def _check_class(cls: ModelClass) -> None:
    if isinstance(cls.template, InlineCtmc):
        _check_chain(cls.template)
    elif isinstance(cls.template, InlineBayes):
        _inline_variables(cls.template)
    declared: set[str] = set()
    for param in cls.params:
        if param.name in declared:
            raise ValidationError(f"parameter {param.name!r} is declared twice")
        declared.add(param.name)


def check_records(workflow: Workflow) -> None:
    """Check the facts that the workflow's own records settle: unique model,
    instance and export names, and well-formed model classes.

    :func:`validate_workflow` runs this first, and the `.rvm` parser runs it
    on the records it builds. A failure's ``element`` is the path of the
    failing record in ``workflow``, such as ``("classes", 0, "rates", 2)``.
    """
    for field_name, what in (("classes", "model"), ("instances", "instance"),
                             ("exports", "export")):
        seen: set[str] = set()
        for i, item in enumerate(getattr(workflow, field_name)):
            if item.name in seen:
                raise ValidationError(f"duplicate {what} name {item.name!r}", (field_name, i))
            seen.add(item.name)
    for i, cls in enumerate(workflow.classes):
        try:
            _check_class(cls)
        except ValidationError as exc:
            raise ValidationError(
                f"model {cls.name!r}: {exc}", ("classes", i, *exc.element)
            ) from None


# --- validation ---------------------------------------------------------------


class ValidatedWorkflow(NamedTuple):
    """A workflow with its class map resolved and topological order cached."""

    workflow: Workflow
    order: tuple[str, ...]
    class_map: Mapping[str, ModelClass]

    def instance_class(self, instance: ModelInstance) -> ModelClass:
        return self.class_map[instance.class_name]


def _resolve_classes(workflow: Workflow) -> dict[str, ModelClass]:
    classes = builtin_classes()
    for cls in workflow.classes:  # names are unique, as check_records made sure
        if cls.name in classes:
            raise ValidationError(
                f"model {cls.name!r} shadows a builtin template of the same name"
            )
        classes[cls.name] = cls
    return classes


def _check_bindings(
    instance: ModelInstance,
    cls: ModelClass,
    by_name: Mapping[str, ModelInstance],
    classes: Mapping[str, ModelClass],
) -> None:
    declared = {p.name: p for p in cls.inputs}
    for pname in instance.bindings:
        if pname not in declared:
            raise ValidationError(
                f"instance {instance.name!r} binds unknown input {pname!r} "
                f"of class {cls.name!r}"
            )
    unbound = [p.name for p in cls.inputs if p.name not in instance.bindings]
    if unbound:
        raise ValidationError(
            f"instance {instance.name!r} leaves inputs unbound: {', '.join(unbound)}"
        )
    for pname, expr in instance.bindings.items():
        decl = declared[pname]
        for param in expr_params(expr):
            raise ValidationError(
                f"instance {instance.name!r}: binding for {pname!r} uses bare "
                f"name {param.name!r}; workflow bindings must reference "
                "instance outputs as <instance>.<output>"
            )
        for ref in expr_refs(expr):
            if ref.instance not in by_name:
                raise ValidationError(
                    f"instance {instance.name!r}: binding for {pname!r} references "
                    f"unknown instance {ref.instance!r}"
                )
            src_cls = classes[by_name[ref.instance].class_name]
            src_kind = src_cls.output_kind(ref.output)  # raises if absent
            if isinstance(expr, Ref) and src_kind and decl.kind and src_kind != decl.kind:
                raise ValidationError(
                    f"instance {instance.name!r}: input {pname!r} expects a "
                    f"{decl.kind}, but {ref.instance}.{ref.output} is a {src_kind}"
                )
        if isinstance(expr, Literal):
            _check_literal(instance.name, decl, expr.value)


def _check_literal(instance: str, decl: ParamDecl, value: float) -> None:
    """A literal bound to an input must be finite and lie in the range of ``decl.kind``."""
    if not math.isfinite(value):
        raise ValidationError(
            f"instance {instance!r}: input {decl.name!r} must be finite, got {value!r}"
        )
    if decl.kind in ("probability", "ratio") and not 0.0 <= value <= 1.0:
        raise ValidationError(
            f"instance {instance!r}: {decl.kind} input {decl.name!r} "
            f"must lie in [0, 1], got {value!r}"
        )
    if decl.kind == "rate" and value < 0.0:
        raise ValidationError(
            f"instance {instance!r}: rate input {decl.name!r} "
            f"must be non-negative, got {value!r}"
        )


def _topological_order(workflow: Workflow) -> tuple[str, ...]:
    """Solve order: first in, first out over the ready instances, and the
    instances that one solve makes ready queue up in declaration order."""
    position = {inst.name: i for i, inst in enumerate(workflow.instances)}
    sorter = graphlib.TopologicalSorter()
    for inst in workflow.instances:
        sorter.add(inst.name, *(ref.instance for expr in inst.bindings.values()
                                for ref in expr_refs(expr)))
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        raise ValidationError(f"binding cycle: {' -> '.join(exc.args[1])}") from None
    order: list[str] = []
    ready = deque(sorted(sorter.get_ready(), key=position.__getitem__))
    while ready:
        name = ready.popleft()
        order.append(name)
        sorter.done(name)
        ready.extend(sorted(sorter.get_ready(), key=position.__getitem__))
    return tuple(order)


def validate_workflow(workflow: Workflow) -> ValidatedWorkflow:
    """Check every workflow invariant and cache the topological solve order.

    Raises:
        ValidationError: a fault :func:`check_records` finds, an inline
            model that shadows a builtin, unknown classes or templates,
            malformed inline network tables, unbound or unknown inputs, kind
            mismatches on direct output-to-input references, dangling export
            references, or a cyclic binding graph.
    """
    check_records(workflow)
    classes = _resolve_classes(workflow)

    by_name = {inst.name: inst for inst in workflow.instances}
    for inst in workflow.instances:
        if inst.class_name not in classes:
            raise ValidationError(
                f"instance {inst.name!r} references unknown model class or "
                f"template {inst.class_name!r}"
            )

    # inline networks are input-free, so their tables can be checked statically
    for cls in workflow.classes:
        if isinstance(cls.template, InlineBayes):
            inline_bayes_net(cls.template)

    for inst in workflow.instances:
        _check_bindings(inst, classes[inst.class_name], by_name, classes)

    for export in workflow.exports:
        for param in expr_params(export.expr):
            raise ValidationError(
                f"export {export.name!r} uses bare name {param.name!r}; exports "
                "must reference instance outputs as <instance>.<output>"
            )
        for ref in expr_refs(export.expr):
            if ref.instance not in by_name:
                raise ValidationError(
                    f"export {export.name!r} references unknown instance {ref.instance!r}"
                )
            classes[by_name[ref.instance].class_name].output_kind(ref.output)

    order = _topological_order(workflow)
    return ValidatedWorkflow(workflow, order, classes)


# --- execution ----------------------------------------------------------------


def _solve_instance(
    inst: ModelInstance,
    cls: ModelClass,
    values: Mapping[str, float],
) -> tuple[dict[str, float], str]:
    if isinstance(cls.template, str):
        spec = nmr.BUILTIN_TEMPLATES[cls.template]
        outputs = spec.solve(values)
        return outputs, f"{inst.name}: {cls.name} via {spec.description}"
    if isinstance(cls.template, InlineCtmc):
        template = cls.template
        transitions = []
        for src, dst, expr in template.rates:
            rate = eval_expr(expr, lambda leaf: values[leaf.name])
            if not rate >= 0.0:  # NaN fails too
                raise SolverError(
                    f"rate {src} -> {dst} evaluated to {rate!r}; rates must be non-negative numbers"
                )
            if rate > 0.0:
                transitions.append(ctmc.Transition(src, dst, rate))
        chain = ctmc.Ctmc(template.states, template.initial, tuple(transitions))
        pi = ctmc.steady_state(chain)
        outputs = {f"pi_{state}": pi[state] for state in template.states}
        return outputs, f"{inst.name}: inline chain {template.name} via GTH steady state"
    if isinstance(cls.template, InlineBayes):
        dists = bayes.posteriors(inline_bayes_net(cls.template), {})
        outputs = {}
        for node in cls.template.nodes:
            for state in node.states:
                outputs[f"p_{node.id}_{state}"] = dists[node.id][state]
        return outputs, (
            f"{inst.name}: inline network {cls.template.name} via variable elimination"
        )
    raise ValidationError(f"instance {inst.name!r} has an unsolvable template")


def _evaluate(expr: Expr, solved: Mapping[str, Mapping[str, float]]) -> float:
    """Evaluate a binding or export expression over solved instance outputs."""
    return eval_expr(expr, lambda ref: solved[ref.instance][ref.output])


def _require_finite(what: str, values: Mapping[str, float]) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise SolverError(f"{what} {name!r} is {value!r}; figures must be finite")


def run_workflow(workflow: Workflow | ValidatedWorkflow) -> SolveResult:
    """Solve all instances in topological order and evaluate the exports.

    The result is fully deterministic, and identical for every admissible
    topological order. A non-finite instance output or export raises
    :class:`SolverError`.
    """
    validated = workflow if isinstance(workflow, ValidatedWorkflow) else validate_workflow(workflow)
    wf = validated.workflow
    by_name = {inst.name: inst for inst in wf.instances}

    solved: dict[str, dict[str, float]] = {}
    notes: list[str] = []
    for name in validated.order:
        inst = by_name[name]
        cls = validated.instance_class(inst)
        values = {pname: _evaluate(expr, solved) for pname, expr in inst.bindings.items()}
        try:
            outputs, note = _solve_instance(inst, cls, values)
        except RedvoteError as exc:
            raise SolverError(f"instance {inst.name!r}: {exc}") from exc
        _require_finite(f"instance {inst.name!r} output", outputs)
        solved[name] = outputs
        notes.append(note)

    exports = {export.name: _evaluate(export.expr, solved) for export in wf.exports}
    _require_finite("export", exports)
    return SolveResult(instances=solved, exports=exports, provenance=tuple(notes))


def instance_net(validated: ValidatedWorkflow, result: SolveResult, name: str) -> bayes.BayesNet:
    """The network of the BAYES instance ``name``, its inputs evaluated over
    ``result``, the outputs of ``run_workflow(validated)``."""
    by_name = {inst.name: inst for inst in validated.workflow.instances}
    if name not in by_name:
        raise ValidationError(f"unknown instance {name!r}")
    inst = by_name[name]
    cls = validated.instance_class(inst)
    if cls.formalism != "BAYES":
        raise ValidationError(
            f"instance {name!r} is a {cls.formalism} model; posteriors need a BAYES instance"
        )
    if isinstance(cls.template, InlineBayes):
        return inline_bayes_net(cls.template)
    values = {pname: _evaluate(expr, result.instances) for pname, expr in inst.bindings.items()}
    return nmr.build_failure_bn(nmr.failure_params(values))


def sweep(
    workflow: Workflow | ValidatedWorkflow,
    parameter: str,
    factors: Iterable[float],
) -> list[SolveResult]:
    """Re-run the workflow with a literal-bound input scaled by each factor.

    ``parameter`` is an ``instance.input`` path. Reference-bound inputs are
    derived values and cannot be swept; asking for one is an error. The
    workflow is validated once; at each point only the scaled literal's
    range is checked again, since nothing else changes.
    """
    validated = workflow if isinstance(workflow, ValidatedWorkflow) else validate_workflow(workflow)
    wf = validated.workflow
    if "." not in parameter:
        raise ValidationError(
            f"sweep parameter must look like <instance>.<input>, got {parameter!r}"
        )
    inst_name, pname = parameter.split(".", 1)
    by_name = {inst.name: inst for inst in wf.instances}
    if inst_name not in by_name:
        raise ValidationError(f"sweep references unknown instance {inst_name!r}")
    inst = by_name[inst_name]
    if pname not in inst.bindings:
        raise ValidationError(
            f"instance {inst_name!r} has no binding for input {pname!r}"
        )
    binding = inst.bindings[pname]
    if not isinstance(binding, Literal):
        raise ValidationError(
            f"{parameter} is not literal-bound; a derived value cannot be swept"
        )

    decl = next(p for p in validated.instance_class(inst).inputs if p.name == pname)

    results: list[SolveResult] = []
    for factor in factors:
        value = binding.value * float(factor)
        _check_literal(inst_name, decl, value)
        bindings = {**inst.bindings, pname: Literal(value)}
        new_inst = ModelInstance(inst_name, inst.class_name, bindings)
        instances = tuple(new_inst if i.name == inst_name else i for i in wf.instances)
        point = Workflow(wf.name, wf.classes, instances, wf.exports)
        results.append(run_workflow(validated._replace(workflow=point)))
    return results
