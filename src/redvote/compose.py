"""Model classes, parameter bindings, and sequential workflow composition.

A workflow is a DAG of model instances. Each instance belongs to a model
class: a chain or a network whose rates or table entries are expressions
over its typed inputs, and a table of what each output reads off the
solution. A network's nodes are the :class:`bayes.Node` records that
:func:`bayes.build_net` takes, with expressions for entries. The builtin
classes (built in :mod:`redvote.nmr`) and those a `.rvm` file defines go
through one path per formalism: :func:`instantiate` and :func:`solve`. A
class states each output once, as a row of that table, and every output is
a probability. Inputs are bound to literals or to scalar expressions over
other instances' outputs; running the workflow solves the instances in
topological order, range-checking each kinded input and feeding solved
outputs forward, then evaluates the exported expressions.

Only this results-feed-instantiation style of composition is implemented;
operators that rewrite the composed models themselves are out of scope, as
is any coupling through shared states or actions. Every record here is a
``namedtuple``.
"""

from __future__ import annotations

import graphlib
import itertools
import math
import types
from collections import deque, namedtuple
from typing import Callable, Iterable, Iterator, Mapping

from . import bayes, ctmc
from .errors import TINY, Checked, RedvoteError, SolverError, ValidationError

KINDS = ("probability", "rate", "ratio")


# --- scalar expressions ------------------------------------------------------


class Expr:
    """Base class of the scalar expression AST (+, -, *, / and constants).

    Equality is exact in type, so a ``Param("x")`` never equals a
    ``Literal("x")`` or a tuple."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Literal(Expr, namedtuple("Literal", "value")):
    __slots__ = ()


#: The range of a literal, and of every reported figure, in its one wording.
LITERAL_RANGE = f"a literal is 0, or finite and at least {TINY!r}"


def literal_in_range(value: float) -> bool:
    """Whether ``value`` lies in :data:`LITERAL_RANGE`; -0.0 is 0."""
    return value == 0.0 or TINY <= value < math.inf


class Ref(Expr, namedtuple("Ref", "instance output")):
    """A reference to another instance's output parameter."""

    __slots__ = ()


class Param(Expr, namedtuple("Param", "name")):
    """A bare parameter name: a model's input, inside its rates or table entries."""

    __slots__ = ()


class BinOp(Expr, namedtuple("BinOp", "op left right")):  # op is one of + - * /
    __slots__ = ()


def expr_leaves(expr: Expr, kind: type[Ref] | type[Param]) -> Iterator[Expr]:
    """The leaves of ``expr`` of type ``kind``, left to right."""
    if isinstance(expr, kind):
        yield expr
    elif isinstance(expr, BinOp):
        yield from expr_leaves(expr.left, kind)
        yield from expr_leaves(expr.right, kind)


def eval_expr(expr: Expr, lookup: Callable[[Expr], float]) -> float:
    """Evaluate an expression; Ref and Param leaves resolve through ``lookup``.
    A zero divisor, or nonzero operands whose product or quotient is 0 or
    subnormal, raise :class:`SolverError`."""
    kind = type(expr)  # every sweep point evaluates each rate and table expression
    if kind is Literal:
        return expr.value
    if kind is Ref or kind is Param:
        return lookup(expr)
    if kind is BinOp:
        left = eval_expr(expr.left, lookup)
        right = eval_expr(expr.right, lookup)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            value = left * right
        elif expr.op == "/":
            if right == 0.0:
                raise SolverError("division by zero")
            value = left / right
        else:
            raise ValidationError(f"unknown operator {expr.op!r}")
        if value < TINY and -TINY < value and left and right:  # one comparison if positive
            raise SolverError(f"{left!r} {expr.op} {right!r} underflows to {value!r}")
        return value
    raise ValidationError(f"unknown expression node {expr!r}")


# --- inline model templates --------------------------------------------------


class InlineCtmc(namedtuple("InlineCtmc", "name states initial rates")):
    """A chain: its states, the initial one, and ``(src, dst, expr)`` rates,
    which may reference the class's input parameters."""

    __slots__ = ()


class InlineBayes(namedtuple("InlineBayes", "name nodes")):
    """A network of :class:`bayes.Node` records whose ``cpt`` lists its
    table's entries as expressions, in the table's layout; an entry may
    reference the class's input parameters."""

    __slots__ = ()


# --- model classes and workflows ---------------------------------------------


class ParamDecl(Checked, namedtuple("ParamDecl", "name kind")):
    """A model-class input; a ``kind`` of None means unkinded (inline-model inputs)."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str | None = None) -> ParamDecl:
        if kind is not None and kind not in KINDS:
            raise ValidationError(f"unknown parameter kind {kind!r}")
        return tuple.__new__(cls, (name, kind))


class ModelClass(namedtuple("ModelClass", "name inputs template reads requires description")):
    """A solvable, parameterized model with a declared interface.

    ``template`` is the chain or the network and ``inputs`` declares the
    parameters its expressions read. ``reads`` names each output and says
    what it reads off the solution: ``(output, state)`` of a chain's steady
    state, ``(output, node, state)`` of a network's marginals; either is a
    probability. ``requires`` holds ``(label, expr)`` facts of the inputs:
    each ``expr`` must come out positive. ``description`` names the class
    and its solver in provenance notes.
    """

    __slots__ = ()


class ModelInstance(Checked, namedtuple("ModelInstance", "name class_name bindings")):
    __slots__ = ()

    def __new__(cls, name: str, class_name: str, bindings: Mapping[str, Expr]) -> ModelInstance:
        return tuple.__new__(cls, (name, class_name, dict(bindings)))


class Export(namedtuple("Export", "name expr")):
    """A named expression over instance outputs that the workflow reports."""

    __slots__ = ()


class Workflow(Checked, namedtuple("Workflow", "name classes instances exports")):
    """A named DAG of model instances plus exported output expressions."""

    __slots__ = ()

    def __new__(cls, name: str, classes: Iterable[ModelClass] = (),
                instances: Iterable[ModelInstance] = (),
                exports: Iterable[Export] = ()) -> Workflow:
        return tuple.__new__(cls, (name, tuple(classes), tuple(instances), tuple(exports)))


class SolveResult(namedtuple("SolveResult", "instances exports provenance")):
    """Solved output values per instance, export values, and provenance notes."""

    __slots__ = ()


def builtin_classes() -> dict[str, ModelClass]:
    """The builtin model classes by name: :data:`redvote.nmr.FAILURE_CLASS`
    and :data:`redvote.nmr.MAINTENANCE_CLASSES`, each built once at import."""
    from . import nmr  # nmr builds its records from this module's, so not at import

    return {cls.name: cls for cls in (nmr.FAILURE_CLASS, *nmr.MAINTENANCE_CLASSES.values())}


def _template_exprs(template: InlineCtmc | InlineBayes) -> Iterator[tuple[tuple, str, Expr]]:
    """A chain's rate expressions, or a network's table entries, each with
    the path of its rate or node in the template and that element's name."""
    if isinstance(template, InlineCtmc):
        for j, (src, dst, expr) in enumerate(template.rates):
            yield ("rates", j), f"rate {src} -> {dst}", expr
    else:
        for j, node in enumerate(template.nodes):
            for expr in node.cpt:
                yield ("nodes", j), f"node {node.id!r}", expr


def _class_exprs(cls: ModelClass) -> Iterator[tuple[tuple, str, Expr]]:
    """The template expressions of ``cls``, then each ``requires`` fact
    with its path in the class and its label."""
    yield from _template_exprs(cls.template)
    for j, (label, expr) in enumerate(cls.requires):
        yield ("requires", j), label, expr


def read_inputs(cls: ModelClass) -> set[str]:
    """The inputs of ``cls`` that a rate, a table entry or a ``requires``
    fact reads; the value of any other input changes no output."""
    return {p.name for *_, expr in _class_exprs(cls) for p in expr_leaves(expr, Param)}


def class_from_inline(template: InlineCtmc | InlineBayes) -> ModelClass:
    """Derive the interface of an inline model definition.

    Inputs are the free parameter names of its rate expressions or table
    entries, in first appearance order, left unkinded so that quantities of
    any kind can feed a formula. Outputs are the steady-state probability of
    each state (``pi_<state>``) for chains and every per-state marginal
    (``p_<node>_<state>``) for networks.
    """
    if isinstance(template, InlineCtmc):
        reads: tuple[tuple[str, ...], ...] = tuple(
            (f"pi_{state}", state) for state in template.states
        )
        description = f"inline chain {template.name} via GTH steady state"
    elif isinstance(template, InlineBayes):
        reads = tuple((f"p_{node.id}_{state}", node.id, state)
                      for node in template.nodes for state in node.states)
        description = f"inline network {template.name} via variable elimination"
    else:
        raise ValidationError(f"unknown inline template {template!r}")
    inputs = dict.fromkeys(p.name for *_, expr in _template_exprs(template)
                           for p in expr_leaves(expr, Param))
    return ModelClass(template.name, tuple(map(ParamDecl, inputs)), template, reads, (),
                      description)


def inline_chain(template: InlineCtmc, values: Mapping[str, float]) -> ctmc.Ctmc:
    """The chain with its inputs set to ``values``. A rate of exactly zero
    is an absent transition, and :class:`ctmc.Ctmc` checks every other one;
    a zero divisor or an underflow in a rate raises :class:`SolverError`
    naming it."""
    transitions = []
    for src, dst, expr in template.rates:
        try:
            rate = eval_expr(expr, lambda leaf: values[leaf.name])
        except SolverError as exc:
            raise SolverError(f"rate {src} -> {dst}: {exc}") from None
        if rate != 0.0:  # NaN too, for Ctmc to refuse
            transitions.append(ctmc.Transition(src, dst, rate))
    return ctmc.Ctmc(template.states, template.initial, transitions)


#: The first successful build of each network template, and its refill
#: (:func:`_refill`). Keyed by the template's ``id``: hashing the failure
#: network's template would cost 5 to 9 microseconds a build (2-core
#: container, CPython 3.11). Each entry keeps its template alive, so no other
#: object takes that ``id`` while the entry stands. Bounded like the plan
#: caches.
_NETS: dict[int, tuple[InlineBayes, bayes.BayesNet, Callable[..., dict[int, tuple]]]] = {}


def _refill(template: InlineBayes) -> Callable[..., dict[int, tuple]]:
    """``r(values)``: by node position, the tables of ``template`` that read
    an input, having an entry that is not a :class:`Literal`. Straight-line
    code evaluates each entry with :func:`eval_expr`'s operations, operands
    and order, but raises :class:`ZeroDivisionError` where it raises
    :class:`SolverError`: on a zero divisor, and on a product or quotient of
    nonzero operands that is 0 or subnormal. The source holds only numbers:
    each literal value and each parameter name that a leaf reads is a
    default argument."""
    leaves, lines, temps, tiny = [], [], itertools.count(), ""

    def emit(expr: Expr) -> str:
        nonlocal tiny
        if type(expr) is BinOp:  # the operator is looked up, never copied from the template
            left, right = emit(expr.left), emit(expr.right)
            op, name = dict(zip("+-*/", "+-*/"))[expr.op], f"t{next(temps)}"
            lines.append(f"{name} = {left} {op} {right}")
            if op in "*/":  # eval_expr's underflow test; 0 / 0 raises with no name to look up
                tiny = tiny or emit(Literal(TINY))
                lines.append(f"if {name} < {tiny} and -{tiny} < {name} and {left} and {right}:"
                             " 0 / 0")
            return name
        leaves.append(expr.value if type(expr) is Literal else expr.name)
        return f"c{len(leaves) - 1}" if type(expr) is Literal else f"v[c{len(leaves) - 1}]"

    tables = [f"{j}: ({''.join(emit(e) + ', ' for e in node.cpt)})" for j, node
              in enumerate(template.nodes) if any(type(e) is not Literal for e in node.cpt)]
    body = "\n ".join([*lines, f"return {{{', '.join(tables)}}}"])
    code = compile(f"def r(v{''.join(f', c{i}' for i in range(len(leaves)))}):\n {body}",
                   "<refill>", "exec")
    return types.FunctionType(code.co_consts[0], {}, "r", tuple(leaves))


def inline_bayes_net(template: InlineBayes, values: Mapping[str, float]) -> bayes.BayesNet:
    """The network with its inputs set to ``values``; a node's evaluated
    entries are its table, in the same layout. Every entry of a build is
    checked, so an entry outside [0, 1] or a row that does not sum to 1
    raises :class:`ValidationError`; a zero divisor or an underflow in an
    entry raises :class:`SolverError` naming the node. The first build of a
    template that succeeds goes through :func:`bayes.build_net` and is kept,
    with the template's :func:`_refill`. A later build of the same template
    object puts the refill's tables into the kept net with
    :func:`bayes.with_tables`, which checks only those; where the refill
    raises it falls back to :func:`eval_expr` on every entry, which names
    the node."""
    kept, net, refill = _NETS.get(id(template), (None, None, None))
    if kept is template:
        try:
            return bayes.with_tables(net, refill(values))
        except ZeroDivisionError:  # eval_expr, below, names the node
            pass
    tables = []
    for node in template.nodes:
        try:
            tables.append([eval_expr(e, lambda p: values[p.name]) for e in node.cpt])
        except SolverError as exc:
            raise SolverError(f"node {node.id!r}: {exc} in a table entry") from None
    net = bayes.build_net(node._replace(cpt=table) for node, table in zip(template.nodes, tables))
    if len(_NETS) >= bayes.PLAN_CACHE_SIZE:
        _NETS.clear()  # one call, safe while other threads build
    _NETS[id(template)] = template, net, _refill(template)
    return net


def _check_class(cls: ModelClass) -> None:
    """A class's template, as :func:`ctmc.check_structure` (every rate row
    counted whatever its rate) or :func:`bayes.check_structure` checks it,
    outputs that read states of it, expressions that use only the model's
    declared inputs, and parameter names declared once."""
    template, chain = cls.template, isinstance(cls.template, InlineCtmc)
    try:
        if chain:
            ctmc.check_structure(template.states, template.initial, template.rates)
        else:
            bayes.check_structure(template.nodes)
    except ValidationError as exc:
        # a chain's j-th transition is the template's j-th rate; a network's j-th node, its own
        element = (tuple("rates" if part == "transitions" else part for part in exc.element)
                   if chain else ("nodes", *exc.element))
        raise ValidationError(str(exc), element) from None
    readable = ({(state,) for state in template.states} if chain
                else {(node.id, state) for node in template.nodes for state in node.states})
    for j, (output, *where) in enumerate(cls.reads):
        if tuple(where) not in readable:  # a network's reads name node and state
            raise ValidationError(f"output {output!r} reads {'='.join(where)!r}, "
                                  "which is not a state of the template", ("reads", j))
    inputs = {p.name for p in cls.inputs}
    for path, owner, expr in _class_exprs(cls):
        for ref in expr_leaves(expr, Ref):
            what = {"rates": "rate expressions", "nodes": "table entries",
                    "requires": "requires facts"}[path[0]]
            raise ValidationError(f"{owner} references {ref.instance}.{ref.output}; "
                                  f"{what} may only use the model's own parameters", path)
        for param in expr_leaves(expr, Param):
            if param.name not in inputs:
                raise ValidationError(f"{owner} reads undeclared input {param.name!r}", path)
    declared: set[str] = set()
    for name in [p.name for p in cls.inputs] + [read[0] for read in cls.reads]:
        if name in declared:
            raise ValidationError(f"parameter {name!r} is declared twice")
        declared.add(name)


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


class ValidatedWorkflow(namedtuple("ValidatedWorkflow", "order instances exports")):
    """A workflow as running reads it: the solve ``order`` of instance
    names, each instance with its class as ``(instance, class)`` by instance
    name, and each export's expression by export name. The classes are
    resolved once, by :func:`validate_workflow`; :func:`sweep` replaces one
    entry of ``instances`` per point."""

    __slots__ = ()


def _resolve_classes(workflow: Workflow) -> dict[str, ModelClass]:
    classes = builtin_classes()
    for cls in workflow.classes:  # names are unique, as check_records made sure
        if cls.name in classes:
            raise ValidationError(
                f"model {cls.name!r} shadows a builtin template of the same name"
            )
        classes[cls.name] = cls
    return classes


def _check_refs(
    expr: Expr, where: str, what: str, instances: Mapping[str, tuple[ModelInstance, ModelClass]]
) -> None:
    """Check that ``expr``, the expression of ``where``, names no bare
    parameter and references existing outputs of known instances only;
    ``what`` names such expressions in the message."""
    for param in expr_leaves(expr, Param):
        raise ValidationError(f"{where} uses bare name {param.name!r}; {what} must "
                              "reference instance outputs as <instance>.<output>")
    for ref in expr_leaves(expr, Ref):
        if ref.instance not in instances:
            raise ValidationError(f"{where} references unknown instance {ref.instance!r}")
        cls = instances[ref.instance][1]
        if all(read[0] != ref.output for read in cls.reads):
            raise ValidationError(f"{where} references {ref.instance}.{ref.output}, but "
                                  f"model class {cls.name!r} has no output {ref.output!r}")


def _check_bindings(instance: ModelInstance, cls: ModelClass,
                    instances: Mapping[str, tuple[ModelInstance, ModelClass]]) -> None:
    _check_names(cls, instance.bindings, f"instance {instance.name!r}")
    declared = {p.name: p for p in cls.inputs}
    for pname, expr in instance.bindings.items():
        decl = declared[pname]
        _check_refs(expr, f"instance {instance.name!r}: binding for {pname!r}",
                    "workflow bindings", instances)
        # every output is a probability
        if isinstance(expr, Ref) and decl.kind in ("rate", "ratio"):
            raise ValidationError(
                f"instance {instance.name!r}: input {pname!r} expects a "
                f"{decl.kind}, but {expr.instance}.{expr.output} is a probability"
            )
        if isinstance(expr, Literal):
            _check_literal(instance.name, decl, expr.value)


def _check_names(cls: ModelClass, names: Mapping[str, object], owner: str) -> None:
    """``names``, which ``owner`` binds, must be the inputs of ``cls``: none
    unknown, none unbound."""
    declared = {p.name for p in cls.inputs}
    for pname in names:
        if pname not in declared:
            raise ValidationError(f"{owner} binds unknown input {pname!r} of class {cls.name!r}")
    unbound = [p.name for p in cls.inputs if p.name not in names]
    if unbound:
        raise ValidationError(f"{owner} leaves inputs unbound: {', '.join(unbound)}")


def _check_input(decl: ParamDecl, value: float) -> None:
    """A value bound to an input must be finite and lie in the range of
    ``decl.kind``; :func:`instantiate` checks every kinded input."""
    if not math.isfinite(value):
        raise ValidationError(f"input {decl.name!r} must be finite, got {value!r}")
    if decl.kind in ("probability", "ratio") and not 0.0 <= value <= 1.0:
        raise ValidationError(
            f"{decl.kind} input {decl.name!r} must lie in [0, 1], got {value!r}"
        )
    if decl.kind == "rate" and value < 0.0:
        raise ValidationError(f"rate input {decl.name!r} must be non-negative, got {value!r}")


def _check_literal(instance: str, decl: ParamDecl, value: float) -> None:
    """:func:`_check_input` of a literal bound to ``instance``, before any solve."""
    try:
        _check_input(decl, value)
    except ValidationError as exc:
        raise ValidationError(f"instance {instance!r}: {exc}") from None


def _topological_order(workflow: Workflow) -> tuple[str, ...]:
    """Solve order: first in, first out over the ready instances, and the
    instances that one solve makes ready queue up in declaration order."""
    position = {inst.name: i for i, inst in enumerate(workflow.instances)}
    sorter = graphlib.TopologicalSorter()
    for inst in workflow.instances:
        sorter.add(inst.name, *(ref.instance for expr in inst.bindings.values()
                                for ref in expr_leaves(expr, Ref)))
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
    """Check every workflow invariant, resolve each instance's class and
    cache the topological solve order.

    Raises:
        ValidationError: a fault :func:`check_records` finds, an inline
            model that shadows a builtin, unknown classes or templates,
            malformed tables of a network without inputs, unbound or unknown
            inputs, kind mismatches on direct output-to-input references,
            dangling export references, or a cyclic binding graph.
    """
    check_records(workflow)
    classes = _resolve_classes(workflow)

    instances: dict[str, tuple[ModelInstance, ModelClass]] = {}
    for inst in workflow.instances:
        if inst.class_name not in classes:
            raise ValidationError(
                f"instance {inst.name!r} references unknown model class or "
                f"template {inst.class_name!r}"
            )
        instances[inst.name] = inst, classes[inst.class_name]

    # a network without inputs has fixed tables, so they can be checked statically
    for cls in workflow.classes:
        if isinstance(cls.template, InlineBayes) and not cls.inputs:
            try:
                inline_bayes_net(cls.template, {})
            except RedvoteError as exc:
                raise ValidationError(f"model {cls.name!r}: {exc}") from None

    for inst, cls in instances.values():
        _check_bindings(inst, cls, instances)

    for export in workflow.exports:
        _check_refs(export.expr, f"export {export.name!r}", "exports", instances)

    return ValidatedWorkflow(_topological_order(workflow), instances,
                             {export.name: export.expr for export in workflow.exports})


# --- execution ----------------------------------------------------------------


def instantiate(cls: ModelClass, values: Mapping[str, float]) -> ctmc.Ctmc | bayes.BayesNet:
    """The chain or the network of an instance of ``cls`` with inputs
    ``values``, once ``values`` binds each input of ``cls`` and no other,
    each kinded input lies in its kind's range and each of the class's
    ``requires`` facts holds."""
    _check_names(cls, values, "the value map")
    for decl in cls.inputs:
        if decl.kind:
            _check_input(decl, values[decl.name])
    for label, expr in cls.requires:
        value = eval_expr(expr, lambda leaf: values[leaf.name])
        if not value > 0.0:  # NaN fails too
            raise ValidationError(f"{label} must be positive, got {value!r}")
    if isinstance(cls.template, InlineCtmc):
        return inline_chain(cls.template, values)
    return inline_bayes_net(cls.template, values)


def solve(cls: ModelClass, values: Mapping[str, float]) -> dict[str, float]:
    """The outputs of an instance of ``cls`` with inputs ``values``, read
    as ``cls.reads`` says. A chain is solved by GTH steady state; a network
    by :func:`bayes.posteriors` when its outputs read every node, and by one
    :func:`bayes.marginal` per node read otherwise."""
    model = instantiate(cls, values)
    if isinstance(model, ctmc.Ctmc):
        pi = ctmc.steady_state(model)
        return {name: pi[state] for name, state in cls.reads}
    nodes = dict.fromkeys(node for _, node, _ in cls.reads)
    if len(nodes) == len(model):
        dists = bayes.posteriors(model, {})
    else:
        dists = {node: bayes.marginal(model, node) for node in nodes}
    return {name: dists[node][state] for name, node, state in cls.reads}


def _evaluate(exprs: Mapping[str, Expr], solved: Mapping[str, Mapping[str, float]],
              owner: str) -> dict[str, float]:
    """Each of ``exprs`` by name, evaluated over solved instance outputs: an
    instance's bindings, or the exports; a failure names ``owner`` and the
    expression's name."""
    values = {}
    for name, expr in exprs.items():
        try:
            values[name] = eval_expr(expr, lambda ref: solved[ref.instance][ref.output])
        except SolverError as exc:
            raise SolverError(f"{owner} {name!r}: {exc}") from None
    return values


def _require_finite(what: str, values: Mapping[str, float]) -> None:
    """Each figure of ``values`` must lie in :data:`LITERAL_RANGE`."""
    for name, value in values.items():
        if not literal_in_range(value):
            why = ("must be finite" if not math.isfinite(value) else "cannot be negative"
                   if value < 0.0 else "must be 0 or at least the smallest normal float")
            raise SolverError(f"{what} {name!r} is {value!r}; figures {why}")


def run_workflow(workflow: Workflow | ValidatedWorkflow) -> SolveResult:
    """Solve all instances in topological order and evaluate the exports.

    The result is fully deterministic, and identical for every admissible
    topological order. A kinded input out of its range, or an instance
    output or export that is not finite, is negative or is subnormal,
    raises :class:`SolverError`.
    """
    validated = workflow if isinstance(workflow, ValidatedWorkflow) else validate_workflow(workflow)
    solved: dict[str, dict[str, float]] = {}
    notes: list[str] = []
    for name in validated.order:
        inst, cls = validated.instances[name]
        values = _evaluate(inst.bindings, solved, f"instance {name!r} input")
        try:
            outputs = solve(cls, values)
        except RedvoteError as exc:
            raise SolverError(f"instance {name!r}: {exc}") from exc
        _require_finite(f"instance {name!r} output", outputs)
        solved[name] = outputs
        notes.append(f"{name}: {cls.description}")

    exports = _evaluate(validated.exports, solved, "export")
    _require_finite("export", exports)
    return SolveResult(instances=solved, exports=exports, provenance=tuple(notes))


def instance_net(validated: ValidatedWorkflow, result: SolveResult, name: str) -> bayes.BayesNet:
    """The network of the BAYES instance ``name``, read with its class from
    ``validated.instances``, its inputs evaluated over ``result``, the
    outputs of ``run_workflow(validated)``."""
    if name not in validated.instances:
        raise ValidationError(f"unknown instance {name!r}")
    inst, cls = validated.instances[name]
    if isinstance(cls.template, InlineCtmc):
        raise ValidationError(
            f"instance {name!r} is a CTMC model; posteriors need a BAYES instance"
        )
    return instantiate(cls, _evaluate(inst.bindings, result.instances, f"instance {name!r} input"))


def sweep(
    workflow: Workflow | ValidatedWorkflow,
    parameter: str,
    factors: Iterable[float],
) -> list[SolveResult]:
    """Re-run the workflow with a literal-bound input scaled by each factor.

    ``parameter`` is an ``instance.input`` path. Reference-bound inputs are
    derived values and cannot be swept; asking for one is an error. The
    workflow is validated once; each point checks only the scaled literal,
    since nothing else changes: its kind's range, then :data:`LITERAL_RANGE`
    and, as :func:`eval_expr` does, that the product did not underflow. It
    swaps the swept instance's entry of ``validated.instances`` for one with
    that literal.
    """
    validated = workflow if isinstance(workflow, ValidatedWorkflow) else validate_workflow(workflow)
    if "." not in parameter:
        raise ValidationError(
            f"sweep parameter must look like <instance>.<input>, got {parameter!r}"
        )
    inst_name, pname = parameter.split(".", 1)
    if inst_name not in validated.instances:
        raise ValidationError(f"sweep references unknown instance {inst_name!r}")
    inst, cls = validated.instances[inst_name]
    if pname not in inst.bindings:
        raise ValidationError(
            f"instance {inst_name!r} has no binding for input {pname!r}"
        )
    binding = inst.bindings[pname]
    if not isinstance(binding, Literal):
        raise ValidationError(
            f"{parameter} is not literal-bound; a derived value cannot be swept"
        )
    decl = next(p for p in cls.inputs if p.name == pname)

    results: list[SolveResult] = []
    for factor in factors:
        value = binding.value * float(factor)
        _check_literal(inst_name, decl, value)
        if not literal_in_range(value) or (not value and binding.value and factor):
            fault = f"underflows to {value!r}" if not value else f"is {value!r}; {LITERAL_RANGE}"
            raise ValidationError(f"instance {inst_name!r}: {parameter} scaled by {factor!r} "
                                  + fault)
        point = inst._replace(bindings={**inst.bindings, pname: Literal(value)})
        instances = {**validated.instances, inst_name: (point, cls)}
        results.append(run_workflow(validated._replace(instances=instances)))
    return results
