"""Finite discrete Bayesian networks and exact inference.

Networks handled here are small (tens of mostly-binary variables), so
conditional tables are stored dense and queries are answered by variable
elimination with a min-fill ordering. Probabilities stay in plain binary
floating point: the quantities of interest (down to ~1e-16) are well inside
double range, so a log-space transform would only cost reproducibility
against brute-force enumeration; an evidence probability below the smallest
normal float, which has lost bits, is refused rather than divided by.

A table has one format from :class:`Cpt` to the solver: flat and
row-major, parents in order with the first slowest and the child's state
fastest, the layout of a `.rvm` node's ``cpt`` list. At this size no factor
has more than a few dozen entries, so the fixed cost of each call dominates,
and plain sequences beat array routines, whose per-call overhead (and
import) costs more than the arithmetic. A network's structure, its parent
graph and the length of each table, is checked once per structure by
:func:`check_structure`, which `compose.check_records` runs too, so a
`.rvm` file's faults are found as it is read; :func:`build_net` then checks
only the entries, in whole-table passes. The min-fill order and the plan,
which reads every factor through precomputed gather indices, depend only on
the network's structure and the target, so each is computed once per
(structure, target) pair and reused across parameter values and evidence.
An observation enters as an indicator on its variable's own table
(Darwiche 2003), not as a change of plan.

:func:`marginal` runs the plan of its one target step by step.
:func:`posteriors` runs one kernel per structure, compiled on its first
call: the all-variable plan and its adjoint pass as straight-line Python.
Compiling costs that call 7 to 11 ms on the failure network, 20 to 40 ms
per 1,000 product entries (2-core container, CPython 3.11), and saves each
later call about 0.2 ms, so it pays after 40 to 50 calls on one structure.
A `solve` runs each per-target plan once or twice and would not recoup
it, so :func:`marginal` stays interpreted.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import math
import types
from collections import namedtuple
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import Checked, ValidationError, ZeroEvidenceError

#: Observed states, keyed by variable id.
Evidence = Mapping[str, str]

#: Structure of a net: ``(variable id, parents, state count)`` in variable order.
Signature = tuple[tuple[str, tuple[str, ...], int], ...]

ROW_SUM_TOLERANCE = 1e-9

#: The smallest normal float: a probability below it, unless 0, has lost bits.
_TINY = 2.0 ** -1022

#: Bound on the number of cached structure checks, min-fill orders and plans.
PLAN_CACHE_SIZE = 128


class Variable(Checked, namedtuple("Variable", "id states")):
    """A finite discrete variable with an ordered tuple of state labels."""

    __slots__ = ()

    def __new__(cls, id: str, states: Iterable[str]) -> Variable:
        states = tuple(states)
        if not id:
            raise ValidationError("variable id must be non-empty")
        if len(states) < 2:
            raise ValidationError(f"variable {id!r} needs at least two states")
        if len(set(states)) != len(states):
            raise ValidationError(f"variable {id!r} repeats a state label")
        return tuple.__new__(cls, (id, states))

    @property
    def cardinality(self) -> int:
        return len(self.states)


class Cpt(Checked, namedtuple("Cpt", "child parents table")):
    """Conditional probability table for one child variable.

    ``parents`` is a tuple of variable ids. ``table`` is the flat row-major
    tuple of entries: one row per parent-state combination, first parent
    slowest, each row the distribution over the child's states in their
    order. A root has one row.
    """

    __slots__ = ()

    def __new__(cls, child: str, parents: Iterable[str], table: Iterable[float]) -> Cpt:
        return tuple.__new__(cls, (child, tuple(parents), tuple(map(float, table))))


class Distribution(namedtuple("Distribution", "variable probabilities")):
    """Probability per state of a single variable: its id, and a mapping
    from state label to probability."""

    __slots__ = ()

    def __getitem__(self, state: str) -> float:
        return self.probabilities[state]


class BayesNet:
    """A validated network; build through :func:`build_net`.

    Immutable after construction: every inference operation is pure, so
    concurrent queries against one net are safe.
    """

    __slots__ = ("variables", "cpts", "signature", "_by_id", "_tables")

    def __init__(
        self,
        variables: tuple[Variable, ...],
        cpts: Mapping[str, Cpt],
        signature: Signature,
        by_id: Mapping[str, Variable],
    ) -> None:
        self.variables = variables
        self.cpts = dict(cpts)
        self.signature = signature
        self._by_id = dict(by_id)
        self._tables = tuple(cpts[v.id].table for v in variables)  # in variable order

    @property
    def variable_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables)

    def variable(self, var_id: str) -> Variable:
        try:
            return self._by_id[var_id]
        except KeyError:
            raise ValidationError(f"unknown variable {var_id!r}") from None

    def state_index(self, var_id: str, state: str) -> int:
        var = self.variable(var_id)
        try:
            return var.states.index(state)
        except ValueError:
            raise ValidationError(
                f"variable {var_id!r} has no state {state!r} (states: {', '.join(var.states)})"
            ) from None

    def __len__(self) -> int:
        return len(self.variables)


def build_net(variables: Iterable[Variable], cpts: Iterable[Cpt]) -> BayesNet:
    """Validate and assemble a network; malformed input is rejected, never repaired.

    Raises:
        ValidationError: a CPT for an undeclared variable, none or more than
            one for a declared one, a fault :func:`check_structure` finds,
            an entry outside [0, 1] or a row whose left-to-right sum is off 1
            by more than 1e-9, named by a row loop that runs only on a fault.
    """
    vars_ = tuple(variables)
    by_id = {var.id: var for var in vars_}
    cpt_map: dict[str, Cpt] = {}
    for cpt in cpts:
        if cpt.child not in by_id:
            raise ValidationError(f"CPT child {cpt.child!r} is not a declared variable")
        if cpt.child in cpt_map:
            raise ValidationError(f"variable {cpt.child!r} has more than one CPT")
        cpt_map[cpt.child] = cpt
    missing = [v.id for v in vars_ if v.id not in cpt_map]
    if missing:
        raise ValidationError(f"missing CPT for: {', '.join(missing)}")

    signature = tuple((var.id, cpt_map[var.id].parents, var.cardinality) for var in vars_)
    check_structure(signature, tuple(len(cpt_map[var.id].table) for var in vars_))
    flats: dict[int, list[float]] = {}  # every entry, per state count
    for vid, _, card in signature:
        flats.setdefault(card, []).extend(cpt_map[vid].table)
    for card, flat in flats.items():
        sums = flat[::card]  # left to right like the row loop, not `sum` (compensated from 3.12)
        for k in range(1, card):
            sums = list(map(add, sums, flat[k::card]))
        if (min(flat) >= 0.0 and max(flat) <= 1.0 and math.isfinite(sum(sums))  # a NaN fails here
                and max(sums) - 1.0 <= ROW_SUM_TOLERANCE and 1.0 - min(sums) <= ROW_SUM_TOLERANCE):
            continue
        for var in vars_:
            cpt, count = cpt_map[var.id], var.cardinality
            for start in range(0, len(cpt.table), count):
                row = cpt.table[start:start + count]
                bad = [(s, p) for s, p in zip(var.states, row) if not 0.0 <= p <= 1.0]  # NaN too
                if bad:
                    fault = "has its entry for state {!r} at {!r}, outside [0, 1]".format(*bad[0])
                elif abs((total := functools.reduce(add, row, 0.0)) - 1.0) > ROW_SUM_TOLERANCE:
                    fault = f"sums to {total!r}, not 1"
                else:
                    continue
                combos = itertools.product(*(by_id[p].states for p in cpt.parents))
                key = next(itertools.islice(combos, start // count, None))
                raise ValidationError(f"CPT row {key!r} for {var.id!r} {fault}")
    return BayesNet(vars_, cpt_map, signature, by_id)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)  # a sweep rebuilds one structure per point
def check_structure(signature: Signature, sizes: tuple[int, ...]) -> None:
    """Check a network's structure: unique ids, parents of each node that are
    distinct declared nodes, an acyclic parent graph, and ``sizes[j]``, the
    length of node ``j``'s table, equal to its state count times the number
    of its parents' state combinations.

    The cycle is looked for before any table length. A failure's
    ``element`` is ``(j,)`` for the node ``signature[j]``; for a cycle,
    the first node of the path its message prints.
    """
    position: dict[str, int] = {}
    for j, (vid, _, _) in enumerate(signature):
        if vid in position:
            raise ValidationError(f"duplicate node {vid!r}", (j,))
        position[vid] = j
    for j, (vid, parents, _) in enumerate(signature):
        seen: set[str] = set()
        for parent in parents:
            if parent not in position:
                raise ValidationError(f"node {vid!r} references unknown parent {parent!r}", (j,))
            if parent in seen:
                raise ValidationError(f"node {vid!r} repeats parent {parent!r}", (j,))
            seen.add(parent)
    try:
        graphlib.TopologicalSorter({vid: parents for vid, parents, _ in signature}).prepare()
    except graphlib.CycleError as exc:
        path = exc.args[1]
        raise ValidationError(f"cycle in the parent graph: {' -> '.join(path)}",
                              (position[path[0]],)) from None
    counts = {vid: count for vid, _, count in signature}
    for j, ((vid, parents, count), size) in enumerate(zip(signature, sizes)):
        expected = math.prod(counts[p] for p in parents) * count
        if size != expected:
            raise ValidationError(f"node {vid!r} needs {expected} table entries, got {size}", (j,))


# --- variable elimination ---------------------------------------------------

#: Gathers a flat table's entries at fixed indices.
_Read = Callable[[Sequence[float]], Sequence[float]]

#: One elimination step: ``((slot, index, read), ...)`` and the group size.
_Step = tuple[tuple[tuple[int, tuple[int, ...], _Read], ...], int]


class _Plan(namedtuple("_Plan", "order steps")):
    """Variable elimination of every variable but the target, for one
    (structure, target); of every variable when the target is ``None``.

    Slots ``0..n-1`` hold the flat CPT tables in variable order, each
    observed variable's table already multiplied by its evidence indicator.
    Each step ``(reads, group)`` gathers every factor it multiplies: a read
    ``(slot, index, read)`` takes the slot's entries at ``index``, the
    precomputed indices enumerated over the step's scope, row-major with the
    eliminated variable innermost. The step multiplies the gathered factors
    elementwise and sums consecutive runs of ``group`` products; its result
    takes the next slot. The last step yields ``P(target, evidence)`` over
    the target's states, or the one-entry ``[P(evidence)]`` without a target.
    ``order`` is the elimination order and ``steps`` a tuple of
    :data:`_Step`.
    """

    __slots__ = ()


def elimination_order(net: BayesNet, query: str | Iterable[str]) -> tuple[str, ...]:
    """Min-fill elimination order over the non-query variables.

    Ties on fill count break in variable-id order, which makes the order,
    and therefore every inference result, fully deterministic.
    :func:`marginal` eliminates in ``elimination_order(net, target)`` and
    :func:`posteriors` in ``elimination_order(net, ())``, whatever the
    evidence, since observations enter as indicators.
    """
    query_set = {query} if isinstance(query, str) else set(query)
    for vid in query_set:
        net.variable(vid)
    return _min_fill(net.signature, frozenset(query_set))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _min_fill(signature: Signature, query: frozenset[str]) -> tuple[str, ...]:
    neighbours: dict[str, set[str]] = {vid: set() for vid, _, _ in signature}
    for vid, parents, _ in signature:
        for a, b in itertools.combinations(parents + (vid,), 2):
            neighbours[a].add(b)
            neighbours[b].add(a)

    def fill(vid: str) -> int:
        around = neighbours[vid]
        # each missing edge is seen from both ends, and ``a`` is never its own neighbour
        return (sum(len(around - neighbours[a]) for a in around) - len(around)) // 2

    fills = {vid: fill(vid) for vid in neighbours if vid not in query}
    order: list[str] = []
    while fills:
        chosen = min(fills, key=lambda vid: (fills[vid], vid))
        del fills[chosen]
        order.append(chosen)
        around = neighbours.pop(chosen)
        for a in around:
            neighbours[a].discard(chosen)
            neighbours[a].update(around)
            neighbours[a].discard(a)
        # only vertices within two hops of the eliminated one can change fill
        for vid in around.union(*(neighbours[a] for a in around)):
            if vid in fills:
                fills[vid] = fill(vid)
    return tuple(order)


def _strides(vars_: Sequence[str], card: Mapping[str, int]) -> dict[str, int]:
    """Row-major strides of a flat table over ``vars_``, the last one fastest."""
    strides, size = {}, 1
    for v in reversed(vars_):
        strides[v] = size
        size *= card[v]
    return strides


@functools.lru_cache(maxsize=8 * PLAN_CACHE_SIZE)  # a handful of layouts per plan
def _gather(layout: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], _Read]:
    """Indices of a flat table's entries at each row-major assignment of a
    scope whose variables have ``(state count, stride in the table)``, and a
    reader of the entries there; a scope variable the table lacks has stride
    0, and an empty scope reads a scalar factor's one entry. Nets of mostly
    binary variables share few layouts, so the cache spares most of a cold
    plan's index building."""
    index = [0]
    for count, stride in layout:
        offsets = range(0, count * stride, stride) if stride else (0,) * count
        index = [i + o for i in index for o in offsets]
    # ``itemgetter`` of a single index returns the entry, not a sequence
    read = itemgetter(*index) if len(index) > 1 else itemgetter(slice(0, 1))
    return tuple(index), read


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(signature: Signature, target: str | None) -> _Plan:
    query = () if target is None else (target,)
    order = _min_fill(signature, frozenset(query))
    card = {vid: n for vid, _, n in signature}
    # slot -> (variables, strides) of each live factor; a merged factor goes last
    live: dict[int, tuple[tuple[str, ...], dict[str, int]]] = {}
    for slot, (vid, parents, _) in enumerate(signature):
        live[slot] = (parents + (vid,), _strides(parents + (vid,), card))
    steps = []
    for vid in order + (None,):  # None: the final product onto the query
        related = [slot for slot, (vars_, _) in live.items() if vid is None or vid in vars_]
        if vid is None:
            # every other variable is eliminated by now
            out_vars, scope, group = query, query, 1
        else:
            out_vars = tuple(dict.fromkeys(v for s in related for v in live[s][0] if v != vid))
            scope, group = out_vars + (vid,), card[vid]
        reads = []
        for s in related:
            strides = live.pop(s)[1]
            layout = tuple((card[v], strides.get(v, 0)) for v in scope)
            reads.append((s, *_gather(layout)))
        steps.append((tuple(reads), group))
        live[len(signature) + len(steps) - 1] = (out_vars, _strides(out_vars, card))
    return _Plan(order, tuple(steps))


#: Terms per line of a generated chain of ``+`` or ``*``: the compiler
#: nests a chain one level per term, and overflows at a few thousand.
_CHAIN = 200


def _emit(lines: list[str], prefix: str, rows: Iterable[Sequence[str]], op: str) -> list[str]:
    """Append ``{prefix}_{i} = row[0] op row[1] op ...`` for each row,
    evaluated left to right, to ``lines``; returns the names."""
    names = []
    for i, row in enumerate(rows):
        names.append(name := f"{prefix}_{i}")
        lines.append(f"{name} = {op.join(row[:_CHAIN])}")
        for j in range(_CHAIN, len(row), _CHAIN):
            lines.append(f"{name} = {name}{op}{op.join(row[j:j + _CHAIN])}")
    return names


def _kernel_source(signature: Signature) -> str:
    """Source of ``k(a0, ..., a{n-1})``: ``_plan(signature, None)`` over the
    ``n`` slot tables as straight-line code, returning ``P(v, evidence)``
    of each eliminated variable ``v``, the last eliminated first. Its names
    hold step, slot and entry numbers only: ``a`` for slot entries, ``b``
    and ``p`` for a step's table-only product and product, ``g`` for a
    result's adjoint (Darwiche 2003), ``l`` and ``r`` for prefix and suffix
    products of a step's results. Products take table reads, then result
    reads; group sums and each adjoint entry's reads add left to right, and
    each mass is a ``sum``. A result's adjoint multiplies the step's other
    results in step order; with three or more results it goes through their
    prefix and suffix products, so the source stays linear in the results.
    """
    plan, n = _plan(signature, None), len(signature)
    lines, names, kept = [], {}, []  # slot -> entry names; step -> (product, base, results)
    for t, (reads, group) in enumerate(plan.steps):
        base, results = [], []
        for slot, index, _ in reads:  # table reads first, as ``_plan`` lists them
            if slot < n:
                names[slot] = [f"a{slot}_{i}" for i in range(max(index) + 1)]
                lines.append(f"{', '.join(names[slot])}, = a{slot}")
                base.append(list(map(names[slot].__getitem__, index)))
            else:
                results.append((slot, index, list(map(names[slot].__getitem__, index))))
        if len(base) > 1 and results:  # kept for the adjoint pass
            base = [_emit(lines, f"b{t}", zip(*base), " * ")]
        factors = base + [column for _, _, column in results]
        product = _emit(lines, f"p{t}", zip(*factors), " * ") if len(factors) > 1 else factors[0]
        sums = [product[i:i + group] for i in range(0, len(product), group)]
        names[n + t] = _emit(lines, f"a{n + t}", sums, " + ")
        kept.append((product, base[0] if len(base) == 1 else None, results))
    adjoints, masses = {n + len(plan.steps) - 1: ["1.0"]}, []
    for t in reversed(range(len(plan.steps))):
        (product, base, results), group = kept[t], plan.steps[t][1]
        adjoint = [g for g in adjoints.pop(n + t) for _ in range(group)]
        if t < len(plan.order):
            pairs = list(map("{} * {}".format, adjoint, product))
            masses.append("".join(f"sum(({', '.join(pairs[k::group])},)), " for k in range(group)))
        if base is not None:
            adjoint = list(map("{} * {}".format, adjoint, base))
        columns = [column for _, _, column in results]
        if len(columns) < 3:
            operands = [[adjoint, *columns[:j], *columns[j + 1:]] for j in range(len(columns))]
        else:
            left, right = [adjoint], [columns[-1]]
            for j in range(1, len(columns)):
                left.append(_emit(lines, f"l{t}_{j}", zip(left[-1], columns[j - 1]), " * "))
            for j in reversed(range(len(columns) - 2)):
                right.append(_emit(lines, f"r{t}_{j}", zip(columns[j + 1], right[-1]), " * "))
            operands = [[*pair] for pair in zip(left, reversed(right))] + [[left[-1]]]
        for (slot, index, _), parts in zip(results, operands):
            terms = list(map(" * ".join, zip(*parts)))
            by_entry = [[] for _ in names[slot]]
            for term, entry in zip(terms, index):
                by_entry[entry].append(term)
            adjoints[slot] = _emit(lines, f"g{slot}", by_entry, " + ")
    lines.append(f"return {''.join(f'({mass}), ' for mass in masses)}")
    return f"def k({', '.join(f'a{slot}' for slot in range(n))}):\n " + "\n ".join(lines)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _kernel(signature: Signature) -> Callable[..., tuple]:
    """:func:`_kernel_source` compiled, with nothing in its globals but the
    ``sum`` it calls."""
    code = compile(_kernel_source(signature), "<posteriors>", "exec")
    return types.FunctionType(code.co_consts[0], {"sum": sum})


def _indicated(net: BayesNet, evidence: Evidence) -> list:
    """The slot tables, each observation ``v = k`` entering as the indicator
    of ``k`` on ``v``'s table: the entries of ``v``'s other states are zeroed."""
    ev_idx = {vid: net.state_index(vid, state) for vid, state in evidence.items()}
    tables = list(net._tables)
    for slot, (vid, _, count) in enumerate(net.signature):
        if vid in ev_idx:
            k, table = ev_idx[vid], tables[slot]
            tables[slot] = [0.0] * len(table)
            tables[slot][k::count] = table[k::count]
    return tables


def _distribution(var: Variable, mass: Sequence[float], evidence: Evidence) -> Distribution:
    """``P(var, evidence)`` over its sum ``P(evidence)``, unless the sum is 0
    or subnormal, or an entry is subnormal but not 0, and so has lost bits."""
    z = sum(mass)
    if not z >= _TINY:  # NaN fails too
        raise ZeroEvidenceError(
            f"evidence {dict(evidence)!r} has probability {z!r}, below the smallest normal float")
    if min(mass) < _TINY:  # a zero is exact
        for state, m in zip(var.states, mass):
            if 0.0 < m < _TINY:
                raise ZeroEvidenceError(
                    f"{var.id}={state} with evidence {dict(evidence)!r} has probability {m!r}, "
                    "below the smallest normal float")
    return Distribution(var.id, dict(zip(var.states, map(z.__rtruediv__, mass))))


def marginal(net: BayesNet, target: str, evidence: Evidence | None = None) -> Distribution:
    """Exact ``P(target | evidence)`` by variable elimination.

    The plan eliminates ``elimination_order(net, target)`` and does not
    depend on the evidence. Each observation ``v = k`` enters as the
    indicator of ``k``: the entries of ``v``'s own table for any other state
    of ``v`` are zeroed, so the plan yields ``P(target, evidence)`` and its
    sum is the evidence probability. An observed target therefore comes out
    as a point mass. Evidence whose probability is zero, or subnormal and so
    inexact, raises :class:`ZeroEvidenceError` instead of returning a wrong
    distribution: silently propagating an impossible observation would
    corrupt downstream safety figures. So does a state whose probability
    jointly with the evidence is nonzero but subnormal.
    """
    evidence, var = evidence or {}, net.variable(target)
    tables = _indicated(net, evidence)
    for reads, group in _plan(net.signature, target).steps:
        (slot, _, read), *rest = reads
        product = read(tables[slot])
        for slot, _, read in rest:
            product = map(mul, product, read(tables[slot]))
        product = list(product)
        summed = product[::group]
        for j in range(1, group):
            summed = list(map(add, summed, product[j::group]))
        tables.append(summed)
    return _distribution(var, tables[-1], evidence)


def posteriors(net: BayesNet, evidence: Evidence) -> dict[str, Distribution]:
    """Exact ``P(v | evidence)`` of every variable ``v``, observed ones
    included, keyed by variable id in variable order.

    The kernel of the all-variable plan (:func:`_kernel`) takes the tables
    with the observations as indicators, as in :func:`marginal`, and returns
    each variable's ``P(v, evidence)``, normalised as there, so an observed
    variable is an exact point mass.
    """
    masses = _kernel(net.signature)(*_indicated(net, evidence))
    dists = {vid: _distribution(net._by_id[vid], mass, evidence)
             for vid, mass in zip(reversed(_plan(net.signature, None).order), masses)}
    return {vid: dists[vid] for vid in net.variable_ids}


def posterior_report(net: BayesNet, evidence: Evidence) -> list[Distribution]:
    """Posterior of every non-evidence variable, ordered by variable id: a
    filter of :func:`posteriors`."""
    dists = posteriors(net, evidence)
    return [dists[vid] for vid in sorted(dists) if vid not in evidence]
