"""Finite discrete Bayesian networks and exact inference.

Networks handled here are small (tens of mostly-binary variables), so
conditional tables are stored dense and queries are answered by variable
elimination with a min-fill ordering. Probabilities stay in plain binary
floating point: the quantities of interest (down to ~1e-16) are well inside
double range, so a log-space transform would only cost reproducibility
against brute-force enumeration; an evidence probability below the smallest
normal float, which has lost bits, is refused rather than divided by.

A node is one :class:`Node` record: its id, states, parents and table. A
table has one format from the record to the solver: flat and row-major,
parents in order with the first slowest and the child's state fastest, the
layout of a `.rvm` node's ``cpt`` list. At this size no factor has more than
a few dozen entries, so the fixed cost of each call dominates, and plain
sequences beat array routines, whose per-call overhead (and import) costs
more than the arithmetic. A network's structure, its state labels, parent
graph and the length of each table, is checked by :func:`check_structure`,
which `compose.check_records` runs too, so a `.rvm` file's faults are found
as it is read. :func:`build_net` checks a structure and then hands every
table to :func:`with_tables`, which converts each table to floats, notes its
exact zeros and checks its entries in whole-table passes; a later refill
of some of a built net's tables goes through it too, shares the others, and
checks only the new ones. So `compose` builds and checks each network
template once, and a later build evaluates, with code generated for the
template, and checks only the tables that read an input. The plan, which
reads every factor through precomputed gather indices, depends only on the
network's structure and the target, so it is computed once per (structure,
target) pair, min-fill order included, and reused across parameter values
and evidence.
An observation enters as an indicator on its variable's own table
(Darwiche 2003), not as a change of plan.

:func:`marginal` runs the plan of its one target step by step.
:func:`posteriors` runs one kernel per structure and pattern of exact
zeros, compiled on its first call: the all-variable plan, its adjoint pass
and the normalisation as straight-line Python, with each zero folded out.
Compiling costs that call 7 to 9 ms on the failure network and 85 to 100
ms on one child of 10 binary parents, 11 to 17 ms per 1,000 entries its
plan reads (2-core container, CPython 3.11). A `solve` runs a per-target
plan once or twice and would not recoup it: :func:`marginal` stays interpreted.
Sums add left to right, not by ``sum``, compensated from CPython 3.12.
"""

from __future__ import annotations

import functools
import graphlib
import itertools
import math
import types
from collections import namedtuple
from operator import add, itemgetter, mul
from typing import Callable, Container, Iterable, Mapping, Sequence

from .errors import Checked, ValidationError, ZeroEvidenceError

#: Observed states, keyed by variable id.
Evidence = Mapping[str, str]

#: Structure of a net: ``(variable id, parents, state count)`` in variable order.
Signature = tuple[tuple[str, tuple[str, ...], int], ...]

#: Positions of each table's exact zeros, in variable order.
Zeros = tuple[tuple[int, ...], ...]

ROW_SUM_TOLERANCE = 1e-9

#: The smallest normal float: a probability below it, unless 0, has lost bits.
_TINY = 2.0 ** -1022

#: Bound on the number of cached network builds, plans and kernels.
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


class Node(namedtuple("Node", "id states parents cpt")):
    """One network node: its id, its sequence of state labels, the ids of its
    parents, and ``cpt``, the flat row-major sequence of its table's entries:
    one row per parent-state combination, first parent slowest, each row the
    distribution over the node's states in their order. A root has one row.
    Building one checks nothing; :func:`build_net` checks every field."""

    __slots__ = ()


class Distribution(namedtuple("Distribution", "variable probabilities")):
    """Probability per state of a single variable: its id, and a mapping
    from state label to probability."""

    __slots__ = ()

    def __getitem__(self, state: str) -> float:
        return self.probabilities[state]


class BayesNet:
    """A validated network; build through :func:`build_net` or :func:`with_tables`.

    Immutable after construction: every inference operation is pure, so
    concurrent queries against one net are safe.
    """

    __slots__ = ("variables", "signature", "zeros", "_by_id", "_tables")

    def __init__(
        self,
        variables: tuple[Variable, ...],
        signature: Signature,
        by_id: dict[str, Variable],
        tables: tuple[tuple[float, ...], ...],
        zeros: Zeros,
    ) -> None:
        # nets of one structure share ``variables``, ``signature`` and ``by_id``
        self.variables = variables
        self.signature = signature
        self._by_id = by_id
        self._tables = tables  # in variable order
        self.zeros = zeros

    @property
    def cpts(self) -> dict[str, Node]:
        """Each variable's node, keyed by variable id in variable order;
        each read builds the records afresh from the flat tables."""
        return {var.id: Node(*var, parents, table) for var, (_, parents, _), table
                in zip(self.variables, self.signature, self._tables)}

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


def build_net(nodes: Iterable[Node]) -> BayesNet:
    """Validate and assemble a network; malformed input is rejected, never repaired.

    Raises:
        ValidationError: a fault :func:`check_structure` finds, or an entry
            fault :func:`with_tables` names.
    """
    nodes = tuple(nodes)
    check_structure(nodes)
    variables = tuple(Variable(node.id, node.states) for node in nodes)
    signature = tuple((node.id, tuple(node.parents), len(node.states)) for node in nodes)
    # ``with_tables`` replaces every table, so the entries as given only fix the lengths
    tables = tuple(node.cpt for node in nodes)
    net = BayesNet(variables, signature, {var.id: var for var in variables}, tables,
                   ((),) * len(nodes))
    return with_tables(net, dict(enumerate(tables)))


def with_tables(net: BayesNet, tables: Mapping[int, Sequence[float]]) -> BayesNet:
    """``net`` with the table of each node ``signature[j]`` replaced by
    ``tables[j]``, as long as ``net``'s own: the one way a table enters a
    net, which :func:`build_net` takes for every table. Each new table is
    converted to floats and its exact zeros are noted. Only the new tables
    are checked, in whole-table passes, so the first entry fault among them
    in variable order is named; every other table, and the variables,
    signature and variable map, are ``net``'s own objects.

    Raises:
        ValidationError: a ``j`` outside ``net`` or a table of another
            length, an entry outside [0, 1] or a row whose left-to-right sum
            is off 1 by more than 1e-9, named by a row loop that runs only
            on a fault.
    """
    new, zeros = list(net._tables), list(net.zeros)
    for slot, table in tables.items():
        if slot not in range(len(new)) or len(table) != len(new[slot]):
            raise ValidationError("new tables must match the network's table count and lengths")
        new[slot] = tuple(map(float, table))
        zeros[slot] = _zeros(new[slot])
    slots = sorted(tables)
    _check_entries([net.signature[j] for j in slots], [new[j] for j in slots], net._by_id)
    return BayesNet(net.variables, net.signature, net._by_id, tuple(new), tuple(zeros))


def _zeros(table: Sequence[float]) -> tuple[int, ...]:
    """Positions of a table's entries that are exactly 0 (or -0.0)."""
    return tuple(i for i, p in enumerate(table) if not p) if 0.0 in table else ()


def _check_entries(signature: Signature, tables: Sequence[Sequence[float]],
                   by_id: Mapping[str, Variable]) -> None:
    """Check the entries of ``tables``, in variable order, in whole-table
    passes: each in [0, 1], and each row's left-to-right sum off 1 by at
    most 1e-9. A row loop names the first faulty row, and runs only on a
    fault."""
    flats: dict[int, list[float]] = {}  # every entry, per state count
    for (_, _, card), table in zip(signature, tables):
        flats.setdefault(card, []).extend(table)
    for card, flat in flats.items():
        sums = flat[::card]  # left to right like the row loop, not `sum` (compensated from 3.12)
        for k in range(1, card):
            sums = list(map(add, sums, flat[k::card]))
        if (min(flat) >= 0.0 and max(flat) <= 1.0 and math.isfinite(sum(sums))  # a NaN fails here
                and max(sums) - 1.0 <= ROW_SUM_TOLERANCE and 1.0 - min(sums) <= ROW_SUM_TOLERANCE):
            continue
        for (vid, parents, count), table in zip(signature, tables):
            states = by_id[vid].states
            for start in range(0, len(table), count):
                row = table[start:start + count]
                bad = [(s, p) for s, p in zip(states, row) if not 0.0 <= p <= 1.0]  # NaN too
                if bad:
                    fault = "has its entry for state {!r} at {!r}, outside [0, 1]".format(*bad[0])
                elif abs((total := functools.reduce(add, row, 0.0)) - 1.0) > ROW_SUM_TOLERANCE:
                    fault = f"sums to {total!r}, not 1"
                else:
                    continue
                combos = itertools.product(*(by_id[p].states for p in parents))
                key = next(itertools.islice(combos, start // count, None))
                raise ValidationError(f"CPT row {key!r} for {vid!r} {fault}")


def check_structure(nodes: Sequence[Node]) -> None:
    """Check a network's structure: each node's state labels as
    :class:`Variable` checks them, unique ids, parents of each node that
    are distinct declared nodes, an acyclic parent graph, and each node's
    table length, its state count times the number of its parents' state
    combinations.

    The cycle is looked for before any table length. A failure's
    ``element`` is ``(j,)`` for the node ``nodes[j]``; for a cycle,
    the first node of the path its message prints.
    """
    for j, node in enumerate(nodes):
        try:
            Variable(node.id, node.states)
        except ValidationError as exc:
            raise ValidationError(str(exc), (j,)) from None
    position: dict[str, int] = {}
    for j, node in enumerate(nodes):
        if node.id in position:
            raise ValidationError(f"duplicate node {node.id!r}", (j,))
        position[node.id] = j
    for j, (vid, _, parents, _) in enumerate(nodes):
        seen: set[str] = set()
        for parent in parents:
            if parent not in position:
                raise ValidationError(f"node {vid!r} references unknown parent {parent!r}", (j,))
            if parent in seen:
                raise ValidationError(f"node {vid!r} repeats parent {parent!r}", (j,))
            seen.add(parent)
    try:
        graphlib.TopologicalSorter({node.id: node.parents for node in nodes}).prepare()
    except graphlib.CycleError as exc:
        path = exc.args[1]
        raise ValidationError(f"cycle in the parent graph: {' -> '.join(path)}",
                              (position[path[0]],)) from None
    counts = {node.id: len(node.states) for node in nodes}
    for j, (vid, states, parents, cpt) in enumerate(nodes):
        expected = math.prod(counts[p] for p in parents) * len(states)
        if len(cpt) != expected:
            raise ValidationError(f"node {vid!r} needs {expected} table entries, got {len(cpt)}",
                                  (j,))


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
    return _min_fill(net.signature, query_set)


def _min_fill(signature: Signature, query: Container[str]) -> tuple[str, ...]:
    neighbours: dict[str, set[str]] = {vid: set() for vid, _, _ in signature}
    for vid, parents, _ in signature:
        for a, b in itertools.combinations(parents + (vid,), 2):
            neighbours[a].add(b)
            neighbours[b].add(a)

    def fill(vid: str) -> int:
        around = neighbours[vid]
        # each missing edge is seen from both ends, and ``a`` is never its own neighbour
        return (sum(len(around - neighbours[a]) for a in around) - len(around)) // 2

    left = {vid for vid in neighbours if vid not in query}
    order: list[str] = []
    while left:
        chosen = min(left, key=lambda vid: (fill(vid), vid))
        left.remove(chosen)
        order.append(chosen)
        around = neighbours.pop(chosen)
        for a in around:
            neighbours[a].discard(chosen)
            neighbours[a].update(around)
            neighbours[a].discard(a)
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
    order = _min_fill(signature, query)
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


def _emit(lines: list[str], prefix: str, rows: Iterable[Sequence], op: str) -> list:
    """Append ``{prefix}_{i} = row[0] op row[1] op ...`` for each row,
    evaluated left to right, to ``lines``; returns the names. A term
    ``None`` is an exact zero: a product with one is ``None``, a sum leaves
    it out, and a row left empty gets no line and the name ``None``."""
    names = []
    for i, row in enumerate(rows):
        row = [] if op == " * " and None in row else [term for term in row if term is not None]
        names.append(name := f"{prefix}_{i}" if row else None)
        for j in range(0, len(row), _CHAIN):
            lines.append(f"{name} = {name + op if j else ''}{op.join(row[j:j + _CHAIN])}")
    return names


def _times(*factors: str | None) -> str | None:
    """The product of ``factors``; ``None``, an exact zero, if one is."""
    return None if None in factors else " * ".join(factors)


def _kernel_source(signature: Signature, zeros: Zeros) -> str:
    """Source of ``k(v, a0, ..., a{n-1})``: ``_plan(signature, None)`` over
    the ``n`` slot tables as straight-line code, which normalises each mass
    ``P(u, evidence)`` as :func:`_distribution` does and returns
    ``{id: Distribution}`` over the variables ``v``; if a mass or its sum is
    one :func:`_distribution` refuses, it returns the masses, in variable
    order. The entries at ``zeros`` are exact zeros and are folded out: no
    product with one, no zero term of a sum and no adjoint of a zero entry
    (only zero products read it) is emitted. Entries are finite and in [0,
    1], so a dropped product is ±0.0 and leaves a non-negative sum as it
    was: results are bit for bit the unfolded ones. Its names hold step,
    slot, entry and variable numbers only: ``a`` for slot entries, ``b``
    and ``p`` for a step's table-only product and product, ``g`` for a
    result's adjoint (Darwiche 2003), ``l`` and ``r`` for prefix and suffix
    products of a step's results, ``m`` and ``z`` for a variable's masses
    and their sum, ``i`` and ``s`` for its id and labels. Products take
    table reads, then result reads; group sums and each adjoint entry's
    reads add left to right, and so does each mass and sum of masses, in
    ``+`` chains split at :data:`_CHAIN` terms like every other sum.
    A result's adjoint multiplies the step's other results in step order;
    with three or more results it goes through their prefix and suffix
    products, so the source stays linear in the results.
    """
    plan, n = _plan(signature, None), len(signature)
    lines, names, kept = [], {}, []  # slot -> entry names; step -> (product, base, results)
    for t, (reads, group) in enumerate(plan.steps):
        base, results = [], []
        for slot, index, _ in reads:  # table reads first, as ``_plan`` lists them
            if slot < n:
                names[slot] = [None if i in zeros[slot] else f"a{slot}_{i}"
                               for i in range(max(index) + 1)]
                lines.append(f"{', '.join(name or '_' for name in names[slot])}, = a{slot}")
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
    adjoints = {n + len(plan.steps) - 1: ["1.0"]}
    position = {vid: j for j, (vid, _, _) in enumerate(signature)}
    for t in reversed(range(len(plan.steps))):
        (product, base, results), group = kept[t], plan.steps[t][1]
        adjoint = [g for g in adjoints.pop(n + t) for _ in range(group)]
        if t < len(plan.order):
            j, pairs = position[plan.order[t]], list(map(_times, adjoint, product))
            chains = _emit(lines, f"m{j}", [pairs[k::group] for k in range(group)], " + ")
            lines += [f"m{j}_{k} = 0.0" for k, name in enumerate(chains) if name is None]
        if base is not None:
            adjoint = list(map(_times, adjoint, base))
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
            by_entry = [[] for _ in names[slot]]
            for term, entry in zip(itertools.starmap(_times, zip(*parts)), index):
                if names[slot][entry]:  # only zero products read a zero entry's adjoint
                    by_entry[entry].append(term)
            adjoints[slot] = _emit(lines, f"g{slot}", by_entry, " + ")
    masses, labels, dists, checks = [], [], [], [f"z{j}_0" for j in range(n)]
    for j, (_, _, count) in enumerate(signature):
        states = range(count)
        masses.append(f"({''.join(f'm{j}_{k}, ' for k in states)})")
        labels.append(f"(i{j}, ({''.join(f's{j}_{k}, ' for k in states)}))")
        probabilities = ", ".join(f"s{j}_{k}: m{j}_{k} / z{j}_0" for k in states)
        dists.append(f"i{j}: new(D, (i{j}, {{{probabilities}}}))")
        checks += [f"m{j}_{k} or 1.0" for k in states]
        _emit(lines, f"z{j}", [[f"m{j}_{k}" for k in states]], " + ")
    # the masses are finite, so ``min`` meets no NaN; a zero mass reads as 1.0
    test = f"if not min({', '.join(checks)}) >= {_TINY!r}: return ({', '.join(masses)},)"
    lines += [test, f"{', '.join(labels)}, = v", f"return {{{', '.join(dists)}}}"]
    return f"def k(v, {', '.join(f'a{slot}' for slot in range(n))}):\n " + "\n ".join(lines)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _kernel(signature: Signature, zeros: Zeros) -> Callable[..., dict | tuple]:
    """:func:`_kernel_source` compiled, with nothing in its globals but what
    it calls. Keyed on the net's exact zeros as well as its structure, so
    that other zeros get a kernel of their own, never a stale one."""
    code = compile(_kernel_source(signature, zeros), "<posteriors>", "exec")
    return types.FunctionType(code.co_consts[0],
                              {"min": min, "new": tuple.__new__, "D": Distribution})


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
    z = functools.reduce(add, mass, 0.0)  # left to right like the kernel, not `sum`
    if not z >= _TINY:  # NaN fails too
        raise ZeroEvidenceError(
            f"evidence {dict(evidence)!r} has probability {z!r}, below the smallest normal float")
    if min(mass) < _TINY:  # a zero is exact
        for state, m in zip(var.states, mass):
            if 0.0 < m < _TINY:
                raise ZeroEvidenceError(
                    f"{var.id}={state} with evidence {dict(evidence)!r} has probability {m!r}, "
                    "below the smallest normal float")
    # ``+ 0.0`` turns a -0.0 mass into 0.0; the kernel folds -0.0 entries out
    return Distribution(var.id, dict(zip(var.states, [m / z + 0.0 for m in mass])))


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
    each variable's ``P(v, evidence)`` normalised as there, so an observed
    variable is an exact point mass. If it returns the masses instead, the
    first variable whose mass :func:`_distribution` refuses raises.
    """
    out = _kernel(net.signature, net.zeros)(net.variables, *_indicated(net, evidence))
    if type(out) is dict:
        return out
    return {var.id: _distribution(var, mass, evidence) for var, mass in zip(net.variables, out)}


def posterior_report(net: BayesNet, evidence: Evidence) -> list[Distribution]:
    """Posterior of every non-evidence variable, ordered by variable id: a
    filter of :func:`posteriors`."""
    dists = posteriors(net, evidence)
    return [dists[vid] for vid in sorted(dists) if vid not in evidence]
