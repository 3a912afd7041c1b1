"""Finite discrete Bayesian networks and exact inference.

Networks handled here are small (tens of mostly-binary variables), so
conditional tables are stored dense and queries are answered by variable
elimination with a min-fill ordering. Probabilities stay in plain binary
floating point: the quantities of interest (down to ~1e-16) are well inside
double range, and products over a few dozen factors cannot underflow, so a
log-space transform would only cost reproducibility against brute-force
enumeration. The min-fill order and the einsum contraction plan depend only
on the network's structure, the query and the set of evidence variables, so
each is computed once per such triple and reused across parameter values and
observed states.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError, ZeroEvidenceError

#: Observed states, keyed by variable id.
Evidence = Mapping[str, str]

#: Structure of a net: ``(variable id, parents)`` in variable order.
Signature = tuple[tuple[str, tuple[str, ...]], ...]

ROW_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Variable:
    """A finite discrete variable with an ordered set of state labels."""

    id: str
    states: tuple[str, ...]
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        if not self.id:
            raise ValidationError("variable id must be non-empty")
        if len(self.states) < 2:
            raise ValidationError(f"variable {self.id!r} needs at least two states")
        if len(set(self.states)) != len(self.states):
            raise ValidationError(f"variable {self.id!r} repeats a state label")
        if not self.name:
            object.__setattr__(self, "name", self.id)

    @property
    def cardinality(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Cpt:
    """Conditional probability table for one child variable.

    ``rows`` maps a full parent-state assignment (ordered like ``parents``)
    to the distribution over the child's states, in the child's state order.
    Root variables use the empty tuple as their single key.
    """

    child: str
    parents: tuple[str, ...]
    rows: Mapping[tuple[str, ...], tuple[float, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parents", tuple(self.parents))
        frozen = {tuple(key): tuple(float(p) for p in dist) for key, dist in self.rows.items()}
        object.__setattr__(self, "rows", frozen)


@dataclass(frozen=True)
class Distribution:
    """Probability per state of a single variable."""

    variable: str
    probabilities: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", dict(self.probabilities))

    def __getitem__(self, state: str) -> float:
        return self.probabilities[state]


class BayesNet:
    """A validated network; build through :func:`build_net`.

    Immutable after construction: every inference operation is pure, so
    concurrent queries against one net are safe.
    """

    __slots__ = ("variables", "cpts", "signature", "_by_id", "_tables", "_topo")

    def __init__(
        self,
        variables: tuple[Variable, ...],
        cpts: Mapping[str, Cpt],
        signature: Signature,
        by_id: Mapping[str, Variable],
        tables: Mapping[str, np.ndarray],
        topo: tuple[str, ...],
    ) -> None:
        self.variables = variables
        self.cpts = dict(cpts)
        self.signature = signature
        self._by_id = dict(by_id)
        self._tables = dict(tables)
        self._topo = topo

    @property
    def variable_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables)

    @property
    def topological_order(self) -> tuple[str, ...]:
        return self._topo

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
        ValidationError: duplicate/unknown variables, missing or extra CPTs or
            rows, row sums off by more than 1e-9, entries outside [0, 1], or a
            cyclic parent graph.
    """
    vars_ = tuple(variables)
    by_id: dict[str, Variable] = {}
    for var in vars_:
        if var.id in by_id:
            raise ValidationError(f"duplicate variable id {var.id!r}")
        by_id[var.id] = var

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

    for cpt in cpt_map.values():
        seen: set[str] = set()
        for parent in cpt.parents:
            if parent not in by_id:
                raise ValidationError(
                    f"CPT for {cpt.child!r} references unknown parent {parent!r}"
                )
            if parent in seen:
                raise ValidationError(f"CPT for {cpt.child!r} repeats parent {parent!r}")
            seen.add(parent)

    topo = _topological_order(by_id, cpt_map)
    tables = {child: _dense_table(cpt, by_id) for child, cpt in cpt_map.items()}
    signature = tuple((var.id, cpt_map[var.id].parents) for var in vars_)
    return BayesNet(vars_, cpt_map, signature, by_id, tables, topo)


def _topological_order(by_id: Mapping[str, Variable], cpt_map: Mapping[str, Cpt]) -> tuple[str, ...]:
    remaining_parents = {child: set(cpt.parents) for child, cpt in cpt_map.items()}
    children: dict[str, list[str]] = {vid: [] for vid in by_id}
    for child, cpt in cpt_map.items():
        for parent in cpt.parents:
            children[parent].append(child)
    ready = sorted(vid for vid, parents in remaining_parents.items() if not parents)
    order: list[str] = []
    while ready:
        vid = ready.pop(0)
        order.append(vid)
        for child in children[vid]:
            remaining_parents[child].discard(vid)
            if not remaining_parents[child]:
                # keep the scan order deterministic
                ready.append(child)
                ready.sort()
    if len(order) != len(by_id):
        cyclic = sorted(vid for vid, parents in remaining_parents.items() if parents)
        raise ValidationError(f"cycle detected in the parent graph among: {', '.join(cyclic)}")
    return tuple(order)


def _dense_table(cpt: Cpt, by_id: Mapping[str, Variable]) -> np.ndarray:
    child = by_id[cpt.child]
    parent_states = [by_id[p].states for p in cpt.parents]
    expected = set(itertools.product(*parent_states))
    got = set(cpt.rows)
    if got - expected:
        sample = next(iter(sorted(got - expected)))
        raise ValidationError(f"CPT for {cpt.child!r} has an extra row for {sample!r}")
    if expected - got:
        sample = next(iter(sorted(expected - got)))
        raise ValidationError(f"CPT for {cpt.child!r} is missing the row for {sample!r}")

    shape = tuple(len(states) for states in parent_states) + (child.cardinality,)
    table = np.empty(shape, dtype=float)
    for key, dist in cpt.rows.items():
        if len(dist) != child.cardinality:
            raise ValidationError(
                f"CPT row {key!r} for {cpt.child!r} has {len(dist)} entries, "
                f"expected {child.cardinality}"
            )
        if any(p < 0.0 or p > 1.0 for p in dist):
            raise ValidationError(f"CPT row {key!r} for {cpt.child!r} has entries outside [0, 1]")
        if abs(sum(dist) - 1.0) > ROW_SUM_TOLERANCE:
            raise ValidationError(
                f"CPT row {key!r} for {cpt.child!r} sums to {sum(dist)!r}, not 1"
            )
        index = tuple(states.index(state) for states, state in zip(parent_states, key))
        table[index] = dist
    return table


def joint_probability(net: BayesNet, assignment: Mapping[str, str]) -> float:
    """Probability of one full assignment: the product of matching CPT entries."""
    for var_id in assignment:
        net.variable(var_id)
    missing = [vid for vid in net.variable_ids if vid not in assignment]
    if missing:
        raise ValidationError(f"assignment is incomplete, missing: {', '.join(missing)}")
    product = 1.0
    for var in net.variables:
        cpt = net.cpts[var.id]
        index = tuple(
            net.state_index(parent, assignment[parent]) for parent in cpt.parents
        ) + (net.state_index(var.id, assignment[var.id]),)
        product *= net._tables[var.id][index]
    return product


# --- variable elimination ---------------------------------------------------

#: Bound on the number of cached min-fill orders, and of cached plans.
PLAN_CACHE_SIZE = 128

_ALL = slice(None)


@dataclass(frozen=True)
class _Plan:
    """Variable elimination for one (structure, target, evidence variables).

    Slots ``0..n-1`` hold the CPT tables, sliced by evidence, in variable
    order. Each step is an einsum spec and the slots it reads; its result
    takes the next slot. The last step yields the unnormalised target
    vector, or the evidence probability when there is no target.
    """

    order: tuple[str, ...]
    steps: tuple[tuple[str, tuple[int, ...]], ...]


def elimination_order(
    net: BayesNet, query: str | Iterable[str], evidence: Evidence | None = None
) -> tuple[str, ...]:
    """Min-fill elimination order over the non-query, non-evidence variables.

    Ties on fill count break in variable-id order, which makes the order,
    and therefore every inference result, fully deterministic.
    """
    evidence = dict(evidence or {})
    query_set = {query} if isinstance(query, str) else set(query)
    for vid in itertools.chain(query_set, evidence):
        net.variable(vid)
    return _min_fill(net.signature, frozenset(query_set), frozenset(evidence))


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _min_fill(
    signature: Signature, query: frozenset[str], evidence: frozenset[str]
) -> tuple[str, ...]:
    nodes = [vid for vid, _ in signature if vid not in evidence]
    neighbours: dict[str, set[str]] = {vid: set() for vid in nodes}
    for vid, parents in signature:
        scope = [v for v in parents + (vid,) if v not in evidence]
        for a, b in itertools.combinations(scope, 2):
            neighbours[a].add(b)
            neighbours[b].add(a)

    to_eliminate = {vid for vid in nodes if vid not in query}
    order: list[str] = []
    while to_eliminate:
        def fill(vid: str) -> int:
            around = neighbours[vid]
            return sum(
                1 for a, b in itertools.combinations(sorted(around), 2)
                if b not in neighbours[a]
            )

        chosen = min(to_eliminate, key=lambda vid: (fill(vid), vid))
        order.append(chosen)
        around = neighbours.pop(chosen)
        for a in around:
            neighbours[a].discard(chosen)
        for a, b in itertools.combinations(sorted(around), 2):
            neighbours[a].add(b)
            neighbours[b].add(a)
        to_eliminate.remove(chosen)
    return tuple(order)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(signature: Signature, target: str | None, evidence: frozenset[str]) -> _Plan:
    query = () if target is None else (target,)
    order = _min_fill(signature, frozenset(query), evidence)
    # (slot, variables) of each live factor; a merged factor goes last
    factors = [
        (slot, tuple(v for v in parents + (vid,) if v not in evidence))
        for slot, (vid, parents) in enumerate(signature)
    ]
    steps: list[tuple[str, tuple[int, ...]]] = []
    for vid in order + (None,):  # None: the final contraction onto the query
        related = [f for f in factors if vid is None or vid in f[1]]
        if not related:
            continue
        out_vars = query if vid is None else tuple(
            dict.fromkeys(v for _, vars_ in related for v in vars_ if v != vid)
        )
        # one einsum multiplies the related factors and projects onto out_vars
        letters: dict[str, str] = {}
        for _, vars_ in related:
            for v in vars_:
                letters.setdefault(v, chr(ord("a") + len(letters)))
        if len(letters) > 26:
            raise ValidationError("factor contraction exceeds 26 distinct variables")
        spec = ",".join("".join(letters[v] for v in vars_) for _, vars_ in related)
        steps.append((f"{spec}->{''.join(letters[v] for v in out_vars)}",
                      tuple(slot for slot, _ in related)))
        factors = [f for f in factors if f not in related]
        factors.append((len(signature) + len(steps) - 1, out_vars))
    return _Plan(order, tuple(steps))


def _eliminate(net: BayesNet, target: str | None, ev_idx: Mapping[str, int]) -> np.ndarray:
    plan = _plan(net.signature, target, frozenset(ev_idx))
    tables = [net._tables[vid] for vid, _ in net.signature]
    if ev_idx:
        tables = [
            table[tuple(ev_idx.get(v, _ALL) for v in parents + (vid,))]
            for table, (vid, parents) in zip(tables, net.signature)
        ]
    for spec, slots in plan.steps:
        tables.append(np.einsum(spec, *[tables[s] for s in slots]))
    return tables[-1]


def marginal(net: BayesNet, target: str, evidence: Evidence | None = None) -> Distribution:
    """Exact ``P(target | evidence)`` by variable elimination.

    With empty evidence this is the prior marginal. Evidence whose own
    probability is zero raises :class:`ZeroEvidenceError` instead of
    returning an all-zero distribution: silently propagating an impossible
    observation would corrupt downstream safety figures.
    """
    evidence = dict(evidence or {})
    var = net.variable(target)
    ev_idx = {vid: net.state_index(vid, state) for vid, state in evidence.items()}

    # an observed target still pays for the evidence probability, so that
    # impossible observations fail
    observed = target in evidence
    vector = _eliminate(net, None if observed else target, ev_idx)
    z = float(vector.sum())
    if z <= 0.0:
        raise ZeroEvidenceError(f"evidence {evidence!r} has probability 0")
    if observed:
        return Distribution(target, {s: float(s == evidence[target]) for s in var.states})
    return Distribution(target, dict(zip(var.states, (vector / z).tolist())))


def posterior_report(net: BayesNet, evidence: Evidence) -> list[Distribution]:
    """Posterior of every non-evidence variable, ordered by variable id."""
    evidence = dict(evidence)
    for vid, state in evidence.items():
        net.state_index(vid, state)
    return [
        marginal(net, vid, evidence)
        for vid in sorted(net.variable_ids)
        if vid not in evidence
    ]
