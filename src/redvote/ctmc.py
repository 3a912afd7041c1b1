"""Continuous-time Markov chains: structure checks and steady-state solving.

Steady states are computed with Grassmann-Taksar-Heyman (GTH) state
reduction. GTH performs no subtractions, only sums and ratios of positive
rates, so it keeps full relative accuracy even when transition rates span
a dozen orders of magnitude, which is routine for the maintenance chains
this package targets. The chains have a handful of states, so the solver
works on plain lists of rows: at this size array routines cost more in
per-call overhead than the O(n^3) arithmetic. The test suite cross-checks
the solver against a dense linear solve, 50-digit arithmetic and a seeded
trajectory simulator, none of which ship with the package.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from operator import add
from typing import Iterable, Sequence

from .errors import TINY, Checked, SolverError, ValidationError


class Transition(namedtuple("Transition", "src dst rate")):
    """One directed transition ``src -> dst`` with a strictly positive
    ``rate`` in events/hour."""

    __slots__ = ()


class Ctmc(Checked, namedtuple("Ctmc", "states initial transitions")):
    """A labeled-state chain with a designated initial state: a tuple of
    state labels, the initial label, and a tuple of :class:`Transition`.

    Invariants enforced at construction: those of :func:`check_structure`,
    and all rates finite and > 0. This is the one place a rate is checked.
    Instances are immutable; solving is a pure function.
    """

    __slots__ = ()

    def __new__(
        cls, states: Iterable[str], initial: str, transitions: Iterable[Transition]
    ) -> Ctmc:
        states, transitions = tuple(states), tuple(transitions)
        check_structure(states, initial, transitions)
        for tr in transitions:
            if not math.isfinite(tr.rate):
                raise ValidationError(
                    f"transition {tr.src!r} -> {tr.dst!r}: rate {tr.rate!r} must be finite"
                )
            if not tr.rate > 0.0:
                raise ValidationError(
                    f"transition {tr.src!r} -> {tr.dst!r} has non-positive rate {tr.rate!r}"
                )
        return tuple.__new__(cls, (states, initial, transitions))


def check_structure(states: Sequence[str], initial: str, transitions: Iterable[tuple]) -> None:
    """Check a chain's shape: at least one state, unique state labels, a
    declared initial state, and ``(src, dst, rate)`` records between two
    distinct declared states, at most one per ordered pair. A record may be
    a :class:`Transition` or a chain template's rate row.

    Rates are not looked at, so a record is checked whatever its rate. A
    failure's ``element`` is ``("states", j)`` or ``("transitions", j)``
    for the offending state or record, or empty for the other faults.
    """
    if not states:
        raise ValidationError("the chain declares no states")
    declared: set[str] = set()
    for j, state in enumerate(states):
        if state in declared:
            raise ValidationError(
                f"duplicate state {state!r}; state labels must be unique", ("states", j)
            )
        declared.add(state)
    if initial not in declared:
        raise ValidationError(f"initial state {initial!r} is not a declared state")
    seen: set[tuple[str, str]] = set()
    for j, (src, dst, _) in enumerate(transitions):
        pair = src, dst
        for end in pair:
            if end not in declared:
                raise ValidationError(
                    f"transition {src!r} -> {dst!r} references undeclared state {end!r}",
                    ("transitions", j),
                )
        if src == dst:
            raise ValidationError(f"self-loop transition on {src!r}", ("transitions", j))
        if pair in seen:
            # almost certainly a typo in a model file, so refuse to sum
            raise ValidationError(f"duplicate transition {src!r} -> {dst!r}", ("transitions", j))
        seen.add(pair)


def _rate_matrix(chain: Ctmc, states: Sequence[str]) -> list[list[float]]:
    """Rates between ``states`` as rows of a dense matrix; absent transitions are 0."""
    index = {state: i for i, state in enumerate(states)}
    r = [[0.0] * len(index) for _ in index]
    for tr in chain.transitions:
        if tr.src in index and tr.dst in index:
            r[index[tr.src]][index[tr.dst]] = tr.rate
    return r


def reachable_closed_class(chain: Ctmc) -> tuple[str, ...]:
    """States reachable from the initial state, verified to be one closed class.

    The forward-reachable set is closed by construction; the check that can
    fail is strong connectivity. A reachable state that cannot return to the
    initial state means the model leaks probability into a sub-chain, which
    for a maintenance model is a modeling bug rather than a solvable input.
    Every rate is > 0, so each transition is an edge.
    """
    forward: dict[str, list[str]] = {state: [] for state in chain.states}
    backward: dict[str, list[str]] = {state: [] for state in chain.states}
    for tr in chain.transitions:
        forward[tr.src].append(tr.dst)
        backward[tr.dst].append(tr.src)

    def closure(edges: dict[str, list[str]]) -> set[str]:
        seen, stack = {chain.initial}, [chain.initial]
        while stack:
            for nxt in edges[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    reached, returning = closure(forward), closure(backward)
    if not reached <= returning:
        names = ", ".join(s for s in chain.states if s in reached - returning)
        raise SolverError(
            f"reachable states cannot return to {chain.initial!r}: {names}; "
            "the reachable set is not a single closed class"
        )
    return tuple(s for s in chain.states if s in reached)


def _gth(rates: list[list[float]]) -> list[float]:
    """Stationary vector of an irreducible rate matrix by GTH reduction.

    Works on off-diagonal rates only; subtraction-free throughout. Sums add
    left to right, as ``sum`` does only before CPython 3.12 (same bits on all).
    """
    r = [list(row) for row in rates]
    n = len(r)
    for k in range(n - 1, 0, -1):
        exits = r[k][:k]
        s = functools.reduce(add, exits, 0.0)
        # irreducibility of the reduced chain guarantees an exit downward
        if s <= 0.0:
            raise SolverError("GTH reduction hit a state with no exit; chain is not irreducible")
        for row in r[:k]:
            f = row[k] = row[k] / s
            row[:k] = [a + f * b for a, b in zip(row, exits)]
    pi = [1.0] * n
    for k in range(1, n):
        pi[k] = functools.reduce(add, [pi[i] * r[i][k] for i in range(k)], 0.0)
    total = functools.reduce(add, pi, 0.0)
    return [p / total for p in pi]


def steady_state(chain: Ctmc) -> dict[str, float]:
    """Long-run occupancy probabilities, exactly 0 for unreachable states.

    Solves pi . Q = 0 with sum(pi) = 1 on the closed class reachable from the
    initial state. States outside that class (for instance a power-loss state
    whose inbound rate is parameterized to zero) are tolerated and reported
    with probability exactly 0. Every state of the class has a positive
    probability, so one that comes out below the smallest normal float, 0
    included, has lost its bits and raises :class:`SolverError`.
    """
    closed = reachable_closed_class(chain)
    pi = dict(zip(closed, _gth(_rate_matrix(chain, closed))))
    if min(pi.values()) < TINY:  # a NaN passes, for the caller's finite check
        state = next(state for state, p in pi.items() if p < TINY)
        raise SolverError(f"steady-state probability of {state!r} is {pi[state]!r}, "
                          "below the smallest normal float")
    return {state: pi.get(state, 0.0) for state in chain.states}
