"""Independent oracles and randomized generators used across the test suite.

Everything here deliberately avoids the library's solver code paths:
marginals come from a dense full-joint tensor or a product of table entries,
steady states from a plain linear solve, a 50-digit one or a simulated
trajectory, and the five-state chain from a hand-derived closed form.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import random
import statistics
from collections import namedtuple
from operator import add

import numpy as np

from redvote import bayes, compose, ctmc, report
from redvote.errors import ValidationError
from redvote.nmr import FailureParams


# --- Bayesian network oracle --------------------------------------------------


def full_joint(net: bayes.BayesNet) -> np.ndarray:
    """Dense joint tensor with one axis per variable, in declaration order."""
    ids = list(net.variable_ids)
    joint = np.ones(tuple(net.variable(vid).cardinality for vid in ids))
    for vid in ids:
        cpt = net.cpts[vid]
        scope = cpt.parents + (vid,)
        # the flat table has one axis per scope variable, in scope order
        table = np.array(cpt.cpt).reshape([net.variable(v).cardinality for v in scope])
        table = table.transpose(sorted(range(len(scope)), key=lambda i: ids.index(scope[i])))
        joint = joint * table.reshape([net.variable(v).cardinality if v in scope else 1
                                       for v in ids])
    return joint


def joint_probability(net: bayes.BayesNet, assignment: dict[str, str]) -> float:
    """Probability of one full assignment: the product of the matching
    entries of the flat tables in ``net.cpts``."""
    for var_id, state in assignment.items():
        net.state_index(var_id, state)  # raises on an unknown variable or state
    missing = [vid for vid in net.variable_ids if vid not in assignment]
    if missing:
        raise ValidationError(f"assignment is incomplete, missing: {', '.join(missing)}")
    product = 1.0
    for vid in net.variable_ids:
        cpt = net.cpts[vid]
        index = 0  # row-major over the parents, then the child's own state
        for v in cpt.parents + (vid,):
            index = index * net.variable(v).cardinality + net.state_index(v, assignment[v])
        product *= cpt.cpt[index]
    return product


def enum_marginal(
    net: bayes.BayesNet, target: str, evidence: dict[str, str] | None = None
) -> np.ndarray:
    """P(target | evidence) by summing the full joint; independent of VE."""
    evidence = evidence or {}
    ids = list(net.variable_ids)
    joint = full_joint(net)
    index: list = [slice(None)] * len(ids)
    for vid, state in evidence.items():
        index[ids.index(vid)] = net.state_index(vid, state)
    sliced = joint[tuple(index)]
    kept = [vid for vid in ids if vid not in evidence]
    keep_axis = kept.index(target)
    other_axes = tuple(i for i in range(len(kept)) if i != keep_axis)
    vector = sliced.sum(axis=other_axes)
    return vector / vector.sum()


def random_net(
    rng: random.Random, max_nodes: int = 8, gates: float = 0.0, max_states: int = 2
) -> bayes.BayesNet:
    """A random DAG with strictly positive CPT entries, except that each row
    of a non-root is, with probability ``gates``, a deterministic 0/1 row
    like the failure network's logic gates. Variables have 2 to
    ``max_states`` states; at the default of 2 no state count is drawn, so
    a seed's binary nets, which pinned tests rely on, stay fixed."""
    n = rng.randint(1, max_nodes)
    ids = [f"V{i}" for i in range(n)]
    states = {vid: ("False", "True") if max_states == 2
              else tuple(f"s{k}" for k in range(rng.randint(2, max_states))) for vid in ids}
    nodes = []
    for i, vid in enumerate(ids):
        pool = ids[:i]
        parents = tuple(sorted(rng.sample(pool, k=rng.randint(0, min(3, len(pool))))))
        table: list[float] = []
        count = len(states[vid])
        for _ in itertools.product(*(states[p] for p in parents)):
            gated = gates and parents and rng.random() < gates
            if count == 2:
                p = float(rng.random() < 0.5) if gated else rng.uniform(0.05, 0.95)
                table += (1.0 - p, p)
            elif gated:
                hot = rng.randrange(count)
                table += (float(k == hot) for k in range(count))
            else:
                weights = [rng.uniform(0.05, 0.95) for _ in range(count)]
                total = functools.reduce(add, weights, 0.0)  # left to right on every CPython
                table += (w / total for w in weights)
        nodes.append(bayes.Node(vid, states[vid], parents, table))
    return bayes.build_net(nodes)


def random_evidence(rng: random.Random, net: bayes.BayesNet, spare: str) -> dict[str, str]:
    """Evidence over a random subset of variables, never covering ``spare``."""
    candidates = [vid for vid in net.variable_ids if vid != spare]
    chosen = rng.sample(candidates, k=rng.randint(0, len(candidates)))
    return {vid: rng.choice(net.variable(vid).states) for vid in chosen}


# --- CTMC oracles ---------------------------------------------------------------


def generator(chain: ctmc.Ctmc) -> np.ndarray:
    """Infinitesimal generator: off-diagonals are rates, diagonal negates the row sum.

    Built from the chain's declared states and transitions, so the dense
    oracle shares no code with the solver.
    """
    index = {state: i for i, state in enumerate(chain.states)}
    q = np.zeros((len(index), len(index)))
    for tr in chain.transitions:
        q[index[tr.src], index[tr.dst]] = tr.rate
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def dense_steady_state(chain: ctmc.Ctmc) -> np.ndarray:
    """Solve pi.Q = 0, sum(pi) = 1 with a plain dense linear solve."""
    q = generator(chain)
    a = q.T.copy()
    a[-1, :] = 1.0
    rhs = np.zeros(len(chain.states))
    rhs[-1] = 1.0
    return np.linalg.solve(a, rhs)


def mpmath_steady_state(chain: ctmc.Ctmc, digits: int = 50) -> list:
    """Solve pi.Q = 0, sum(pi) = 1 by LU in ``digits``-digit arithmetic.

    The rates are exact in mpmath, so with 50 digits even a chain whose
    rates span fifteen orders of magnitude comes out correct to well past
    double precision in every component. Needs mpmath, which only
    redvote's ``test`` extra declares; callers skip without it.
    """
    import mpmath

    index = {state: i for i, state in enumerate(chain.states)}
    n = len(index)
    with mpmath.workdps(digits):
        a = mpmath.zeros(n)  # the transposed generator, last row replaced by ones
        for tr in chain.transitions:
            a[index[tr.dst], index[tr.src]] += mpmath.mpf(tr.rate)
            a[index[tr.src], index[tr.src]] -= mpmath.mpf(tr.rate)
        rhs = mpmath.zeros(n, 1)
        for j in range(n):
            a[n - 1, j] = 1
        rhs[n - 1] = 1
        pi = mpmath.lu_solve(a, rhs)
        return [pi[i] for i in range(n)]


def random_irreducible_chain(rng: random.Random, max_states: int = 10) -> ctmc.Ctmc:
    """Random chain made irreducible by a full cycle, with moderate rates."""
    n = rng.randint(2, max_states)
    states = tuple(f"S{i}" for i in range(n))
    pairs = {(i, (i + 1) % n) for i in range(n)}
    extra = rng.randint(0, n * (n - 1) // 2)
    for _ in range(extra):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            pairs.add((i, j))
    transitions = tuple(
        ctmc.Transition(states[i], states[j], rng.uniform(0.1, 10.0))
        for i, j in sorted(pairs)
    )
    return ctmc.Ctmc(states, states[0], transitions)


#: Equal windows of the horizon whose occupancy means give the standard error.
SIMULATION_BATCHES = 20


class SimulationResult(namedtuple("SimulationResult",
                                  "occupancy standard_error horizon batches jumps")):
    """Occupancy fractions per state from one simulated trajectory, with
    batch-means standard errors, the horizon, the batch count and the
    number of jumps."""

    __slots__ = ()


def simulate(chain: ctmc.Ctmc, horizon: float, seed: int) -> SimulationResult:
    """Simulate one trajectory of exponential sojourns and embedded jumps.

    Each jump goes to one of the current state's positive-rate targets, each
    chosen with probability rate / exit rate. Occupancy is time-in-state
    divided by the horizon; standard errors come from batch means over
    :data:`SIMULATION_BATCHES` equal windows. Fully determined by ``seed``:
    the same seed always yields the identical result.
    """
    if not (horizon > 0.0 and math.isfinite(horizon)):
        raise ValidationError(f"horizon must be finite and positive, got {horizon!r}")

    index = {state: i for i, state in enumerate(chain.states)}
    n = len(index)
    batches = SIMULATION_BATCHES
    rates = [[0.0] * n for _ in range(n)]
    for tr in chain.transitions:
        rates[index[tr.src]][index[tr.dst]] = tr.rate
    # compact per-state jump tables so a boundary draw can never select a
    # zero-rate target
    targets = [[j for j, rate in enumerate(row) if rate > 0.0] for row in rates]
    cumulative = [list(itertools.accumulate(row[j] for j in t)) for row, t in zip(rates, targets)]
    exit_rate = [c[-1] if c else 0.0 for c in cumulative]

    rng = random.Random(seed)
    batch_len = horizon / batches
    occupancy = [[0.0] * n for _ in range(batches)]

    def record(state: int, start: float, end: float) -> None:
        first = min(int(start / batch_len), batches - 1)
        last = min(int(math.nextafter(end, start) / batch_len), batches - 1)
        for b in range(first, last + 1):
            lo = max(start, b * batch_len)
            hi = min(end, (b + 1) * batch_len)
            if hi > lo:
                occupancy[b][state] += hi - lo

    now = 0.0
    state = index[chain.initial]
    jumps = 0
    while now < horizon:
        lam = exit_rate[state]
        if lam <= 0.0:
            record(state, now, horizon)
            break
        leave = now + rng.expovariate(lam)
        end = min(leave, horizon)
        record(state, now, end)
        now = end
        if leave >= horizon:
            break
        pick = bisect.bisect_right(cumulative[state], rng.random() * lam)
        state = targets[state][min(pick, len(targets[state]) - 1)]
        jumps += 1

    per_state = list(zip(*occupancy))
    return SimulationResult(
        occupancy={s: sum(col) / horizon for s, col in zip(chain.states, per_state)},
        standard_error={
            s: statistics.stdev(t / batch_len for t in col) / math.sqrt(batches)
            for s, col in zip(chain.states, per_state)
        },
        horizon=horizon,
        batches=batches,
        jumps=jumps,
    )


def five_state_pi3(
    par4: float, par5: float, par6: float, par7: float, par8: float, par9: float
) -> float:
    """Closed-form steady-state probability of S3 for the five-state chain.

    Derived by eliminating S4 (everything entering it returns to S3) and
    solving the remaining balance equations with pi(S0) = 1, then
    normalizing. Exact, so it doubles as a solver oracle.
    """
    a = 2.0 * par4 - par5
    b = par5
    k = (par7 * par6 + par8) / (par6 + par8)
    pi1 = a / (par6 + b)
    pi3 = b * (1.0 + pi1 * k) / (a * (1.0 - k))
    pi2 = (pi1 * b + pi3 * a) / (par6 + par8)
    pi4 = (pi2 + pi3) * par8 / par9 if par9 > 0 else 0.0
    return pi3 / (1.0 + pi1 + pi2 + pi3 + pi4)


# --- failure-model closed forms ---------------------------------------------


def uncorr_probability(p: FailureParams) -> float:
    """Single-unit incorrect-output probability, by direct arithmetic."""
    transient = p.par1 * p.transient_ratio * p.p_activate
    permanent = p.par1 * (1.0 - p.transient_ratio) * (p.par2 + (1.0 - p.par2) * p.p_miss)
    return transient + permanent


def mtbhe_conversion(hr_2oo2: float) -> tuple[float, float]:
    """Mean time between hazardous events for the 2oo2 and the 2oo3 system.

    A 2oo3 voter behaves like three 2oo2 pairs, so its hazardous-event rate
    is three times the pair rate. The 2oo2 figure is derived from the 2oo3
    one so the factor-of-three identity holds exactly in floating point.
    """
    if not hr_2oo2 > 0.0:
        raise ValidationError(f"hazard rate must be positive, got {hr_2oo2!r}")
    mtbhe_2oo3 = 1.0 / (3.0 * hr_2oo2)
    return 3.0 * mtbhe_2oo3, mtbhe_2oo3


def unsafe_probability(u: float, same: float, excl: float) -> float:
    """Hazard probability by enumerating the sink's five independent parents."""
    total = 0.0
    for ua, ub, so, ea, eb in itertools.product((0, 1), repeat=5):
        if not ((ua and ub and so) or (ua and ea) or (ub and eb)):
            continue
        prob = (u if ua else 1.0 - u) * (u if ub else 1.0 - u)
        prob *= (same if so else 1.0 - same)
        prob *= (excl if ea else 1.0 - excl) * (excl if eb else 1.0 - excl)
        total += prob
    return total


# --- reports ------------------------------------------------------------------


def from_json(text: str) -> report.AnalysisReport:
    """The analysis report that ``report.to_json`` rendered as ``text``."""
    return report.AnalysisReport(**json.loads(text))


# --- randomized workflows -----------------------------------------------------


def random_workflow(rng: random.Random) -> compose.Workflow:
    """A random structurally valid workflow mixing builtin and inline models."""
    classes: list[compose.ModelClass] = []
    instances: list[compose.ModelInstance] = []
    exports: list[compose.Export] = []

    def rand_literal() -> compose.Literal:
        return compose.Literal(round(rng.uniform(0.0, 1.0), rng.randint(0, 6)))

    n_inline = rng.randint(0, 2)
    for ci in range(n_inline):
        if rng.random() < 0.5:
            n_states = rng.randint(1, 4)
            states = tuple(f"N{ci}S{i}" for i in range(n_states))
            rates = []
            for i in range(n_states):
                for j in range(n_states):
                    if i != j and rng.random() < 0.6:
                        expr: compose.Expr
                        if rng.random() < 0.5:
                            expr = compose.Literal(round(rng.uniform(0.1, 5.0), 3))
                        else:
                            expr = compose.BinOp(
                                rng.choice("+*"),
                                compose.Param(f"K{ci}"),
                                compose.Literal(round(rng.uniform(0.1, 2.0), 3)),
                            )
                        rates.append((states[i], states[j], expr))
            template: compose.InlineCtmc | compose.InlineBayes = compose.InlineCtmc(
                f"chain{ci}", states, states[0], tuple(rates)
            )
        else:
            nodes = []
            n_nodes = rng.randint(1, 3)
            for ni in range(n_nodes):
                parents = tuple(f"X{ci}_{k}" for k in range(ni) if rng.random() < 0.5)
                width = 2 ** len(parents)
                cpt = []
                for _ in range(width):
                    p = round(rng.uniform(0.05, 0.95), 4)
                    cpt += [1.0 - p, p]
                nodes.append(bayes.Node(f"X{ci}_{ni}", ("False", "True"), parents,
                                        tuple(map(compose.Literal, cpt))))
            template = compose.InlineBayes(f"net{ci}", tuple(nodes))
        classes.append(compose.class_from_inline(template))

    available: list[tuple[str, str]] = []  # (instance, output)
    for ii in range(rng.randint(0, 3)):
        pool = list(compose.builtin_classes().values()) + classes
        cls = rng.choice(pool)
        bindings: dict[str, compose.Expr] = {}
        for decl in cls.inputs:
            if available and rng.random() < 0.4:
                src = rng.choice(available)
                bindings[decl.name] = compose.Ref(*src)
            else:
                bindings[decl.name] = rand_literal()
        name = f"inst{ii}"
        instances.append(compose.ModelInstance(name, cls.name, bindings))
        available += [(name, read[0]) for read in cls.reads]

    for ei in range(rng.randint(0, 3)):
        if not available:
            break
        src = rng.choice(available)
        expr = compose.Ref(*src)
        if rng.random() < 0.5:
            expr = compose.BinOp(rng.choice("+-*/"), expr, compose.Literal(3.0))
        exports.append(compose.Export(f"out{ei}", expr))

    return compose.Workflow(f"random-{rng.randint(0, 10**6)}", tuple(classes),
                            tuple(instances), tuple(exports))
