"""Chain validation, generators, GTH steady states, and the simulator."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redvote import ctmc
from redvote.errors import SolverError, ValidationError

from oracles import (
    dense_steady_state,
    generator,
    mpmath_steady_state,
    random_irreducible_chain,
    simulate,
)


def _two_state(r01=2.0, r10=6.0):
    return ctmc.Ctmc(
        ("S0", "S1"), "S0",
        (ctmc.Transition("S0", "S1", r01), ctmc.Transition("S1", "S0", r10)),
    )


@st.composite
def stiff_chains(draw):
    """Irreducible chains (a full cycle plus random extra transitions) of
    2-8 states with rates log-uniform in 1e-12..1e3."""
    n = draw(st.integers(min_value=2, max_value=8))
    states = tuple(f"S{i}" for i in range(n))
    pairs = {(i, (i + 1) % n) for i in range(n)}
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs.update(draw(st.lists(extra, max_size=n * (n - 1))))
    exponents = draw(st.lists(st.floats(-12.0, 3.0), min_size=len(pairs), max_size=len(pairs)))
    return ctmc.Ctmc(states, states[0], tuple(
        ctmc.Transition(states[i], states[j], 10.0 ** e)
        for (i, j), e in zip(sorted(pairs), exponents)
    ))


class TestCtmcInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            ctmc.Ctmc(("S0",), "S0", (ctmc.Transition("S0", "S0", 1.0),))

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValidationError, match="duplicate transition"):
            ctmc.Ctmc(
                ("S0", "S1"), "S0",
                (ctmc.Transition("S0", "S1", 1.0), ctmc.Transition("S0", "S1", 2.0)),
            )

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValidationError, match="non-positive rate"):
            ctmc.Ctmc(("S0", "S1"), "S0", (ctmc.Transition("S0", "S1", 0.0),))

    @pytest.mark.parametrize("rate", [float("inf"), float("nan")])
    def test_non_finite_rate_rejected_as_non_finite(self, rate):
        with pytest.raises(ValidationError, match="'S0' -> 'S1': rate (inf|nan) must be finite"):
            ctmc.Ctmc(("S0", "S1"), "S0", (ctmc.Transition("S0", "S1", rate),))

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValidationError, match="initial state"):
            ctmc.Ctmc(("S0",), "S9", ())

    def test_duplicate_state_rejected(self):
        with pytest.raises(ValidationError, match="unique"):
            ctmc.Ctmc(("S0", "S0"), "S0", ())


class TestGenerator:
    def test_two_state_rows(self):
        q = generator(_two_state())
        assert q.tolist() == [[-2.0, 2.0], [6.0, -6.0]]

    def test_no_transitions_zero_matrix(self):
        chain = ctmc.Ctmc(("S0", "S1"), "S0", ())
        assert generator(chain).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_rows_sum_to_zero_on_random_chains(self):
        rng = random.Random(17)
        for _ in range(25):
            chain = random_irreducible_chain(rng)
            q = generator(chain)
            assert np.all(np.abs(q.sum(axis=1)) <= 1e-12 * max(1.0, np.abs(q).max()))


class TestReachableClosedClass:
    def test_disconnected_cycle_excluded(self):
        chain = ctmc.Ctmc(
            ("A", "B", "C", "D"), "A",
            (
                ctmc.Transition("A", "B", 1.0), ctmc.Transition("B", "A", 1.0),
                ctmc.Transition("C", "D", 1.0), ctmc.Transition("D", "C", 1.0),
            ),
        )
        assert ctmc.reachable_closed_class(chain) == ("A", "B")

    def test_transient_leak_rejected(self):
        chain = ctmc.Ctmc(
            ("A", "B"), "A", (ctmc.Transition("A", "B", 1.0),)
        )
        with pytest.raises(SolverError, match="cannot return"):
            ctmc.reachable_closed_class(chain)

    def test_two_absorbing_branches_rejected(self):
        chain = ctmc.Ctmc(
            ("A", "B", "C"), "A",
            (ctmc.Transition("A", "B", 1.0), ctmc.Transition("A", "C", 1.0)),
        )
        with pytest.raises(SolverError):
            ctmc.reachable_closed_class(chain)

    def test_full_chain_when_strongly_connected(self):
        rng = random.Random(4)
        chain = random_irreducible_chain(rng)
        assert ctmc.reachable_closed_class(chain) == chain.states


class TestSteadyState:
    def test_two_state_closed_form(self):
        pi = ctmc.steady_state(_two_state(2.0, 6.0))
        assert pi["S0"] == pytest.approx(0.75, abs=1e-15)
        assert pi["S1"] == pytest.approx(0.25, abs=1e-15)

    def test_birth_death_closed_form(self):
        # birth rate 1, death rate 2: pi_k proportional to (1/2)^k
        n = 6
        states = tuple(f"S{i}" for i in range(n))
        transitions = []
        for i in range(n - 1):
            transitions.append(ctmc.Transition(states[i], states[i + 1], 1.0))
            transitions.append(ctmc.Transition(states[i + 1], states[i], 2.0))
        pi = ctmc.steady_state(ctmc.Ctmc(states, "S0", tuple(transitions)))
        weights = [0.5 ** k for k in range(n)]
        expected = [w / sum(weights) for w in weights]
        for state, want in zip(states, expected):
            assert pi[state] == pytest.approx(want, rel=1e-13)

    def test_matches_dense_solve_on_random_chains(self):
        rng = random.Random(99)
        for _ in range(50):
            chain = random_irreducible_chain(rng)
            pi = ctmc.steady_state(chain)
            expected = dense_steady_state(chain)
            got = np.array([pi[s] for s in chain.states])
            assert np.max(np.abs(got - expected)) <= 1e-10

    def test_unreachable_states_exactly_zero(self):
        chain = ctmc.Ctmc(
            ("A", "B", "C"), "A",
            (ctmc.Transition("A", "B", 3.0), ctmc.Transition("B", "A", 1.0)),
        )
        pi = ctmc.steady_state(chain)
        assert pi["C"] == 0.0
        assert pi["A"] == pytest.approx(0.25)
        assert pi["B"] == pytest.approx(0.75)

    def test_residual_small_relative_to_rates(self):
        rng = random.Random(31)
        for _ in range(20):
            chain = random_irreducible_chain(rng)
            pi = ctmc.steady_state(chain)
            q = generator(chain)
            vec = np.array([pi[s] for s in chain.states])
            assert np.max(np.abs(vec @ q)) <= 1e-12 * np.abs(q).max()

    def test_rate_scaling_invariance(self):
        rng = random.Random(8)
        chain = random_irreducible_chain(rng)
        scaled = ctmc.Ctmc(
            chain.states, chain.initial,
            tuple(ctmc.Transition(t.src, t.dst, t.rate * 1e6) for t in chain.transitions),
        )
        pi = ctmc.steady_state(chain)
        pi_scaled = ctmc.steady_state(scaled)
        for state in chain.states:
            assert abs(pi[state] - pi_scaled[state]) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(stiff_chains())
    def test_relative_accuracy_against_mpmath(self, chain):
        # a dense solve's absolute error hides relative error in tiny
        # probabilities, which are exactly the hazard figures
        pytest.importorskip("mpmath")
        pi = ctmc.steady_state(chain)
        for state, want in zip(chain.states, mpmath_steady_state(chain)):
            assert abs(pi[state] - want) <= 1e-13 * want, state

    def test_single_state_chain(self):
        pi = ctmc.steady_state(ctmc.Ctmc(("S0",), "S0", ()))
        assert pi == {"S0": 1.0}


class TestSimulate:
    def test_same_seed_identical(self):
        chain = _two_state()
        first = simulate(chain, horizon=1e3, seed=42)
        second = simulate(chain, horizon=1e3, seed=42)
        assert first.occupancy == second.occupancy
        assert first.standard_error == second.standard_error

    def test_two_state_within_three_sigma(self):
        chain = _two_state(2.0, 6.0)
        result = simulate(chain, horizon=1e5, seed=7)
        for state, expected in (("S0", 0.75), ("S1", 0.25)):
            err = max(result.standard_error[state], 1e-12)
            assert abs(result.occupancy[state] - expected) <= 3 * err

    def test_occupancy_sums_to_one(self):
        chain = _two_state()
        result = simulate(chain, horizon=500.0, seed=3)
        assert sum(result.occupancy.values()) == pytest.approx(1.0, abs=1e-12)

    def test_absorbing_state_takes_remaining_horizon(self):
        chain = ctmc.Ctmc(("A", "B"), "A", (ctmc.Transition("A", "B", 50.0),))
        result = simulate(chain, horizon=100.0, seed=1)
        assert result.occupancy["B"] == pytest.approx(1.0, abs=0.05)

    def test_jumps_follow_targets_not_table_index(self):
        # S0's only target is S2, so a table index read as a state id stays in S0
        chain = ctmc.Ctmc(
            ("S0", "S1", "S2"), "S0",
            (
                ctmc.Transition("S0", "S2", 1.0),
                ctmc.Transition("S2", "S1", 3.0),
                ctmc.Transition("S1", "S0", 2.0),
            ),
        )
        pi = ctmc.steady_state(chain)
        result = simulate(chain, horizon=1e5, seed=11)
        for state in chain.states:
            err = max(result.standard_error[state], 1e-12)
            assert abs(result.occupancy[state] - pi[state]) <= 3 * err, state

    @pytest.mark.parametrize("horizon", [0.0, float("inf"), float("nan")])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValidationError, match="horizon"):
            simulate(_two_state(), horizon=horizon, seed=0)
