"""Network construction, joint probabilities, and exact inference."""

import collections
import hashlib
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redvote import bayes, compose, ctmc, nmr
from redvote.errors import ValidationError, ZeroEvidenceError

import oracles
from oracles import (
    enum_marginal,
    full_joint,
    joint_probability,
    random_evidence,
    random_irreducible_chain,
    random_net,
    uncorr_probability,
    unsafe_probability,
)

B = ("False", "True")


def _single_root(p=0.3):
    return bayes.build_net([bayes.Node("A", B, (), (1 - p, p))])


def _chain_abc():
    return bayes.build_net([
        bayes.Node("A", B, (), (0.7, 0.3)),
        bayes.Node("B", B, ("A",), (0.9, 0.1, 0.2, 0.8)),
        bayes.Node("C", B, ("B",), (0.6, 0.4, 0.5, 0.5)),
    ])


class TestBuildNet:
    def test_single_root_prior(self):
        net = _single_root(0.3)
        assert len(net) == 1
        dist = bayes.marginal(net, "A")
        assert dist["True"] == pytest.approx(0.3)
        assert dist["False"] == pytest.approx(0.7)

    def test_smallest_cycle_rejected(self):
        nodes = [
            bayes.Node("A", B, ("B",), (0.5, 0.5, 0.5, 0.5)),
            bayes.Node("B", B, ("A",), (0.5, 0.5, 0.5, 0.5)),
        ]
        with pytest.raises(ValidationError, match="cycle"):
            bayes.build_net(nodes)

    def test_cycle_error_names_the_path_before_table_errors(self):
        table = (0.5, 0.5, 0.5, 0.5)
        nodes = [
            bayes.Node("A", B, ("C",), table),
            bayes.Node("B", B, ("A",), table),
            bayes.Node("C", B, ("B",), (0.5, 0.5)),  # also one row short
            bayes.Node("D", B, ("A",), table),
        ]
        with pytest.raises(ValidationError, match="cycle in the parent graph: A -> B -> C -> A$"):
            bayes.build_net(nodes)

    def test_short_table_rejected(self):
        nodes = [
            bayes.Node("A", B, (), (0.5, 0.5)),
            bayes.Node("B", B, ("A",), (0.5, 0.5)),
        ]
        with pytest.raises(ValidationError, match="^node 'B' needs 4 table entries, got 2$"):
            bayes.build_net(nodes)

    def test_long_table_rejected(self):
        nodes = [bayes.Node("A", B, (), (0.5, 0.5, 0.5, 0.5))]
        with pytest.raises(ValidationError, match="^node 'A' needs 2 table entries, got 4$"):
            bayes.build_net(nodes)

    def test_row_sum_violation_rejected(self):
        with pytest.raises(ValidationError, match="sums to"):
            bayes.build_net([bayes.Node("A", B, (), (0.5, 0.6))])

    def test_dangling_parent_rejected(self):
        with pytest.raises(ValidationError, match="unknown parent"):
            bayes.build_net([bayes.Node("A", B, ("Ghost",), (1, 0, 1, 0))])

    def test_int_entries_come_out_as_floats(self):
        net = bayes.build_net([bayes.Node("A", B, (), [0, 1]),
                               bayes.Node("B", B, ["A"], [1, 0, 0, 1])])
        assert net.cpts["B"] == ("B", B, ("A",), (1.0, 0.0, 0.0, 1.0))
        assert {type(p) for node in net.cpts.values() for p in node.cpt} == {float}
        assert net.zeros == ((0,), (1, 2))

    def test_nan_entry_rejected(self):
        nan = float("nan")
        with pytest.raises(ValidationError, match="outside"):
            bayes.build_net([bayes.Node("A", B, (), (nan, nan))])

    @pytest.mark.parametrize("dist, named", [
        ((1.5, -0.5), "'False' at 1.5"),
        ((0.5, float("nan")), "'True' at nan"),
        ((0.0, 1.0 + 1e-9), "'True' at 1.000000001"),
    ])
    def test_out_of_range_error_names_the_first_entry_and_its_value(self, dist, named):
        with pytest.raises(ValidationError) as info:
            bayes.build_net([bayes.Node("A", B, (), dist)])
        assert str(info.value) == (
            f"CPT row () for 'A' has its entry for state {named}, outside [0, 1]")

    def test_whole_table_check_names_the_first_faulty_row(self):
        # one class of fault per net, in one or two tables of nets with 2-4
        # states; the expected message comes from the row rule, each row's
        # entries added left to right as build_net adds them
        rng = random.Random(1616)
        values = {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"),
                  "negative": -0.25, "above": 1.0 + 0.5e-9}
        planted = collections.Counter()
        for _ in range(400):
            net = random_net(rng, max_nodes=6, gates=0.3, max_states=4)
            ids = net.variable_ids
            fault = rng.choice((*values, "off 2e-9", "off 0.5e-9"))
            tables = {vid: list(net.cpts[vid].cpt) for vid in ids}
            chosen = rng.sample(ids, k=min(len(ids), rng.randint(1, 2)))
            planted["two tables"] += len(chosen) == 2
            for vid in chosen:
                table, i = tables[vid], rng.randrange(len(tables[vid]))
                count = len(net.variable(vid).states)
                if fault == "negative":  # the row still sums to 1
                    j = i - i % count + (i + rng.randrange(1, count)) % count
                    table[i], table[j] = values[fault], table[j] + table[i] - values[fault]
                elif fault == "above":  # a point mass within the row-sum tolerance
                    table[i - i % count:i - i % count + count] = [0.0] * count
                    table[i] = values[fault]
                elif fault in values:
                    table[i] = values[fault]
                else:  # away from 0 and 1, so that only the row sum is off
                    off = float(fault.split()[1])
                    table[i] += off if table[i] < 0.5 else -off
                planted[fault, count] += 1
            expected = None
            for vid in ids:
                var, parents = net.variable(vid), net.cpts[vid].parents
                rows = itertools.product(*(net.variable(p).states for p in parents))
                for start, key in zip(range(0, len(tables[vid]), len(var.states)), rows):
                    row = tables[vid][start:start + len(var.states)]
                    total = 0.0
                    for p in row:
                        total += p
                    bad = [(s, p) for s, p in zip(var.states, row) if not 0.0 <= p <= 1.0]
                    if bad:
                        expected = (f"CPT row {key!r} for {vid!r} has its entry for state "
                                    f"{bad[0][0]!r} at {bad[0][1]!r}, outside [0, 1]")
                    elif abs(total - 1.0) > 1e-9:
                        expected = f"CPT row {key!r} for {vid!r} sums to {total!r}, not 1"
                    if expected:
                        break
                if expected:
                    break
            nodes = [net.cpts[vid]._replace(cpt=tables[vid]) for vid in ids]
            if fault == "off 0.5e-9":
                assert expected is None
                bayes.build_net(nodes)
                continue
            with pytest.raises(ValidationError) as info:
                bayes.build_net(nodes)
            assert str(info.value) == expected
        for fault in (*values, "off 2e-9", "off 0.5e-9"):
            for count in (2, 3, 4):
                assert planted[fault, count] > 0, (fault, count)
        assert planted["two tables"] > 0

    @pytest.mark.parametrize("row, rejected", [
        ((0.12999442164023278, 0.22689386027516395, 0.6431117190846032), False),
        ((0.26506703984022034, 0.05250544108874221, 0.27160591254772304, 0.4108216075233143), True),
    ])
    def test_rows_add_left_to_right_at_the_tolerance(self, row, rejected):
        # each row's sum is within a rounding of the tolerance, and added
        # right to left it falls on the other side
        forwards = backwards = 0.0
        for p, q in zip(row, reversed(row)):
            forwards, backwards = forwards + p, backwards + q
        assert (abs(forwards - 1.0) > 1e-9, abs(backwards - 1.0) > 1e-9) == (rejected, not rejected)
        nodes = [bayes.Node("A", [f"s{k}" for k in range(len(row))], (), row)]
        if not rejected:
            bayes.build_net(nodes)
            return
        with pytest.raises(ValidationError) as info:
            bayes.build_net(nodes)
        assert str(info.value) == f"CPT row () for 'A' sums to {forwards!r}, not 1"

    def test_variable_invariants(self):
        node = bayes.Node("A", ("F", "T"), (), (0.5, 0.5))
        with pytest.raises(ValidationError, match="^variable id must be non-empty$"):
            bayes.build_net([node._replace(id="")])
        with pytest.raises(ValidationError, match="at least two states"):
            bayes.build_net([node._replace(states=("only",), cpt=(1.0,))])
        with pytest.raises(ValidationError, match="repeats a state"):
            bayes.build_net([node._replace(states=("F", "F"))])


class TestJointProbability:
    def test_single_root(self):
        net = _single_root(0.3)
        assert joint_probability(net, {"A": "True"}) == pytest.approx(0.3)

    def test_two_independent_roots(self):
        net = bayes.build_net([bayes.Node("A", B, (), (0.5, 0.5)),
                               bayes.Node("B", B, (), (0.5, 0.5))])
        for a, b in itertools.product(B, repeat=2):
            assert joint_probability(net, {"A": a, "B": b}) == pytest.approx(0.25)

    def test_joint_sums_to_one(self):
        rng = random.Random(7)
        for _ in range(20):
            net = random_net(rng)
            total = sum(
                joint_probability(net, dict(zip(net.variable_ids, combo)))
                for combo in itertools.product(B, repeat=len(net))
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_incomplete_assignment_rejected(self):
        net = _chain_abc()
        with pytest.raises(ValidationError, match="incomplete"):
            joint_probability(net, {"A": "True"})


class TestMarginal:
    def test_root_prior_identity(self):
        net = _chain_abc()
        assert bayes.marginal(net, "A")["True"] == pytest.approx(0.3)

    def test_matches_enumeration_on_random_nets(self):
        rng = random.Random(2024)
        for _ in range(60):
            net = random_net(rng)
            target = rng.choice(net.variable_ids)
            evidence = random_evidence(rng, net, spare=target)
            got = bayes.marginal(net, target, evidence)
            expected = enum_marginal(net, target, evidence)
            for state, want in zip(net.variable(target).states, expected):
                assert abs(got[state] - want) <= 1e-10

    def test_distribution_sums_to_one(self):
        rng = random.Random(5)
        for _ in range(20):
            net = random_net(rng)
            target = rng.choice(net.variable_ids)
            evidence = random_evidence(rng, net, spare=target)
            dist = bayes.marginal(net, target, evidence)
            assert sum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_pure_function_bit_identical(self):
        net = _chain_abc()
        first = bayes.marginal(net, "C", {"A": "True"})
        second = bayes.marginal(net, "C", {"A": "True"})
        assert first.probabilities == second.probabilities

    def test_zero_probability_evidence_raises(self):
        net = bayes.build_net([
            bayes.Node("A", B, (), (0.0, 1.0)),
            bayes.Node("Copy", B, ("A",), (1.0, 0.0, 0.0, 1.0)),
        ])
        with pytest.raises(ZeroEvidenceError):
            bayes.marginal(net, "A", {"Copy": "False"})

    def test_unknown_target_and_state_rejected(self):
        net = _chain_abc()
        with pytest.raises(ValidationError, match="unknown variable"):
            bayes.marginal(net, "Nope")
        with pytest.raises(ValidationError, match="no state"):
            bayes.marginal(net, "A", {"B": "Maybe"})

    def test_indicators_on_deterministic_gates(self):
        # evidence enters as zeroed table entries, so 0/1 gate rows must not
        # turn an impossible observation into a finite posterior
        rng = random.Random(23)
        impossible = 0
        for _ in range(25):
            net = random_net(rng, max_nodes=6, gates=0.5)
            ids = net.variable_ids
            joint = full_joint(net)
            for observed in itertools.chain(
                itertools.combinations(ids, 1), itertools.combinations(ids, 2)
            ):
                for states in itertools.product(B, repeat=len(observed)):
                    evidence = dict(zip(observed, states))
                    index = tuple(
                        net.state_index(v, evidence[v]) if v in evidence else slice(None)
                        for v in ids
                    )
                    if joint[index].sum() == 0.0:
                        impossible += 1
                        for target in (ids[0], observed[0]):
                            with pytest.raises(ZeroEvidenceError):
                                bayes.marginal(net, target, evidence)
                        continue
                    for target in ids:
                        got = bayes.marginal(net, target, evidence)
                        if target in evidence:
                            want = [float(s == evidence[target]) for s in B]
                        else:
                            want = enum_marginal(net, target, evidence)
                        for state, p in zip(B, want):
                            assert abs(got[state] - p) <= 1e-12
        assert impossible > 0

    def test_target_in_evidence_is_point_mass(self):
        net = _chain_abc()
        dist = bayes.marginal(net, "B", {"B": "True"})
        assert dist["True"] == 1.0
        assert dist["False"] == 0.0

    def test_negative_zero_entry_comes_out_as_zero_like_posteriors(self):
        # -0.0 passes the range check; no figure may read as negative
        net = bayes.build_net([bayes.Node("Z", ("F", "T"), (), (1.0, -0.0)),
                               bayes.Node("B", ("F", "T"), ("Z",), (0.25, 0.75, 0.5, 0.5))])
        for evidence in ({}, {"B": "F"}):
            dist = bayes.marginal(net, "Z", evidence)
            assert repr(dist) == repr(bayes.posteriors(net, evidence)["Z"])
            assert repr(dist.probabilities) == "{'F': 1.0, 'T': 0.0}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_enumeration_agreement_property(self, seed):
        rng = random.Random(seed)
        net = random_net(rng, max_nodes=6)
        target = rng.choice(net.variable_ids)
        evidence = random_evidence(rng, net, spare=target)
        got = bayes.marginal(net, target, evidence)
        expected = enum_marginal(net, target, evidence)
        assert np.allclose(
            [got[s] for s in net.variable(target).states], expected, atol=1e-10
        )


class TestPosteriorReport:
    def test_point_mass_on_evidence_via_marginal(self):
        net = _chain_abc()
        report = bayes.posterior_report(net, {"B": "True"})
        assert [d.variable for d in report] == ["A", "C"]
        for dist in report:
            assert sum(dist.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_sorted_by_variable_id(self):
        rng = random.Random(11)
        net = random_net(rng)
        report = bayes.posterior_report(net, {})
        assert [d.variable for d in report] == sorted(net.variable_ids)

    def test_zero_probability_evidence_raises(self):
        net = bayes.build_net([
            bayes.Node("A", B, (), (0.0, 1.0)),
            bayes.Node("Copy", B, ("A",), (1.0, 0.0, 0.0, 1.0)),
        ])
        with pytest.raises(ZeroEvidenceError):
            bayes.posterior_report(net, {"Copy": "False"})


def _tiny_pair():
    """A rare A (1e-200) whose child B is rarer (1e-120) whatever A is, and
    B's child C."""
    return bayes.build_net([
        bayes.Node("A", B, (), (1 - 1e-200, 1e-200)),
        bayes.Node("B", B, ("A",), (1 - 1e-120, 1e-120) * 2),
        bayes.Node("C", B, ("B",), (0.5, 0.5, 0.3, 0.7)),
    ])


STEP_KINDS = ("no table", "two or more results", "tables and results")


def _step_kinds(net):
    """How many steps of the all-variable plan take each branch of the
    backward pass that the tables-only steps do not."""
    kinds, n = collections.Counter(), len(net)
    for reads, _ in bayes._plan(net.signature, None).steps:
        tables = sum(slot < n for slot, _, _ in reads)
        results = len(reads) - tables
        flags = (tables == 0, results >= 2, tables > 0 and results > 0)
        kinds.update(dict(zip(STEP_KINDS, flags)))
    return kinds


def _check_posteriors(net, evidence):
    """``posteriors(net, evidence)`` against enumeration, observed variables
    as exact point masses; ``None`` where the evidence is impossible, which
    must raise :class:`ZeroEvidenceError`."""
    ids = net.variable_ids
    index = tuple(net.state_index(v, evidence[v]) if v in evidence else slice(None) for v in ids)
    if full_joint(net)[index].sum() == 0.0:
        with pytest.raises(ZeroEvidenceError):
            bayes.posteriors(net, evidence)
        return None
    dists = bayes.posteriors(net, evidence)
    assert list(dists) == list(ids)
    for vid in ids:
        states = net.variable(vid).states
        if vid in evidence:
            assert [dists[vid][s] for s in states] == [float(s == evidence[vid]) for s in states]
            continue
        for state, p in zip(states, enum_marginal(net, vid, evidence)):
            assert abs(dists[vid][state] - p) <= 1e-12
    return dists


#: sha256 of :func:`_posteriors_pin`'s text. A rewrite of the kernel
#: generator, the entry check or the indicators must leave every bit of it;
#: a change that moves a figure on purpose re-pins it and says why.
POSTERIORS_PIN = "5cac9d0b28d8fada084ec3c763eb111a3040860a34223efc00d0b7faabdea574"


def _posteriors_pin():
    """``repr`` of ``posteriors`` over a fixed seeded set of queries, one
    line each, a refused query as its error's type and message: the failure
    network, its sink observed plus 0 to 2 other observations, at random
    inputs and at inputs 0 or 1 that put exact zeros in its tables; then
    gated random nets of 2 or 3 states. About one query in twenty observes
    an unknown variable or state."""
    rng, lines = random.Random(3030), []

    def query(net, evidence):
        if rng.random() < 0.05:
            vid = rng.choice([*net.variable_ids, "Nope"])
            evidence = {**evidence, vid: rng.choice(["Maybe", *net.variable(vid).states]
                                                    if vid != "Nope" else ["True"])}
        try:
            lines.append(repr(bayes.posteriors(net, evidence)))
        except (ValidationError, ZeroEvidenceError) as exc:
            lines.append(f"{type(exc).__name__}: {exc}")

    for _ in range(150):
        p = nmr.FailureParams(rng.uniform(1e-7, 1e-3), *(
            rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in range(2)))
        net = nmr.build_failure_bn(p)
        others = [vid for vid in net.variable_ids if vid != "UNSAFE_OUTPUT"]
        for _ in range(3):
            evidence = {"UNSAFE_OUTPUT": "True"}
            for vid in rng.sample(others, k=rng.randint(0, 2)):
                evidence[vid] = rng.choice(net.variable(vid).states)
            query(net, evidence)
    for _ in range(200):
        net = random_net(rng, max_nodes=7, gates=0.6, max_states=rng.choice((2, 3)))
        for _ in range(3):
            observed = rng.sample(net.variable_ids, k=rng.randint(0, min(2, len(net))))
            query(net, {vid: rng.choice(net.variable(vid).states) for vid in observed})
    return "\n".join(lines)


class TestPosteriors:
    def test_results_are_the_pinned_bits(self):
        text = _posteriors_pin()
        refused = collections.Counter(line.split(":")[0] for line in text.splitlines()
                                      if not line.startswith("{"))
        assert refused["ZeroEvidenceError"] > 0 and refused["ValidationError"] > 0
        assert "unknown variable 'Nope'" in text and "has no state 'Maybe'" in text
        assert hashlib.sha256(text.encode()).hexdigest() == POSTERIORS_PIN

    def test_kernel_copies_no_name_and_has_no_unit_factor(self):
        # a row of one name or of the root adjoint's 1.0 is that name, not a
        # line; x * 1.0 == x, so a product leaves the factor out
        nets = [nmr.build_failure_bn(nmr.DEFAULT_FAILURE_PARAMS)]
        rng = random.Random(4242)
        nets += [random_net(rng, max_nodes=7, gates=0.6, max_states=3) for _ in range(20)]
        for net in nets:
            lines = bayes._kernel_source(net.signature, net.zeros).splitlines()
            assert [line for line in lines if re.fullmatch(r" \w+ = [\w.]+", line)] == []
            assert [line for line in lines if re.search(r"\b1\.0 \*|\* 1\.0\b", line)] == []
        assert len(bayes._kernel_source(nets[0].signature, nets[0].zeros).splitlines()) <= 350

    @pytest.mark.parametrize("evidence, named", [
        ({"Nope": "True"}, "unknown variable 'Nope'"),
        ({"B": "Maybe"}, "variable 'B' has no state 'Maybe' (states: False, True)"),
        # two bad observations: the first in evidence order, not variable order
        ({"A": "True", "C": "Maybe", "B": "Maybe"},
         "variable 'C' has no state 'Maybe' (states: False, True)"),
        ({"C": "True", "Nope": "True", "A": "Maybe"}, "unknown variable 'Nope'"),
        ({"A": "Maybe", "Nope": "True"}, "variable 'A' has no state 'Maybe' (states: False, True)"),
    ])
    def test_bad_evidence_is_refused_like_marginal_naming_the_first(self, evidence, named):
        net = _chain_abc()
        queries = [lambda: bayes.posteriors(net, evidence),
                   lambda: bayes.posterior_report(net, evidence)]
        queries += [lambda vid=vid: bayes.marginal(net, vid, evidence) for vid in net.variable_ids]
        for query in queries:
            with pytest.raises(ValidationError) as info:
                query()
            assert type(info.value) is ValidationError and str(info.value) == named

    def test_matches_enumeration_on_gated_nets(self):
        rng = random.Random(909)
        impossible = disconnected = 0
        kinds = collections.Counter()
        for _ in range(60):
            net = random_net(rng, gates=0.5)
            kinds.update(_step_kinds(net))
            ids = net.variable_ids
            children = {p for _, parents, _ in net.signature for p in parents}
            disconnected += len(ids) > 1 and any(
                not parents and vid not in children for vid, parents, _ in net.signature
            )
            observed = rng.sample(ids, k=rng.randint(0, min(2, len(ids))))
            for states in itertools.product(B, repeat=len(observed)):
                evidence = dict(zip(observed, states))
                index = tuple(
                    net.state_index(v, evidence[v]) if v in evidence else slice(None)
                    for v in ids
                )
                if full_joint(net)[index].sum() == 0.0:
                    impossible += 1
                    with pytest.raises(ZeroEvidenceError):
                        bayes.posteriors(net, evidence)
                    continue
                dists = bayes.posteriors(net, evidence)
                assert list(dists) == list(ids)
                for vid in ids:
                    if vid in evidence:
                        want = [float(s == evidence[vid]) for s in B]
                        assert [dists[vid][s] for s in B] == want
                        continue
                    for state, p in zip(B, enum_marginal(net, vid, evidence)):
                        assert abs(dists[vid][state] - p) <= 1e-12
        assert impossible > 0 and disconnected > 0
        assert all(kinds[kind] > 0 for kind in STEP_KINDS), kinds

    def test_matches_enumeration_on_multi_state_gated_nets(self):
        # 2-4 states: groups above 2, and scatters whose entries are read
        # several times through non-binary cardinalities
        rng = random.Random(2024)
        impossible = wide_groups = 0
        kinds = collections.Counter()
        for _ in range(60):
            net = random_net(rng, max_nodes=6, gates=0.5, max_states=4)
            kinds.update(_step_kinds(net))
            ids = net.variable_ids
            wide_groups += any(group > 2 for _, group in bayes._plan(net.signature, None).steps)
            observed = rng.sample(ids, k=rng.randint(0, min(2, len(ids))))
            for states in itertools.product(*(net.variable(v).states for v in observed)):
                evidence = dict(zip(observed, states))
                index = tuple(
                    net.state_index(v, evidence[v]) if v in evidence else slice(None)
                    for v in ids
                )
                if full_joint(net)[index].sum() == 0.0:
                    impossible += 1
                    with pytest.raises(ZeroEvidenceError):
                        bayes.posteriors(net, evidence)
                    with pytest.raises(ZeroEvidenceError):
                        bayes.marginal(net, rng.choice(ids), evidence)
                    continue
                dists = bayes.posteriors(net, evidence)
                assert list(dists) == list(ids)
                for vid in ids:
                    states = net.variable(vid).states
                    if vid in evidence:
                        want = [float(s == evidence[vid]) for s in states]
                        assert [dists[vid][s] for s in states] == want
                        assert [bayes.marginal(net, vid, evidence)[s] for s in states] == want
                        continue
                    single = bayes.marginal(net, vid, evidence)
                    for state, p in zip(states, enum_marginal(net, vid, evidence)):
                        assert abs(dists[vid][state] - p) <= 1e-12
                        assert abs(single[state] - p) <= 1e-12
        assert impossible > 0 and wide_groups > 0
        assert all(kinds[kind] > 0 for kind in STEP_KINDS), kinds

    def test_subnormal_evidence_probability_raises_naming_it(self):
        # P(A=T, B=T) = 1e-320 has lost most of its bits: C's posterior read
        # 0.2999/0.7001, though C depends only on the observed B (0.3/0.7)
        net = _tiny_pair()
        evidence = {"A": "True", "B": "True"}
        message = (r"^evidence \{'A': 'True', 'B': 'True'\} has probability 1e-320, "
                   r"below the smallest normal float$")
        for target in "ABC":
            with pytest.raises(ZeroEvidenceError, match=message):
                bayes.marginal(net, target, evidence)
        with pytest.raises(ZeroEvidenceError, match=message):
            bayes.posteriors(net, evidence)

    def test_subnormal_joint_probability_raises_naming_the_state(self):
        # P(A=T) = 1e-200 and P(B=T) ~ 1e-120 are normal, but P(A=T, B=T) =
        # 1e-320 is not: B's True read 9.99988867e-121 given A=T, not 1e-120
        net = _tiny_pair()
        for observed, vid in ("AB", "BA"):
            message = (rf"^{vid}=True with evidence \{{'{observed}': 'True'\}} has "
                       r"probability 1e-320, below the smallest normal float$")
            with pytest.raises(ZeroEvidenceError, match=message):
                bayes.posteriors(net, {observed: "True"})
            with pytest.raises(ZeroEvidenceError, match=message):
                bayes.marginal(net, vid, {observed: "True"})
        # C's masses with A=T are normal, and an exact zero is not refused
        assert bayes.marginal(net, "C", {"A": "True"}).probabilities == {"False": 0.5, "True": 0.5}
        assert bayes.marginal(net, "A", {"A": "True"}).probabilities == {"False": 0.0, "True": 1.0}

    def test_long_sums_are_split_and_match_enumeration(self):
        # A -> P00 and P00..P11 -> C: eliminating P00 reads A's 2-entry result
        # 2048 times an entry, and its adjoint adds those reads in lines of
        # _CHAIN terms (CPython 3.11 cannot compile one chain of 3000); so do
        # the masses of the parents, each a chain of 2048 terms
        rng = random.Random(1212)
        parents = tuple(f"P{i:02d}" for i in range(12))
        table = [p for _ in range(2 ** 12) for q in [rng.random()] for p in (1 - q, q)]
        net = bayes.build_net(
            [bayes.Node("A", B, (), (0.4, 0.6)), bayes.Node("P00", B, ("A",), (0.9, 0.1, 0.2, 0.8))]
            + [bayes.Node(p, B, (), (0.3, 0.7)) for p in parents[1:]]
            + [bayes.Node("C", B, parents, table)],
        )
        lines = bayes._kernel_source(net.signature, net.zeros).splitlines()
        assert max(line.count(" + ") for line in lines) == bayes._CHAIN  # the name, then a chunk
        assert any(re.match(r" (g\d+_\d+) = \1 \+ ", line) for line in lines)
        assert any(re.match(r" (m\d+_\d+) = \1 \+ ", line) for line in lines)
        for evidence in ({}, {"C": "True"}, {"P05": "False", "C": "False"}):
            dists = bayes.posteriors(net, evidence)
            for vid in net.variable_ids:
                if vid not in evidence:
                    for state, p in zip(B, enum_marginal(net, vid, evidence)):
                        assert abs(dists[vid][state] - p) <= 1e-12

    def test_kernel_source_is_linear_in_a_steps_results(self):
        # n isolated roots: the last step reads n one-entry results, and each
        # result's adjoint is the product of the n - 1 others
        def roots(n):
            priors = [(i % 63 + 1) / 64 for i in range(n)]  # exact in binary
            return priors, bayes.build_net(
                [bayes.Node(f"R{i}", B, (), (p, 1.0 - p)) for i, p in enumerate(priors)])

        (_, small), (priors, large) = roots(150), roots(300)
        source = bayes._kernel_source(large.signature, large.zeros)
        assert len(source) < 2.5 * len(bayes._kernel_source(small.signature, small.zeros))
        words = set(re.findall(r"\b[a-z_]\w*", source))
        assert {w for w in words if not re.fullmatch(r"[abgilmprsz]\d+(_\d+)*", w)} == {
            "def", "k", "v", "return", "if", "not", "min", "or", "new"}
        for evidence in ({}, {"R7": "True"}):
            dists = bayes.posteriors(large, evidence)
            for i, p in enumerate(priors):
                if f"R{i}" not in evidence:
                    assert dists[f"R{i}"].probabilities == {"False": p, "True": 1.0 - p}

    def test_kernel_holds_no_text_of_the_net(self):
        # ids and labels that would run if they reached the generated code
        ids = ["x') or __import__('os').system('exit 1') #", '"""\nraise SystemExit\n"""',
               "__import__('os')", "sum"]
        states = [("'", '"'), ("\n", "\\"), ("a\nb", "__import__('os')", "{0}"), ("F", "T")]
        rng = random.Random(77)
        variables = [bayes.Variable(vid, labels) for vid, labels in zip(ids, states)]
        nodes = []
        for i, var in enumerate(variables):
            parents = tuple(ids[:i][-2:])
            rows = math.prod(len(states[ids.index(p)]) for p in parents)
            weights = [[rng.uniform(0.05, 0.95) for _ in var.states] for _ in range(rows)]
            nodes.append(bayes.Node(*var, parents, [w / sum(row) for row in weights for w in row]))
        net = bayes.build_net(nodes)
        for evidence in ({}, {ids[1]: "\\"}, {ids[0]: '"', ids[2]: "{0}"}):
            dists = bayes.posteriors(net, evidence)
            for var in variables:
                if var.id not in evidence:
                    for state, p in zip(var.states, enum_marginal(net, var.id, evidence)):
                        assert abs(dists[var.id][state] - p) <= 1e-12
        kernel = bayes._kernel(net.signature, net.zeros)
        assert kernel.__globals__ == {"min": min, "new": tuple.__new__, "D": bayes.Distribution}
        assert set(kernel.__code__.co_names) == {"min", "new", "D"}
        assert {type(c) for c in kernel.__code__.co_consts} <= {int, float, type(None)}
        source = bayes._kernel_source(net.signature, net.zeros)
        assert set(source) <= set("0123456789abgimpsvz_ .,=>*+/-():{}\nDdefklnortuw")
        words = set(re.findall(r"\b[A-Za-z_]\w*", source))
        assert {w for w in words if not re.fullmatch(r"[abgimpsz]\d+(_\d+)?", w)} == {
            "def", "k", "v", "return", "if", "not", "min", "or", "new", "D"}

    def test_kernel_is_keyed_on_the_exact_zeros(self):
        # at q = 0 A's True entry is an exact zero, which the kernel folds
        # out: q = 0.3 needs a kernel of its own, and q = 0 again reuses the first
        q, literals = compose.Param("q"), lambda *xs: tuple(map(compose.Literal, xs))
        template = compose.InlineBayes("zeros", (
            bayes.Node("A", B, (), (compose.BinOp("-", compose.Literal(1.0), q), q)),
            bayes.Node("Copy", B, ("A",), literals(1, 0, 0, 1)),
            bayes.Node("C", B, ("Copy",), literals(0.9, 0.1, 0.2, 0.8)),
        ))
        bayes._kernel.cache_clear()
        for value, misses, impossible in ((0.0, 1, 2), (0.3, 2, 0), (0.0, 2, 2)):
            net = compose.inline_bayes_net(template, {"q": value})
            results = [_check_posteriors(net, evidence) for evidence in (
                {}, {"C": "True"}, {"Copy": "False"}, {"Copy": "True"},
                {"A": "True", "C": "False"})]
            assert results.count(None) == impossible
            assert bayes._kernel.cache_info().misses == misses

    def test_folded_kernel_is_bit_for_bit_the_unfolded_one(self):
        # deterministic rows put exact zeros in most tables; the kernel that
        # folds them out must return what the same plan returns unfolded
        rng = random.Random(2323)
        folded = impossible = 0
        for _ in range(40):
            net = random_net(rng, max_nodes=6, gates=0.9, max_states=rng.choice((2, 3)))
            folded += any(net.zeros)
            unfolded = bayes._kernel(net.signature, ((),) * len(net))
            ids = net.variable_ids
            for _ in range(3):
                observed = rng.sample(ids, k=rng.randint(0, min(2, len(ids))))
                evidence = {v: rng.choice(net.variable(v).states) for v in observed}
                impossible += _check_posteriors(net, evidence) is None
                tables = bayes._indicated(net, evidence)
                got = bayes._kernel(net.signature, net.zeros)(net.variables, *tables)
                assert repr(got) == repr(unfolded(net.variables, *tables))
        assert folded > 30 and impossible > 0

    def test_several_subnormal_masses_raise_naming_the_first_variable(self):
        # given A=T, both Y's and X's True masses are subnormal (1e-320 and
        # 1e-321); the first in variable order, Y, is named
        net = bayes.build_net([
            bayes.Node("A", B, (), (1 - 1e-200, 1e-200)),
            bayes.Node("Y", B, ("A",), (1 - 1e-120, 1e-120) * 2),
            bayes.Node("X", B, ("A",), (1 - 1e-121, 1e-121) * 2),
        ])
        message = (r"^Y=True with evidence \{'A': 'True'\} has probability 1e-320, "
                   r"below the smallest normal float$")
        with pytest.raises(ZeroEvidenceError, match=message):
            bayes.posteriors(net, {"A": "True"})

    def test_failure_net_matches_marginal(self):
        # the observed sink must come out exactly 1.0, which normalising by
        # the forward P(e) instead of each variable's own sum does not give
        rng = random.Random(3131)
        for _ in range(60):
            p = nmr.FailureParams(
                rng.uniform(1e-7, 1e-3), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
            )
            net = nmr.build_failure_bn(p)
            evidence = {"UNSAFE_OUTPUT": "True"}
            for vid in rng.sample(net.variable_ids, k=rng.randint(0, 2)):
                evidence[vid] = rng.choice(net.variable(vid).states)
            try:
                want = {vid: bayes.marginal(net, vid, evidence) for vid in net.variable_ids}
            except ZeroEvidenceError:
                with pytest.raises(ZeroEvidenceError):
                    bayes.posteriors(net, evidence)
                continue
            got = bayes.posteriors(net, evidence)
            for vid, dist in want.items():
                for state, q in dist.probabilities.items():
                    if vid in evidence:
                        assert got[vid][state] == float(state == evidence[vid])
                    else:
                        assert abs(got[vid][state] - q) <= 1e-12 * q


class TestEliminationOrder:
    def test_chain_eliminates_tail_first(self):
        net = _chain_abc()
        assert bayes.elimination_order(net, "C") == ("A", "B")

    def test_any_order_matches_enumeration(self):
        # exercised across random nets: the order feeds marginal(), which the
        # enumeration-agreement tests above check against the full joint
        rng = random.Random(3)
        net = random_net(rng)
        order = bayes.elimination_order(net, net.variable_ids[0])
        assert set(order) == set(net.variable_ids[1:])

    @pytest.mark.parametrize("query, expected", [
        ("A", ("C", "B")),
        ("B", ("A", "C")),
        ("C", ("A", "B")),
    ])
    def test_chain_orders_pinned(self, query, expected):
        assert bayes.elimination_order(_chain_abc(), query) == expected

    def test_random_net_order_pinned(self):
        net = random_net(random.Random(3))
        assert bayes.elimination_order(net, net.variable_ids[0]) == ("V1", "V2", "V3")

    def test_failure_net_order_pinned(self):
        net = nmr.build_failure_bn(nmr.FailureParams(1.6666e-5, 0.1, 0.1))
        assert bayes.elimination_order(net, "UNSAFE_OUTPUT") == (
            "Excl_A", "Excl_B", "Fault_detectability_A", "Fault_detectability_B",
            "Same_output_alterations", "Detectable_Fault_A", "Non_detectable_Fault_A",
            "Detectable_Fault_B", "Non_detectable_Fault_B", "Fault_A", "Fault_type_A",
            "Fault_B", "Fault_type_B", "Permanent_Fault_A", "Transient_Fault_A",
            "Error_due_to_Transient_A", "Undetected_permanent_A", "UNCORR_A",
            "Permanent_Fault_B", "Transient_Fault_B", "Error_due_to_Transient_B",
            "Undetected_permanent_B", "UNCORR_B",
        )


class TestPlanStructure:
    """The invariants that reading each posterior off its elimination step
    rests on, checked on compiled plans by replaying which assignment of
    the variables each entry of each slot stands for."""

    @pytest.mark.parametrize("seed", range(4))
    def test_reads_groups_and_expands_on_random_plans(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            net = random_net(rng, max_nodes=7, gates=0.3, max_states=rng.choice((2, 4)))
            for target in (None, rng.choice(net.variable_ids)):
                self._check(net, target)

    def _check(self, net, target):
        plan = bayes._plan(net.signature, target)
        card = {vid: n for vid, _, n in net.signature}
        entries = [  # slot -> the assignment {variable: state index} of each entry
            [dict(zip(parents + (vid,), states))
             for states in itertools.product(*(range(card[v]) for v in parents + (vid,)))]
            for vid, parents, _ in net.signature
        ]
        reads_of = collections.Counter()
        for t, (reads, group) in enumerate(plan.steps):
            scope = None
            for slot, index, read in reads:
                reads_of[slot] += 1
                table = entries[slot]
                assert list(read(range(len(table)))) == list(index)
                # every entry of the table is read, and equally often
                reps, rest = divmod(len(index), len(table))
                assert rest == 0
                assert collections.Counter(index) == dict.fromkeys(range(len(table)), reps)
                gathered = [table[i] for i in index]
                if scope is None:
                    scope = [dict(a) for a in gathered]
                assert len(gathered) == len(scope)
                for merged, a in zip(scope, gathered):  # the reads agree on each entry
                    for v, k in a.items():
                        assert merged.setdefault(v, k) == k
            assert len({tuple(sorted(a.items())) for a in scope}) == len(scope)
            eliminated = plan.order[t] if t < len(plan.order) else None
            # the eliminated variable is innermost, and a group holds its states
            assert group == (1 if eliminated is None else card[eliminated])
            if eliminated is not None:
                assert [a[eliminated] for a in scope] == [p % group for p in range(len(scope))]
            out = [{v: k for v, k in a.items() if v != eliminated} for a in scope[::group]]
            # entry p of the step's product expands entry p // group of its result
            for p, a in enumerate(scope):
                assert {v: k for v, k in a.items() if v != eliminated} == out[p // group]
            entries.append(out)
        # every slot but the result is read by exactly one step
        assert reads_of == dict.fromkeys(range(len(entries) - 1), 1)
        assert entries[-1] == ([{}] if target is None
                               else [{target: k} for k in range(card[target])])


def _child_of(parents, cpt):
    """Roots A (P(True) 0.2) and B (0.7) and a child C with the given parents;
    ``cpt`` holds C's rows in parent-state order."""
    return bayes.build_net([
        bayes.Node("A", B, (), (0.8, 0.2)),
        bayes.Node("B", B, (), (0.3, 0.7)),
        bayes.Node("C", B, parents, [p for row in cpt for p in row]),
    ])


class TestPlanCache:
    """Plans are shared across nets and queries; each test fails if the
    cache key left out something the plan depends on."""

    def _assert_enumeration(self, net, target, evidence):
        got = bayes.marginal(net, target, evidence)
        want = enum_marginal(net, target, evidence)
        for state, p in zip(net.variable(target).states, want):
            assert abs(got[state] - p) <= 1e-12
        return [got[state] for state in net.variable(target).states]

    def test_structure_is_checked_once_per_structure(self, monkeypatch):
        nmr.build_failure_bn(nmr.FailureParams(1e-5, 0.1, 0.1))
        calls = []
        monkeypatch.setattr(bayes, "check_structure", lambda *args: calls.append(args))
        for par1 in (2e-5, 3e-5):  # new tables, the same structure
            nmr.build_failure_bn(nmr.FailureParams(par1, 0.1, 0.1))
        assert calls == []  # after a template's first build, no build checks its structure

    def test_parameters_stay_out_of_the_plan(self):
        params = [nmr.FailureParams(1.6666e-5, 0.1, 0.1), nmr.FailureParams(3e-4, 0.4, 0.02)]
        for p in params + params:
            net = nmr.build_failure_bn(p)
            u = uncorr_probability(p)
            assert bayes.marginal(net, "UNCORR_A")["True"] == pytest.approx(u, rel=1e-12)
            assert bayes.marginal(net, "UNSAFE_OUTPUT")["True"] == pytest.approx(
                unsafe_probability(u, p.par3, p.excl_fail), rel=1e-12
            )

    def test_observed_states_stay_out_of_the_plan(self):
        rng = random.Random(17)
        for _ in range(20):
            net = random_net(rng)
            target = rng.choice(net.variable_ids)
            observed = random_evidence(rng, net, spare=target)
            for states in itertools.product(B, repeat=len(observed)):
                self._assert_enumeration(net, target, dict(zip(observed, states)))

    def test_parent_order_is_in_the_key(self):
        cpt = ((0.9, 0.1), (0.6, 0.4), (0.25, 0.75), (0.05, 0.95))
        ab, ba = _child_of(("A", "B"), cpt), _child_of(("B", "A"), cpt)
        for evidence in ({}, {"A": "True"}):
            first = self._assert_enumeration(ab, "C", evidence)
            second = self._assert_enumeration(ba, "C", evidence)
            assert first != second

    def test_state_counts_are_in_the_key(self):
        # same ids and parents; only the number of A's states differs
        nets = [
            bayes.build_net([
                bayes.Node("A", states, (), prior),
                bayes.Node("B", B, ("A",), [p for row in rows for p in row]),
            ])
            for states, prior, rows in (
                (B, (0.4, 0.6), ((0.9, 0.1), (0.3, 0.7))),
                (("lo", "mid", "hi"), (0.2, 0.5, 0.3), ((0.9, 0.1), (0.3, 0.7), (0.05, 0.95))),
            )
        ]
        for net in nets + nets:
            for target, evidence in (("B", {}), ("A", {}), ("A", {"B": "True"})):
                self._assert_enumeration(net, target, evidence)

    def test_parent_set_is_in_the_key(self):
        cpt = ((0.9, 0.1), (0.2, 0.8))
        on_a, on_b = _child_of(("A",), cpt), _child_of(("B",), cpt)
        for evidence in ({}, {"C": "True"}):
            target = "C" if not evidence else "A"
            first = self._assert_enumeration(on_a, target, evidence)
            second = self._assert_enumeration(on_b, target, evidence)
            assert first != second

    def test_plan_does_not_depend_on_the_evidence(self):
        # unit A's transient fault activates, escapes, and its exclusion fails
        hazard = {
            "Fault_A": "True", "Fault_type_A": "Transient",
            "Fault_detectability_A": "Detectable", "Transient_Fault_A": "True",
            "Permanent_Fault_A": "False", "Detectable_Fault_A": "False",
            "Non_detectable_Fault_A": "False", "Error_due_to_Transient_A": "True",
            "Undetected_permanent_A": "False", "UNCORR_A": "True", "Excl_A": "True",
            "Fault_B": "False", "Fault_type_B": "Transient",
            "Fault_detectability_B": "Detectable", "Transient_Fault_B": "False",
            "Permanent_Fault_B": "False", "Detectable_Fault_B": "False",
            "Non_detectable_Fault_B": "False", "Error_due_to_Transient_B": "False",
            "Undetected_permanent_B": "False", "UNCORR_B": "False", "Excl_B": "False",
            "Same_output_alterations": "False", "UNSAFE_OUTPUT": "True",
        }
        net = nmr.build_failure_bn(nmr.FailureParams(1.6666e-5, 0.1, 0.1))
        assert set(hazard) == set(net.variable_ids)
        assert joint_probability(net, hazard) > 0.0
        bayes._plan.cache_clear()
        for vid, state in hazard.items():
            bayes.posterior_report(net, {"UNSAFE_OUTPUT": "True", vid: state})
        assert bayes._plan.cache_info().misses <= len(net)

    def test_posteriors_compile_one_plan_per_structure(self):
        net = nmr.build_failure_bn(nmr.FailureParams(1.6666e-5, 0.1, 0.1))
        bayes._plan.cache_clear()
        bayes._kernel.cache_clear()  # a compiled kernel reads no plan
        for vid in net.variable_ids:
            for state in net.variable(vid).states:
                try:
                    bayes.posterior_report(net, {"UNSAFE_OUTPUT": "True", vid: state})
                except ZeroEvidenceError:
                    pass
        assert bayes._plan.cache_info().misses == 1


def test_figures_do_not_depend_on_the_sum_builtin(monkeypatch):
    # `sum` of floats is compensated from CPython 3.12; every figure sum adds
    # left to right, so a compensated `sum` in the modules changes no bit
    rng = random.Random(3434)
    chains = [random_irreducible_chain(rng, max_states=8) for _ in range(60)]
    nets = [random_net(rng, max_nodes=6, gates=0.2, max_states=4) for _ in range(40)]
    queries = [(net, random_evidence(rng, net, rng.choice(net.variable_ids))) for net in nets]

    def figures():
        out = [ctmc.steady_state(chain) for chain in chains]
        for net, evidence in queries:
            for run in (lambda: bayes.posteriors(net, evidence),
                        lambda: [bayes.marginal(net, vid, evidence) for vid in net.variable_ids]):
                try:
                    out.append(run())
                except ZeroEvidenceError as exc:
                    out.append(str(exc))
        return repr(out)

    assert max(len(chain.states) for chain in chains) >= 3
    assert max(len(var.states) for net in nets for var in net.variables) >= 3
    bayes._kernel.cache_clear()
    want = figures()
    for module in (bayes, ctmc):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    try:
        bayes._kernel.cache_clear()  # a kernel compiled now would read the patched name
        assert figures() == want
    finally:
        bayes._kernel.cache_clear()


def test_oracle_nets_do_not_depend_on_the_sum_builtin(monkeypatch):
    # a pinned seed draws the same tables where `sum` of floats is compensated
    def tables():
        return [repr(random_net(random.Random(seed), max_states=4).cpts) for seed in range(200)]

    want = tables()
    monkeypatch.setattr(oracles, "sum", math.fsum, raising=False)
    assert [seed for seed, (a, b) in enumerate(zip(tables(), want)) if a != b] == []
