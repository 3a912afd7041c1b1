"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.

Known red: two sub-checks of criterion 5. The second case study's reference
interface pair is quoted at two significant digits (1.3e-6, and 9.1e-10
downstream); recomputing the pipeline at full precision gives 1.315e-6 and
9.0085e-10, which sit 1.15% and 1.01% from those quotes, outside the 1%
gate. The gate is asserted as stated rather than widened; the exact values
are themselves pinned by independent closed forms in tests/test_nmr.py.
"""

import random
from pathlib import Path

import numpy as np

from redvote import bayes, cli, compose, ctmc, dsl, nmr

from oracles import (
    dense_steady_state,
    enum_marginal,
    generator,
    mtbhe_conversion,
    random_evidence,
    random_irreducible_chain,
    random_net,
    random_workflow,
    simulate,
)

MODELS = Path(__file__).resolve().parent.parent / "models"
MAINT = {"PAR_6": 1.0, "PAR_7": 1e-2, "PAR_8": 1e-4, "PAR_9": 3.0}


class Gate:
    """Collects labeled sub-checks and prints one line for the criterion."""

    def __init__(self, number: int, name: str) -> None:
        self.number = number
        self.name = name
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            self.failures.append(label)

    def check_rel(self, label: str, got: float, want: float, tol: float) -> None:
        rel = abs(got - want) / abs(want)
        self.check(f"{label}: got {got:.6e}, want {want:.6e} within {tol:.2%} "
                   f"(off by {rel:.3%})", rel <= tol)

    def check_abs(self, label: str, got: float, want: float, tol: float) -> None:
        err = abs(got - want)
        self.check(f"{label}: got {got:.6e}, want {want:.6e} within {tol:g} "
                   f"(off by {err:.3g})", err <= tol)

    def finish(self) -> None:
        if self.failures:
            detail = "; ".join(self.failures)
            print(f"ACCEPTANCE {self.number:02d} {self.name}: FAIL ({detail})")
            raise AssertionError(f"criterion {self.number} ({self.name}): {detail}")
        print(f"ACCEPTANCE {self.number:02d} {self.name}: PASS")


TABLE_2 = {
    "Detectable_Fault_A": ("True", 1.5e-6),
    "Detectable_Fault_B": ("True", 1.5e-6),
    "Error_due_to_Transient_A": ("True", 1.5e-6),
    "Error_due_to_Transient_B": ("True", 1.5e-6),
    "Excl_A": ("True", 1e-10),
    "Excl_B": ("True", 1e-10),
    "Fault_A": ("True", 1.6666e-5),
    "Fault_B": ("True", 1.6666e-5),
    "Fault_detectability_A": ("Detectable", 0.9),
    "Fault_detectability_B": ("Detectable", 0.9),
    "Fault_type_A": ("Transient", 0.9),
    "Fault_type_B": ("Transient", 0.9),
    "Non_detectable_Fault_A": ("True", 1.6666e-7),
    "Non_detectable_Fault_B": ("True", 1.6666e-7),
    "Permanent_Fault_A": ("True", 1.6666e-6),
    "Permanent_Fault_B": ("True", 1.6666e-6),
    "Same_output_alterations": ("True", 0.1),
    "Transient_Fault_A": ("True", 1.5e-5),
    "Transient_Fault_B": ("True", 1.5e-5),
    "UNCORR_A": ("True", 2.1912e-6),
    "UNCORR_B": ("True", 2.1912e-6),
    "Undetected_permanent_A": ("True", 6.9164e-7),
    "Undetected_permanent_B": ("True", 6.9164e-7),
    "UNSAFE_OUTPUT": ("True", 4.8056e-13),
}


def test_c01_table_regression():
    gate = Gate(1, "reference-table regression")
    net = nmr.build_failure_bn(nmr.FailureParams(par1=1.6666e-5, par2=0.1, par3=0.1))
    gate.check(f"network has {len(net)} variables, reference table lists 24",
               len(net) == len(TABLE_2))
    for var, (state, want) in TABLE_2.items():
        got = bayes.marginal(net, var)[state]
        gate.check_rel(var, got, want, 0.005)
    gate.finish()


def test_c02_mtbhe():
    gate = Gate(2, "MTBHE conversion")
    mtbhe_2oo2, mtbhe_2oo3 = mtbhe_conversion(4.8056e-13)
    gate.check_rel("MTBHE_2oo3", mtbhe_2oo3, 6.9362e11, 0.005)
    gate.check("factor-three identity exact", mtbhe_2oo2 == 3.0 * mtbhe_2oo3)
    gate.finish()


def test_c03_posteriors():
    gate = Gate(3, "posteriors under observed hazard")
    net = nmr.build_failure_bn(nmr.FailureParams(par1=1.6666e-5, par2=0.1, par3=0.1))
    evidence = {"UNSAFE_OUTPUT": "True"}
    gate.check_abs("Error_due_to_Transient_A",
                   bayes.marginal(net, "Error_due_to_Transient_A", evidence)["True"],
                   0.684, 0.003)
    gate.check_abs("Undetected_permanent_A",
                   bayes.marginal(net, "Undetected_permanent_A", evidence)["True"],
                   0.316, 0.003)
    gate.check_abs("Non_detectable_Fault_A",
                   bayes.marginal(net, "Non_detectable_Fault_A", evidence)["True"],
                   0.076, 0.003)
    worst = 0.0
    for dist_a in bayes.posterior_report(net, evidence):
        if dist_a.variable.endswith("_A"):
            dist_b = bayes.marginal(net, dist_a.variable[:-2] + "_B", evidence)
            worst = max(
                worst,
                max(abs(dist_a[s] - dist_b[s]) for s in dist_a.probabilities),
            )
    gate.check(f"A/B posterior symmetry within 1e-12 (worst {worst:.3g})", worst <= 1e-12)
    gate.finish()


def _compose_run(par1: float, par2: float, par3: float) -> compose.SolveResult:
    phi = compose.ModelInstance(
        "phi", "failure2oo2",
        {"PAR_1": compose.Literal(par1), "PAR_2": compose.Literal(par2),
         "PAR_3": compose.Literal(par3)},
    )
    mu = compose.ModelInstance(
        "mu", "maintenance5",
        {"PAR_4": compose.Ref("phi", "PAR_4"), "PAR_5": compose.Ref("phi", "PAR_5"),
         "PAR_6": compose.Literal(1.0), "PAR_7": compose.Literal(1e-2),
         "PAR_8": compose.Literal(1e-4), "PAR_9": compose.Literal(3.0)},
    )
    export = compose.Export(
        "HFR_2oo3", compose.BinOp("*", compose.Literal(3.0), compose.Ref("mu", "PAR_10"))
    )
    return compose.run_workflow(compose.Workflow("acceptance", (), (phi, mu), (export,)))


def test_c04_composition_run_1():
    gate = Gate(4, "composition, first instantiation")
    result = _compose_run(1.666e-5, 1e-1, 1e-1)
    gate.check_rel("PAR_4", result.instances["phi"]["PAR_4"], 2.19e-6, 0.01)
    gate.check_rel("PAR_5", result.instances["phi"]["PAR_5"], 4.8e-13, 0.01)
    gate.check_rel("HFR_2oo3", result.exports["HFR_2oo3"], 3.33e-7, 0.01)
    gate.finish()


def test_c05_composition_run_2():
    gate = Gate(5, "composition, second instantiation")
    result = _compose_run(1e-5, 1e-1, 3e-4)
    gate.check_rel("PAR_4", result.instances["phi"]["PAR_4"], 1.3e-6, 0.01)
    gate.check_rel("PAR_5", result.instances["phi"]["PAR_5"], 7.81e-16, 0.01)
    gate.check_rel("HFR_2oo3", result.exports["HFR_2oo3"], 9.1e-10, 0.01)
    gate.finish()


def test_c06_sensitivity():
    gate = Gate(6, "sensitivity ratios")
    failure = compose.builtin_classes()["failure2oo2"]

    def phi(par1: float, par2: float, par3: float) -> dict[str, float]:
        return compose.solve(failure, {"PAR_1": par1, "PAR_2": par2, "PAR_3": par3})

    base = phi(1.666e-5, 0.1, 0.1)

    tenth_par1 = phi(1.666e-6, 0.1, 0.1)
    gate.check_rel("par1/10: PAR_4/10", tenth_par1["PAR_4"], base["PAR_4"] / 10, 0.05)
    gate.check_rel("par1/10: PAR_5/100", tenth_par1["PAR_5"], base["PAR_5"] / 100, 0.10)

    tenth_par3 = phi(1.666e-5, 0.1, 0.01)
    gate.check_rel("par3/10: PAR_4 unchanged", tenth_par3["PAR_4"], base["PAR_4"], 0.0001)
    gate.check_rel("par3/10: PAR_5/10", tenth_par3["PAR_5"], base["PAR_5"] / 10, 0.10)

    tenth_par2 = phi(1.666e-5, 0.01, 0.1)
    for name in ("PAR_4", "PAR_5"):
        moves = abs(tenth_par2[name] - base[name]) / base[name]
        gate.check(f"par2/10: {name} moves {moves:.3%} (< 10%)", moves < 0.10)
    gate.finish()


def test_c07_inference_oracle():
    gate = Gate(7, "variable elimination vs enumeration")
    rng = random.Random(424242)
    worst = 0.0
    for _ in range(200):
        net = random_net(rng, max_nodes=8)
        target = rng.choice(net.variable_ids)
        evidence = random_evidence(rng, net, spare=target)
        got = bayes.marginal(net, target, evidence)
        want = enum_marginal(net, target, evidence)
        worst = max(worst, max(
            abs(got[s] - w) for s, w in zip(net.variable(target).states, want)
        ))
    gate.check(f"200 nets within 1e-10 (worst {worst:.3g})", worst <= 1e-10)
    gate.finish()


def test_c08_steady_state_oracles():
    gate = Gate(8, "steady-state oracles")
    rng = random.Random(31337)
    worst = 0.0
    for _ in range(50):
        chain = random_irreducible_chain(rng, max_states=10)
        pi = ctmc.steady_state(chain)
        want = dense_steady_state(chain)
        worst = max(worst, float(np.max(np.abs(
            np.array([pi[s] for s in chain.states]) - want
        ))))
    gate.check(f"50 chains GTH vs dense solve within 1e-10 (worst {worst:.3g})",
               worst <= 1e-10)

    chain = nmr.build_maintenance_ctmc("maintenance5", {
        "PAR_4": 2e-3, "PAR_5": 1e-3, "PAR_6": 1.0, "PAR_7": 1e-2, "PAR_8": 1e-3, "PAR_9": 3.0})
    pi = ctmc.steady_state(chain)
    sim = simulate(chain, horizon=1e6, seed=2311)
    sigmas = max(
        abs(sim.occupancy[s] - pi[s]) / max(sim.standard_error[s], 1e-12)
        for s in chain.states
    )
    gate.check(f"simulation within 3 standard errors (worst {sigmas:.2f} sigma)",
               sigmas <= 3.0)

    sample = random_irreducible_chain(random.Random(5), max_states=10)
    scaled = ctmc.Ctmc(
        sample.states, sample.initial,
        tuple(ctmc.Transition(t.src, t.dst, t.rate * 1e7) for t in sample.transitions),
    )
    drift = max(
        abs(ctmc.steady_state(sample)[s] - ctmc.steady_state(scaled)[s])
        for s in sample.states
    )
    gate.check(f"rate-scaling invariance within 1e-12 (worst {drift:.3g})",
               drift <= 1e-12)
    gate.finish()


def test_c09_structural_invariants():
    gate = Gate(9, "structural invariants")

    net = nmr.build_failure_bn(nmr.FailureParams(par1=1.6666e-5, par2=0.1, par3=0.1))
    rng = random.Random(77)
    nets = [net] + [random_net(rng) for _ in range(10)]
    worst_row = 0.0
    for candidate in nets:
        for var in candidate.variables:
            table, count = candidate.cpts[var.id].cpt, var.cardinality
            for start in range(0, len(table), count):
                worst_row = max(worst_row, abs(sum(table[start:start + count]) - 1.0))
    gate.check(f"CPT rows sum to 1 within 1e-9 (worst {worst_row:.3g})",
               worst_row <= 1e-9)

    inputs = {"PAR_4": 2.19e-6, "PAR_5": 4.8e-13, **MAINT}
    chains = [
        nmr.build_maintenance_ctmc(name, inputs) for name in nmr.MAINTENANCE_CLASSES
    ] + [random_irreducible_chain(rng) for _ in range(10)]
    worst_gen = 0.0
    for chain in chains:
        q = generator(chain)
        worst_gen = max(worst_gen, float(np.abs(q.sum(axis=1)).max()))
    gate.check(f"generator rows sum to 0 within 1e-12 (worst {worst_gen:.3g})",
               worst_gen <= 1e-12)

    first = _compose_run(1.666e-5, 1e-1, 1e-1)
    second = _compose_run(1.666e-5, 1e-1, 1e-1)
    gate.check("workflow execution deterministic",
               first.exports == second.exports and first.instances == second.instances)

    a = compose.ModelInstance(
        "a", "failure2oo2",
        {"PAR_1": compose.Literal(1e-5), "PAR_2": compose.Literal(0.1),
         "PAR_3": compose.Literal(0.1)},
    )
    b = compose.ModelInstance(
        "b", "failure2oo2",
        {"PAR_1": compose.Literal(2e-5), "PAR_2": compose.Literal(0.1),
         "PAR_3": compose.Literal(0.1)},
    )
    ratio = (compose.Export("ratio", compose.BinOp(
        "/", compose.Ref("a", "PAR_4"), compose.Ref("b", "PAR_4"))),)
    # the solve order follows declaration order, so the two runs solve a and b
    # in opposite orders
    forward = compose.validate_workflow(compose.Workflow("pair", (), (a, b), ratio))
    backward = compose.validate_workflow(compose.Workflow("pair", (), (b, a), ratio))
    gate.check(
        "workflow execution order-independent",
        forward.order == ("a", "b") and backward.order == ("b", "a")
        and compose.run_workflow(forward).exports == compose.run_workflow(backward).exports,
    )
    gate.finish()


def test_c10_dsl_round_trip_and_cli(capsys, tmp_path):
    gate = Gate(10, "file format round-trip and CLI exit codes")

    rng = random.Random(20240817)
    bad_round_trips = 0
    for _ in range(100):
        workflow = random_workflow(rng)
        reparsed = dsl.parse(dsl.print_workflow(workflow)).workflow
        if reparsed != workflow:
            bad_round_trips += 1
    gate.check(f"100 random workflows round-trip ({bad_round_trips} mismatches)",
               bad_round_trips == 0)

    case_study = MODELS / "case-study.rvm"
    parsed = dsl.parse(case_study.read_text(), origin=str(case_study))
    gate.check("shipped case-study parses", parsed.ok)
    if parsed.ok:
        result = compose.run_workflow(parsed.workflow)
        gate.check_rel("shipped case-study HFR_2oo3",
                       result.exports["HFR_2oo3"], 3.33e-7, 0.01)

    cyclic = tmp_path / "cyclic.rvm"
    cyclic.write_text(
        'workflow "w" {\n'
        "  instance mu : builtin.maintenance5 {\n"
        "    PAR_4 = mu.PAR_10; PAR_5 = mu.PAR_10;\n"
        "    PAR_6 = 1; PAR_7 = 1e-2; PAR_8 = 1e-4; PAR_9 = 3;\n"
        "  }\n}"
    )
    broken = tmp_path / "broken.rvm"
    broken.write_text(
        'workflow "w" {\n'
        "  instance mu : builtin.maintenance5 {\n"
        "    PAR_4 = 1e-9; PAR_5 = 1e-5;\n"
        "    PAR_6 = 1; PAR_7 = 1e-2; PAR_8 = 1e-4; PAR_9 = 3;\n"
        "  }\n}"
    )
    expectations = [
        (0, ["validate", str(case_study)]),
        (2, ["solve", str(tmp_path / "missing.rvm")]),
        (3, ["validate", str(cyclic)]),
        (4, ["solve", str(broken)]),
        (5, ["solve", str(case_study), "--threshold", "1e-9"]),
    ]
    for want, argv in expectations:
        got = cli.main(argv)
        gate.check(f"exit {want} for `{' '.join(argv[:1] + argv[-2:])}` (got {got})",
                   got == want)
    capsys.readouterr()  # swallow CLI output so the gate line stays visible
    gate.finish()
