"""The concrete failure network and maintenance chains."""

import math

import pytest

from redvote import bayes, compose, ctmc, nmr
from redvote.errors import SolverError, ValidationError

from oracles import (
    dense_steady_state,
    five_state_pi3,
    generator,
    mtbhe_conversion,
    simulate,
    uncorr_probability,
    unsafe_probability,
)

TABLE_DEFAULTS = nmr.FailureParams(par1=1.6666e-5, par2=0.1, par3=0.1)
RUN1 = nmr.FailureParams(par1=1.666e-5, par2=0.1, par3=0.1)
RUN2 = nmr.FailureParams(par1=1e-5, par2=0.1, par3=3e-4)
MAINT = dict(par6=1.0, par7=1e-2, par8=1e-4, par9=3.0)
MAINTENANCE5 = compose.builtin_classes()["maintenance5"]

UNIT_PAIR_PREFIXES = (
    "Fault", "Fault_type", "Fault_detectability", "Transient_Fault",
    "Permanent_Fault", "Detectable_Fault", "Non_detectable_Fault",
    "Error_due_to_Transient", "Undetected_permanent", "UNCORR", "Excl",
)


def inputs(**pars: float) -> dict[str, float]:
    """The inputs of a maintenance class from ``par4=...`` to ``par9=...``."""
    return {f"PAR_{name[3:]}": value for name, value in pars.items()}


def hazard(**pars: float) -> dict[str, float]:
    """``HFR_2oo3`` and ``MTBHE_2oo3`` as the shipped models export them,
    over a ``maintenance5`` instance ``mu`` with the given inputs."""
    mu = compose.ModelInstance("mu", "maintenance5", {
        name: compose.Literal(value) for name, value in inputs(**pars).items()})
    hfr = compose.BinOp("*", compose.Literal(3.0), compose.Ref("mu", "PAR_10"))
    exports = (compose.Export("HFR_2oo3", hfr),
               compose.Export("MTBHE_2oo3", compose.BinOp("/", compose.Literal(1.0), hfr)))
    result = compose.run_workflow(compose.Workflow("hazard", (), (mu,), exports))
    return {"PAR_10": result.instances["mu"]["PAR_10"], **result.exports}


class TestParams:
    def test_failure_params_range_checked(self):
        # PAR_1 to PAR_3 are checked as the class's inputs; the table constants
        # are class attributes, which no call can set
        for build in (nmr.build_failure_bn, nmr.failure_interface):
            with pytest.raises(ValidationError, match="PAR_1"):
                build(nmr.FailureParams(par1=1.5, par2=0.1, par3=0.1))
        with pytest.raises(TypeError):
            nmr.FailureParams(1e-5, 0.1, 0.1, 0.5)
        with pytest.raises(TypeError):
            nmr.FailureParams(1e-5, 0.1, 0.1, p_miss=0.5)

    def test_maintenance_params_checked(self):
        with pytest.raises(ValidationError, match="par5"):
            nmr.build_maintenance_ctmc("maintenance5", inputs(
                par4=1e-6, par5=3e-6, par6=1, par7=0.01, par8=0, par9=0))
        with pytest.raises(ValidationError, match="PAR_6"):
            nmr.build_maintenance_ctmc("maintenance5", inputs(
                par4=1e-6, par5=1e-7, par6=-1, par7=0.01, par8=0, par9=0))
        with pytest.raises(ValidationError, match="maintenance6"):
            nmr.build_maintenance_ctmc("maintenance6", inputs(par4=1e-6, par5=1e-7, **MAINT))

    @pytest.mark.parametrize("field", ["par6", "par8", "par9"])
    def test_maintenance_rates_must_be_finite(self, field):
        rates = {"par6": 1.0, "par8": 1e-4, "par9": 3.0, field: math.inf}
        name = f"PAR_{field[3:]}"
        with pytest.raises(ValidationError, match=f"^input '{name}' must be finite, got inf$"):
            compose.solve(MAINTENANCE5, inputs(par4=1e-6, par5=1e-7, par7=0.01, **rates))


class TestFailureNetwork:
    def test_counts_24_variables_per_reference_list(self):
        net = nmr.build_failure_bn(TABLE_DEFAULTS)
        assert len(net) == 24

    def test_spot_marginals_match_reference_table(self):
        net = nmr.build_failure_bn(TABLE_DEFAULTS)

        def p(var):
            state = "True"
            if var.startswith("Fault_type"):
                state = "Transient"
            if var.startswith("Fault_detectability"):
                state = "Detectable"
            return bayes.marginal(net, var)[state]

        assert p("UNCORR_A") == pytest.approx(2.1912e-6, rel=5e-3)
        assert p("Undetected_permanent_A") == pytest.approx(6.9164e-7, rel=5e-3)
        assert p("UNSAFE_OUTPUT") == pytest.approx(4.8056e-13, rel=5e-3)
        assert p("Fault_type_B") == pytest.approx(0.9)
        assert p("Non_detectable_Fault_B") == pytest.approx(1.6666e-7, rel=5e-3)

    def test_marginals_match_closed_forms(self):
        for params in (TABLE_DEFAULTS, RUN1, RUN2):
            net = nmr.build_failure_bn(params)
            u = uncorr_probability(params)
            assert bayes.marginal(net, "UNCORR_A")["True"] == pytest.approx(u, rel=1e-12)
            hazard = unsafe_probability(u, params.par3, params.excl_fail)
            assert bayes.marginal(net, "UNSAFE_OUTPUT")["True"] == pytest.approx(
                hazard, rel=1e-12
            )

    def test_no_faults_means_no_hazard(self):
        net = nmr.build_failure_bn(nmr.FailureParams(par1=0.0, par2=0.1, par3=0.1))
        assert bayes.marginal(net, "UNSAFE_OUTPUT")["True"] == 0.0

    def test_unit_symmetry_of_marginals(self):
        net = nmr.build_failure_bn(TABLE_DEFAULTS)
        for prefix in UNIT_PAIR_PREFIXES:
            a = bayes.marginal(net, f"{prefix}_A")
            b = bayes.marginal(net, f"{prefix}_B")
            for state in a.probabilities:
                assert abs(a[state] - b[state]) <= 1e-12

    def test_unit_symmetry_of_posteriors_under_hazard(self):
        net = nmr.build_failure_bn(TABLE_DEFAULTS)
        evidence = {"UNSAFE_OUTPUT": "True"}
        for prefix in UNIT_PAIR_PREFIXES:
            a = bayes.marginal(net, f"{prefix}_A", evidence)
            b = bayes.marginal(net, f"{prefix}_B", evidence)
            for state in a.probabilities:
                assert abs(a[state] - b[state]) <= 1e-12


class TestFailureInterface:
    def test_run1_values(self):
        iface = nmr.failure_interface(RUN1)
        assert iface["PAR_4"] == pytest.approx(2.19e-6, rel=1e-2)
        assert iface["PAR_5"] == pytest.approx(4.8e-13, rel=1e-2)

    def test_run2_values_frozen_from_closed_form(self):
        # the reference quotes (1.3e-6, 7.81e-16) at two significant digits;
        # the exact values are fixed here against the independent closed form
        iface = nmr.failure_interface(RUN2)
        assert iface["PAR_4"] == pytest.approx(1.315e-6, rel=1e-9)
        assert iface["PAR_5"] == pytest.approx(7.8176750e-16, rel=1e-6)
        assert iface["PAR_5"] == pytest.approx(
            unsafe_probability(uncorr_probability(RUN2), RUN2.par3, RUN2.excl_fail),
            rel=1e-12,
        )

    def test_zero_faults_zero_interface(self):
        iface = nmr.failure_interface(nmr.FailureParams(par1=0.0, par2=0.5, par3=0.5))
        assert iface["PAR_4"] == 0.0
        assert iface["PAR_5"] == 0.0


class TestMtbheConversion:
    def test_reference_value(self):
        _, mtbhe_2oo3 = mtbhe_conversion(4.8056e-13)
        assert mtbhe_2oo3 == pytest.approx(6.9362e11, rel=5e-3)

    def test_unit_rate(self):
        assert mtbhe_conversion(1.0) == (1.0, 1.0 / 3.0)

    def test_factor_three_identity_exact(self):
        for hr in (1.0, 0.1, 4.8056e-13, 7.81e-16, 2.5e-7):
            m2, m3 = mtbhe_conversion(hr)
            assert m2 == 3.0 * m3

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValidationError):
            mtbhe_conversion(0.0)
        with pytest.raises(ValidationError):
            mtbhe_conversion(-1.0)


class TestMaintenanceChains:
    def test_five_state_safe_shutdown_rate(self):
        params = inputs(par4=2.19e-6, par5=4.8e-13, **MAINT)
        chain = nmr.build_maintenance_ctmc("maintenance5", params)
        rates = {(t.src, t.dst): t.rate for t in chain.transitions}
        assert rates[("S0", "S1")] == 2 * 2.19e-6 - 4.8e-13
        assert rates[("S0", "S3")] == 4.8e-13
        assert rates[("S2", "S0")] == pytest.approx((1 - 1e-2) * 1.0)
        assert rates[("S2", "S3")] == pytest.approx(1e-2 * 1.0)

    def test_power_loss_disabled_leaves_s4_unreachable(self):
        params = inputs(par4=2.19e-6, par5=4.8e-13, par6=1.0,
                        par7=1e-2, par8=0.0, par9=3.0)
        chain = nmr.build_maintenance_ctmc("maintenance5", params)
        assert not any(t.dst == "S4" for t in chain.transitions)
        assert ctmc.reachable_closed_class(chain) == ("S0", "S1", "S2", "S3")
        pi = ctmc.steady_state(chain)
        assert pi["S4"] == 0.0

    def test_generator_rows_sum_to_zero(self):
        import random

        rng = random.Random(12)
        for _ in range(20):
            par4 = rng.uniform(1e-7, 1e-3)
            params = inputs(
                par4=par4, par5=rng.uniform(0, 2 * par4 * 0.9),
                par6=rng.uniform(0.1, 5), par7=rng.uniform(0, 1),
                par8=rng.uniform(0, 0.1), par9=rng.uniform(0.1, 5),
            )
            for name in nmr.MAINTENANCE_CLASSES:
                chain = nmr.build_maintenance_ctmc(name, params)
                q = generator(chain)
                assert abs(q.sum(axis=1)).max() <= 1e-12 * max(1.0, abs(q).max())

    def test_degenerate_shutdown_rate_rejected(self):
        params = inputs(par4=0.0, par5=0.0, **MAINT)
        with pytest.raises(ValidationError, match="safe-shutdown"):
            nmr.build_maintenance_ctmc("maintenance5", params)

    def test_reference_steady_state(self):
        params = inputs(par4=2.19e-6, par5=4.8e-13, **MAINT)
        chain = nmr.build_maintenance_ctmc("maintenance5", params)
        pi = ctmc.steady_state(chain)
        assert pi["S3"] == pytest.approx(1.108e-7, rel=1e-2)
        assert pi["S3"] == pytest.approx(
            five_state_pi3(2.19e-6, 4.8e-13, **MAINT), rel=1e-6
        )

    def test_reference_parameters_reach_all_five_states(self):
        params = inputs(par4=2.19e-6, par5=4.8e-13, **MAINT)
        chain = nmr.build_maintenance_ctmc("maintenance5", params)
        assert ctmc.reachable_closed_class(chain) == ("S0", "S1", "S2", "S3", "S4")

    def test_all_states_reachable_with_positive_rates(self):
        params = inputs(par4=1e-4, par5=1e-5, **MAINT)
        for name, expected in (("maintenance4", 4), ("maintenance5", 5), ("maintenance8", 8)):
            chain = nmr.build_maintenance_ctmc(name, params)
            assert len(ctmc.reachable_closed_class(chain)) == expected
            pi = ctmc.steady_state(chain)
            assert sum(pi.values()) == pytest.approx(1.0, abs=1e-9)

    def test_four_and_five_state_agree_on_hazard(self):
        params = inputs(par4=2.19079e-6, par5=4.80394e-13, **MAINT)
        pi4 = ctmc.steady_state(nmr.build_maintenance_ctmc("maintenance4", params))
        pi5 = ctmc.steady_state(nmr.build_maintenance_ctmc("maintenance5", params))
        assert pi4["S3"] == pytest.approx(pi5["S3"], rel=0.2)

    def test_eight_state_matches_dense_solve(self):
        params = inputs(par4=1e-4, par5=1e-5, **MAINT)
        chain = nmr.build_maintenance_ctmc("maintenance8", params)
        pi = ctmc.steady_state(chain)
        expected = dense_steady_state(chain)
        for state, want in zip(chain.states, expected):
            assert pi[state] == pytest.approx(want, abs=1e-12)

    def test_monotone_sensitivity_in_par5_and_par7(self):
        base = inputs(par4=2.19e-6, par5=4.8e-13, **MAINT)

        def pi3(params):
            chain = nmr.build_maintenance_ctmc("maintenance5", params)
            return ctmc.steady_state(chain)["S3"]

        reference = pi3(base)
        doubled_par5 = inputs(par4=2.19e-6, par5=9.6e-13, **MAINT)
        assert pi3(doubled_par5) > reference
        doubled_par7 = inputs(par4=2.19e-6, par5=4.8e-13, par6=1.0,
                              par7=2e-2, par8=1e-4, par9=3.0)
        assert pi3(doubled_par7) > reference


class TestHfrFromMaintenance:
    """The 2oo3 figures are exports over the maintenance class's ``PAR_10``."""

    def test_factor_three(self):
        figures = hazard(par4=2.19e-6, par5=4.8e-13, **MAINT)
        assert figures["PAR_10"] == pytest.approx(1.108e-7, rel=1e-2)
        assert figures["HFR_2oo3"] == 3.0 * figures["PAR_10"]
        assert figures["HFR_2oo3"] == pytest.approx(3.33e-7, rel=1e-2)
        assert figures["MTBHE_2oo3"] == pytest.approx(1 / figures["HFR_2oo3"])

    def test_zero_probability(self):
        # no hazardous failures leave S3 unreachable: the rate is 0, and its
        # inverse is an error naming the export rather than a figure
        mu = compose.solve(MAINTENANCE5, inputs(par4=2.19e-6, par5=0.0, **MAINT))
        assert mu["PAR_10"] == 0.0
        with pytest.raises(SolverError, match="^export 'MTBHE_2oo3': division by zero$"):
            hazard(par4=2.19e-6, par5=0.0, **MAINT)

    def test_missing_hazard_state_rejected(self):
        chain = MAINTENANCE5.template
        without_s3 = chain._replace(
            states=tuple(s for s in chain.states if s != "S3"),
            rates=tuple(r for r in chain.rates if "S3" not in r[:2]))
        cls = MAINTENANCE5._replace(name="chain", template=without_s3)
        with pytest.raises(ValidationError, match="S3"):
            compose.check_records(compose.Workflow("w", (cls,)))

    @pytest.mark.parametrize("s3", [math.nan, math.inf, -0.5, 2.0])
    def test_non_probability_rejected(self, s3):
        # a value that is not a probability never reaches the chain
        with pytest.raises(ValidationError, match="'PAR_4'"):
            compose.solve(MAINTENANCE5, inputs(par4=s3, par5=4.8e-13, **MAINT))


class TestEndToEnd:
    def test_first_instantiation(self):
        iface = nmr.failure_interface(RUN1)
        figures = hazard(par4=iface["PAR_4"], par5=iface["PAR_5"], **MAINT)
        assert figures["HFR_2oo3"] == pytest.approx(3.33e-7, rel=1e-2)
        assert figures["HFR_2oo3"] == pytest.approx(
            3.0 * five_state_pi3(iface["PAR_4"], iface["PAR_5"], **MAINT), rel=1e-6
        )

    def test_second_instantiation_frozen_exact_value(self):
        # the reference rounds this to 9.1e-10; the exact pipeline value,
        # cross-checked against the closed form, is ~9.0085e-10 (1.006% off)
        iface = nmr.failure_interface(RUN2)
        figures = hazard(par4=iface["PAR_4"], par5=iface["PAR_5"], **MAINT)
        assert figures["HFR_2oo3"] == pytest.approx(9.0085e-10, rel=1e-4)
        assert figures["HFR_2oo3"] == pytest.approx(
            3.0 * five_state_pi3(iface["PAR_4"], iface["PAR_5"], **MAINT), rel=1e-6
        )

    def test_sensitivity_ratios(self):
        base = nmr.failure_interface(RUN1)

        tenth_par1 = nmr.failure_interface(nmr.FailureParams(RUN1.par1 / 10, 0.1, 0.1))
        assert tenth_par1["PAR_4"] == pytest.approx(base["PAR_4"] / 10, rel=5e-2)
        assert tenth_par1["PAR_5"] == pytest.approx(base["PAR_5"] / 100, rel=1e-1)

        tenth_par3 = nmr.failure_interface(nmr.FailureParams(RUN1.par1, 0.1, 0.01))
        assert tenth_par3["PAR_4"] == pytest.approx(base["PAR_4"], rel=1e-4)
        assert tenth_par3["PAR_5"] == pytest.approx(base["PAR_5"] / 10, rel=1e-1)

        tenth_par2 = nmr.failure_interface(nmr.FailureParams(RUN1.par1, 0.01, 0.1))
        assert abs(tenth_par2["PAR_4"] - base["PAR_4"]) / base["PAR_4"] < 0.1
        assert abs(tenth_par2["PAR_5"] - base["PAR_5"]) / base["PAR_5"] < 0.1


class TestSimulationCrossCheck:
    def test_inflated_chain_occupancy_within_three_sigma(self):
        # parameters inflated so every state, including the power-loss one,
        # is visited at least ~100 times over the horizon
        params = inputs(par4=2e-3, par5=1e-3, par6=1.0, par7=1e-2, par8=1e-3, par9=3.0)
        chain = nmr.build_maintenance_ctmc("maintenance5", params)
        pi = ctmc.steady_state(chain)
        sim = simulate(chain, horizon=1e6, seed=2311)
        for state in chain.states:
            err = max(sim.standard_error[state], 1e-12)
            assert abs(sim.occupancy[state] - pi[state]) <= 3 * err, state
