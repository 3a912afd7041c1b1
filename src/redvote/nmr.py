"""Concrete dependability models for 2oo2/2oo3 voting architectures.

Two model families live here: the two-unit failure network that yields the
single-unit error probability and the hazardous-failure probability of a
2oo2 system, and the state-based imperfect-maintenance chains (four, five
and eight states) whose steady state yields the 2oo3 hazardous failure rate.

A note on the maintenance rates: the correct-maintenance repair flow goes
from the shutdown-with-fault state back to normal operation at
``(1 - wrong_ratio) * repair_rate``, and the incorrect-maintenance flow into
the hazardous up-with-fault state at ``wrong_ratio * repair_rate``. Power
loss leaves the powered states at the line failure rate and power restore
returns to the hazardous up state, since an ungoverned restart brings the
faulty system back online. Both conventions are the ones that reproduce the
published hazard figures; swapping either direction does not.
"""

from __future__ import annotations

import enum
import functools
import itertools
from typing import Callable, Mapping, NamedTuple

from . import bayes, ctmc
from .errors import ValidationError

BOOL_STATES = ("False", "True")

UNITS = ("A", "B")


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if not value >= 0.0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")


class _FailureFields(NamedTuple):
    par1: float
    par2: float
    par3: float
    transient_ratio: float = 0.9
    excl_fail: float = 1e-10
    p_activate: float = 0.1
    p_miss: float = 0.35


class FailureParams(_FailureFields):
    """Inputs of the two-unit failure network.

    par1: per-hour fault probability of a single unit.
    par2: ratio of permanent faults that are not diagnosable.
    par3: probability that simultaneous faults produce identical outputs.
    transient_ratio: fraction of faults that are transient rather than permanent.
    excl_fail: failure probability of a unit's exclusion logic.
    p_activate: probability that a transient fault activates into an
        undetected erroneous output within the reference hour.
    p_miss: probability that a detectable permanent fault escapes detection
        within the reference hour.

    The last two defaults are calibrated so the reference network reproduces
    the published per-variable probabilities; both stay overridable.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> FailureParams:
        params = super().__new__(cls, *args, **kwargs)
        for name, value in zip(params._fields, params):
            _check_unit_interval(name, value)
        return params


class MaintenanceParams(NamedTuple("MaintenanceParams", [
        (name, float) for name in ("par4", "par5", "par6", "par7", "par8", "par9")])):
    """Inputs of the imperfect-maintenance chains.

    par4: per-hour probability of an error in one unit (leads to safe shutdown).
    par5: per-hour hazardous-failure probability of the 2oo2 system.
    par6: repairs per hour (inverse mean time to repair).
    par7: ratio of maintenance interventions performed incorrectly.
    par8: power line failures per hour (inverse mean time between failures).
    par9: power restores per hour (inverse mean time to restore).

    That the safe-shutdown rate ``2*par4 - par5`` is positive is a fact of
    the chain, checked once by :func:`build_maintenance_ctmc`.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> MaintenanceParams:
        params = super().__new__(cls, *args, **kwargs)
        _check_unit_interval("par4", params.par4)
        _check_unit_interval("par5", params.par5)
        _check_unit_interval("par7", params.par7)
        for name in ("par6", "par8", "par9"):
            _check_nonnegative(name, getattr(params, name))
        return params


class MaintenanceLevel(enum.Enum):
    """Level of detail of the maintenance chain."""

    FOUR_STATE = "four"
    FIVE_STATE = "five"
    EIGHT_STATE = "eight"


class FailureInterface(NamedTuple):
    """What the failure network hands to the maintenance chain.

    par4: single-unit incorrect-output probability.
    par5: 2oo2 hazardous-failure probability.
    """

    par4: float
    par5: float


class HazardFigures(NamedTuple):
    """2oo3 hazard figures read off a maintenance steady state.

    par10: steady-state probability of the hazardous state S3.
    hfr_2oo3: hazardous failure rate, three times par10.
    mtbhe_2oo3: mean time between hazardous events, None when the rate is 0.
    """

    par10: float
    hfr_2oo3: float
    mtbhe_2oo3: float | None


# --- failure network ---------------------------------------------------------


def _root(var_id: str, p_true: float) -> tuple[bayes.Variable, bayes.Cpt]:
    return (
        bayes.Variable(var_id, BOOL_STATES),
        bayes.Cpt(var_id, (), {(): (1.0 - p_true, p_true)}),
    )


def _gate(
    var_id: str,
    parents: tuple[str, ...],
    parent_states: tuple[tuple[str, ...], ...],
    p_true,
) -> tuple[bayes.Variable, bayes.Cpt]:
    rows = {}
    for combo in itertools.product(*parent_states):
        p = float(p_true(combo))
        rows[combo] = (1.0 - p, p)
    return bayes.Variable(var_id, BOOL_STATES), bayes.Cpt(var_id, parents, rows)


def build_failure_bn(params: FailureParams) -> bayes.BayesNet:
    """The two-unit failure network.

    Per unit, a fault is transient or permanent; transient faults may
    activate into undetected errors, permanent faults escape either because
    they are non-diagnosable or because detection misses them in the
    reference hour. A unit's incorrect output becomes hazardous only when
    both units err with identical outputs or when the erring unit's
    exclusion logic also fails.
    """
    variables: list[bayes.Variable] = []
    cpts: list[bayes.Cpt] = []

    def add(pair: tuple[bayes.Variable, bayes.Cpt]) -> None:
        variables.append(pair[0])
        cpts.append(pair[1])

    bb = (BOOL_STATES, BOOL_STATES)
    for unit in UNITS:
        fault = f"Fault_{unit}"
        ftype = f"Fault_type_{unit}"
        detectability = f"Fault_detectability_{unit}"
        transient = f"Transient_Fault_{unit}"
        permanent = f"Permanent_Fault_{unit}"
        detectable = f"Detectable_Fault_{unit}"
        non_detectable = f"Non_detectable_Fault_{unit}"
        err_transient = f"Error_due_to_Transient_{unit}"
        undetected = f"Undetected_permanent_{unit}"
        uncorr = f"UNCORR_{unit}"

        add(_root(fault, params.par1))
        variables.append(bayes.Variable(ftype, ("Transient", "Permanent")))
        cpts.append(bayes.Cpt(ftype, (), {(): (params.transient_ratio,
                                               1.0 - params.transient_ratio)}))
        variables.append(bayes.Variable(detectability, ("Detectable", "Non_detectable")))
        cpts.append(bayes.Cpt(detectability, (), {(): (1.0 - params.par2, params.par2)}))

        add(_gate(transient, (fault, ftype), (BOOL_STATES, ("Transient", "Permanent")),
                  lambda c: 1.0 if c == ("True", "Transient") else 0.0))
        add(_gate(permanent, (fault, ftype), (BOOL_STATES, ("Transient", "Permanent")),
                  lambda c: 1.0 if c == ("True", "Permanent") else 0.0))
        add(_gate(detectable, (permanent, detectability),
                  (BOOL_STATES, ("Detectable", "Non_detectable")),
                  lambda c: 1.0 if c == ("True", "Detectable") else 0.0))
        add(_gate(non_detectable, (permanent, detectability),
                  (BOOL_STATES, ("Detectable", "Non_detectable")),
                  lambda c: 1.0 if c == ("True", "Non_detectable") else 0.0))
        add(_gate(err_transient, (transient,), (BOOL_STATES,),
                  lambda c: params.p_activate if c == ("True",) else 0.0))
        add(_gate(undetected, (non_detectable, detectable), bb,
                  lambda c: 1.0 if c[0] == "True"
                  else (params.p_miss if c[1] == "True" else 0.0)))
        add(_gate(uncorr, (err_transient, undetected), bb,
                  lambda c: 1.0 if "True" in c else 0.0))
        add(_root(f"Excl_{unit}", params.excl_fail))

    add(_root("Same_output_alterations", params.par3))

    def unsafe(combo: tuple[str, ...]) -> float:
        ua, ub, same, ea, eb = (c == "True" for c in combo)
        return 1.0 if ((ua and ub and same) or (ua and ea) or (ub and eb)) else 0.0

    add(_gate(
        "UNSAFE_OUTPUT",
        ("UNCORR_A", "UNCORR_B", "Same_output_alterations", "Excl_A", "Excl_B"),
        (BOOL_STATES,) * 5,
        unsafe,
    ))
    return bayes.build_net(variables, cpts)


def failure_interface(params: FailureParams) -> FailureInterface:
    """Solve the failure network for the two interface probabilities.

    par4 is the single-unit incorrect-output probability, par5 the 2oo2
    hazardous-failure probability; both are exact marginals.
    """
    net = build_failure_bn(params)
    par4 = bayes.marginal(net, "UNCORR_A")["True"]
    par5 = bayes.marginal(net, "UNSAFE_OUTPUT")["True"]
    return FailureInterface(par4=par4, par5=par5)


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


# --- maintenance chains ------------------------------------------------------

#: Reference parameterization, used when an eight-state chain is built
#: without an explicit failure parameterization.
DEFAULT_FAILURE_PARAMS = FailureParams(par1=1.6666e-5, par2=0.1, par3=0.1)


#: Per level: states, initial state, and ``(src, dst, rate name)`` rows in transition
#: order; each rate name is a key of the rates :func:`build_maintenance_ctmc` derives.
_CHAINS: dict[MaintenanceLevel, tuple[tuple[str, ...], str, tuple[tuple[str, str, str], ...]]] = {
    MaintenanceLevel.FOUR_STATE: (
        ("S0", "S1", "S2", "S3"),
        "S0",
        (
            ("S0", "S1", "safe_shutdown"),
            ("S0", "S3", "unsafe"),
            ("S1", "S0", "repair"),
            ("S1", "S2", "unsafe"),
            ("S2", "S0", "repair_ok"),
            ("S2", "S3", "repair_bad_or_power_cycle"),
            ("S3", "S2", "safe_shutdown"),
        ),
    ),
    MaintenanceLevel.FIVE_STATE: (
        ("S0", "S1", "S2", "S3", "S4"),
        "S0",
        (
            ("S0", "S1", "safe_shutdown"),
            ("S0", "S3", "unsafe"),
            ("S1", "S0", "repair"),
            ("S1", "S2", "unsafe"),
            ("S2", "S0", "repair_ok"),
            ("S2", "S3", "repair_bad"),
            ("S2", "S4", "power_loss"),
            ("S3", "S2", "safe_shutdown"),
            ("S3", "S4", "power_loss"),
            ("S4", "S3", "power_restore"),
        ),
    ),
    MaintenanceLevel.EIGHT_STATE: (
        ("S0p", "S0s", "S1", "S2", "S3", "S4", "S5", "S6"),
        "S0p",
        (
            ("S0p", "S3", "unsafe"),
            ("S0s", "S3", "unsafe"),
            ("S0p", "S1", "safe_shutdown"),
            ("S0p", "S0s", "diag_fault"),
            ("S0s", "S5", "safe_shutdown"),
            ("S1", "S0p", "repair"),
            ("S1", "S2", "unsafe"),
            ("S2", "S0p", "repair_ok"),
            ("S2", "S3", "repair_bad"),
            ("S2", "S4", "power_loss"),
            ("S3", "S2", "safe_shutdown"),
            ("S3", "S4", "power_loss"),
            ("S4", "S3", "power_restore"),
            ("S5", "S0p", "repair_ok"),
            ("S5", "S0s", "repair_bad"),
            ("S5", "S6", "power_loss"),
            ("S6", "S5", "power_restore"),
        ),
    ),
}


def build_maintenance_ctmc(
    level: MaintenanceLevel,
    params: MaintenanceParams,
    failure: FailureParams | None = None,
) -> ctmc.Ctmc:
    """Build the maintenance chain at the requested level of detail.

    States of the five-state reference chain:
      S0 up, no non-diagnosable fault; S1 safe shutdown, no fault;
      S2 shutdown with a non-diagnosable fault; S3 up with a non-diagnosable
      fault (the hazardous state); S4 unpowered with such a fault.

    The four-state chain drops S4 and folds the power-cycle path into the
    incorrect-maintenance transition. The eight-state chain additionally
    tracks diagnosable permanent faults (S0 split into S0p/S0s plus S5/S6
    mirroring S2/S4); its transition set is a documented reconstruction and
    needs the fault-occurrence parameters, supplied via ``failure``
    (reference defaults when omitted). No published figure depends on the
    eight-state variant. A rate of zero denotes an absent transition, so
    its row is left out of the chain.
    """
    safe_shutdown = 2.0 * params.par4 - params.par5
    if not safe_shutdown > 0.0:
        raise ValidationError(
            f"safe-shutdown rate 2*par4 - par5 must be positive, got {safe_shutdown!r}"
        )
    if level not in _CHAINS:
        raise ValidationError(f"unknown maintenance level {level!r}")
    fp = failure if failure is not None else DEFAULT_FAILURE_PARAMS
    repair_bad = params.par7 * params.par6
    rates = {
        "safe_shutdown": safe_shutdown,
        "unsafe": params.par5,
        "repair": params.par6,
        "repair_ok": (1.0 - params.par7) * params.par6,
        "repair_bad": repair_bad,
        "repair_bad_or_power_cycle": repair_bad + params.par8,
        "power_loss": params.par8,
        "power_restore": params.par9,
        "diag_fault": 2.0 * fp.par1 * (1.0 - fp.transient_ratio) * (1.0 - fp.par2),
    }
    states, initial, rows = _CHAINS[level]
    transitions = tuple(
        ctmc.Transition(src, dst, rates[name]) for src, dst, name in rows if rates[name] > 0.0
    )
    return ctmc.Ctmc(states, initial, transitions)


def hfr_2oo3_from_maintenance(distribution: Mapping[str, float]) -> HazardFigures:
    """Hazard figures of the 2oo3 system from a maintenance steady state.

    The model output is the steady-state probability of the hazardous state
    S3; the 2oo3 hazardous failure rate is three times that figure, mirroring
    the three-pair decomposition used for the failure model. A missing S3, or
    one that is not a probability in [0, 1], raises :class:`ValidationError`.
    """
    if "S3" not in distribution:
        raise ValidationError("maintenance distribution lacks the hazardous state S3")
    par10 = float(distribution["S3"])
    if not 0.0 <= par10 <= 1.0:  # NaN fails too
        raise ValidationError(f"S3 probability {par10!r} is not in [0, 1]")
    hfr = 3.0 * par10
    mtbhe = 1.0 / hfr if hfr > 0.0 else None
    return HazardFigures(par10=par10, hfr_2oo3=hfr, mtbhe_2oo3=mtbhe)


# --- workflow templates ------------------------------------------------------


class TemplateSpec(NamedTuple):
    """A solvable model template exposed to the workflow layer."""

    name: str
    formalism: str  # "BAYES" or "CTMC"
    inputs: tuple[tuple[str, str], ...]  # (parameter name, kind)
    outputs: tuple[tuple[str, str], ...]
    description: str
    solve: Callable[[Mapping[str, float]], dict[str, float]]


def failure_params(values: Mapping[str, float]) -> FailureParams:
    """The failure-network inputs of a ``failure2oo2`` instance."""
    return FailureParams(values["PAR_1"], values["PAR_2"], values["PAR_3"])


# the solvers call ``failure_interface``, ``build_maintenance_ctmc`` and
# ``ctmc.steady_state`` through their modules, so wrappers installed there see them
def _solve_failure(values: Mapping[str, float]) -> dict[str, float]:
    iface = failure_interface(failure_params(values))
    return {"PAR_4": iface.par4, "PAR_5": iface.par5}


def _solve_maintenance(level: MaintenanceLevel, values: Mapping[str, float]) -> dict[str, float]:
    params = MaintenanceParams(
        par4=values["PAR_4"], par5=values["PAR_5"], par6=values["PAR_6"],
        par7=values["PAR_7"], par8=values["PAR_8"], par9=values["PAR_9"],
    )
    pi = ctmc.steady_state(build_maintenance_ctmc(level, params))
    return {"PAR_10": pi["S3"]}


def _maintenance_template(name: str, level: MaintenanceLevel) -> TemplateSpec:
    return TemplateSpec(
        name=name,
        formalism="CTMC",
        inputs=(
            ("PAR_4", "probability"),
            ("PAR_5", "probability"),
            ("PAR_6", "rate"),
            ("PAR_7", "ratio"),
            ("PAR_8", "rate"),
            ("PAR_9", "rate"),
        ),
        outputs=(("PAR_10", "probability"),),
        description=f"{level.value}-state maintenance chain, solved by GTH steady state",
        solve=functools.partial(_solve_maintenance, level),
    )


#: Stable template names for workflow files and the library API.
BUILTIN_TEMPLATES: dict[str, TemplateSpec] = {
    "failure2oo2": TemplateSpec(
        name="failure2oo2",
        formalism="BAYES",
        inputs=(("PAR_1", "probability"), ("PAR_2", "ratio"), ("PAR_3", "probability")),
        outputs=(("PAR_4", "probability"), ("PAR_5", "probability")),
        description="two-unit failure network, solved by variable elimination",
        solve=_solve_failure,
    ),
    "maintenance4": _maintenance_template("maintenance4", MaintenanceLevel.FOUR_STATE),
    "maintenance5": _maintenance_template("maintenance5", MaintenanceLevel.FIVE_STATE),
    "maintenance8": _maintenance_template("maintenance8", MaintenanceLevel.EIGHT_STATE),
}
