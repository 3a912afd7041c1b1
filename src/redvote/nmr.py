"""Concrete dependability models for 2oo2/2oo3 voting architectures.

Two model families live here: the two-unit failure network that yields the
single-unit error probability and the hazardous-failure probability of a
2oo2 system, and the state-based imperfect-maintenance chains (four, five
and eight states) whose steady state yields the 2oo3 hazardous failure rate.

Both are built once as `compose` model records: ``failure2oo2`` is an
``InlineBayes`` whose tables hold expressions over ``PAR_1`` to ``PAR_3``,
and ``maintenance4/5/8`` are ``InlineCtmc`` records whose rates are
expressions over ``PAR_4`` to ``PAR_9``. These are the workflow's builtin
classes, instantiated and solved by the same `compose` code as a model a
`.rvm` file defines. :func:`build_failure_bn`, :func:`failure_interface`
and :func:`build_maintenance_ctmc` are thin functions over the records.
The three chains share one interface, so ``maintenance4``, which has no
unpowered state, accepts and requires ``PAR_9`` (the power-restore rate)
but no rate of it reads that input; ``redvote sweep`` says so on stderr.

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
import math
from collections import namedtuple
from typing import Mapping

from . import bayes, compose, ctmc
from .compose import BinOp, Literal, Param, ParamDecl
from .errors import Checked, ValidationError

BOOL_STATES = ("False", "True")

UNITS = ("A", "B")


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")


def _check_rate(name: str, value: float) -> None:
    if not value >= 0.0:
        raise ValidationError(f"{name} must be non-negative, got {value!r}")
    if value == math.inf:
        raise ValidationError(f"{name} must be finite, got {value!r}")


class FailureParams(Checked, namedtuple(
        "FailureParams", "par1 par2 par3 transient_ratio excl_fail p_activate p_miss",
        defaults=(0.9, 1e-10, 0.1, 0.35))):
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


class MaintenanceParams(Checked, namedtuple("MaintenanceParams", "par4 par5 par6 par7 par8 par9")):
    """Inputs of the imperfect-maintenance chains.

    par4: per-hour probability of an error in one unit (leads to safe shutdown).
    par5: per-hour hazardous-failure probability of the 2oo2 system.
    par6: repairs per hour (inverse mean time to repair).
    par7: ratio of maintenance interventions performed incorrectly.
    par8: power line failures per hour (inverse mean time between failures).
    par9: power restores per hour (inverse mean time to restore).

    That the safe-shutdown rate ``2*par4 - par5`` is positive is a fact of
    the maintenance classes, stated once in their ``requires`` and checked
    by ``compose.instantiate``, for :func:`build_maintenance_ctmc` and for a
    workflow instance alike.
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> MaintenanceParams:
        params = super().__new__(cls, *args, **kwargs)
        _check_unit_interval("par4", params.par4)
        _check_unit_interval("par5", params.par5)
        _check_unit_interval("par7", params.par7)
        for name in ("par6", "par8", "par9"):
            _check_rate(name, getattr(params, name))
        return params


class MaintenanceLevel(enum.Enum):
    """Level of detail of the maintenance chain."""

    FOUR_STATE = "four"
    FIVE_STATE = "five"
    EIGHT_STATE = "eight"


class FailureInterface(namedtuple("FailureInterface", "par4 par5")):
    """What the failure network hands to the maintenance chain.

    par4: single-unit incorrect-output probability.
    par5: 2oo2 hazardous-failure probability.
    """

    __slots__ = ()


class HazardFigures(namedtuple("HazardFigures", "par10 hfr_2oo3 mtbhe_2oo3")):
    """2oo3 hazard figures read off a maintenance steady state.

    par10: steady-state probability of the hazardous state S3.
    hfr_2oo3: hazardous failure rate, three times par10.
    mtbhe_2oo3: mean time between hazardous events, None when the rate is 0.
    """

    __slots__ = ()


# --- failure network ---------------------------------------------------------

#: Reference parameterization: the constants of the builtin ``failure2oo2``
#: and of the eight-state chain's diagnosable-fault rate.
DEFAULT_FAILURE_PARAMS = FailureParams(par1=1.6666e-5, par2=0.1, par3=0.1)

#: The inputs of ``failure2oo2``, in the field order of :class:`FailureParams`.
_FAILURE_INPUTS = ("PAR_1", "PAR_2", "PAR_3")


def _bool_row(p: float | str) -> tuple[compose.Expr, compose.Expr]:
    """The ``(False, True)`` row of a node that is True with probability
    ``p``: a number, or the name of an input."""
    if isinstance(p, str):
        return BinOp("-", Literal(1.0), Param(p)), Param(p)
    return Literal(1.0 - p), Literal(p)


@functools.lru_cache(maxsize=16)
def _failure_class(
    transient_ratio: float, excl_fail: float, p_activate: float, p_miss: float
) -> compose.ModelClass:
    """``failure2oo2`` at the given values of the :class:`FailureParams`
    fields that are not inputs; the gate rows come from their predicates."""
    states: dict[str, tuple[str, ...]] = {}
    nodes: list[compose.InlineNode] = []

    def add(var_id: str, cpt, parents: tuple[str, ...] = (), var_states=BOOL_STATES) -> None:
        states[var_id] = var_states
        nodes.append(compose.InlineNode(var_id, var_states, parents, tuple(cpt)))

    def gate(var_id: str, parents: tuple[str, ...], p_true) -> None:
        combos = itertools.product(*(states[p] for p in parents))
        add(var_id, [e for combo in combos for e in _bool_row(float(p_true(combo)))], parents)

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

        add(fault, _bool_row("PAR_1"))
        add(ftype, (Literal(transient_ratio), Literal(1.0 - transient_ratio)),
            var_states=("Transient", "Permanent"))
        add(detectability, _bool_row("PAR_2"), var_states=("Detectable", "Non_detectable"))
        gate(transient, (fault, ftype), lambda c: c == ("True", "Transient"))
        gate(permanent, (fault, ftype), lambda c: c == ("True", "Permanent"))
        gate(detectable, (permanent, detectability), lambda c: c == ("True", "Detectable"))
        gate(non_detectable, (permanent, detectability),
             lambda c: c == ("True", "Non_detectable"))
        gate(err_transient, (transient,), lambda c: p_activate if c == ("True",) else 0.0)
        gate(undetected, (non_detectable, detectable),
             lambda c: 1.0 if c[0] == "True" else (p_miss if c[1] == "True" else 0.0))
        gate(f"UNCORR_{unit}", (err_transient, undetected), lambda c: "True" in c)
        add(f"Excl_{unit}", _bool_row(excl_fail))

    add("Same_output_alterations", _bool_row("PAR_3"))

    def unsafe(combo: tuple[str, ...]) -> bool:
        ua, ub, same, ea, eb = (c == "True" for c in combo)
        return (ua and ub and same) or (ua and ea) or (ub and eb)

    gate("UNSAFE_OUTPUT",
         ("UNCORR_A", "UNCORR_B", "Same_output_alterations", "Excl_A", "Excl_B"), unsafe)
    return compose.ModelClass(
        "failure2oo2",
        (ParamDecl("PAR_1", "probability"), ParamDecl("PAR_2", "ratio"),
         ParamDecl("PAR_3", "probability")),
        compose.InlineBayes("failure2oo2", tuple(nodes)),
        (("PAR_4", "UNCORR_A", "True"), ("PAR_5", "UNSAFE_OUTPUT", "True")),
        (),
        "failure2oo2 via two-unit failure network, solved by variable elimination",
    )


def failure_class(params: FailureParams | None = None) -> compose.ModelClass:
    """The ``failure2oo2`` model class, whose inputs are ``PAR_1`` to
    ``PAR_3``; the other fields of ``params`` (reference defaults when
    omitted) are constants of its tables.

    Per unit, a fault is transient or permanent; transient faults may
    activate into undetected errors, permanent faults escape either because
    they are non-diagnosable or because detection misses them in the
    reference hour. A unit's incorrect output becomes hazardous only when
    both units err with identical outputs or when the erring unit's
    exclusion logic also fails. ``PAR_4`` reads ``UNCORR_A = True`` and
    ``PAR_5`` reads ``UNSAFE_OUTPUT = True``, one marginal each.
    """
    return _failure_class(*(params or DEFAULT_FAILURE_PARAMS)[3:])


def build_failure_bn(params: FailureParams) -> bayes.BayesNet:
    """The two-unit failure network of :func:`failure_class` at ``params``."""
    return compose.instantiate(failure_class(params), dict(zip(_FAILURE_INPUTS, params)))


def failure_interface(params: FailureParams) -> FailureInterface:
    """Solve the failure network for the two interface probabilities.

    par4 is the single-unit incorrect-output probability, par5 the 2oo2
    hazardous-failure probability; both are exact marginals.
    """
    outputs = compose.solve(failure_class(params), dict(zip(_FAILURE_INPUTS, params)))
    return FailureInterface(par4=outputs["PAR_4"], par5=outputs["PAR_5"])


# --- maintenance chains ------------------------------------------------------

#: Per level: states, initial state, and ``(src, dst, rate name)`` rows in transition
#: order; each rate name is a key of ``_RATES``.
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


#: Rate of diagnosable permanent faults in either unit, for the eight-state
#: chain, at the reference parameterization.
DIAG_FAULT_RATE = (2.0 * DEFAULT_FAILURE_PARAMS.par1
                   * (1.0 - DEFAULT_FAILURE_PARAMS.transient_ratio)
                   * (1.0 - DEFAULT_FAILURE_PARAMS.par2))

_SAFE_SHUTDOWN = BinOp("-", BinOp("*", Literal(2.0), Param("PAR_4")), Param("PAR_5"))
_REPAIR_BAD = BinOp("*", Param("PAR_7"), Param("PAR_6"))

#: The rate named in ``_CHAINS``, as an expression over the inputs ``PAR_4`` to ``PAR_9``.
_RATES = {
    "safe_shutdown": _SAFE_SHUTDOWN,
    "unsafe": Param("PAR_5"),
    "repair": Param("PAR_6"),
    "repair_ok": BinOp("*", BinOp("-", Literal(1.0), Param("PAR_7")), Param("PAR_6")),
    "repair_bad": _REPAIR_BAD,
    "repair_bad_or_power_cycle": BinOp("+", _REPAIR_BAD, Param("PAR_8")),
    "power_loss": Param("PAR_8"),
    "power_restore": Param("PAR_9"),
    "diag_fault": Literal(DIAG_FAULT_RATE),
}

_MAINTENANCE_INPUTS = (("PAR_4", "probability"), ("PAR_5", "probability"), ("PAR_6", "rate"),
                       ("PAR_7", "ratio"), ("PAR_8", "rate"), ("PAR_9", "rate"))


def _maintenance_class(level: MaintenanceLevel) -> compose.ModelClass:
    states, initial, rows = _CHAINS[level]
    name = f"maintenance{len(states)}"
    return compose.ModelClass(
        name,
        tuple(ParamDecl(pname, kind) for pname, kind in _MAINTENANCE_INPUTS),
        compose.InlineCtmc(name, states, initial,
                           tuple((src, dst, _RATES[rate]) for src, dst, rate in rows)),
        (("PAR_10", "S3"),),
        # the one statement of this fact: without safe shutdowns the chain has no repair cycle
        (("safe-shutdown rate 2*par4 - par5", _SAFE_SHUTDOWN),),
        f"{name} via {level.value}-state maintenance chain, solved by GTH steady state",
    )


#: The maintenance model classes ``maintenance4``, ``maintenance5`` and
#: ``maintenance8``, by level. ``PAR_10`` reads the steady-state probability of S3.
MAINTENANCE_CLASSES = {level: _maintenance_class(level) for level in MaintenanceLevel}


def build_maintenance_ctmc(level: MaintenanceLevel, params: MaintenanceParams) -> ctmc.Ctmc:
    """The maintenance chain at the requested level of detail.

    States of the five-state reference chain:
      S0 up, no non-diagnosable fault; S1 safe shutdown, no fault;
      S2 shutdown with a non-diagnosable fault; S3 up with a non-diagnosable
      fault (the hazardous state); S4 unpowered with such a fault.

    The four-state chain drops S4 and folds the power-cycle path into the
    incorrect-maintenance transition. The eight-state chain additionally
    tracks diagnosable permanent faults (S0 split into S0p/S0s plus S5/S6
    mirroring S2/S4); its transition set is a documented reconstruction,
    whose diagnosable-fault rate is :data:`DIAG_FAULT_RATE`. No published
    figure depends on the eight-state variant. A rate of zero denotes an
    absent transition, so its row is left out of the chain.
    """
    if level not in MAINTENANCE_CLASSES:
        raise ValidationError(f"unknown maintenance level {level!r}")
    inputs = (pname for pname, _ in _MAINTENANCE_INPUTS)
    return compose.instantiate(MAINTENANCE_CLASSES[level], dict(zip(inputs, params)))


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
