"""Concrete dependability models for 2oo2/2oo3 voting architectures.

Two model families live here: the two-unit failure network that yields the
single-unit error probability and the hazardous-failure probability of a
2oo2 system, and the state-based imperfect-maintenance chains (four, five
and eight states) whose steady state yields the 2oo3 hazardous failure rate.

Both are built once, at import, as `compose` model records:
:data:`FAILURE_CLASS` (``failure2oo2``) is an ``InlineBayes`` whose tables
hold expressions over ``PAR_1`` to ``PAR_3`` and literals of the constants
that :class:`FailureParams` holds as class attributes, and
:data:`MAINTENANCE_CLASSES` (``maintenance4/5/8``) are ``InlineCtmc`` records
whose rates are expressions over ``PAR_4`` to ``PAR_9``. These are the
workflow's builtin classes (``compose.builtin_classes()``), instantiated,
range-checked and solved by the same `compose` code as a model a `.rvm`
file defines; that is their one API, and the 2oo3 figures are expressions
over their outputs, such as ``3 * mu.PAR_10``. Three one-line functions
over the records stay, because the benchmark builds and times them by name:
:func:`build_failure_bn` and :func:`failure_interface` at a
:class:`FailureParams` of the three inputs, and
:func:`build_maintenance_ctmc` by class name. The three chains share one
interface, so ``maintenance4``, which has no unpowered state, accepts and
requires ``PAR_9`` (the power-restore rate) but no rate of it reads that
input; ``redvote sweep`` says so on stderr.

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

import itertools
from collections import namedtuple
from typing import Mapping

from . import bayes, compose, ctmc
from .compose import BinOp, Literal, Param, ParamDecl
from .errors import ValidationError

BOOL_STATES = ("False", "True")

UNITS = ("A", "B")


class FailureParams(namedtuple("FailureParams", "par1 par2 par3")):
    """Inputs of the two-unit failure network, ``PAR_1`` to ``PAR_3``, which
    ``compose.instantiate`` checks against their kinds.

    par1: per-hour fault probability of a single unit.
    par2: ratio of permanent faults that are not diagnosable.
    par3: probability that simultaneous faults produce identical outputs.

    The class attributes are the constants of the network's tables. The last
    two are calibrated so the network reproduces the published per-variable
    probabilities. To solve it at other constants, print the builtin with
    ``dsl.print_workflow`` and edit its literals.
    """

    __slots__ = ()

    #: Fraction of faults that are transient rather than permanent.
    transient_ratio = 0.9
    #: Failure probability of a unit's exclusion logic.
    excl_fail = 1e-10
    #: Probability that a transient fault activates into an undetected error in the hour.
    p_activate = 0.1
    #: Probability that a detectable permanent fault escapes detection in the hour.
    p_miss = 0.35


# --- failure network ---------------------------------------------------------

#: Reference inputs, which the eight-state chain's diagnosable-fault rate reads.
DEFAULT_FAILURE_PARAMS = FailureParams(par1=1.6666e-5, par2=0.1, par3=0.1)

#: The inputs of ``failure2oo2``, in the field order of :class:`FailureParams`.
_FAILURE_INPUTS = ("PAR_1", "PAR_2", "PAR_3")


def _bool_row(p: float | str) -> tuple[compose.Expr, compose.Expr]:
    """The ``(False, True)`` row of a node that is True with probability
    ``p``: a number, or the name of an input."""
    if isinstance(p, str):
        return BinOp("-", Literal(1.0), Param(p)), Param(p)
    return Literal(1.0 - p), Literal(p)


def _failure_class() -> compose.ModelClass:
    """The ``failure2oo2`` model class, whose inputs are ``PAR_1`` to
    ``PAR_3`` and whose other table entries are the constants of
    :class:`FailureParams`; the gate rows come from their predicates.

    Per unit, a fault is transient or permanent; transient faults may
    activate into undetected errors, permanent faults escape either because
    they are non-diagnosable or because detection misses them in the
    reference hour. A unit's incorrect output becomes hazardous only when
    both units err with identical outputs or when the erring unit's
    exclusion logic also fails. ``PAR_4`` reads ``UNCORR_A = True`` and
    ``PAR_5`` reads ``UNSAFE_OUTPUT = True``, one marginal each.
    """
    const = FailureParams  # the table constants are its class attributes
    states: dict[str, tuple[str, ...]] = {}
    nodes: list[bayes.Node] = []

    def add(var_id: str, cpt, parents: tuple[str, ...] = (), var_states=BOOL_STATES) -> None:
        states[var_id] = var_states
        nodes.append(bayes.Node(var_id, var_states, parents, tuple(cpt)))

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
        add(ftype, (Literal(const.transient_ratio), Literal(1.0 - const.transient_ratio)),
            var_states=("Transient", "Permanent"))
        add(detectability, _bool_row("PAR_2"), var_states=("Detectable", "Non_detectable"))
        gate(transient, (fault, ftype), lambda c: c == ("True", "Transient"))
        gate(permanent, (fault, ftype), lambda c: c == ("True", "Permanent"))
        gate(detectable, (permanent, detectability), lambda c: c == ("True", "Detectable"))
        gate(non_detectable, (permanent, detectability),
             lambda c: c == ("True", "Non_detectable"))
        gate(err_transient, (transient,), lambda c: const.p_activate if c == ("True",) else 0.0)
        gate(undetected, (non_detectable, detectable),
             lambda c: 1.0 if c[0] == "True" else (const.p_miss if c[1] == "True" else 0.0))
        gate(f"UNCORR_{unit}", (err_transient, undetected), lambda c: "True" in c)
        add(f"Excl_{unit}", _bool_row(const.excl_fail))

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


def build_failure_bn(params: FailureParams) -> bayes.BayesNet:
    """The two-unit failure network of :data:`FAILURE_CLASS` at ``params``."""
    return compose.instantiate(FAILURE_CLASS, dict(zip(_FAILURE_INPUTS, params)))


def failure_interface(params: FailureParams) -> dict[str, float]:
    """The outputs of :data:`FAILURE_CLASS` at ``params``: ``PAR_4``, the
    single-unit incorrect-output probability, and ``PAR_5``, the 2oo2
    hazardous-failure probability; both are exact marginals."""
    return compose.solve(FAILURE_CLASS, dict(zip(_FAILURE_INPUTS, params)))


# --- maintenance chains ------------------------------------------------------

# States of the five-state reference chain:
#   S0 up, no non-diagnosable fault; S1 safe shutdown, no fault;
#   S2 shutdown with a non-diagnosable fault; S3 up with a non-diagnosable
#   fault (the hazardous state); S4 unpowered with such a fault.
# The four-state chain drops S4 and folds the power-cycle path into the
# incorrect-maintenance transition. The eight-state chain additionally
# tracks diagnosable permanent faults (S0 split into S0p/S0s plus S5/S6
# mirroring S2/S4); its transition set is a documented reconstruction,
# whose diagnosable-fault rate is :data:`DIAG_FAULT_RATE`. No published
# figure depends on the eight-state variant.
#: Per class name: the level of detail, states, initial state, and
#: ``(src, dst, rate name)`` rows in transition order; each rate name is a key
#: of ``_RATES``.
_CHAINS: dict[str, tuple[str, tuple[str, ...], str, tuple[tuple[str, str, str], ...]]] = {
    "maintenance4": (
        "four",
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
    "maintenance5": (
        "five",
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
    "maintenance8": (
        "eight",
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


def _maintenance_class(name: str) -> compose.ModelClass:
    level, states, initial, rows = _CHAINS[name]
    return compose.ModelClass(
        name,
        tuple(ParamDecl(pname, kind) for pname, kind in _MAINTENANCE_INPUTS),
        compose.InlineCtmc(name, states, initial,
                           tuple((src, dst, _RATES[rate]) for src, dst, rate in rows)),
        (("PAR_10", "S3"),),
        # the one statement of this fact: without safe shutdowns the chain has no repair cycle
        (("safe-shutdown rate 2*par4 - par5", _SAFE_SHUTDOWN),),
        f"{name} via {level}-state maintenance chain, solved by GTH steady state",
    )


#: The builtin model classes, each built once: ``failure2oo2``, and by name
#: the maintenance classes ``maintenance4``, ``maintenance5`` and
#: ``maintenance8``, whose ``PAR_10`` reads the steady-state probability of S3.
FAILURE_CLASS = _failure_class()
MAINTENANCE_CLASSES = {name: _maintenance_class(name) for name in _CHAINS}


def build_maintenance_ctmc(name: str, values: Mapping[str, float]) -> ctmc.Ctmc:
    """The chain of the maintenance class ``name`` with inputs ``values``
    (``PAR_4`` to ``PAR_9``), as ``compose.instantiate`` builds it. A rate
    of zero denotes an absent transition, so its row is left out of the chain.
    """
    if name not in MAINTENANCE_CLASSES:
        raise ValidationError(f"unknown maintenance class {name!r}")
    return compose.instantiate(MAINTENANCE_CLASSES[name], values)
