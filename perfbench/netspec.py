"""The two-unit failure network, restated from its documentation.

The input generator uses it to pick evidence with nonzero probability and
the oracle uses it to enumerate posteriors. It imports nothing from
redvote, so it stays independent of the solver it checks, and nothing
outside the standard library, because the measured process imports it.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

UNITS = ("A", "B")
BOOL = ("False", "True")
SINK = "UNSAFE_OUTPUT"
SAME = "Same_output_alterations"


def unit_variables(unit: str) -> tuple[str, ...]:
    return tuple(f"{name}_{unit}" for name in (
        "Fault", "Fault_type", "Fault_detectability", "Transient_Fault",
        "Permanent_Fault", "Detectable_Fault", "Non_detectable_Fault",
        "Error_due_to_Transient", "Undetected_permanent", "UNCORR", "Excl",
    ))


VARIABLES = tuple(sorted(
    [v for unit in UNITS for v in unit_variables(unit)] + [SAME, SINK]
))


def unit_assignments(
    unit: str, par1: float, par2: float, transient_ratio: float,
    p_activate: float, p_miss: float, excl: float,
) -> list[tuple[float, dict[str, str]]]:
    """Every assignment of one unit's eleven variables with nonzero
    probability, as ``(probability, {variable: state})``; 22 of the 64
    combinations of its free choices survive the deterministic gates."""
    out = []
    for fault, ftype, detect, err, undet, ex in itertools.product(
        (False, True), ("Transient", "Permanent"), ("Detectable", "Non_detectable"),
        (False, True), (False, True), (False, True),
    ):
        transient = fault and ftype == "Transient"
        permanent = fault and ftype == "Permanent"
        detectable = permanent and detect == "Detectable"
        non_detectable = permanent and detect == "Non_detectable"
        p_err = p_activate if transient else 0.0
        p_undet = 1.0 if non_detectable else (p_miss if detectable else 0.0)
        factors = (
            par1 if fault else 1.0 - par1,
            transient_ratio if ftype == "Transient" else 1.0 - transient_ratio,
            1.0 - par2 if detect == "Detectable" else par2,
            p_err if err else 1.0 - p_err,
            p_undet if undet else 1.0 - p_undet,
            excl if ex else 1.0 - excl,
        )
        if 0.0 in factors:
            continue
        states = (fault, ftype, detect, transient, permanent, detectable,
                  non_detectable, err, undet, err or undet, ex)
        out.append((math.prod(factors), {
            var: (state if isinstance(state, str) else BOOL[state])
            for var, state in zip(unit_variables(unit), states)
        }))
    return out


def joint_assignments(
    par1: float, par2: float, par3: float, transient_ratio: float,
    p_activate: float, p_miss: float, excl: float,
) -> list[tuple[float, dict[str, str]]]:
    """All 968 full assignments with nonzero probability (at most 8,192)."""
    units = [unit_assignments(u, par1, par2, transient_ratio, p_activate, p_miss, excl)
             for u in UNITS]
    out = []
    for (pa, sa), (pb, sb), same in itertools.product(units[0], units[1], (False, True)):
        ua, ub = sa["UNCORR_A"] == "True", sb["UNCORR_B"] == "True"
        ea, eb = sa["Excl_A"] == "True", sb["Excl_B"] == "True"
        unsafe = (ua and ub and same) or (ua and ea) or (ub and eb)
        states = {**sa, **sb, SAME: BOOL[same], SINK: BOOL[unsafe]}
        out.append((pa * pb * (par3 if same else 1.0 - par3), states))
    return out


@cache
def hazard_support() -> tuple[dict[str, str], ...]:
    """Assignments with ``UNSAFE_OUTPUT=True`` that have nonzero probability
    for every parameter strictly inside (0, 1)."""
    return tuple(states for _, states in joint_assignments(*[0.5] * 7)
                 if states[SINK] == "True")
