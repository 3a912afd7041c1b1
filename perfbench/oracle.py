"""Independent oracles for every benchmark op; none calls redvote's solvers.

- failure network: the closed forms in ``tests/oracles.py``;
- five-state chain: the closed form ``five_state_pi3`` there;
- four-state, eight-state and inline chains: a dense solve of the balance
  equations in 40-digit mpmath arithmetic, from transition tables restated
  here from the model documentation;
- posteriors: enumeration of the 968 assignments with nonzero probability;
- model files: inputs read back with a regular expression, not the DSL parser.

Each check returns a list of mismatch descriptions; an empty list passes.
"""

from __future__ import annotations

import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import mpmath

import inputs
import netspec

#: Relative tolerance on every figure. Tier-1 pins absolute errors of
#: 1e-10; relative 1e-10 is tighter for every value below 1.
RTOL = 1e-10
DIGITS = 40

#: Reference failure parameterisation the eight-state template uses for its
#: diagnosable-fault rate.
EIGHT_STATE_REFERENCE = {"par1": 1.6666e-5, "par2": 0.1, "transient_ratio": 0.9}


def load_test_oracles(root: Path):
    """Import the repository's ``tests/oracles.py`` by path."""
    spec = importlib.util.spec_from_file_location("bench_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Oracle:
    def __init__(self, root: Path) -> None:
        sys.path.insert(0, str(root / "src"))
        from redvote.nmr import FailureParams  # parameter record only

        self.failure_params = FailureParams
        self.closed = load_test_oracles(root)
        self.root = root
        self._file_cache: dict[str, tuple[str, dict[str, float]]] = {}

    # --- figures ------------------------------------------------------------

    def failure(self, par1: float, par2: float, par3: float) -> dict[str, float]:
        p = self.failure_params(par1, par2, par3)
        u = self.closed.uncorr_probability(p)
        return {"PAR_4": u, "PAR_5": self.closed.unsafe_probability(u, p.par3, p.excl_fail)}

    def workflow(self, shape: str, params: dict[str, float]) -> dict:
        """Expected instance outputs and exports of a generated-shape workflow."""
        phi = self.failure(params["PAR_1"], params["PAR_2"], params["PAR_3"])
        rates = [phi["PAR_4"], phi["PAR_5"]] + [params[f"PAR_{n}"] for n in (6, 7, 8, 9)]
        if shape == "maintenance5":
            mu = {"PAR_10": self.closed.five_state_pi3(*rates)}
        else:
            pi = chain_steady_state(*chain_table(shape, *rates))
            mu = ({f"pi_{s}": p for s, p in pi.items()} if shape == "inline"
                  else {"PAR_10": pi["S3"]})
        par10 = mu["pi_S3" if shape == "inline" else "PAR_10"]
        exports = {"HFR_2oo3": 3 * par10}
        if shape != "inline":
            exports.update(MTBHE_2oo3=1 / (3 * par10), HR_2oo2=phi["PAR_5"])
        return {"instances": {"phi": phi, "mu": mu}, "exports": exports}

    def model_file(self, path: str) -> tuple[str, dict[str, float]]:
        if path not in self._file_cache:
            self._file_cache[path] = read_model(self.root / path)
        return self._file_cache[path]

    # --- per-workload op checks --------------------------------------------------

    def check_cli(self, inp: dict, out: dict) -> list[str]:
        shape, params = self.model_file(inp["file"])
        want = self.workflow(shape, params)
        verdict = 0 if want["exports"]["HFR_2oo3"] <= inputs.THRESHOLD else 5
        if out["code"] != verdict:
            return [f"{inp['file']}: exit {out['code']}, oracle verdict {verdict}"]
        try:
            report = json.loads(out["stdout"])
        except ValueError as exc:
            return [f"{inp['file']}: stdout is not a JSON report ({exc})"]
        return compare(want, {"instances": report.get("instances"),
                              "exports": report.get("exports")}, inp["file"])

    def check_sweep(self, shape: str, params: dict[str, float], inp: dict, out: list) -> list[str]:
        if len(out) != len(inp["factors"]):
            return [f"{len(out)} sweep points for {len(inp['factors'])} factors"]
        swept = inp["param"].split(".", 1)[1]
        problems = []
        for n, (factor, got) in enumerate(zip(inp["factors"], out)):
            point = dict(params)
            point[swept] = params[swept] * factor  # scaled exactly as the program scales
            problems += compare(self.workflow(shape, point), got, f"point {n}")
        return problems

    def check_posteriors(self, inp: dict, out: list) -> list[str]:
        want = posteriors(self.failure_params(*inp["params"]), inp["evidence"])
        expected_vars = [v for v in netspec.VARIABLES if v not in inp["evidence"]]
        got_vars = [var for var, _ in out]
        if got_vars != expected_vars:
            return [f"posterior variables {got_vars} != {expected_vars}"]
        return compare({var: want[var] for var in expected_vars}, dict(out), "posterior")


# --- helpers ------------------------------------------------------------------


def close(got, want: float) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= RTOL * abs(want))


def compare(want, got, where: str) -> list[str]:
    """Every leaf of ``want`` must be matched within RTOL, with no extra keys."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [p for key in want for p in compare(want[key], got[key], f"{where}.{key}")]
    if not close(got, want):
        return [f"{where}: got {got!r}, oracle {want!r}"]
    return []


_INSTANCE_RE = re.compile(r"instance\s+mu\s*:\s*(?:builtin\.(maintenance[458])|imm)\b")
_LITERAL_RE = re.compile(r"\b(PAR_\d+)\s*=\s*([0-9][0-9.eE+-]*)\s*;")


def read_model(path: Path) -> tuple[str, dict[str, float]]:
    """Shape and literal inputs of a model file in one of the shipped shapes."""
    text = path.read_text(encoding="utf-8")
    match = _INSTANCE_RE.search(text)
    if match is None:
        raise ValueError(f"{path}: not one of the benchmark's model shapes")
    shape = match.group(1) or "inline"
    if shape == "inline" and inputs.INLINE_CHAIN.strip() not in text:
        raise ValueError(f"{path}: inline chain differs from the five-state chain")
    params = {name: float(value) for name, value in _LITERAL_RE.findall(text)}
    return shape, params


def chain_table(shape: str, par4, par5, par6, par7, par8, par9):
    """States and (src, dst, rate) transitions of a maintenance chain, in mpmath."""
    mp = mpmath.mp
    mp.dps = DIGITS
    par4, par5, par6, par7, par8, par9 = map(mpmath.mpf, (par4, par5, par6, par7, par8, par9))
    shutdown = 2 * par4 - par5
    repair_ok, repair_bad = (1 - par7) * par6, par7 * par6
    if shape in ("maintenance5", "inline"):
        states = ("S0", "S1", "S2", "S3", "S4")
        rates = [("S0", "S1", shutdown), ("S0", "S3", par5), ("S1", "S0", par6),
                 ("S1", "S2", par5), ("S2", "S0", repair_ok), ("S2", "S3", repair_bad),
                 ("S2", "S4", par8), ("S3", "S2", shutdown), ("S3", "S4", par8),
                 ("S4", "S3", par9)]
    elif shape == "maintenance4":
        states = ("S0", "S1", "S2", "S3")
        rates = [("S0", "S1", shutdown), ("S0", "S3", par5), ("S1", "S0", par6),
                 ("S1", "S2", par5), ("S2", "S0", repair_ok),
                 ("S2", "S3", repair_bad + par8), ("S3", "S2", shutdown)]
    elif shape == "maintenance8":
        ref = {k: mpmath.mpf(v) for k, v in EIGHT_STATE_REFERENCE.items()}
        diag = 2 * ref["par1"] * (1 - ref["transient_ratio"]) * (1 - ref["par2"])
        states = ("S0p", "S0s", "S1", "S2", "S3", "S4", "S5", "S6")
        rates = [("S0p", "S3", par5), ("S0s", "S3", par5), ("S0p", "S1", shutdown),
                 ("S0p", "S0s", diag), ("S0s", "S5", shutdown), ("S1", "S0p", par6),
                 ("S1", "S2", par5), ("S2", "S0p", repair_ok), ("S2", "S3", repair_bad),
                 ("S2", "S4", par8), ("S3", "S2", shutdown), ("S3", "S4", par8),
                 ("S4", "S3", par9), ("S5", "S0p", repair_ok), ("S5", "S0s", repair_bad),
                 ("S5", "S6", par8), ("S6", "S5", par9)]
    else:
        raise ValueError(f"unknown chain shape {shape!r}")
    return states, rates


def chain_steady_state(states, rates) -> dict[str, float]:
    """Solve pi Q = 0, sum(pi) = 1 by Gaussian elimination with partial
    pivoting; every rate here is positive, so the chain is irreducible."""
    n = len(states)
    index = {s: i for i, s in enumerate(states)}
    zero = mpmath.mpf(0)
    # rows of Q^T, the last balance equation replaced by normalisation
    a = [[zero] * n + [zero] for _ in range(n)]
    for src, dst, rate in rates:
        i, j = index[src], index[dst]
        a[j][i] += rate
        a[i][i] -= rate
    a[n - 1] = [mpmath.mpf(1)] * n + [mpmath.mpf(1)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    pi = [zero] * n
    for r in range(n - 1, -1, -1):
        pi[r] = (a[r][n] - sum(a[r][c] * pi[c] for c in range(r + 1, n))) / a[r][r]
    return {s: float(p) for s, p in zip(states, pi)}


def posteriors(params, evidence: dict[str, str]) -> dict[str, dict[str, float]]:
    """``P(variable | evidence)`` for every variable, by enumeration."""
    weights: dict[tuple[str, str], list[float]] = {}
    total = []
    for prob, states in netspec.joint_assignments(
        params.par1, params.par2, params.par3, params.transient_ratio,
        params.p_activate, params.p_miss, params.excl_fail,
    ):
        if any(states[var] != state for var, state in evidence.items()):
            continue
        total.append(prob)
        for var, state in states.items():
            weights.setdefault((var, state), []).append(prob)
    z = math.fsum(total)
    labels = {var: netspec.BOOL for var in netspec.VARIABLES}
    for unit in netspec.UNITS:
        labels[f"Fault_type_{unit}"] = ("Transient", "Permanent")
        labels[f"Fault_detectability_{unit}"] = ("Detectable", "Non_detectable")
    return {
        var: {s: math.fsum(weights.get((var, s), ())) / z for s in labels[var]}
        for var in netspec.VARIABLES
    }
