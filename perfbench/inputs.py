"""Seeded inputs for the benchmark workloads.

``write_models`` writes the run's ``.rvm`` files; ``op_input`` returns the
parameters of op ``i``. Both are pure functions of (workload, seed), so the
same seed gives the same inputs and the oracle can regenerate what the
measured process was fed. Every op draws fresh parameters, so no op repeats
an earlier op's inputs. Standard library only: the measured process imports
this module and must pay for nothing but redvote itself.
"""

from __future__ import annotations

import random
from pathlib import Path

import netspec

WORKLOADS = ("cli-solve", "sweep-failure", "sweep-maintenance", "posteriors")

#: Model shapes of the shipped examples: the failure network feeding a
#: builtin maintenance chain, or the five-state chain written inline.
SHAPES = ("maintenance4", "maintenance5", "maintenance8", "inline")

#: Shipped models that join the cli-solve rotation; between them they give
#: both verdicts at the 1e-9 threshold.
SHIPPED = ("models/case-study.rvm", "models/case-study-2.rvm",
           "models/inline-maintenance.rvm")

#: Realistic ranges, drawn log-uniformly.
RANGES = {
    "PAR_1": (1e-6, 1e-4), "PAR_2": (1e-2, 0.5), "PAR_3": (1e-4, 1e-1),
    "PAR_6": (0.1, 10.0), "PAR_7": (1e-3, 0.1), "PAR_8": (1e-5, 1e-3),
    "PAR_9": (0.5, 10.0),
}
MAINTENANCE_INPUTS = ("PAR_6", "PAR_7", "PAR_8", "PAR_9")

SWEEP_POINTS = 100
#: Files per run. cli-solve uses each generated file once: 160 files cover
#: 280 ops at seven ops per rotation, about eight times what a 15 s run
#: makes today. The sweeps reuse a file every POOL ops but draw the swept
#: values afresh for every op.
POOL = {"cli-solve": 160, "sweep-failure": 32, "sweep-maintenance": 32}
CLI_ROTATION = 7  # four generated shapes, then the three shipped files
THRESHOLD = 1e-9

_HEADER = "version 1;\n"
_FAILURE = """  instance phi : builtin.failure2oo2 {{
    PAR_1 = {PAR_1!r};
    PAR_2 = {PAR_2!r};
    PAR_3 = {PAR_3!r};
  }}
"""
_MAINTENANCE_BINDINGS = """    PAR_4 = phi.PAR_4;
    PAR_5 = phi.PAR_5;
    PAR_6 = {PAR_6!r};
    PAR_7 = {PAR_7!r};
    PAR_8 = {PAR_8!r};
    PAR_9 = {PAR_9!r};
  }}
"""
_BUILTIN_EXPORTS = """  output HFR_2oo3 = 3 * mu.PAR_10;
  output MTBHE_2oo3 = 1 / (3 * mu.PAR_10);
  output HR_2oo2 = phi.PAR_5;
}}
"""
# the chain of models/inline-maintenance.rvm
INLINE_CHAIN = """  ctmc imm {
    state S0 init;
    state S1;
    state S2;
    state S3;
    state S4;
    rate S0 -> S1 : 2 * PAR_4 - PAR_5;
    rate S0 -> S3 : PAR_5;
    rate S1 -> S0 : PAR_6;
    rate S1 -> S2 : PAR_5;
    rate S2 -> S0 : (1 - PAR_7) * PAR_6;
    rate S2 -> S3 : PAR_7 * PAR_6;
    rate S2 -> S4 : PAR_8;
    rate S3 -> S2 : 2 * PAR_4 - PAR_5;
    rate S3 -> S4 : PAR_8;
    rate S4 -> S3 : PAR_9;
  }
"""


def _draw(rng: random.Random, name: str) -> float:
    lo, hi = RANGES[name]
    return lo * (hi / lo) ** rng.random()


def model_text(name: str, shape: str, params: dict[str, float]) -> str:
    """An ``.rvm`` workflow of the given shape with literal inputs ``params``."""
    body = _FAILURE.format(**params)
    if shape == "inline":
        body = INLINE_CHAIN + body + "  instance mu : imm {\n"
        body += _MAINTENANCE_BINDINGS.format(**params)
        body += "  output HFR_2oo3 = 3 * mu.pi_S3;\n}\n"
    else:
        body += f"  instance mu : builtin.{shape} {{\n"
        body += _MAINTENANCE_BINDINGS.format(**params) + _BUILTIN_EXPORTS.format()
    return f'{_HEADER}workflow "{name}" {{\n{body}'


def model_params(workload: str, seed: int, k: int) -> tuple[str, dict[str, float]]:
    """Shape and literal inputs of the run's k-th generated file."""
    rng = random.Random(f"{workload}/{seed}/model/{k}")
    return SHAPES[k % len(SHAPES)], {name: _draw(rng, name) for name in RANGES}


def write_models(workload: str, seed: int, out_dir: Path) -> list[str]:
    """Write the run's generated ``.rvm`` files; returns their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(POOL.get(workload, 0)):
        shape, params = model_params(workload, seed, k)
        path = out_dir / f"model-{k:03d}-{shape}.rvm"
        path.write_text(model_text(f"bench-{k}", shape, params), encoding="utf-8")
        paths.append(str(path))
    return paths


def op_input(workload: str, seed: int, i: int, models: list[str]) -> dict:
    """Inputs of op ``i``; ``i = -1`` is the untimed warm-up op.

    Mixes that change an op's cost rotate by op index rather than by
    random draw, so every seed runs the same mix.
    """
    rng = random.Random(f"{workload}/{seed}/op/{i}")
    if workload == "cli-solve":
        slot = i % CLI_ROTATION
        if slot >= len(SHAPES):
            return {"file": SHIPPED[slot - len(SHAPES)]}
        k = (i // CLI_ROTATION * len(SHAPES) + slot) % len(models)
        return {"file": models[k]}
    if workload in ("sweep-failure", "sweep-maintenance"):
        k = i % len(models)
        if workload == "sweep-failure":
            swept = "PAR_1"
        else:
            swept = MAINTENANCE_INPUTS[(i // len(SHAPES)) % len(MAINTENANCE_INPUTS)]
        base = model_params(workload, seed, k)[1][swept]
        targets = [_draw(rng, swept) for _ in range(SWEEP_POINTS)]
        return {
            "model": k,
            "param": f"{'phi' if swept == 'PAR_1' else 'mu'}.{swept}",
            "factors": [t / base for t in targets],
        }
    if workload == "posteriors":
        params = [_draw(rng, name) for name in ("PAR_1", "PAR_2", "PAR_3")]
        evidence = {netspec.SINK: "True"}
        support = rng.choice(netspec.hazard_support())
        observed = [v for v in netspec.VARIABLES if v != netspec.SINK]
        for var in rng.sample(observed, i % 3):
            evidence[var] = support[var]
        return {"params": params, "evidence": evidence}
    raise ValueError(f"unknown workload {workload!r}")
