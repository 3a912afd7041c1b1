"""Reference measurements of how fast the machine runs right now.

The benchmark interleaves a reference with the ops and scales its time
metrics by ``REFERENCE_S / median(reference time)``. That reports them at
a fixed reference speed. On a shared host the speed of the same code
drifts by tens of percent over minutes, as neighbours come and go, and the
reference slows with it.

- In-process ops use a kernel of dict, tuple and sort work plus small
  einsum calls, the kinds of work redvote's solvers do.
- Ops that start a process (cli-solve) use a bare interpreter start.

Neither calls redvote, so a change to redvote cannot move them.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

#: Reference times that define the reference speed: medians on a 2-core
#: x86-64 container under Python 3.11 and numpy 2.4.
REFERENCE_S = {"kernel": 0.013, "interpreter": 0.1}

_MATRIX = np.arange(64.0).reshape(8, 8) / 64.0


def kind(workload: str) -> str:
    """The reference that matches a workload's ops."""
    return "interpreter" if workload == "cli-solve" else "kernel"


def _kernel(rounds: int) -> None:
    table = {}
    for i in range(2_000 * rounds):
        table[(i, str(i))] = i * i
    sorted(table, key=lambda key: -table[key])
    for _ in range(30 * rounds):
        np.einsum("ij,jk->ik", _MATRIX, _MATRIX)


def kernel_seconds() -> float:
    """Wall time of one run of the kernel, after a short untimed run that
    warms the caches a waiting process has lost."""
    _kernel(1)
    start = time.perf_counter()
    _kernel(10)
    return time.perf_counter() - start


def interpreter_seconds() -> float:
    """Wall time of ``python -c pass``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def seconds(reference: str) -> float:
    return kernel_seconds() if reference == "kernel" else interpreter_seconds()
