"""Machine-speed reference: a fixed linear-algebra kernel timed between ops.

The 2-core reference machine is shared, and its speed drifts by 10-45% over
minutes; CPU time drifts with wall time, so the drift is slower execution,
not lost time slices.  Ten runs of one workload span several minutes, so a
raw wall time spreads with the drift and no statistic inside one run removes
it.

Between ops, the benchmark therefore runs a fixed kernel of the same kind of
work as starstab: eigendecompositions, singular values and products of small
dense complex matrices, driven from Python.  The kernel never calls starstab,
so a change to the program does not move it.  Kernel time is spent in
slices, each ``SHARE`` of the previous op's time, so it samples the machine
across the whole run.  A run of ``tower-stone`` has two 13 s ops and so only
three slices; there the kernel follows the ops less closely (``README.md``).
A run's op times are scaled by ``speed()``: the kernel's time per unit on
the reference machine over its time per unit in this run.  Scaled times are reference seconds: the time
the op would take when the machine runs the kernel at its reference speed.

Set-up time is not scaled.  It is mostly imports, which follow the kernel
less closely than the ops do: scaling widened its spread on three of the
four workloads.
"""
from __future__ import annotations

import time

import numpy as np

REF_UNIT_S = 4.0e-3     # time of one unit on the 2-core reference machine (a scale only)
SHARE = 0.25            # kernel time before each op, as a share of the previous op's time
MIN_SLICE_S = 0.05      # kernel time before the first op, and the least for any slice
SIZES = (4, 6, 8, 12, 16)


class Reference:
    def __init__(self):
        rng = np.random.default_rng(1601)     # fixed: the same work in every run
        self._mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                      for n in SIZES for _ in range(4)]
        self.units = 0
        self.seconds = 0.0

    def _unit(self) -> float:
        acc = 0.0
        for a in self._mats:
            _, v = np.linalg.eigh(a + a.conj().T)
            acc += np.linalg.norm(a @ v - v @ a, 2)
            u, _, vh = np.linalg.svd(a)
            acc += float(np.trace(u @ vh).real)
        return acc

    def slice(self, last_op_s: float) -> None:
        """Run whole units for at least max(MIN_SLICE_S, SHARE * last_op_s)."""
        target = max(MIN_SLICE_S, SHARE * last_op_s)
        t0 = time.perf_counter()
        while True:
            self._unit()
            self.units += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= target:
                break
        self.seconds += elapsed

    def speed(self) -> float:
        """Reference time per unit over this run's time per unit (< 1 on a slow spell)."""
        return REF_UNIT_S / (self.seconds / self.units)
