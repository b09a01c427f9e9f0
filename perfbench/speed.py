"""Machine speed, from a fixed numpy kernel that does not use opineq.

On a shared 2-core VM the CPU speed one process sees moved by up to 1.9x
for minutes at a time, in the set-up and in every workload alike.  A verify
run times this kernel before its blocks and set-ups, and scales its
end-to-end times by the median kernel time over ``REFERENCE_KERNEL_S``.
Search runs are not scaled: there the probe over-corrected (METRICS.md).
The scaled times read as times on a machine where the kernel takes
``REFERENCE_KERNEL_S``.  The kernel makes the calls opineq's checks make
most: Hermitian eigendecompositions, products, norms and singular values
of complex matrices with d = 2..6, with the Python overhead around each.
It never imports opineq, so a change to opineq cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_KERNEL_S = 0.010  # about the kernel's time on the VM the benchmark was built on
KERNEL_SEED = 20180123


class SpeedProbe:
    """Times the kernel on each call; ``scale`` summarizes the samples."""

    def __init__(self) -> None:
        rng = np.random.default_rng(KERNEL_SEED)
        self._matrices = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                          for d in (2, 3, 4, 5, 6) for _ in range(40)]
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        total = 0.0
        for a in self._matrices:
            h = (a + a.conj().T) / 2
            w, v = np.linalg.eigh(h)
            root = (v * np.sqrt(np.abs(w))) @ v.conj().T
            total += float(np.linalg.norm(root - h))
            total += float(np.linalg.svd(a, compute_uv=False)[0])
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Median kernel time over the reference: above 1 on a slow machine."""
        return statistics.median(self.samples) / REFERENCE_KERNEL_S
