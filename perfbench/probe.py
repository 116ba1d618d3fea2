"""The host probe: a fixed ~1.5 ms of work that uses no repository code.

Timings on a shared host drift by tens of percent within minutes while the
code under test stays the same. The benchmark therefore runs this probe
right after every timed operation and reports each sample as
``raw_ms * probe_ref_ms / probe_ms`` from its own pair: when the host is
slow, both the operation and its probe are slow, and the ratio cancels.

The mix mirrors what the program spends its time on: a pure-Python integer
loop (interpreter dispatch), a few hundred small numpy calls (per-call
overhead) and one L2-resident 128x128 matmul (dense arithmetic). It is
frozen once calibrated: changing it changes every normalised number.
"""

from __future__ import annotations

import time

import numpy as np

_PY_ITERATIONS = 6000
_NUMPY_ROUNDS = 250
_MATRIX = 128


class HostProbe:
    """One fixed probe; :meth:`run` returns its wall time in ms."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250101)
        self._left = rng.standard_normal((_MATRIX, _MATRIX))
        self._right = rng.standard_normal((_MATRIX, _MATRIX))
        self._vector = rng.standard_normal(16)
        #: the last result, kept so no step of the probe is dead work
        self.checksum = 0.0

    def run(self) -> float:
        start = time.perf_counter()
        state = 1
        for step in range(_PY_ITERATIONS):
            state = (state * 1103515245 + 12345 + step) & 0x7FFFFFFF
        vector = self._vector
        for _ in range(_NUMPY_ROUNDS):
            vector = np.tanh(vector * 0.5 + 0.25)
        product = self._left @ self._right
        elapsed = time.perf_counter() - start
        self.checksum = state + float(vector[0]) + float(product[0, 0])
        return elapsed * 1e3
