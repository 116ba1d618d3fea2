"""Lazy graph capture + fused execution for the oblivious hot paths.

The three-layer pipeline (record -> fuse -> realize):

* :mod:`repro.lazy.graph` — :class:`LazyBuffer`/:class:`LazyOp` graph
  recording (arithmetic builds a graph instead of computing);
* :mod:`repro.lazy.schedule` — the fusing :class:`Scheduler` (elementwise
  chains and movement ops collapse into single kernels) plus the
  :class:`IndexLeakingScheduler` negative control the leakage audit
  catches;
* :mod:`repro.lazy.runtime` — the pluggable :class:`Runtime` protocol and
  the default :class:`NumpyRuntime` with graph-capture caching and buffer
  reuse, installed ambiently via :func:`use_runtime`.

:func:`capture` records a function once and returns a
:class:`CapturedGraph` that replays byte-identically to eager execution.
``python -m repro.bench lazy`` runs the gated eager-vs-captured dispatch
comparison on the Fig 12/13 sweeps.
"""

from repro.lazy.capture import CapturedGraph, capture
from repro.lazy.graph import LazyBuffer, LazyOp, count_dispatch_ops
from repro.lazy.runtime import (
    NumpyRuntime,
    Runtime,
    get_active_runtime,
    set_active_runtime,
    use_runtime,
)
from repro.lazy.schedule import (
    IndexLeakingScheduler,
    Kernel,
    Schedule,
    Scheduler,
)

__all__ = [
    "CapturedGraph",
    "capture",
    "LazyBuffer",
    "LazyOp",
    "count_dispatch_ops",
    "NumpyRuntime",
    "Runtime",
    "get_active_runtime",
    "set_active_runtime",
    "use_runtime",
    "IndexLeakingScheduler",
    "Kernel",
    "Schedule",
    "Scheduler",
]
