"""Secure online training of embedding tables (the LAORAM workload).

Gradient write-backs leak the same index access pattern reads do, so the
training loop routes them through the *same* oblivious batched ORAM path
used for the forward lookups: :class:`OnlineOramEmbedding` serves each
forward batch with one lookahead access and writes the row gradients back
as a second lookahead batch over the identical slot list, while
:class:`TrainingLoop` drives a DLRM through the existing ``repro.nn``
autograd with the dense weights updated in place by ``repro.nn.optim``.
Gated end-to-end by ``python -m repro.bench train`` (bench and registry
id ``train``); threat model and design in docs/TRAINING.md.
"""

from repro.training.embedding import OnlineOramEmbedding
from repro.training.loop import (
    StepMetrics,
    TrainingConfig,
    TrainingLoop,
    TrainingReport,
    build_training_loop,
)

__all__ = [
    "OnlineOramEmbedding",
    "StepMetrics",
    "TrainingConfig",
    "TrainingLoop",
    "TrainingReport",
    "build_training_loop",
]
