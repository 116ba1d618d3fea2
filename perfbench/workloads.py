"""The benchmark's three closed-loop workloads: one client, one thread.

Each workload builds its system from a seed (:meth:`setup`), splits one
operation into timed segments (:meth:`segments`), checks every output
against an oracle outside the timed region (:meth:`check`), runs deeper
oracles on the untimed warm-up operations (:meth:`oracle_op`), and names
the public instances a traced run wraps (:meth:`instrument`).

Inputs are uniform: every defence here costs the same whatever the index,
so a skewed index distribution would change nothing but the oracle data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.costmodel.latency import DLRM_DHE_UNIFORM_16, DLRM_DHE_UNIFORM_64
from repro.data import KAGGLE_SPEC
from repro.embedding.dhe import DHEEmbedding
from repro.embedding.oram_embedding import CircuitOramEmbedding
from repro.embedding.scan import LinearScanEmbedding
from repro.llm.tokenizer import ObliviousTokenizer
from repro.models.dlrm import DLRM, KAGGLE_BOTTOM, KAGGLE_TOP_HIDDEN
from repro.nn.tensor import Tensor, no_grad
from repro.oram.tree import DUMMY
from repro.training.loop import build_training_loop

from spans import SpanRecorder, patch

Segment = Callable[[], object]

#: public methods wrapped on every ORAM a traced run instruments
_POSMAP_METHODS = ("lookup_and_update", "lookup_and_update_batch", "lookup",
                   "refresh", "rewrite")
_TREE_METHODS = ("read_bucket", "write_bucket", "read_bucket_metadata")
_STASH_METHODS = ("add", "remove", "peek", "update", "resident_blocks",
                  "evict_matching", "take_matching")


def instrument_oram(recorder: SpanRecorder, oram) -> None:
    """Wrap an ORAM's position map, bucket I/O and stash methods.

    Only the top-level controller is wrapped: a recursive position map's
    child ORAM runs inside the ``oram.posmap`` span, so its whole cost is
    position-map work.
    """
    for method in _POSMAP_METHODS:
        if hasattr(oram.position_map, method):
            recorder.wrap(oram.position_map, method, "oram.posmap")
    if hasattr(oram, "tree"):
        for method in _TREE_METHODS:
            recorder.wrap(oram.tree, method, "oram.bucket_io")
    for method in _STASH_METHODS:
        recorder.wrap(oram.stash, method, "oram.stash")


def instrument_embeddings(recorder: SpanRecorder, embeddings) -> None:
    """Wrap each embedding generator by its technique.

    Workloads share this, so a model that starts using a technique shows
    it in the trace (and fails the workload-separation check).
    """
    for emb in embeddings:
        if isinstance(emb, LinearScanEmbedding):
            recorder.wrap(emb, "forward", "embedding.scan", count=(
                "embedding.scan.rows_swept",
                lambda ids, rows=emb.num_embeddings: np.size(ids) * rows))
        elif isinstance(emb, DHEEmbedding):
            recorder.wrap(emb.encoder, "encode", "embedding.dhe.hash",
                          count=("embedding.dhe.queries", np.size))
            recorder.wrap(emb.decoder, "forward", "embedding.dhe.decode")
        elif hasattr(emb, "apply_gradients"):
            recorder.wrap(emb, "forward", "oram.lookahead.read")
            recorder.wrap(emb, "apply_gradients", "oram.lookahead.writeback")
            instrument_oram(recorder, emb.oram)
        else:
            recorder.wrap(emb, "forward", f"oram.{emb.scheme}.read")
            instrument_oram(recorder, emb.oram)


def _mismatch(label: str, got: np.ndarray, want: np.ndarray) -> List[str]:
    got = np.asarray(got)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    if not np.array_equal(got, want):
        return [f"{label}: {int((got != want).sum())} values differ"]
    return []


def _not_finite(label: str, values: np.ndarray) -> List[str]:
    if not np.isfinite(values).all():
        return [f"{label}: non-finite values"]
    return []


class Workload:
    """Interface shared by the three workloads."""

    name = ""
    #: layer name of the root span around each timed segment
    root = ""
    #: samples (DLRM), generated tokens (LLM) or training samples per op
    samples_per_op = 1
    #: segments up to and including the op's first output
    first_output_segments = 1
    #: operations per second of measurement on the reference host; a run
    #: of ``--seconds s`` makes ``s * ops_per_second`` operations on every
    #: commit, so both sides of a comparison do the same work
    ops_per_second = 1.0
    setup_repeats = 5
    #: layer-name prefixes a traced run of this workload must never record
    forbidden_layers: Sequence[str] = ()

    def setup(self, seed: int, num_ops: int) -> None:
        raise NotImplementedError

    def segments(self, op: int) -> List[Segment]:
        raise NotImplementedError

    def check(self, op: int, outputs: list) -> List[str]:
        raise NotImplementedError

    def oracle_op(self, op: int) -> List[str]:
        """Run operation ``op`` untimed with every oracle applied."""
        outputs = [segment() for segment in self.segments(op)]
        return self.check(op, outputs)

    def instrument(self, recorder: SpanRecorder) -> None:
        raise NotImplementedError

    def orams(self) -> list:
        """Top-level ORAM controllers, read for the per-access counts."""
        return []


class DlrmHybrid(Workload):
    """Criteo-Kaggle DLRM with the paper's hybrid scan/DHE allocation."""

    name = "dlrm-hybrid"
    root = "dlrm"
    batch = 32
    #: tables of at most this many rows are scanned, the rest use DHE
    scan_max_rows = 10_000
    samples_per_op = batch
    ops_per_second = 17.0
    setup_repeats = 9
    forbidden_layers = ("oram.",)

    def setup(self, seed: int, num_ops: int) -> None:
        rng = np.random.default_rng(seed)
        spec = KAGGLE_SPEC
        #: per feature, the rows loaded into its scan table (None: DHE)
        self.scan_weights: List[Optional[np.ndarray]] = []

        def factory(size: int, dim: int):
            if size <= self.scan_max_rows:
                weight = rng.uniform(-0.25, 0.25, size=(size, dim))
                self.scan_weights.append(weight)
                return LinearScanEmbedding(size, dim, weight=weight)
            self.scan_weights.append(None)
            return DHEEmbedding.varied(size, dim, DLRM_DHE_UNIFORM_16, rng=rng)

        self.model = DLRM(spec, factory, bottom_sizes=KAGGLE_BOTTOM,
                          top_hidden_sizes=KAGGLE_TOP_HIDDEN, rng=rng)
        self.model.eval()
        self.dense = rng.standard_normal((num_ops, self.batch, spec.num_dense))
        self.sparse = np.stack(
            [rng.integers(0, size, size=(num_ops, self.batch))
             for size in spec.table_sizes], axis=-1)

    def _forward(self, op: int) -> np.ndarray:
        with no_grad():
            return self.model(self.dense[op], self.sparse[op]).data

    def segments(self, op: int) -> List[Segment]:
        return [lambda: self._forward(op)]

    def check(self, op: int, outputs: list) -> List[str]:
        logits = np.asarray(outputs[0])
        if logits.shape != (self.batch,):
            return [f"logits: shape {logits.shape} != ({self.batch},)"]
        return _not_finite("logits", logits)

    def oracle_op(self, op: int) -> List[str]:
        problems = super().oracle_op(op)
        for feature, emb in enumerate(self.model.embeddings):
            weight = self.scan_weights[feature]
            if weight is not None:
                ids = self.sparse[op, :, feature]
                problems += _mismatch(f"scan table {feature}",
                                      emb.generate(ids), weight[ids])
        return problems

    def instrument(self, recorder: SpanRecorder) -> None:
        recorder.wrap(self.model.bottom, "forward", "dlrm.mlp")
        recorder.wrap(self.model.top, "forward", "dlrm.mlp")
        instrument_embeddings(recorder, self.model.embeddings)

    def orams(self) -> list:
        return [emb.oram for emb in self.model.embeddings
                if hasattr(emb, "oram")]


class LlmGenerate(Workload):
    """Oblivious tokenizer, DHE prefill, then Circuit-ORAM decode reads."""

    name = "llm-generate"
    root = "llm"
    prompt_length = 32
    decode_steps = 16
    byte_vocab = 256
    model_vocab = 8192
    dim = 64
    samples_per_op = decode_steps
    first_output_segments = 3     # tokenize, prefill, first decode read
    ops_per_second = 3.6
    setup_repeats = 5

    def setup(self, seed: int, num_ops: int) -> None:
        rng = np.random.default_rng(seed)
        self.tokenizer = ObliviousTokenizer(self.byte_vocab, self.dim, rng=rng)
        self.prefill = DHEEmbedding.varied(self.model_vocab, self.dim,
                                           DLRM_DHE_UNIFORM_64, rng=rng)
        self.prefill.eval()
        self.table = rng.standard_normal((self.model_vocab, self.dim))
        self.decoder = CircuitOramEmbedding(self.model_vocab, self.dim,
                                            weight=self.table, rng=rng)
        self.prompt_ids = rng.integers(0, self.byte_vocab,
                                       size=(num_ops, self.prompt_length))
        self.prompts = ["".join(map(chr, row)) for row in self.prompt_ids]
        self.decode_ids = rng.integers(0, self.model_vocab,
                                       size=(num_ops, self.decode_steps))

    def _prefill(self, op: int) -> np.ndarray:
        with no_grad():
            return self.prefill(self.prompt_ids[op]).data

    def segments(self, op: int) -> List[Segment]:
        steps = [lambda: self.tokenizer.tokenize(self.prompts[op]),
                 lambda: self._prefill(op)]
        steps += [lambda token=int(token): self.decoder(np.array([token])).data
                  for token in self.decode_ids[op]]
        return steps

    def check(self, op: int, outputs: list) -> List[str]:
        ids = self.prompt_ids[op]
        problems = _mismatch("tokenizer rows", outputs[0],
                             self.tokenizer.vocabulary[ids])
        prefill = np.asarray(outputs[1])
        if prefill.shape != (self.prompt_length, self.dim):
            problems.append(f"prefill: shape {prefill.shape}")
        problems += _not_finite("prefill", prefill)
        for step, token in enumerate(self.decode_ids[op]):
            problems += _mismatch(f"decode read {step}", outputs[2 + step],
                                  self.table[token:token + 1])
        return problems

    def instrument(self, recorder: SpanRecorder) -> None:
        sqrt_oram = self.tokenizer.oram

        def reshuffle_label():
            before = sqrt_oram.stats.eviction_passes
            return lambda: ("oram.sqrt.reshuffle_read"
                            if sqrt_oram.stats.eviction_passes > before
                            else "oram.sqrt.read")

        recorder.wrap(self.tokenizer, "tokenize", "llm.tokenize")
        recorder.wrap(sqrt_oram, "read", "oram.sqrt.read",
                      relabel=reshuffle_label)
        instrument_oram(recorder, sqrt_oram)
        recorder.wrap(self.prefill, "forward", "embedding.dhe.prefill")
        instrument_embeddings(recorder, [self.decoder])

    def orams(self) -> list:
        return [self.tokenizer.oram, self.decoder.oram]


def oram_table(oram) -> np.ndarray:
    """Every block's payload, read straight from the tree and stash arrays.

    A plain read of the controller's storage (no ORAM access, no RNG
    draw), so checking a table leaves the next access unchanged.
    """
    table = np.full((oram.num_blocks, oram.block_width), np.nan)
    seen = 0
    for ids, payloads in (
            (oram.tree.ids.reshape(-1),
             oram.tree.payloads.reshape(-1, oram.block_width)),
            (oram.stash.ids, oram.stash.payloads)):
        real = ids != DUMMY
        table[ids[real]] = payloads[real]
        seen += int(real.sum())
    if seen != oram.num_blocks:
        raise AssertionError(
            f"ORAM holds {seen} blocks, expected {oram.num_blocks}")
    return table


class OramTrain(Workload):
    """One LAORAM-style training step per op on Path-ORAM tables."""

    name = "oram-train"
    root = "train"
    batch = 16
    table_sizes = (128, 128)
    dim = 16
    samples_per_op = batch
    ops_per_second = 9.0
    setup_repeats = 15
    forbidden_layers = ("embedding.dhe",)

    def setup(self, seed: int, num_ops: int) -> None:
        self.loop = build_training_loop(
            seed, steps=1, batch_size=self.batch, scheme="path",
            table_sizes=self.table_sizes, embedding_dim=self.dim)

    def segments(self, op: int) -> List[Segment]:
        return [self.loop.run]

    def check(self, op: int, outputs: list) -> List[str]:
        steps = outputs[0].steps
        if len(steps) != 1:
            return [f"report has {len(steps)} steps, expected 1"]
        loss = np.array([steps[0].loss, steps[0].embedding_grad_norm])
        return _not_finite("loss", loss)

    def oracle_op(self, op: int) -> List[str]:
        """The step's tables must equal a dense scatter-add replay."""
        embeddings = self.loop.embeddings
        before = [oram_table(emb.oram) for emb in embeddings]
        captured: List[tuple] = []

        def capture(emb):
            def make(forward):
                def recording(indices):
                    out = forward(indices)
                    captured.append((emb, np.asarray(indices), out))
                    return out
                return recording
            return make

        undo = [patch(emb, "forward", capture(emb)) for emb in embeddings]
        try:
            problems = self.check(op, [self.loop.run()])
        finally:
            for restore in undo:
                restore()
        lr = self.loop.config.embedding_lr
        for table, (emb, ids, out) in enumerate(captured):
            index = embeddings.index(emb)
            flat = ids.reshape(-1)
            problems += _mismatch(f"table {table} forward rows",
                                  out.data.reshape(-1, self.dim),
                                  before[index][flat])
            grads = np.zeros_like(before[index])
            np.add.at(grads, flat, out.grad.reshape(-1, self.dim))
            problems += _mismatch(f"table {table} after update",
                                  oram_table(emb.oram),
                                  before[index] - lr * grads)
        if len(captured) != len(embeddings):
            problems.append(f"{len(captured)} forward calls captured for "
                            f"{len(embeddings)} tables")
        return problems

    def instrument(self, recorder: SpanRecorder) -> None:
        loop = self.loop
        recorder.wrap(loop.batcher, "schedule", "train.batcher")
        recorder.wrap(loop.model.bottom, "forward", "train.mlp")
        recorder.wrap(loop.model.top, "forward", "train.mlp")
        recorder.wrap(loop.optimizer, "step", "train.optimizer")
        recorder.wrap(loop.optimizer, "zero_grad", "train.optimizer")
        recorder.wrap(Tensor, "backward", "train.backward")
        instrument_embeddings(recorder, loop.model.embeddings)

    def orams(self) -> list:
        return [emb.oram for emb in self.loop.embeddings]


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (DlrmHybrid, LlmGenerate, OramTrain)}
