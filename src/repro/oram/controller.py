"""The access contract shared by every ORAM scheme (§IV-A2).

Path, Circuit, Ring and square-root ORAM all subclass
:class:`OramController`, which owns the stash, the (possibly recursive)
position map, access statistics and the public ``read``/``write``/
``access``/``access_batch`` API, and writes each step the schemes share
once: the leaf remap, the ``update_fn`` step, the batch parser, the
reverse-lexicographic eviction schedule, the payload-table check and the
per-access telemetry flush. Tree schemes also get the bucket tree.
Subclasses implement :meth:`_access_impl`.

The ``update_fn`` contract: it runs on a copy of the block's payload and
must return a ``(block_width,)`` row of floats. If it raises or returns
anything else, the block keeps its old payload, the access finishes with
the trace a successful access makes, and the error is raised afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.oblivious.trace import READ, MemoryTracer
from repro.oram.position_map import FlatPositionMap, OramPositionMap, PositionMap
from repro.oram.stash import Stash, StashOverflowError
from repro.oram.tree import BucketTree, bit_reverse
from repro.telemetry.runtime import get_registry
from repro.utils.rng import SeedLike, new_rng
from repro.utils.validation import check_positive

UpdateFn = Callable[[np.ndarray], np.ndarray]


def payload_table(payloads: Optional[np.ndarray], num_blocks: int,
                  block_width: int, name: str = "payload") -> np.ndarray:
    """``payloads`` as a float64 ``(num_blocks, block_width)`` table.

    ``None`` gives zeros; any other shape raises ValueError.
    """
    if payloads is None:
        return np.zeros((num_blocks, block_width))
    payloads = np.asarray(payloads, dtype=np.float64)
    if payloads.shape != (num_blocks, block_width):
        raise ValueError(
            f"{name} shape {payloads.shape} != ({num_blocks}, {block_width})")
    return payloads


def parse_batch(block_ids, update_fns: Optional[Sequence[Optional[UpdateFn]]]
                ) -> Tuple[List[int], List[Optional[UpdateFn]]]:
    """A batch request as ``(ids, fns)``: one update fn (or None) per id."""
    ids = [int(block_id) for block_id in block_ids]
    if update_fns is None:
        return ids, [None] * len(ids)
    fns = list(update_fns)
    if len(fns) != len(ids):
        raise ValueError(f"{len(ids)} block ids but {len(fns)} update fns")
    return ids, fns


@dataclass
class AccessStats:
    """Counters describing the work done by the ORAM so far."""

    accesses: int = 0
    bucket_reads: int = 0
    bucket_writes: int = 0
    eviction_passes: int = 0
    stash_overflows: int = 0
    revealed_leaves: list = field(default_factory=list)

    def work(self) -> Tuple[int, int, int]:
        """(bucket reads, bucket writes, eviction passes) so far."""
        return self.bucket_reads, self.bucket_writes, self.eviction_passes

    def blocks_touched(self, bucket_size: int) -> int:
        return (self.bucket_reads + self.bucket_writes) * bucket_size

    def reset(self) -> None:
        self.accesses = 0
        self.bucket_reads = 0
        self.bucket_writes = 0
        self.eviction_passes = 0
        self.stash_overflows = 0
        self.revealed_leaves.clear()


class OramController:
    """Base class: tree + stash + position map + statistics."""

    #: cost-model scheme name (``repro.costmodel``); subclasses inherit it
    scheme = "abstract"
    #: subclass-specific defaults (paper §V-A1 / ZeroTrace configuration)
    DEFAULT_STASH = 150
    DEFAULT_RECURSION_CUTOFF = 1 << 16
    #: schemes with a batched lookahead mode (see repro.oram.lookahead)
    SUPPORTS_LOOKAHEAD = False

    def __init__(self, num_blocks: int, block_width: int,
                 initial_payloads: Optional[np.ndarray] = None,
                 bucket_size: int = 4,
                 stash_capacity: Optional[int] = None,
                 recursion_cutoff: Optional[int] = None,
                 pack_factor: int = 1,
                 rng: SeedLike = None,
                 tracer: Optional[MemoryTracer] = None,
                 region_prefix: str = "",
                 _recursion_level: int = 0) -> None:
        check_positive("num_blocks", num_blocks)
        check_positive("block_width", block_width)
        check_positive("pack_factor", pack_factor)
        if pack_factor > bucket_size:
            raise ValueError(
                f"pack_factor {pack_factor} cannot exceed bucket_size "
                f"{bucket_size} (the tree could not hold all blocks)")
        self.num_blocks = num_blocks
        self.block_width = block_width
        self.bucket_size = bucket_size
        # pack_factor > 1 shrinks the tree toward ZeroTrace's sizing
        # (leaves ~ n/Z): smaller memory, higher utilisation, more stash
        # pressure. pack_factor = 1 is the classic one-leaf-per-block tree.
        self.pack_factor = pack_factor
        self.rng = new_rng(rng)
        self.tracer = tracer
        self.stats = AccessStats()
        #: optional hook fired (with this controller) just before a
        #: StashOverflowError propagates — the resilience layer's overflow
        #: signal for triggering background eviction / degradation.
        self.overflow_callback: Optional[Callable[["OramController"], None]] = None
        self.recursion_cutoff = (recursion_cutoff if recursion_cutoff is not None
                                 else self.DEFAULT_RECURSION_CUTOFF)
        self._recursion_level = _recursion_level
        #: position in the reverse-lexicographic eviction schedule
        self._eviction_counter = 0

        prefix = region_prefix or self.__class__.__name__.lower()
        sized_blocks = (num_blocks + pack_factor - 1) // pack_factor
        self.tree = BucketTree(sized_blocks, block_width,
                               bucket_size=bucket_size, tracer=tracer,
                               region=f"{prefix}.tree{_recursion_level}")
        # The configured stash bound counts blocks resident *between* accesses
        # (ZeroTrace convention); during an access up to a full path of blocks
        # is transiently held as well, so the physical buffer is sized for both.
        self.persistent_stash_capacity = stash_capacity or self.DEFAULT_STASH
        transient = bucket_size * (self.tree.levels + 1)
        self.stash = Stash(self.persistent_stash_capacity + transient, block_width,
                           tracer=tracer, region=f"{prefix}.stash{_recursion_level}")

        initial_leaves = self.rng.integers(0, self.tree.num_leaves,
                                           size=num_blocks, dtype=np.int64)
        self.position_map = self._build_position_map(initial_leaves, prefix)
        self._load(initial_payloads, initial_leaves)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_position_map(self, initial_leaves: np.ndarray,
                            prefix: str) -> PositionMap:
        if self.num_blocks <= self.recursion_cutoff:
            return FlatPositionMap(
                initial_leaves, tracer=self.tracer,
                region=f"{prefix}.posmap{self._recursion_level}")

        def factory(num_chunks: int, width: int,
                    payloads: np.ndarray) -> "OramController":
            return type(self)(
                num_chunks, width, initial_payloads=payloads,
                bucket_size=self.bucket_size,
                recursion_cutoff=self.recursion_cutoff,
                rng=self.rng, tracer=self.tracer, region_prefix=prefix,
                _recursion_level=self._recursion_level + 1)

        return OramPositionMap(initial_leaves, factory)

    #: slots per bucket that take real blocks at initial placement
    #: (None: all; Ring ORAM keeps its dummy slots free)
    _initial_slots: Optional[int] = None

    def _load(self, payloads: Optional[np.ndarray],
              leaves: np.ndarray) -> None:
        payloads = payload_table(payloads, self.num_blocks, self.block_width,
                                 "initial payloads")
        for block_id in range(self.num_blocks):
            leaf = int(leaves[block_id])
            if not self.tree.place_initial(block_id, leaf, payloads[block_id],
                                           self._initial_slots):
                self.stash.add(block_id, leaf, payloads[block_id])

    def load_blocks(self, payloads: np.ndarray) -> None:
        """Bulk-overwrite all block payloads (offline, data-independent)."""
        payloads = payload_table(payloads, self.num_blocks, self.block_width)
        for block_id in range(self.num_blocks):
            self.write(block_id, payloads[block_id])

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def access(self, block_id: int, update_fn: Optional[UpdateFn] = None) -> np.ndarray:
        """One ORAM access: fetch ``block_id``, optionally update, remap.

        Returns the payload *before* ``update_fn`` was applied.
        """
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(
                f"block {block_id} out of range for ORAM of {self.num_blocks} blocks")
        registry = get_registry()
        before = self.stats.work()
        try:
            with registry.span("oram.access", scheme=type(self).__name__,
                               level=self._recursion_level):
                result, error = self._access_impl(block_id, update_fn)
                if error is not None:
                    raise error
        finally:
            self._flush_telemetry(registry, 1, before)
        return result

    def _flush_telemetry(self, registry, accesses: int,
                         before: Tuple[int, int, int]) -> None:
        """Report the work done since ``before`` (an ``AccessStats.work()``).

        Callers flush from a ``finally`` so that a failed access (e.g.
        StashOverflowError) reports the state that caused the failure, not
        the state before it.
        """
        reads, writes, evictions = before
        registry.counter("oram.accesses_total").inc(accesses)
        registry.counter("oram.bucket_reads_total").inc(
            self.stats.bucket_reads - reads)
        registry.counter("oram.bucket_writes_total").inc(
            self.stats.bucket_writes - writes)
        registry.counter("oram.eviction_passes_total").inc(
            self.stats.eviction_passes - evictions)
        registry.gauge("oram.stash_occupancy").set(self.stash.occupancy)
        registry.gauge("oram.stash_peak_occupancy").set_max(
            self.stash.peak_occupancy)

    def _remap(self, block_id: int) -> Tuple[int, int]:
        """Draw ``block_id``'s fresh leaf and swap it into the position map.

        Returns ``(old_leaf, new_leaf)`` — the tree schemes' first step.
        """
        new_leaf = int(self.rng.integers(0, self.tree.num_leaves))
        old_leaf = self.position_map.lookup_and_update(block_id, new_leaf)
        self.stats.accesses += 1
        self.stats.revealed_leaves.append(old_leaf)
        return old_leaf, new_leaf

    def _updated(self, payload: np.ndarray, update_fn: Optional[UpdateFn]
                 ) -> Tuple[np.ndarray, Optional[Exception]]:
        """The update step: ``(new payload, error)``.

        ``update_fn`` runs on a copy of ``payload``. If it raises or its
        result is not a ``(block_width,)`` float row, the old payload comes
        back with the error, which the caller raises (traceback intact)
        once the access has finished. Any exception is caught because the
        fn is caller code and the access must finish either way.
        """
        if update_fn is None:
            return payload, None
        try:
            row = np.asarray(update_fn(payload.copy()), dtype=np.float64)
            if row.shape != (self.block_width,):
                raise ValueError(
                    f"update_fn returned shape {row.shape} != "
                    f"({self.block_width},)")
        except Exception as error:
            return payload, error
        return row, None

    def access_batch(self, block_ids, update_fns=None,
                     plan_tracer: Optional[MemoryTracer] = None
                     ) -> np.ndarray:
        """Serve a whole batch of accesses known up front (LAORAM-style).

        Value-identical to looping :meth:`access` over the batch —
        duplicates return/update in arrival order with one shared fetch.
        Schemes with ``SUPPORTS_LOOKAHEAD`` share path fetches, fuse
        write-backs, and batch the position-map pass; others fall back to
        the sequential loop (no amortization, same semantics). Returns the
        pre-update payloads, shape ``(batch, block_width)``. The
        ``oram.lookahead`` decision trace is recorded to ``plan_tracer``
        (default: the controller's tracer).
        """
        from repro.oram import lookahead

        if self.SUPPORTS_LOOKAHEAD:
            return lookahead.lookahead_access_batch(
                self, block_ids, update_fns, plan_tracer)
        ids, fns = parse_batch(block_ids, update_fns)
        if not ids:
            return np.zeros((0, self.block_width))
        tracer = plan_tracer if plan_tracer is not None else self.tracer
        results = []
        for slot, block_id in enumerate(ids):
            if tracer is not None:
                tracer.record(READ, lookahead.LOOKAHEAD_REGION,
                              lookahead.ADDR_FETCH + slot)
            results.append(self.access(block_id, fns[slot]))
        return np.stack(results)

    def position_map_ops(self) -> int:
        """Memory operations spent in the position map so far — the work
        the batched lookahead pass amortizes across a batch."""
        return self.position_map.work_ops()

    def read(self, block_id: int) -> np.ndarray:
        return self.access(block_id)

    def write(self, block_id: int, payload: np.ndarray) -> None:
        payload = np.asarray(payload, dtype=np.float64)
        if payload.shape != (self.block_width,):
            raise ValueError(
                f"payload shape {payload.shape} != ({self.block_width},)")
        self.access(block_id, lambda _old: payload)

    # ------------------------------------------------------------------
    # Stash-pressure handling: the overflow signal and background eviction
    # ------------------------------------------------------------------
    def _check_stash_bound(self) -> None:
        """Enforce the persistent stash bound; raise with the signal fired.

        The bound counts blocks resident *between* accesses. On violation
        the overflow is counted (``stats.stash_overflows`` and the
        ``oram.stash_overflows_total`` telemetry counter), the optional
        ``overflow_callback`` runs, and StashOverflowError propagates — the
        caller decides between :meth:`background_evict` recovery and
        degradation.
        """
        occupancy = self.stash.occupancy
        if occupancy <= self.persistent_stash_capacity:
            return
        self.stats.stash_overflows += 1
        get_registry().counter("oram.stash_overflows_total").inc()
        if self.overflow_callback is not None:
            self.overflow_callback(self)
        raise StashOverflowError(
            f"stash occupancy {occupancy} exceeds the configured "
            f"bound {self.persistent_stash_capacity}")

    def background_evict(self, passes: int = 1) -> int:
        """Drain stash pressure without serving a request (LAORAM-style).

        Runs ``passes`` eviction passes along random paths. The paths are
        drawn from the controller's own RNG — independent of any block
        identity — so background eviction is as access-pattern-oblivious as
        a regular access. Returns the stash occupancy afterwards.
        """
        check_positive("passes", passes)
        registry = get_registry()
        with registry.span("oram.background_evict", passes=passes,
                           scheme=type(self).__name__):
            for _ in range(passes):
                leaf = int(self.rng.integers(0, self.tree.num_leaves))
                self._background_evict_pass(leaf)
                self.stats.eviction_passes += 1
        registry.counter("oram.background_evictions_total").inc(passes)
        registry.gauge("oram.stash_occupancy").set(self.stash.occupancy)
        registry.gauge("oram.stash_peak_occupancy").set_max(
            self.stash.peak_occupancy)
        return self.stash.occupancy

    def _background_evict_pass(self, leaf: int) -> None:
        """One request-free eviction pass along the path to ``leaf``.

        By default this continues the reverse-lexicographic schedule
        (Circuit, Ring): ``leaf`` is ignored — the schedule, not
        randomness, picks the path, and :meth:`background_evict` does the
        ``eviction_passes`` accounting.
        """
        del leaf
        self._evict_path(self._next_eviction_leaf())

    # ------------------------------------------------------------------
    # Reverse-lexicographic eviction schedule (Circuit, Ring)
    # ------------------------------------------------------------------
    def _next_eviction_leaf(self) -> int:
        """Advance the deterministic reverse-lexicographic eviction order."""
        leaf = bit_reverse(self._eviction_counter % self.tree.num_leaves,
                           self.tree.levels)
        self._eviction_counter += 1
        return leaf

    def _deterministic_evict_pass(self) -> None:
        """One pass of the per-access reverse-lexicographic schedule."""
        self._evict_path(self._next_eviction_leaf())
        self.stats.eviction_passes += 1

    def _evict_path(self, leaf: int) -> None:
        """The scheme's eviction along the path to ``leaf``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Subclass hook
    # ------------------------------------------------------------------
    def _access_impl(self, block_id: int, update_fn: Optional[UpdateFn]
                     ) -> Tuple[np.ndarray, Optional[Exception]]:
        """Serve one access: ``(pre-update payload, update error)``."""
        raise NotImplementedError

    # Batched lookahead hooks (schemes with SUPPORTS_LOOKAHEAD implement
    # these; see repro.oram.lookahead for the orchestration).
    def _lookahead_reserve(self, plan) -> None:
        """Grow the physical stash for the batch (public sizing decision)."""
        raise NotImplementedError

    def _lookahead_fetch(self, plan) -> None:
        """Fetch every scheduled bucket once, staging blocks in the stash."""
        raise NotImplementedError

    def _lookahead_writeback(self, plan) -> int:
        """Fused write-back/eviction; returns the number of write-back
        units for the decision trace."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def levels(self) -> int:
        return self.tree.levels

    def total_resident_blocks(self) -> int:
        return self.tree.occupancy() + self.stash.occupancy

    def memory_blocks(self) -> int:
        """Physical block slots allocated (tree + stash), incl. recursion."""
        own = self.tree.num_buckets * self.bucket_size + self.stash.capacity
        child = getattr(self.position_map, "_child", None)
        if child is not None:
            own += child.memory_blocks()
        return own
