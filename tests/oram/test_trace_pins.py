"""Pinned memory traces and payloads for every ORAM scheme.

Each case runs a fixed seeded workload with a :class:`MemoryTracer`
attached and compares the trace digest and a hash of the returned payloads
against constants recorded from the scalar position-map implementation.
Any change to the order, region or address of a single event, or to a
returned value, changes the digest.

Each case also pins its telemetry: the top-level controller's
:class:`~repro.oram.controller.AccessStats` work counters and the
``oram.*`` counters and gauges flushed into a scoped metrics registry
(child ORAMs of a recursive position map report there too).

Square-root ORAM always uses a flat position map (it has no recursion
cutoff), so it is pinned in the flat configuration only.
"""

import hashlib

import numpy as np
import pytest

from repro.oblivious.trace import MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.oram.ring_oram import RingORAM
from repro.oram.sqrt_oram import SqrtORAM
from repro.telemetry.runtime import use_registry

NUM_BLOCKS = 40
WIDTH = 3
SEED = 11
#: above NUM_BLOCKS → flat map; below → one OramPositionMap level
#: (3 packed chunks) over a flat child map
CUTOFFS = {"flat": None, "recursive": 8}
SCHEMES = {"path": PathORAM, "circuit": CircuitORAM, "ring": RingORAM,
           "sqrt": SqrtORAM}
SEQUENCE = [3, 17, 3, 39, 0, 22, 17, 8, 31, 3, 12, 25]
BATCHES = [[5, 9, 5, 30], [9, 1, 38, 1], [22, 22, 0, 14]]

PINS = {
    ("path", "flat", "sequential"): (
        "152dceda82ffb94c3175dbde658f6f2f39c22fb81bca53974bac3463dc289dfd",
        "4ef80aa4daabf103a62a1f0a47cce4f2c2e32d4639b584c83be9dd8033fb9573"),
    ("path", "flat", "batch"): (
        "1756c99a374127088d978b2e51b660ca37ed964531a3e87f6d744a98fef9087a",
        "2c707b70fd5e82edbe93d84a01120b6aa492854fca95dfd3d0eda04f26d13f16"),
    ("path", "recursive", "sequential"): (
        "3636c71179e7fa3f321c253fad2181f07a7eb0832ed8db4ba449d7b6d3e663c8",
        "4ef80aa4daabf103a62a1f0a47cce4f2c2e32d4639b584c83be9dd8033fb9573"),
    ("path", "recursive", "batch"): (
        "643a357e75482aeb09b943fe3f425e7011aa240587682aa4c8936161cb22adfb",
        "2c707b70fd5e82edbe93d84a01120b6aa492854fca95dfd3d0eda04f26d13f16"),
    ("circuit", "flat", "sequential"): (
        "4da70eb155517ae5aa62d5614431d0bf04fa73b1b9c07cad56d86ce9cee9d3ab",
        "4ef80aa4daabf103a62a1f0a47cce4f2c2e32d4639b584c83be9dd8033fb9573"),
    ("circuit", "flat", "batch"): (
        "c203c3a7b600e13e88be9ba08586d2291ab26479c145b4a4d34ef4ef06d02e64",
        "2c707b70fd5e82edbe93d84a01120b6aa492854fca95dfd3d0eda04f26d13f16"),
    ("circuit", "recursive", "sequential"): (
        "18ab6bb9c5ae273673f95da46856ee0c226c2c40b54dd0250aac39b74fbce797",
        "4ef80aa4daabf103a62a1f0a47cce4f2c2e32d4639b584c83be9dd8033fb9573"),
    ("circuit", "recursive", "batch"): (
        "cb0f553af8698f48c03bdc628e4f32df6408ccce5ef4d843bd568b6e1908f1f6",
        "2c707b70fd5e82edbe93d84a01120b6aa492854fca95dfd3d0eda04f26d13f16"),
    ("ring", "flat", "sequential"): (
        "10a1b1e6e8da74ce3af7411fed6522c0ce4ffc169af4f260efbd872f34c9e9c4",
        "4ef80aa4daabf103a62a1f0a47cce4f2c2e32d4639b584c83be9dd8033fb9573"),
    ("ring", "flat", "batch"): (
        "6dfc485cb99a57ab3678f56f8913ea7d907f78c8ecff781bcf8e7452fd2c1611",
        "2c707b70fd5e82edbe93d84a01120b6aa492854fca95dfd3d0eda04f26d13f16"),
    ("ring", "recursive", "sequential"): (
        "20b23e333832ba8822573134cd10a6d10848a6742d2f510c0845a1333cde720e",
        "4ef80aa4daabf103a62a1f0a47cce4f2c2e32d4639b584c83be9dd8033fb9573"),
    ("ring", "recursive", "batch"): (
        "c379cb9e597714ceaf07b27c74d44989e3d2f16e2bb1dbe82837cca9f05691ee",
        "2c707b70fd5e82edbe93d84a01120b6aa492854fca95dfd3d0eda04f26d13f16"),
    ("sqrt", "flat", "sequential"): (
        "3fca1196145da631c89b922c378471f9071fc643c8a4182b599c9f805f6e022e",
        "4ef80aa4daabf103a62a1f0a47cce4f2c2e32d4639b584c83be9dd8033fb9573"),
    ("sqrt", "flat", "batch"): (
        "1c517bbd27535f7b33b1382d704edfab99d62d2189074f0477e4bfc59789d2c2",
        "2c707b70fd5e82edbe93d84a01120b6aa492854fca95dfd3d0eda04f26d13f16"),
}


#: (accesses, bucket reads, bucket writes, eviction passes, stash peak
#: occupancy) of the top-level controller, then the oram.* counters and gauges
TELEMETRY_PINS = {
    ("path", "flat", "sequential"): (
        (12, 84, 168, 0, 6),
        {"oram.accesses_total": 12.0,
         "oram.bucket_reads_total": 84.0,
         "oram.bucket_writes_total": 168.0,
         "oram.eviction_passes_total": 0.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 6.0}),
    ("path", "flat", "batch"): (
        (12, 69, 138, 0, 9),
        {"oram.accesses_total": 12.0,
         "oram.bucket_reads_total": 69.0,
         "oram.bucket_writes_total": 138.0,
         "oram.eviction_passes_total": 0.0,
         "oram.lookahead.batches_total": 3.0,
         "oram.lookahead.batched_accesses_total": 12.0,
         "oram.lookahead.shared_fetches_total": 3.0,
         "oram.lookahead.padded_fetches_total": 20.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 9.0,
         "oram.lookahead.stash_high_water": 9.0}),
    ("path", "recursive", "sequential"): (
        (12, 84, 168, 0, 6),
        {"oram.accesses_total": 24.0,
         "oram.bucket_reads_total": 120.0,
         "oram.bucket_writes_total": 240.0,
         "oram.eviction_passes_total": 0.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 6.0}),
    ("path", "recursive", "batch"): (
        (12, 69, 138, 0, 8),
        {"oram.accesses_total": 24.0,
         "oram.bucket_reads_total": 105.0,
         "oram.bucket_writes_total": 210.0,
         "oram.eviction_passes_total": 0.0,
         "oram.lookahead.batches_total": 3.0,
         "oram.lookahead.batched_accesses_total": 12.0,
         "oram.lookahead.shared_fetches_total": 3.0,
         "oram.lookahead.padded_fetches_total": 19.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 8.0,
         "oram.lookahead.stash_high_water": 8.0}),
    ("circuit", "flat", "sequential"): (
        (12, 420, 252, 24, 1),
        {"oram.accesses_total": 12.0,
         "oram.bucket_reads_total": 420.0,
         "oram.bucket_writes_total": 252.0,
         "oram.eviction_passes_total": 24.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 1.0}),
    ("circuit", "flat", "batch"): (
        (12, 405, 237, 24, 3),
        {"oram.accesses_total": 12.0,
         "oram.bucket_reads_total": 405.0,
         "oram.bucket_writes_total": 237.0,
         "oram.eviction_passes_total": 24.0,
         "oram.lookahead.batches_total": 3.0,
         "oram.lookahead.batched_accesses_total": 12.0,
         "oram.lookahead.shared_fetches_total": 3.0,
         "oram.lookahead.padded_fetches_total": 20.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 3.0,
         "oram.lookahead.stash_high_water": 3.0}),
    ("circuit", "recursive", "sequential"): (
        (12, 420, 252, 24, 1),
        {"oram.accesses_total": 24.0,
         "oram.bucket_reads_total": 600.0,
         "oram.bucket_writes_total": 360.0,
         "oram.eviction_passes_total": 48.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 1.0}),
    ("circuit", "recursive", "batch"): (
        (12, 405, 237, 24, 3),
        {"oram.accesses_total": 24.0,
         "oram.bucket_reads_total": 585.0,
         "oram.bucket_writes_total": 345.0,
         "oram.eviction_passes_total": 48.0,
         "oram.lookahead.batches_total": 3.0,
         "oram.lookahead.batched_accesses_total": 12.0,
         "oram.lookahead.shared_fetches_total": 3.0,
         "oram.lookahead.padded_fetches_total": 19.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 3.0,
         "oram.lookahead.stash_high_water": 3.0}),
    ("ring", "flat", "sequential"): (
        (12, 107, 23, 3, 8),
        {"oram.accesses_total": 12.0,
         "oram.bucket_reads_total": 107.0,
         "oram.bucket_writes_total": 23.0,
         "oram.eviction_passes_total": 3.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 8.0}),
    ("ring", "flat", "batch"): (
        (12, 110, 26, 3, 7),
        {"oram.accesses_total": 12.0,
         "oram.bucket_reads_total": 110.0,
         "oram.bucket_writes_total": 26.0,
         "oram.eviction_passes_total": 3.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 7.0}),
    ("ring", "recursive", "sequential"): (
        (12, 107, 23, 3, 8),
        {"oram.accesses_total": 24.0,
         "oram.bucket_reads_total": 153.0,
         "oram.bucket_writes_total": 33.0,
         "oram.eviction_passes_total": 6.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 8.0}),
    ("ring", "recursive", "batch"): (
        (12, 110, 26, 3, 6),
        {"oram.accesses_total": 24.0,
         "oram.bucket_reads_total": 158.0,
         "oram.bucket_writes_total": 38.0,
         "oram.eviction_passes_total": 6.0,
         "oram.stash_occupancy": 0.0,
         "oram.stash_peak_occupancy": 6.0}),
    ("sqrt", "flat", "sequential"): (
        (12, 59, 47, 1, 5),
        {"oram.accesses_total": 12.0,
         "oram.bucket_reads_total": 59.0,
         "oram.bucket_writes_total": 47.0,
         "oram.eviction_passes_total": 1.0,
         "oram.reshuffles_total": 1.0,
         "oram.stash_occupancy": 5.0,
         "oram.stash_peak_occupancy": 5.0}),
    ("sqrt", "flat", "batch"): (
        (12, 59, 47, 1, 5),
        {"oram.accesses_total": 12.0,
         "oram.bucket_reads_total": 59.0,
         "oram.bucket_writes_total": 47.0,
         "oram.eviction_passes_total": 1.0,
         "oram.reshuffles_total": 1.0,
         "oram.stash_occupancy": 4.0,
         "oram.stash_peak_occupancy": 5.0}),
}

def _build(scheme, posmap):
    rng = np.random.default_rng(SEED)
    data = rng.normal(size=(NUM_BLOCKS, WIDTH))
    tracer = MemoryTracer()
    kwargs = {}
    if CUTOFFS[posmap] is not None:
        kwargs["recursion_cutoff"] = CUTOFFS[posmap]
    oram = SCHEMES[scheme](NUM_BLOCKS, WIDTH, initial_payloads=data,
                           rng=SEED, tracer=tracer, **kwargs)
    return oram, tracer


def _bump(step):
    return lambda payload: payload + step


def run_case(scheme, posmap, mode):
    """(trace digest, sha256 of the returned payloads) for one case, plus
    its telemetry: (AccessStats tuple, ``oram.*`` counters and gauges)."""
    with use_registry() as registry:
        oram, tracer = _build(scheme, posmap)
        outputs = []
        if mode == "sequential":
            for step, block in enumerate(SEQUENCE):
                update = _bump(step) if step % 2 else None
                outputs.append(oram.access(block, update))
        else:
            for step, batch in enumerate(BATCHES):
                fns = [_bump(10 * step + slot) if slot % 2 == 0 else None
                       for slot in range(len(batch))]
                outputs.extend(oram.access_batch(batch, fns))
    payloads = np.ascontiguousarray(np.stack(outputs), dtype=np.float64)
    stats = (oram.stats.accesses, oram.stats.bucket_reads,
             oram.stats.bucket_writes, oram.stats.eviction_passes,
             oram.stash.peak_occupancy)
    snapshot = registry.snapshot()
    metrics = {name: value for name, value
               in {**snapshot["counters"], **snapshot["gauges"]}.items()
               if name.startswith("oram.")}
    return ((tracer.digest(), hashlib.sha256(payloads.tobytes()).hexdigest()),
            (stats, metrics))


CASES = [(scheme, posmap, mode)
         for scheme in SCHEMES for posmap in CUTOFFS
         for mode in ("sequential", "batch")
         if not (scheme == "sqrt" and posmap == "recursive")]


@pytest.mark.parametrize("scheme,posmap,mode", CASES)
def test_trace_and_payloads_are_pinned(scheme, posmap, mode):
    trace, telemetry = run_case(scheme, posmap, mode)
    assert trace == PINS[(scheme, posmap, mode)]
    assert telemetry == TELEMETRY_PINS[(scheme, posmap, mode)]
