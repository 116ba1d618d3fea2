"""Model-based property tests: ORAM behaves as a key-value store.

One dict oracle (a mirrored array) checks every scheme in every mode:
sequential ``access`` and ``access_batch`` with duplicate ids and per-slot
update fns, over a flat and (for the tree schemes) a recursive position
map.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.oram.ring_oram import RingORAM
from repro.oram.sqrt_oram import SqrtORAM

NUM_BLOCKS = 24
WIDTH = 2
SCHEMES = {"path": PathORAM, "circuit": CircuitORAM, "ring": RingORAM,
           "sqrt": SqrtORAM}
#: a cutoff below NUM_BLOCKS puts one ORAM position-map level over a flat
#: child map; square-root ORAM has no recursive map
CUTOFFS = {"flat": None, "recursive": 8}

operations = st.lists(
    st.tuples(st.sampled_from(["read", "write", "add"]),
              st.integers(0, NUM_BLOCKS - 1),
              st.floats(-100, 100, allow_nan=False)),
    min_size=1, max_size=60,
)


def _update(op, value):
    """The update fn of one operation (None for a read)."""
    if op == "write":
        return lambda _old: np.full(WIDTH, value)
    if op == "add":
        return lambda old: old + value
    return None


def run_model_check(oram_class, ops, seed, batch_size=None, **oram_kwargs):
    """Serve ``ops`` one access at a time, or in ``access_batch`` calls of
    ``batch_size`` slots, checking every returned row against a mirror."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(NUM_BLOCKS, WIDTH))
    oram = oram_class(NUM_BLOCKS, WIDTH, initial_payloads=data.copy(),
                      rng=seed, **oram_kwargs)
    mirror = data.copy()
    step = batch_size or 1
    for start in range(0, len(ops), step):
        chunk = ops[start:start + step]
        fns = [_update(op, value) for op, _, value in chunk]
        ids = [block for _, block, _ in chunk]
        if batch_size is None:
            got = [oram.access(ids[0], fns[0])]
        else:
            got = oram.access_batch(ids, fns)
        for row, block, fn in zip(got, ids, fns):
            np.testing.assert_allclose(row, mirror[block], atol=1e-12)
            if fn is not None:
                mirror[block] = fn(mirror[block].copy())
    # Every block still intact at the end.
    assert oram.total_resident_blocks() == NUM_BLOCKS
    for block in range(NUM_BLOCKS):
        np.testing.assert_allclose(oram.read(block), mirror[block],
                                   atol=1e-12)


@given(ops=operations, seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_path_oram_is_a_kv_store(ops, seed):
    run_model_check(PathORAM, ops, seed)


@given(ops=operations, seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_circuit_oram_is_a_kv_store(ops, seed):
    run_model_check(CircuitORAM, ops, seed)


#: every scheme x mode x position map; sequential flat Path and Circuit
#: are the two tests above
MATRIX = [(scheme, mode, posmap)
          for scheme in SCHEMES for mode in ("sequential", "batch")
          for posmap in CUTOFFS
          if not (scheme == "sqrt" and posmap == "recursive")
          and not (scheme in ("path", "circuit") and mode == "sequential"
                   and posmap == "flat")]


@pytest.mark.parametrize("scheme,mode,posmap", MATRIX)
@given(ops=operations, seed=st.integers(0, 2**16),
       batch_size=st.integers(1, 8))
@settings(max_examples=15, deadline=None)
def test_every_scheme_and_mode_is_a_kv_store(scheme, mode, posmap, ops, seed,
                                             batch_size):
    kwargs = {}
    if CUTOFFS[posmap] is not None:
        kwargs["recursion_cutoff"] = CUTOFFS[posmap]
    run_model_check(SCHEMES[scheme], ops, seed,
                    batch_size=batch_size if mode == "batch" else None,
                    **kwargs)


@given(seed=st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_recursive_circuit_oram_is_a_kv_store(seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(100, WIDTH))
    oram = CircuitORAM(100, WIDTH, initial_payloads=data.copy(),
                       recursion_cutoff=16, rng=seed)
    mirror = data.copy()
    for _ in range(60):
        block = int(rng.integers(0, 100))
        if rng.random() < 0.5:
            np.testing.assert_allclose(oram.read(block), mirror[block])
        else:
            value = rng.normal(size=WIDTH)
            oram.write(block, value)
            mirror[block] = value
