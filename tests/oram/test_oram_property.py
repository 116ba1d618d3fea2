"""Model-based property tests: ORAM behaves as a key-value store."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM

NUM_BLOCKS = 24
WIDTH = 2

operations = st.lists(
    st.tuples(st.sampled_from(["read", "write"]),
              st.integers(0, NUM_BLOCKS - 1),
              st.floats(-100, 100, allow_nan=False)),
    min_size=1, max_size=60,
)


def run_model_check(oram_class, ops, seed):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(NUM_BLOCKS, WIDTH))
    oram = oram_class(NUM_BLOCKS, WIDTH, initial_payloads=data.copy(),
                      rng=seed)
    mirror = data.copy()
    for op, block, value in ops:
        if op == "read":
            got = oram.read(block)
            np.testing.assert_allclose(got, mirror[block], atol=1e-12)
        else:
            payload = np.full(WIDTH, value)
            oram.write(block, payload)
            mirror[block] = payload
    # Every block still intact at the end.
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
