"""Differential tests for the vectorised position maps.

``ScalarFlatPositionMap`` below is the element-at-a-time scan that
``FlatPositionMap`` used before it was vectorised: one scalar ``ct_eq`` /
``ct_select`` per entry and one tracer event per touch. The hypothesis test
drives both through random mixes of all five methods and requires the same
returned leaves, final map, ``work_ops()`` and trace digest; an untraced
map must return and store the same values. The recursive
``OramPositionMap`` is checked against a plain dict.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.oblivious.primitives import ct_eq, ct_select
from repro.oblivious.trace import READ, WRITE, MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.oram.position_map import FlatPositionMap, OramPositionMap

MAX_LEAF = 1 << 20


class ScalarFlatPositionMap:
    """Reference: the scalar full-scan position map, one entry at a time."""

    def __init__(self, initial_leaves, tracer, region):
        self.leaves = np.asarray(initial_leaves, dtype=np.int64).copy()
        self.num_blocks = self.leaves.size
        self.tracer = tracer
        self.region = region
        self.ops = 0

    def lookup_and_update(self, block_id, new_leaf):
        old_leaf = 0
        for index in range(self.num_blocks):
            self.tracer.record(READ, self.region, index)
            match = ct_eq(index, block_id)
            old_leaf = ct_select(match, int(self.leaves[index]), old_leaf)
            updated = ct_select(match, new_leaf, int(self.leaves[index]))
            self.tracer.record(WRITE, self.region, index)
            self.leaves[index] = updated
        self.ops += 2 * self.num_blocks
        return int(old_leaf)

    def refresh(self, block_id):
        for index in range(self.num_blocks):
            self.tracer.record(READ, self.region, index)
            entry = int(self.leaves[index])
            self.tracer.record(WRITE, self.region, index)
            self.leaves[index] = entry
        self.ops += 2 * self.num_blocks

    def lookup(self, block_id):
        value = 0
        for index in range(self.num_blocks):
            self.tracer.record(READ, self.region, index)
            entry = int(self.leaves[index])
            value = ct_select(ct_eq(index, block_id), entry, value)
            self.tracer.record(WRITE, self.region, index)
            self.leaves[index] = entry
        self.ops += 2 * self.num_blocks
        return int(value)

    def rewrite(self, new_leaves):
        new_leaves = np.asarray(new_leaves, dtype=np.int64)
        for index in range(self.num_blocks):
            self.tracer.record(WRITE, self.region, index)
            self.leaves[index] = int(new_leaves[index])
        self.ops += self.num_blocks

    def work_ops(self):
        return self.ops

    def lookup_and_update_batch(self, block_ids, new_leaves, pad_to=0):
        ids = [int(block_id) for block_id in block_ids]
        targets = [int(leaf) for leaf in new_leaves]
        old = [0] * len(ids)
        for index in range(self.num_blocks):
            self.tracer.record(READ, self.region, index)
            entry = int(self.leaves[index])
            updated = entry
            for query, (block_id, target) in enumerate(zip(ids, targets)):
                match = ct_eq(index, block_id)
                old[query] = ct_select(match, entry, old[query])
                updated = ct_select(match, target, updated)
            self.tracer.record(WRITE, self.region, index)
            self.leaves[index] = updated
        self.ops += 2 * self.num_blocks
        return [int(leaf) for leaf in old]


leaf_values = st.integers(0, MAX_LEAF)


@st.composite
def flat_scripts(draw):
    """(initial leaves, a list of method calls with in-range arguments)."""
    size = draw(st.integers(1, 40))
    initial = draw(st.lists(leaf_values, min_size=size, max_size=size))
    block = st.integers(0, size - 1)
    call = st.one_of(
        st.tuples(st.just("lookup_and_update"), block, leaf_values),
        st.tuples(st.just("lookup"), block),
        st.tuples(st.just("refresh"), block),
        st.tuples(st.just("rewrite"),
                  st.lists(leaf_values, min_size=size, max_size=size)),
        st.tuples(st.just("lookup_and_update_batch"),
                  st.lists(block, min_size=1, max_size=size, unique=True),
                  st.lists(leaf_values, min_size=size, max_size=size),
                  st.integers(0, 2 * size)),
    )
    return initial, draw(st.lists(call, min_size=1, max_size=12))


def apply(posmap, call):
    name, *args = call
    if name == "lookup_and_update_batch":
        ids, leaves, pad_to = args
        return posmap.lookup_and_update_batch(ids, leaves[:len(ids)],
                                              pad_to=pad_to)
    if name == "rewrite":
        return posmap.rewrite(np.array(args[0]))
    return getattr(posmap, name)(*args)


@given(script=flat_scripts(), numpy_ids=st.booleans())
@settings(max_examples=200, deadline=None)
def test_vectorised_flat_map_matches_scalar_reference(script, numpy_ids):
    initial, calls = script
    fast_tracer, slow_tracer = MemoryTracer(), MemoryTracer()
    fast = FlatPositionMap(np.array(initial), tracer=fast_tracer, region="pm")
    untraced = FlatPositionMap(np.array(initial))
    slow = ScalarFlatPositionMap(initial, slow_tracer, "pm")
    for call in calls:
        if numpy_ids and call[0] in ("lookup_and_update", "lookup",
                                     "refresh"):
            call = (call[0], np.int64(call[1])) + call[2:]
        expected = apply(slow, call)
        assert apply(fast, call) == expected, call
        assert apply(untraced, call) == expected, call
        for posmap in (fast, untraced):
            np.testing.assert_array_equal(posmap.leaves, slow.leaves)
            assert posmap.work_ops() == slow.work_ops()
    assert fast_tracer.digest() == slow_tracer.digest()
    assert fast_tracer.snapshot() == slow_tracer.snapshot()


def _child_factory(oram_class):
    def factory(num_blocks, width, payloads):
        return oram_class(num_blocks, width, initial_payloads=payloads,
                          rng=0, recursion_cutoff=1 << 20)
    return factory


@st.composite
def recursive_scripts(draw):
    size = draw(st.integers(1, 50))
    initial = draw(st.lists(st.integers(0, 63), min_size=size,
                            max_size=size))
    block = st.integers(0, size - 1)
    call = st.one_of(
        st.tuples(st.just("lookup_and_update"), block, st.integers(0, 63)),
        st.tuples(st.just("refresh"), block),
        st.tuples(st.just("lookup_and_update_batch"),
                  st.lists(block, min_size=1, max_size=min(size, 6),
                           unique=True),
                  st.lists(st.integers(0, 63), min_size=6, max_size=6),
                  st.integers(0, 8)),
    )
    return initial, draw(st.lists(call, min_size=1, max_size=15))


@given(script=recursive_scripts(),
       oram_class=st.sampled_from([CircuitORAM, PathORAM]))
@settings(max_examples=40, deadline=None)
def test_recursive_map_matches_dict_oracle(script, oram_class):
    initial, calls = script
    posmap = OramPositionMap(np.array(initial), _child_factory(oram_class))
    oracle = dict(enumerate(initial))
    for call in calls:
        name, *args = call
        if name == "lookup_and_update":
            block, leaf = args
            assert posmap.lookup_and_update(block, leaf) == oracle[block]
            oracle[block] = leaf
        elif name == "refresh":
            posmap.refresh(args[0])
        else:
            ids, leaves, pad_to = args
            old = posmap.lookup_and_update_batch(ids, leaves[:len(ids)],
                                                 pad_to=pad_to)
            assert old == [oracle[block] for block in ids]
            oracle.update(zip(ids, leaves))
    for block, leaf in oracle.items():
        assert posmap.lookup_and_update(block, leaf) == leaf
