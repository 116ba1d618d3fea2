"""Position map tests: flat scan pattern and recursive consistency."""

import numpy as np
import pytest

from repro.oblivious.trace import MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.position_map import FlatPositionMap, OramPositionMap


class TestFlatPositionMap:
    def test_lookup_returns_old_installs_new(self):
        posmap = FlatPositionMap(np.array([3, 1, 4]))
        old = posmap.lookup_and_update(1, new_leaf=9)
        assert old == 1
        assert posmap.lookup_and_update(1, new_leaf=0) == 9

    def test_scan_touches_all_entries(self):
        tracer = MemoryTracer()
        posmap = FlatPositionMap(np.arange(5), tracer=tracer, region="pm")
        posmap.lookup_and_update(3, 0)
        reads = [e for e in tracer if e.op == "R"]
        writes = [e for e in tracer if e.op == "W"]
        assert [e.address for e in reads] == list(range(5))
        assert [e.address for e in writes] == list(range(5))

    def test_trace_independent_of_block(self):
        digests = set()
        for block in (0, 2, 4):
            tracer = MemoryTracer()
            posmap = FlatPositionMap(np.arange(5), tracer=tracer)
            posmap.lookup_and_update(block, 1)
            digests.add(tracer.digest())
        assert len(digests) == 1

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            FlatPositionMap(np.arange(3)).lookup_and_update(3, 0)

    @pytest.mark.parametrize("block_id", [2.5, 1.5, 1.0, np.float64(2.0)])
    def test_non_integral_id_rejected(self, block_id):
        posmap = FlatPositionMap(np.array([5, 6, 7, 8]))
        calls = [lambda: posmap.lookup_and_update(block_id, 99),
                 lambda: posmap.lookup(block_id),
                 lambda: posmap.refresh(block_id),
                 lambda: posmap.lookup_and_update_batch([block_id], [3]),
                 lambda: posmap.lookup_and_update_batch([0, block_id],
                                                        [3, 4])]
        for call in calls:
            with pytest.raises(TypeError, match="integer"):
                call()
        np.testing.assert_array_equal(posmap.leaves, [5, 6, 7, 8])
        assert posmap.work_ops() == 0

    def test_numpy_integer_ids_accepted(self):
        posmap = FlatPositionMap(np.array([5, 6, 7, 8]))
        assert posmap.lookup_and_update(np.int64(2), 99) == 7
        assert posmap.lookup(np.int32(2)) == 99
        assert posmap.lookup_and_update_batch(
            np.array([1, 3]), [0, 1]) == [6, 8]
        np.testing.assert_array_equal(posmap.leaves, [5, 0, 99, 1])


class TestOramPositionMap:
    def _factory(self, num_blocks, width, payloads):
        return CircuitORAM(num_blocks, width, initial_payloads=payloads,
                           rng=0, recursion_cutoff=1 << 20)

    def test_round_trip_many_blocks(self):
        rng = np.random.default_rng(1)
        initial = rng.integers(0, 16, size=40)
        posmap = OramPositionMap(initial, self._factory)
        mirror = initial.copy()
        for step in range(120):
            block = int(rng.integers(0, 40))
            new_leaf = int(rng.integers(0, 16))
            old = posmap.lookup_and_update(block, new_leaf)
            assert old == mirror[block], f"step {step}"
            mirror[block] = new_leaf

    def test_partial_last_chunk(self):
        initial = np.arange(18)  # not a multiple of 16
        posmap = OramPositionMap(initial, self._factory)
        assert posmap.lookup_and_update(17, 99) == 17
        assert posmap.lookup_and_update(17, 0) == 99

    def test_out_of_range(self):
        posmap = OramPositionMap(np.arange(18), self._factory)
        with pytest.raises(IndexError):
            posmap.lookup_and_update(18, 0)

    def test_non_integral_id_rejected(self):
        posmap = OramPositionMap(np.arange(18), self._factory)
        for call in (lambda: posmap.lookup_and_update(2.5, 1),
                     lambda: posmap.refresh(1.5),
                     lambda: posmap.lookup_and_update_batch([1.5], [3])):
            with pytest.raises(TypeError, match="integer"):
                call()
        assert posmap.lookup_and_update(np.int64(1), 5) == 1
        assert posmap.lookup_and_update(1, 0) == 5
