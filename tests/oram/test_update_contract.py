"""The shared ``update_fn`` step: a failing or malformed update must not
corrupt the ORAM, in any scheme or batch mode.

The block keeps its old payload, the access finishes with the same trace
as a successful one, and the error propagates afterwards.
"""

import numpy as np
import pytest

from repro.oblivious.trace import MemoryTracer
from repro.oram.circuit_oram import CircuitORAM
from repro.oram.path_oram import PathORAM
from repro.oram.ring_oram import RingORAM
from repro.oram.sqrt_oram import SqrtORAM

N = 16
WIDTH = 3
BLOCK = 2
SCHEMES = {"path": PathORAM, "circuit": CircuitORAM, "ring": RingORAM,
           "sqrt": SqrtORAM}


def _raise(row):
    raise RuntimeError("update failed")


#: name -> (update fn, the error it must surface as)
BAD_UPDATES = {
    "raises": (_raise, RuntimeError),
    "scalar": (lambda row: 7.0, ValueError),
    "wrong-length": (lambda row: np.zeros(WIDTH + 1), ValueError),
}


def _data():
    return np.arange(N * WIDTH, dtype=np.float64).reshape(N, WIDTH)


def _serve(oram, mode, fn):
    if mode == "access":
        return oram.access(BLOCK, fn)
    # A duplicate of the failing id follows it: after the failure no
    # later slot is updated, as in the sequential loop that stops there.
    return oram.access_batch([5, BLOCK, BLOCK, 9],
                             [None, fn, lambda row: row + 1.0, None])


@pytest.mark.parametrize("mode", ["access", "access_batch"])
@pytest.mark.parametrize("bad", BAD_UPDATES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_failed_update_keeps_every_block(scheme, bad, mode):
    oram = SCHEMES[scheme](N, WIDTH, initial_payloads=_data(), rng=0)
    fn, error = BAD_UPDATES[bad]
    with pytest.raises(error):
        _serve(oram, mode, fn)
    assert oram.total_resident_blocks() == N
    for block in range(N):
        np.testing.assert_array_equal(oram.read(block), _data()[block])


#: the sequential batch fallback stops at the failing slot, so only a
#: lookahead batch is compared whole
TRACE_CASES = [(scheme, mode) for scheme, oram_class in SCHEMES.items()
               for mode in ("access", "access_batch")
               if mode == "access" or oram_class.SUPPORTS_LOOKAHEAD]


@pytest.mark.parametrize("scheme,mode", TRACE_CASES)
def test_failed_update_leaves_the_same_trace(scheme, mode):
    """The failing access records exactly what a successful one does."""
    digests = []
    for fn in (lambda row: row + 1.0, _raise):
        tracer = MemoryTracer()
        oram = SCHEMES[scheme](N, WIDTH, initial_payloads=_data(), rng=0,
                               tracer=tracer)
        try:
            _serve(oram, mode, fn)
        except RuntimeError:
            pass
        digests.append(tracer.digest())
    assert digests[0] == digests[1]
