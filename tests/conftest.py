"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.nn.tensor import Tensor


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_output, x_value: np.ndarray, atol: float = 1e-5,
                   rtol: float = 1e-4) -> None:
    """Compare autograd gradient to numerical for ``build_output(Tensor)``.

    ``build_output`` maps a Tensor to a scalar Tensor.
    """
    x_value = np.asarray(x_value, dtype=np.float64)
    x = Tensor(x_value.copy(), requires_grad=True)
    out = build_output(x)
    assert out.size == 1, "gradient check requires a scalar output"
    out.backward()
    analytic = x.grad

    def scalar_fn(value: np.ndarray) -> float:
        return float(build_output(Tensor(value)).data.reshape(()))

    numeric = numerical_gradient(scalar_fn, x_value.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


@pytest.fixture(scope="session")
def bench_report():
    """``bench_report(id, seed, **sizing)``: one shared run per key.

    The bench, registry and CLI tests read the same report instead of
    re-running a bench each; reports are read-only. A determinism test
    calls the bench's ``run`` itself for its explicit second run.
    """
    from repro.bench import BENCHES

    reports = {}

    def get(bench_id, seed=0, **sizing):
        key = (bench_id, seed, tuple(sorted(sizing.items())))
        if key not in reports:
            run, _ = BENCHES[bench_id]
            reports[key] = run(seed=seed, **sizing)
        return reports[key]

    return get


@pytest.fixture
def stub_bench(monkeypatch):
    """``stub_bench(id, report[, table])``: bench ``id`` returns ``report``.

    Routes ``python -m repro.bench`` and the registry through an existing
    report, so the CLI and registry tests cost no extra bench run.
    """
    from repro import bench

    def install(bench_id, report, table=None):
        if table is None:
            table = bench.BENCHES[bench_id][1]
        monkeypatch.setitem(bench.BENCHES, bench_id,
                            (lambda seed=0, **sizing: report, table))

    return install


@pytest.fixture
def bench_json_bytes(tmp_path):
    """``bench_json_bytes(id, seed, hash_seed)``: the JSON a fresh process writes.

    Runs ``python -m repro.bench`` in its own interpreter under the given
    ``PYTHONHASHSEED``, so comparing two calls catches output that follows
    set or hash ordering as well as seed drift.
    """
    def run(bench_id, seed, hash_seed):
        path = tmp_path / f"{bench_id}-{seed}-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        code = subprocess.run(
            [sys.executable, "-m", "repro.bench", bench_id,
             "--seed", str(seed), "--json", str(path)],
            env=env, capture_output=True, text=True).returncode
        assert code == 0
        return path.read_bytes()

    return run
