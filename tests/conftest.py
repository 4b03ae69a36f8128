"""Shared fixtures and independent oracles used across the test suite.

The oracles deliberately avoid the library's own code paths: the DFT oracle
is a direct O(M^2) sum, the lag-correlation oracle a double loop over the
defining formula.
"""
from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext

import numpy as np
import pytest

import lagspec.eigensys
from lagspec import ReturnMatrix, _blas, normalize
from lagspec.eigensys import _column_iprs
from lagspec.lagcorr import block_lag_corrs
from lagspec.strobo import _plan


def iid_returns(n: int, length: int, seed: int) -> ReturnMatrix:
    """Normalized i.i.d. Gaussian return rows."""
    rng = np.random.default_rng(seed)
    return normalize(rng.standard_normal((n, length)))


needs_openblas = pytest.mark.skipif(
    _blas.thread_count() is None, reason="numpy's bundled OpenBLAS not found"
)


def sweep_blas(g: ReturnMatrix, tau_max: int):
    """A context that runs BLAS at the threads per lag that ``sweep(g,
    tau_max)`` uses, T // W, or T // 2 where two workers share one solver,
    so that solves made in it match the sweep's bit for bit: the sweep
    solves each matrix in its plane with dsyevd's own stages, which give
    ``np.linalg.eigh``'s bits at the same thread count."""
    blas_threads = _plan(g, tau_max)[2]
    return nullcontext() if blas_threads is None else _blas.threads(blas_threads)


def block_lags(g: ReturnMatrix, tau_max: int, threads: int = 1):
    """``block_lag_corrs``'s matrices of lags 1..tau_max, in order, each
    built into an array of its own when it is asked for."""
    build = block_lag_corrs(g, tau_max, threads)
    return (build(k) for k in range(1, tau_max + 1))


def eigh_reference(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and IPRs of a symmetric matrix, by
    ``np.linalg.eigh`` at the current BLAS threads, with each vector's
    sign fixed as ``eigendecompose`` fixes it, its largest-magnitude
    component positive, and the IPRs of ``_column_iprs``; for matrices
    without degenerate clusters."""
    vals, vecs = np.linalg.eigh(values)
    lead = np.abs(vecs).argmax(axis=0)
    vecs *= np.copysign(1.0, vecs[lead, np.arange(len(vals))])
    return vals, vecs, _column_iprs(vecs)


def lag_corr_oracle(returns: np.ndarray, lag: int) -> np.ndarray:
    """Entry-by-entry evaluation of the symmetrized lagged correlation."""
    n, length = returns.shape
    window = length - lag
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for t in range(window):
                acc += returns[i, t] * returns[j, t + lag]
                acc += returns[j, t] * returns[i, t + lag]
            out[i, j] = acc / (2.0 * window)
    return out


def dft_power_oracle(values: np.ndarray) -> np.ndarray:
    """Direct O(M^2) DFT, squared magnitude, bins 0..floor(M/2)."""
    m = len(values)
    bins = m // 2 + 1
    power = np.zeros(bins)
    for k in range(bins):
        re = sum(values[t] * math.cos(-2.0 * math.pi * k * t / m) for t in range(m))
        im = sum(values[t] * math.sin(-2.0 * math.pi * k * t / m) for t in range(m))
        power[k] = re * re + im * im
    return power


def two_sided_power_sum(power: np.ndarray, m: int) -> float:
    """Total power of the full M-point DFT reconstructed from rfft bins."""
    total = power[0]
    if m % 2 == 0:
        total += 2.0 * power[1:-1].sum() + power[-1]
    else:
        total += 2.0 * power[1:].sum()
    return float(total)


def digest_run_dir(out_dir) -> dict:
    """SHA-256 of every file in a run directory; summary.json is hashed
    without its timestamp."""
    hashes = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "summary.json":
            data = json.loads(path.read_text())
            data.pop("timestamp", None)
            payload = json.dumps(data, sort_keys=True).encode()
        else:
            payload = path.read_bytes()
        hashes[path.name] = hashlib.sha256(payload).hexdigest()
    return hashes


@pytest.fixture(scope="session")
def gaussian_returns_64():
    return iid_returns(64, 2048, seed=7)


@pytest.fixture
def doubled_eigh(monkeypatch):
    """Make every eigensolve return 2x its eigenvectors: residual and trace
    checks still pass, but the vectors are no longer unit norm.  It patches
    ``eigensys._eigh``, the solve that ``eigendecompose`` calls for each
    matrix."""
    eigh = lagspec.eigensys._eigh

    def doubled(d, ws, i=0):
        vals, vecs = eigh(d, ws, i)
        vecs *= 2.0
        return vals, vecs

    monkeypatch.setattr(lagspec.eigensys, "_eigh", doubled)
