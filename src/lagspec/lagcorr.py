"""Symmetrized time-lagged correlation matrices of normalized return series.

For a lag ``tau`` the matrix entry (i, j) averages
``returns[i, t] * returns[j, t + tau]`` together with the transposed product
over ``t = 0 .. L - tau - 1`` and divides by ``2 * (L - tau)``.  Summing only
over the overlap and dividing by the effective window keeps the estimate
unbiased at every lag; the distinction from dividing by the full record is
O(tau/L).  Symmetrization restricts eigenvalues and eigenvectors to real
values.

``lag_corr`` builds one lag with one GEMM.  ``block_lag_corrs`` builds lags
1..tau_max of a long record (``uses_block_path``: L >= 14124 at N = 64, the
bound falling from 268 N at N = 32 to 153 N at N = 512) from block FFTs,
about four GEMMs' worth of flops per 32 lags, on one thread or several; its
entries differ from ``lag_corr``'s by rounding only.  ``patch_rows`` builds a lag
of a record from the same lag of another that differs only in a few series,
rebuilding those rows and columns alone.
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from . import _threads
from .errors import CorrelationOutOfRange, LagTooLarge, ParseError
from .ingest import ReturnMatrix

_ENTRY_TOL = 1e-9
_DIAG_TOL = 1e-10
# rows per block when a matrix is symmetrized or checked in place
_ROWS = 64
# block path: samples per block, most blocks per chunk, blocks per rfft call
_BLOCK = 32
_MAX_CHUNK = 64
_PIECE = 16


@dataclass(frozen=True)
class LagCorrMatrix:
    """Symmetric N x N lagged correlation matrix for a single lag."""

    lag: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ParseError(f"values must be square, got shape {values.shape}")
        if self.lag < 0:
            raise ValueError("lag must be non-negative")
        # row blocks against column blocks, and reductions, so that no N x N
        # temporary is made; NaN fails the symmetry test
        n = values.shape[0]
        for r in range(0, n, _ROWS):
            if not np.array_equal(values[r:r + _ROWS], values[:, r:r + _ROWS].T):
                raise ValueError("lagged correlation matrix must be exactly symmetric")
        if n and (values.max() > 1.0 + _ENTRY_TOL or values.min() < -(1.0 + _ENTRY_TOL)):
            raise CorrelationOutOfRange(
                f"correlation entries outside [-1, 1] at lag {self.lag}"
            )
        if self.lag == 0 and np.any(np.abs(np.diag(values) - 1.0) > _DIAG_TOL):
            raise ValueError("equal-time diagonal must be 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))


def lag_corr(
    g: ReturnMatrix, lag: int, out: np.ndarray | None = None
) -> LagCorrMatrix:
    """Build the symmetrized lagged correlation matrix at integer lag >= 0.

    Requires ``lag <= L/2`` so the effective window keeps at least L/2
    samples.  The product ``cross`` is formed in ``out`` (a C-contiguous
    N x N float array, overwritten), or in a new array, and symmetrized
    there in blocks of rows.  Symmetry is exact: entry (i, j) is
    ``cross[i, j] + cross[j, i]`` and entry (j, i) the same two terms added
    the other way round, and IEEE addition commutes.
    """
    lag = int(lag)
    if lag < 0:
        raise ValueError(f"lag must be non-negative, got {lag}")
    returns = g.returns
    n, length = returns.shape
    if lag > length // 2:
        raise LagTooLarge(
            f"lag {lag} exceeds half the record length (L={length})"
        )
    window = length - lag
    head = returns[:, :window]
    tail = returns[:, lag:]
    # values[i, j] = cross[i, j] = sum_t g_i(t) g_j(t + lag)
    values = np.matmul(head, tail.T, out=np.empty((n, n)) if out is None else out)
    for r in range(0, n, _ROWS):
        rows = slice(r, r + _ROWS)
        s = values[rows, r:] + values[r:, rows].T
        values[rows, r:] = s
        values[r:, rows] = s.T
        del s  # freed before the next block's sum is made
    values /= 2.0 * window
    return LagCorrMatrix(lag=lag, values=values)


def patch_rows(
    base: LagCorrMatrix, g: ReturnMatrix, rows: np.ndarray,
    out: np.ndarray | None = None,
) -> LagCorrMatrix:
    """``lag_corr(g, base.lag)`` where ``base`` is the same lag's matrix of
    a record that differs from ``g`` only in the series ``rows``: a copy of
    ``base`` (into ``out`` if given) with those rows and columns rebuilt.

    The k changed rows cost two k x N products, 4kLN flops against the
    full build's 2N^2 L.  Rebuilt entries differ from ``lag_corr``'s by
    rounding only; the others are ``base``'s bit for bit.  Symmetry is
    exact: the k x k block is ``sub + sub.T`` of one product, and row i and
    column i are written from the same array.
    """
    lag = base.lag
    returns = g.returns
    window = returns.shape[1] - lag
    head = returns[:, :window]
    tail = returns[:, lag:]
    values = np.empty_like(base.values) if out is None else out
    values[...] = base.values
    # s[i, j] = cross[rows[i], j] + cross[j, rows[i]]
    cross = head[rows] @ tail.T
    s = cross + tail[rows] @ head.T
    sub = cross[:, rows]
    s[:, rows] = sub + sub.T
    s /= 2.0 * window
    values[:, rows] = s.T
    values[rows] = s
    return LagCorrMatrix(lag=lag, values=values)


def _block_plan(n: int, length: int) -> tuple[int, int] | None:
    """Chunk width (in blocks) and block lags per batch of the block path,
    or None when the record takes the direct path.

    The working set is one accumulator per block lag of a batch plus a
    scratch one, (_BLOCK + 1) * n * n complex each, and the spectra of one
    chunk: at most 2 * chunk + 2 * batch + 2 * _PIECE blocks of
    (_BLOCK + 1) * n complex, rfft temporaries included.  The spectra get
    about a quarter of the bytes of the returns and the accumulators the
    rest, so the path needs L >> N.  Split over threads, the kernel still
    holds one such set: each thread transforms a share of the series into
    the shared spectra and fills its share of the frequency bins of the
    shared accumulators.
    """
    budget = 8 * n * length
    block = (_BLOCK + 1) * n * 16
    slab = block * n
    chunk = min(_MAX_CHUNK, budget // (8 * block))
    batch = (budget - slab - (2 * chunk + 2 * _PIECE) * block) // (slab + 2 * block)
    return (chunk, batch) if chunk >= 1 and batch >= 1 else None


def uses_block_path(n: int, length: int) -> bool:
    """True when ``block_lag_corrs`` can build the lags of an n x length
    return matrix within the bytes of the returns.  Depends on the shape
    only, so lag k's matrix is the same at every tau_max."""
    return _block_plan(n, length) is not None


def _spectra(
    returns: np.ndarray, rows: slice, lo: int, hi: int, out: np.ndarray
) -> None:
    """G_t for blocks t = lo..hi-1 of the series ``rows`` into
    ``out[:, rows]``, of shape (_BLOCK + 1, n, hi - lo): the rfft of block t
    of each series, zero-padded to 2 * _BLOCK samples; blocks past the
    record are zero.  Each series is transformed on its own, so the spectra
    do not depend on how the series are shared out."""
    for a in range(lo, hi, _PIECE):
        b = min(a + _PIECE, hi)
        seg = returns[rows, a * _BLOCK:b * _BLOCK]
        if seg.shape[1] < (b - a) * _BLOCK:
            seg = np.pad(seg, ((0, 0), (0, (b - a) * _BLOCK - seg.shape[1])))
        blocks = seg.reshape(seg.shape[0], b - a, _BLOCK)
        out[:, rows, a - lo:b - lo] = np.fft.rfft(blocks, 2 * _BLOCK).transpose(2, 0, 1)


def _block_cross(
    returns: np.ndarray, j0: int, chunk: int, threads: int,
    acc: np.ndarray, scratch: np.ndarray, stores: np.ndarray,
) -> None:
    """Z_j(f) = sum_s conj(G_s(f)) V_{s+j}(f)^T for block lags j = j0,
    j0 + 1, ..., into ``acc[j - j0]``, one (_BLOCK + 1, n, n) complex array
    per block lag.

    V_t = G_t + (-1)^f G_{t+1} is the spectrum of the 2 * _BLOCK samples
    from block t on, so irfft(Z_j)[d] is sum_t g_i(t) g_k(t + j * _BLOCK + d)
    for 0 <= d < _BLOCK.  The products are formed as G_s conj(V_{s+j})^T,
    whose conjugate is Z_j, so that G itself is the left factor.  Blocks s
    are summed in chunks that start at multiples of ``chunk``, whatever the
    block lags are.  ``scratch`` holds one product and ``stores`` the G and
    conj(V) of a chunk, two flat complex arrays.

    Each chunk's work is shared by ``threads`` parts, run on as many
    threads: part i transforms its share of the series into the shared
    spectra, then, once every part is done, forms V and the products of
    its share of the frequency bins into its slice of the accumulators and
    of ``scratch``.  Every bin's product is the same BLAS call whatever the
    share, so Z_j does not depend on ``threads``.
    """
    n, length = returns.shape
    nblocks = -(-length // _BLOCK)
    bins = _BLOCK + 1
    j1 = j0 + len(acc)
    acc[...] = 0.0

    def spectra(store: np.ndarray, blocks: int) -> np.ndarray:
        """A chunk's spectra of ``blocks`` blocks, seen as (bins, n, blocks)
        and stored (n, bins, blocks): copying rfft's (n, blocks, bins)
        output into that layout is about twice as fast as into (bins, n,
        blocks), and each bin's n x blocks matrix still has unit stride for
        BLAS."""
        return store[:n * bins * blocks].reshape(n, bins, blocks).transpose(1, 0, 2)

    barrier = threading.Barrier(threads)

    def part(i: int) -> None:
        rows = slice(i * n // threads, (i + 1) * n // threads)
        f0, f1 = i * bins // threads, (i + 1) * bins // threads
        even, odd = f0 + f0 % 2, f0 + 1 - f0 % 2
        for s0 in range(0, nblocks - j0, chunk):
            s1 = min(s0 + chunk, nblocks - j0)
            # conj(V_t) for t = s0 + j0 .. s1 + j1 - 2, from G_t up to a block further
            lo, hi = s0 + j0, min(s1 + j1, nblocks + 1)
            g = spectra(stores[0], hi - lo)
            _spectra(returns, rows, lo, hi, g)
            barrier.wait()
            v = spectra(stores[1], hi - lo - 1)
            np.add(g[even:f1:2, :, :-1], g[even:f1:2, :, 1:], out=v[even:f1:2])
            np.subtract(g[odd:f1:2, :, :-1], g[odd:f1:2, :, 1:], out=v[odd:f1:2])
            np.conjugate(v[f0:f1], out=v[f0:f1])
            if j0 > 0:
                barrier.wait()  # no part reads the wide G any more
                g = spectra(stores[0], s1 - s0)
                _spectra(returns, rows, s0, s1, g)
                barrier.wait()
            for j, z in zip(range(j0, j1), acc):
                k = min(s1, nblocks - j) - s0
                if k <= 0:
                    break
                np.matmul(g[f0:f1, :, :k],
                          v[f0:f1, :, j - j0:j - j0 + k].transpose(0, 2, 1),
                          out=scratch[f0:f1])
                z[f0:f1] += scratch[f0:f1]
            barrier.wait()  # the next chunk overwrites G and V

    def guarded(i: int) -> None:
        try:
            part(i)
        except threading.BrokenBarrierError:
            pass  # another part failed; _threads.run raises its error
        except BaseException:
            barrier.abort()
            raise

    _threads.run([functools.partial(guarded, i) for i in range(threads)])
    np.conjugate(acc, out=acc)


def block_lag_corrs(
    g: ReturnMatrix, tau_max: int, threads: int = 1
) -> Iterator[LagCorrMatrix]:
    """The matrices of lags 1..tau_max in order, by block FFT.

    Each series is cut into blocks of 32 samples and each block is
    transformed once.  The 32 lags j*32 .. j*32+31 then cost one complex
    N x N product per frequency bin (33 bins) summed over the L/32 blocks,
    about 8 N^2 L flops, where 32 direct GEMMs cost 64 N^2 L.
    Entries differ from ``lag_corr``'s by rounding (observed within
    1e-15); symmetry is exact as there.  Block lags are built in batches
    whose working set stays within ``g.returns.nbytes``; a shape for which
    that is impossible (``uses_block_path`` false) raises ValueError.

    The arguments are checked and the working set is made by this call,
    on the calling thread, and every batch reuses it: a batch that another
    thread runs allocates nothing large, which would stay in that thread's
    malloc arena (2 MB more peak RSS on the long benchmark record).  Each
    batch is split over ``threads`` threads, the one that runs it
    included, each making its BLAS calls at the current thread count.  At
    the same BLAS thread count the matrices are the same bit for bit for
    every ``threads``.
    """
    tau_max = int(tau_max)
    threads = int(threads)
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    returns = g.returns
    n, length = returns.shape
    if tau_max < 0:
        raise ValueError(f"tau_max must be non-negative, got {tau_max}")
    if tau_max > length // 2:
        raise LagTooLarge(
            f"lag {tau_max} exceeds half the record length (L={length})"
        )
    plan = _block_plan(n, length)
    if plan is None:
        raise ValueError(f"a {n} x {length} record takes the direct path")
    if tau_max == 0:
        return iter(())
    chunk, batch = plan
    batch = min(batch, tau_max // _BLOCK + 1)
    width = min(chunk + batch, -(-length // _BLOCK) + 1)
    acc = np.empty((batch, _BLOCK + 1, n, n), dtype=complex)
    scratch = np.empty((_BLOCK + 1, n, n), dtype=complex)
    stores = np.empty((2, n * (_BLOCK + 1) * width), dtype=complex)
    return _block_lags(returns, tau_max, chunk, threads, acc, scratch, stores)


def _block_lags(
    returns: np.ndarray, tau_max: int, chunk: int, threads: int,
    acc: np.ndarray, scratch: np.ndarray, stores: np.ndarray,
) -> Iterator[LagCorrMatrix]:
    """``block_lag_corrs``'s lags, batch by batch, in its working set."""
    n, length = returns.shape
    last = tau_max // _BLOCK
    # a block lag's inverse transform, in the bytes of the scratch product,
    # which its batch no longer needs
    cross = scratch.reshape(-1).view(float)[:2 * _BLOCK * n * n]
    cross = cross.reshape(2 * _BLOCK, n, n)
    for j0 in range(0, last + 1, len(acc)):
        sums = acc[:last + 1 - j0]
        _block_cross(returns, j0, chunk, threads, sums, scratch, stores)
        for j, z in enumerate(sums, start=j0):
            np.fft.irfft(z, 2 * _BLOCK, axis=0, out=cross)
            for lag in range(max(j * _BLOCK, 1), min((j + 1) * _BLOCK, tau_max + 1)):
                d = lag - j * _BLOCK
                values = cross[d] + cross[d].T
                values /= 2.0 * (length - lag)
                yield LagCorrMatrix(lag=lag, values=values)


def equal_time_corr(g: ReturnMatrix) -> LagCorrMatrix:
    """The lag-0 case: plain correlation matrix of the normalized returns."""
    return lag_corr(g, 0)


def write_matrix_csv(matrix: LagCorrMatrix, path: Union[str, Path]) -> None:
    """Dump the full N x N matrix as CSV with 17-significant-digit floats."""
    np.savetxt(path, matrix.values, fmt="%.17g", delimiter=",")
