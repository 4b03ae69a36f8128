"""Symmetrized time-lagged correlation matrices of normalized return series.

For a lag ``tau`` the matrix entry (i, j) averages
``returns[i, t] * returns[j, t + tau]`` together with the transposed product
over ``t = 0 .. L - tau - 1`` and divides by ``2 * (L - tau)``.  Summing only
over the overlap and dividing by the effective window keeps the estimate
unbiased at every lag; the distinction from dividing by the full record is
O(tau/L).  Symmetrization restricts eigenvalues and eigenvectors to real
values.

``lag_corr`` builds one lag with one GEMM.  ``block_lag_corrs`` gives a
builder of lags 1..tau_max of a long record (``uses_block_path``: L >= 10760
at N = 64, the bound falling from 214 N at N = 32 to 134 N at N = 512), in
increasing order, from block FFTs, about four GEMMs' worth of flops per block
of B lags, B being 32 or, where the returns' bytes allow, a larger power of
two (128 for the 64 x 32767 benchmark record), on one thread or several; like
``lag_corr`` it writes into an array it is given, and its entries differ from
``lag_corr``'s by rounding only.
``patch_rows`` builds a lag of a record from the same lag of another that
differs only in a few series, rebuilding those rows and columns alone.
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Union

import numpy as np

from . import _threads
from .errors import CorrelationOutOfRange, LagTooLarge, ParseError
from .ingest import ReturnMatrix

_ENTRY_TOL = 1e-9
_DIAG_TOL = 1e-10
# rows per block when a matrix is symmetrized or checked in place
_ROWS = 64
# block path: fewest samples per block, most blocks per chunk, samples per
# rfft call, frequency bins per group of products and floats of output per
# inverse-transform call
_BLOCK = 32
_MAX_CHUNK = 64
_PIECE = 512
_GROUP = 16
_INVERSE = 2**14


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
        if not values.size:
            raise ParseError(f"values must hold at least one entry, got shape {values.shape}")
        if self.lag < 0:
            raise ValueError("lag must be non-negative")
        # row blocks from the diagonal on against column blocks, each pair
        # (i, j) compared once, and reductions, so that no N x N temporary
        # is made; NaN fails the symmetry test
        n = values.shape[0]
        for r in range(0, n, _ROWS):
            if not np.array_equal(values[r:r + _ROWS, r:], values[r:, r:r + _ROWS].T):
                raise ValueError("lagged correlation matrix must be exactly symmetric")
        if values.max() > 1.0 + _ENTRY_TOL or values.min() < -(1.0 + _ENTRY_TOL):
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
        return float(self.values.trace())


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
    ``base`` (into ``out`` if given, which may be ``base.values`` itself)
    with those rows and columns rebuilt.

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


def uses_block_path(n: int, length: int) -> bool:
    """True when ``block_lag_corrs`` builds the lags of an n x length
    return matrix: where the kernel's own working set at 32 samples per
    block fits in the bytes of the returns (``_fit``).  Depends on the
    shape only, as ``_block_plan`` does, so lag k's matrix is the same at
    every tau_max."""
    return _fit(n, length, _BLOCK) is not None


def _inverse_room(n: int, size: int) -> tuple[int, int]:
    """Matrix entries per inverse-transform call at ``size`` samples per
    block, whose output is 2 * size floats for each, and the width, in
    blocks, of spectra stores that hold a block lag's inverse transform,
    size * n * n floats, and one call's output."""
    entries = min(n * n, max(1, _INVERSE // (2 * size)))
    return entries, -(-size * (n * n + 2 * entries) // (4 * n * (size + 1)))


def _fit(n: int, length: int, size: int) -> tuple[int, int] | None:
    """Chunk width (in blocks) and block lags per batch of the block path
    at ``size`` samples per block, or None where its working set does not
    fit in the bytes of an n x length return matrix.

    The working set is one accumulator per block lag of a batch, (size +
    1) * n * n complex each, a scratch of ``_GROUP`` bins of products, n *
    n complex each, rfft's temporaries, 2 * piece blocks of (size + 1) * n
    complex, and two stores of a chunk's spectra, (chunk + batch) such
    blocks each, but at least as many as hold a block lag's inverse
    transform, which is made in them (``_inverse_room``).  The spectra get
    about a third of the bytes of the returns, or what one accumulator
    leaves where that is less, and the accumulators the rest, so the path
    needs L >> N.  Split over threads, the kernel still holds one such
    set: each thread transforms a share of the series into the shared
    spectra and sums its share of the frequency bins into the shared
    accumulators.
    """
    budget = 8 * n * length
    block = (size + 1) * n * 16
    slab = block * n
    held = _inverse_room(n, size)[1]
    free = budget - 16 * _GROUP * n * n - 2 * max(1, _PIECE // size) * block
    chunk = min(_MAX_CHUNK, budget // (6 * block), (free - slab) // (2 * block) - 1)
    batch = min((free - 2 * chunk * block) // (slab + 2 * block),
                (free - 2 * held * block) // slab)
    return (chunk, batch) if chunk >= 1 and batch >= 1 else None


def _block_plan(n: int, length: int) -> tuple[int, int, int] | None:
    """Samples per block, chunk width (in blocks) and block lags per batch
    of the block path, or None when the record takes the direct path.

    The block is the largest power of two from 32 on whose working set
    (``_fit``) fits in the returns' bytes: 128 samples for the 64 x 32767
    benchmark record, where one block lag covers the lags up to 127.
    Reads N and L only.
    """
    size, plan = _BLOCK, None
    while (fit := _fit(n, length, size)) is not None:
        plan = (size, *fit)
        size *= 2
    return plan


def _spectra(
    returns: np.ndarray, rows: slice, lo: int, hi: int, out: np.ndarray
) -> None:
    """G'_t = (-1)^(f t) G_t for blocks t = lo..hi-1 of the series ``rows``
    into ``out[:, rows, :hi - lo]``, ``out`` being (size + 1, n, width):
    the rfft of a frame of 2 * size samples that holds block t of each
    series in its first half where t is even and in its second half where
    t is odd, which multiplies G_t(f), the rfft of the block zero-padded,
    by (-1)^f.  Blocks past the record are zero.  Each series is transformed
    on its own, so the spectra do not depend on how the series are shared
    out."""
    size = len(out) - 1
    piece = max(1, _PIECE // size)
    for a in range(lo, hi, piece):
        b = min(a + piece, hi)
        seg = returns[rows, a * size:b * size]
        whole, rest = divmod(seg.shape[1], size)  # the blocks in the record
        blocks = seg[:, :whole * size].reshape(seg.shape[0], whole, size)
        frames = np.zeros((seg.shape[0], b - a, 2, size))
        even = a % 2  # the first block of the piece whose t is even
        frames[:, even:whole:2, 0] = blocks[:, even::2]
        frames[:, 1 - even:whole:2, 1] = blocks[:, 1 - even::2]
        if rest:
            frames[:, whole, (a + whole) % 2, :rest] = seg[:, whole * size:]
        spectra = np.fft.rfft(frames.reshape(seg.shape[0], b - a, 2 * size))
        out[:, rows, a - lo:b - lo] = spectra.transpose(2, 0, 1)
        del frames, spectra  # freed before the next piece's are made


def _block_cross(
    returns: np.ndarray, j0: int, chunk: int, threads: int,
    acc: np.ndarray, scratch: np.ndarray, stores: np.ndarray,
) -> None:
    """P_j(f) = sum_s G'_s(f) conj(V'_{s+j}(f))^T for block lags j = j0,
    j0 + 1, ..., into ``acc[j - j0]``, one (size + 1, n, n) complex array
    per block lag, blocks being size samples long.

    G_t is the spectrum of block t zero-padded to 2 * size samples, V_t =
    G_t + (-1)^f G_{t+1} that of the 2 * size samples from block t on, and
    Z_j(f) = sum_s conj(G_s(f)) V_{s+j}(f)^T, so irfft(Z_j)[d] is sum_t
    g_i(t) g_k(t + j * size + d) for 0 <= d < size.  With G'_t = (-1)^(f t)
    G_t (``_spectra``), V'_t = G'_t + G'_{t+1} is (-1)^(f t) V_t, one sum
    for every bin, and P_j is (-1)^(f j) conj(Z_j) (``_inverse``).  Blocks
    s are summed in chunks that start at multiples
    of ``chunk``, whatever the block lags are.  ``stores`` holds the G' and
    conj(V') of a chunk, each a (n, size + 1, width) complex array, zero
    where no spectrum has been made.  The first chunk's products are made
    in the accumulators; each later chunk's a group of bins at a time in
    ``scratch``, (group, n, n) complex, and added into them.

    Each chunk's work is shared by ``threads`` parts, at most one per bin
    of ``scratch``, run on as many threads: part i transforms its share of
    the series into the shared G' and makes their conj(V') there, each
    step one pass over contiguous memory, then, once every part is done,
    forms the products of its share of the frequency bins, a group of its
    share of ``scratch``'s bins at a time.  Every bin's product is the
    same BLAS call whatever the share, so P_j does not depend on
    ``threads``.
    """
    n, length = returns.shape
    bins = acc.shape[1]
    size = bins - 1
    nblocks = -(-length // size)
    j1 = j0 + len(acc)
    threads = min(threads, len(scratch))
    # each bin's n x blocks matrix, with unit stride for BLAS
    g, v = stores.transpose(0, 2, 1, 3)
    barrier = threading.Barrier(threads)

    def part(i: int) -> None:
        rows = slice(i * n // threads, (i + 1) * n // threads)
        f0, f1 = i * bins // threads, (i + 1) * bins // threads
        own = scratch[i * len(scratch) // threads:(i + 1) * len(scratch) // threads]
        # this part's series, flat: V'_t of a series is its G'_t plus the
        # next entry, G'_{t+1}; the last block of each bin is not read
        g_rows, v_rows = stores[0, rows].reshape(-1), stores[1, rows].reshape(-1)
        for s0 in range(0, nblocks - j0, chunk):
            s1 = min(s0 + chunk, nblocks - j0)
            # conj(V'_t) for t = s0 + j0 .. s1 + j1 - 2, from G'_t up to a block further
            lo, hi = s0 + j0, min(s1 + j1, nblocks + 1)
            _spectra(returns, rows, lo, hi, g)
            np.add(g_rows[:-1], g_rows[1:], out=v_rows[:-1])
            np.conjugate(v_rows, out=v_rows)
            if j0 > 0:  # G'_s over this part's rows, which only it has read
                _spectra(returns, rows, s0, s1, g)
            barrier.wait()
            for j, z in zip(range(j0, j1), acc):
                k = min(s1, nblocks - j) - s0
                if k <= 0:
                    break
                right = v[:, :, j - j0:j - j0 + k].transpose(0, 2, 1)
                for f in range(f0, f1, len(own)):
                    e = min(f + len(own), f1)
                    # the first chunk's products start the sums
                    products = z[f:e] if s0 == 0 else own[:e - f]
                    np.matmul(g[f:e, :, :k], right[f:e], out=products)
                    if s0:
                        z[f:e] += products
            barrier.wait()  # the next chunk overwrites G' and V'

    def guarded(i: int) -> None:
        try:
            part(i)
        except threading.BrokenBarrierError:
            pass  # another part failed; _threads.run raises its error
        except BaseException:
            barrier.abort()
            raise

    # a part that never starts would leave the others at the barrier
    _threads.run([functools.partial(guarded, i) for i in range(threads)],
                 lambda exc: barrier.abort())


def _inverse(p: np.ndarray, j: int, cross: np.ndarray, spare: np.ndarray) -> None:
    """``cross[d] = irfft(Z_j, 2 * size)[d]`` for d < size, from block lag
    j's P_j = (-1)^(f j) conj(Z_j) in ``p``, (size + 1, n, n), into cross,
    (size, n, n).  Since conj turns the output round and (-1)^f shifts it
    by size, that is irfft(P_j)[-d] for even j and irfft(P_j)[size - d]
    for odd j, indices modulo 2 * size.  Made a block of matrix entries at
    a time, each block's 2 * size outputs in ``spare``, (2 * size,
    entries) floats, so that the outputs not kept are never written to
    ``cross``."""
    size = len(cross)
    p = p.reshape(size + 1, -1)
    cross = cross.reshape(size, -1)
    step = spare.shape[1]
    for c in range(0, cross.shape[1], step):
        e = min(c + step, cross.shape[1])
        out = spare[:, :e - c]
        np.fft.irfft(p[:, c:e], 2 * size, axis=0, out=out)
        if j % 2:
            cross[:, c:e] = out[size:0:-1]
        else:
            cross[0, c:e] = out[0]
            cross[1:, c:e] = out[:size:-1]


def block_lag_corrs(
    g: ReturnMatrix, tau_max: int, threads: int = 1
) -> Callable[..., LagCorrMatrix]:
    """A builder, ``build(lag, out=None)``, of the matrices of lags
    1..tau_max by block FFT, to be asked for lags in increasing order: a
    lag outside 1..tau_max, or at or below the last built, is a ValueError.

    Each series is cut into blocks of B samples and each block is
    transformed once, B a power of two from 32 on that ``_block_plan``
    picks from N and L alone: 128 for the 64 x 32767 benchmark record.
    The B lags j*B .. j*B+B-1 then cost one complex N x N product per
    frequency bin (B + 1 bins) summed over the L/B blocks, about 8 N^2 L
    flops, where B direct GEMMs cost 2 B N^2 L.  Block lags are summed in
    batches, each when the first of its lags is asked for, whose working
    set stays within ``g.returns.nbytes``; a shape for which that is
    impossible (``uses_block_path`` false) raises ValueError.  A block
    lag's B lags are transformed back together when the first of them is
    asked for, into ``cross``, (B, N, N) floats in the bytes of the
    spectra, which its batch no longer needs, and lag k = j*B + d is
    ``cross[d] + cross[d].T`` over ``2 (L - k)``, made in ``out``, a
    C-contiguous N x N float array, or a new array.  Entries differ from
    ``lag_corr``'s by rounding (observed within 1e-15); symmetry is exact
    as there.

    The arguments are checked and the working set is made by this call,
    on the calling thread, and every batch reuses it: a batch that another
    thread runs allocates nothing large, which would stay in that thread's
    malloc arena (2 MB more peak RSS on the long benchmark record).  Each
    batch is split over ``threads`` threads, at most ``_GROUP``, the one
    that runs it included, each making its BLAS calls at the current
    thread count.  At the same BLAS thread count the matrices are the same
    bit for bit for every ``threads``.  The builder is for one thread at a
    time.
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
    size, chunk, batch = plan
    last = tau_max // size  # the last block lag
    if tau_max:  # no working set where there is no lag to build
        batch = min(batch, last + 1)
        entries, held = _inverse_room(n, size)
        width = max(min(chunk + batch, -(-length // size) + 1), held)
        acc = np.empty((batch, size + 1, n, n), dtype=complex)
        scratch = np.empty((_GROUP, n, n), dtype=complex)
        stores = np.zeros((2, n, size + 1, width), dtype=complex)
        # a block lag's inverse transform and one call's output, in the
        # bytes of the spectra, which its batch no longer needs
        floats = stores.reshape(-1).view(float)
        cross = floats[:size * n * n].reshape(size, n, n)
        spare = floats[size * n * n:size * (n * n + 2 * entries)].reshape(2 * size, entries)
    # the last lag built, the first block lag summed in ``acc`` and the
    # block lag transformed in ``cross``, all of which only grow
    built, summed, inverse = 0, None, None

    def build(lag: int, out: np.ndarray | None = None) -> LagCorrMatrix:
        nonlocal built, summed, inverse
        lag = int(lag)
        if not 1 <= lag <= tau_max:
            raise ValueError(f"lag {lag} is outside the block path's lags 1..{tau_max}")
        if lag <= built:
            raise ValueError(f"lag {lag} asked for after lag {built}: the block path "
                             "builds lags in increasing order")
        j = lag // size
        if inverse != j:
            j0 = j - j % batch
            if summed != j0:
                _block_cross(returns, j0, chunk, threads, acc[:last + 1 - j0],
                             scratch, stores)
                summed = j0
            _inverse(acc[j - j0], j, cross, spare)
            inverse = j
        d = lag - j * size
        values = np.add(cross[d], cross[d].T, out=out)
        values /= 2.0 * (length - lag)
        built = lag
        return LagCorrMatrix(lag=lag, values=values)

    return build


def equal_time_corr(g: ReturnMatrix) -> LagCorrMatrix:
    """The lag-0 case: plain correlation matrix of the normalized returns."""
    return lag_corr(g, 0)


def write_matrix_csv(matrix: LagCorrMatrix, path: Union[str, Path]) -> None:
    """Dump the full N x N matrix as CSV with 17-significant-digit floats:
    the bytes of ``np.savetxt(path, values, fmt="%.17g", delimiter=",")``,
    each row formatted by one ``%`` over its Python floats, made a row at
    a time."""
    row = ",".join(["%.17g"] * matrix.values.shape[1]) + "\n"
    with open(path, "w", encoding="latin1") as handle:
        handle.writelines(row % tuple(values.tolist()) for values in matrix.values)
