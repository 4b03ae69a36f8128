"""Eigen-decomposition of lagged correlation matrices, IPRs, and the
left/random/right segmentation of the spectrum against Marchenko-Pastur
bounds.
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import ConvergenceFailure, DegenerateAspect, NotNormalized
from .lagcorr import LagCorrMatrix

_RESIDUAL_FACTOR = 1e-10  # max ||D u - lambda u|| allowed, relative to ||D||_F
_NORM_TOL = 1e-8
_ORTHO_TOL = 1e-8
# floats per block of rows of U diag(vals) or of EigenSystem's Gram
# product: half the bytes of an N x N boolean array at N = 512
_BLOCK_FLOATS = 1 << 14
# ascending eigenvalues at most this far apart, relative to ||D||_F, form one
# degenerate cluster: 100 times the residual bound
_CLUSTER_GAP = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues, orthonormal eigenvectors and per-vector IPRs.

    Eigenvector k is the k-th column of ``eigenvectors`` and pairs with
    ``eigenvalues[k]``; eigenvalues are ascending.  Each vector's sign is
    fixed so its largest-magnitude component is positive, which makes the
    decomposition deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    iprs: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        iprs = np.asarray(self.iprs, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "iprs", iprs)
        n = vals.shape[0]
        if vecs.shape != (n, n) or iprs.shape != (n,):
            raise ValueError("eigenvalues, eigenvectors and iprs disagree in shape")
        if (vals[1:] < vals[:-1]).any():
            raise ValueError("eigenvalues must be sorted ascending")
        if np.abs(np.einsum("ij,ij->j", vecs, vecs) - 1.0).max() > 2 * _NORM_TOL:
            raise ValueError("eigenvectors must be unit norm")
        # the upper triangle of V^T V a block of rows at a time, less its
        # diagonal: no N x N temporary, and half the flops of the full product
        rows = max(1, _BLOCK_FLOATS // n)
        block = np.empty(min(rows, n) * n)
        for r in range(0, n, rows):
            left = vecs[:, r:r + rows].T
            gram = np.matmul(left, vecs[:, r:], out=block[:len(left) * (n - r)].reshape(-1, n - r))
            gram.reshape(-1)[::n - r + 1] = 0.0  # the diagonal
            if np.abs(gram, out=gram).max() > _ORTHO_TOL:
                raise ValueError("eigenvectors must be pairwise orthogonal")


@dataclass(frozen=True)
class RmtBounds:
    """Marchenko-Pastur eigenvalue band for a unit-variance correlation matrix."""

    lambda_minus: float
    lambda_plus: float
    q: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lambda_minus < self.lambda_plus):
            raise ValueError("need 0 <= lambda_minus < lambda_plus")
        if not self.q > 1.0:
            raise ValueError("aspect ratio q must exceed 1")


@dataclass(frozen=True)
class SpectrumSegmentation:
    """Partition of eigenvalue indices into left / random / right parts."""

    left: tuple[int, ...]
    random: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "left", tuple(int(i) for i in self.left))
        object.__setattr__(self, "random", tuple(int(i) for i in self.random))
        object.__setattr__(self, "right", tuple(int(i) for i in self.right))


class Workspace:
    """The buffers of ``eigendecompose(d, out=ws)`` at N x N, for one call
    at a time.  ``work`` is laid out as LAPACK's ``dsyevd`` lays out its
    own, at the size of dsyevd's workspace query: the tridiagonal's
    off-diagonal and the reflectors' scalars, N floats each, then ``z``,
    where the eigenvectors are left, one per row, then the later stages'
    scratch, of which the checks take ``scratch``, N x N, after the solve.
    ``w`` holds the eigenvalues, ``diag`` D's diagonal while the solve
    overwrites it, and ``block``, rows of N floats, the checks' blocks and
    the restore's, its rows at most ``_BLOCK_FLOATS`` floats and N.  D is
    not copied: that is 2 N^2 + O(N) floats and one block in all.

    The LAPACK calls' arguments are made here, once, but for D's address,
    ``a``, which each solve sets."""

    def __init__(self, n: int) -> None:
        rows = min(n, max(1, _BLOCK_FLOATS // max(n, 1)))
        self.info, self.a = ctypes.c_int64(), ctypes.c_void_p()
        lwork, liwork = 1 + 6 * n + 2 * n * n, 3 + 5 * n
        lapack = _blas.lapack()
        if lapack is not None:
            # dsyevd's query: its minimum, or the two leading vectors and
            # dsytrd's optimum where that is more
            lwork = max(lwork, 2 * n + _sytrd_query(lapack, n))
        self.work, self.iwork = np.empty(lwork), np.empty(liwork, dtype=np.int64)
        self.w, self.diag = np.empty(n), np.empty(n)
        self.z = self.work[2 * n:2 * n + n * n].reshape(n, n)
        self.scratch = self.work[2 * n + n * n:2 * n + 2 * n * n].reshape(n, n)
        self.block = np.empty((rows, n))
        # the entries of a block of rows from the diagonal on that lie
        # above it
        self.upper = np.arange(n) > np.arange(rows)[:, None]

        # dsyevd's calls, with gfortran's string lengths: UPLO = 'L' of D
        # as LAPACK sees it, D transposed, which has the same bits for an
        # exactly symmetric matrix; dsytrd gets the work from z on, the
        # later stages the work after z
        e, tau, z, rest = (ctypes.c_void_p(self.work.ctypes.data + 8 * i)
                           for i in (0, n, 2 * n, 2 * n + n * n))
        w, iwork = (ctypes.c_void_p(x.ctypes.data) for x in (self.w, self.iwork))
        n_, ld, lwork1, lwork2, liwork_ = (ctypes.byref(ctypes.c_int64(v)) for v in (
            n, max(n, 1), lwork - 2 * n, lwork - 2 * n - n * n, liwork))
        info, one = ctypes.byref(self.info), ctypes.c_size_t(1)
        self.stages = (
            (b"L", n_, self.a, ld, w, e, tau, z, lwork1, info, one),
            (b"I", n_, w, e, z, ld, rest, lwork2, iwork, liwork_, info, one),
            (b"L", b"L", b"N", n_, n_, self.a, ld, tau, z, ld, rest, lwork2, info,
             one, one, one),
        )


def _sytrd_query(lapack: tuple, n: int) -> int:
    """dsytrd's optimal work size at N x N, UPLO = 'L'."""
    size, info = np.zeros(1), ctypes.c_int64()
    p = ctypes.c_void_p(size.ctypes.data)
    n_, ld, query = (ctypes.byref(ctypes.c_int64(v)) for v in (n, max(n, 1), -1))
    lapack[0](b"L", n_, p, ld, p, p, p, p, query, ctypes.byref(info), ctypes.c_size_t(1))
    return int(size[0])


# dsyevd scales D first where its largest entry is not 0 and outside
# [2^-485, 2^485]: 2^-485 is sqrt(safe minimum / precision) in float64
_SCALE_MIN, _SCALE_MAX = 2.0 ** -485, 2.0 ** 485


def _eigh(d: np.ndarray, ws: Workspace | None) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(d)`` for an exactly symmetric ``d``.  With ``ws``,
    ``dsyevd``'s three stages run on ``d`` itself, called as dsyevd calls
    them, so with eigh's bits: the eigenvalues and eigenvectors are left
    in ``ws``, and ``d`` is restored bit for bit, also when a stage fails.
    eigh solves instead without ``ws``, where LAPACK is not found, where
    ``d`` is not a writable C-ordered float array, and where dsyevd would
    scale ``d`` first, so that ``d`` is never written then.  Fault tests
    patch this."""
    lapack = _blas.lapack()
    if ws is None or lapack is None:
        return np.linalg.eigh(d)
    if d.shape != ws.z.shape:
        raise ValueError(f"a workspace for {ws.z.shape} cannot solve {d.shape}")
    if not (d.flags.c_contiguous and d.flags.writeable and d.dtype == np.float64):
        return np.linalg.eigh(d)
    top = max(d.max(), -d.min())  # dsyevd's dlansy('M'): NaN where one is
    if 0.0 < top < _SCALE_MIN or top > _SCALE_MAX:
        return np.linalg.eigh(d)
    ws.a.value = d.ctypes.data
    diagonal = d.reshape(-1)[::len(d) + 1]
    ws.diag[...] = diagonal
    try:
        for name, stage, args in zip(_blas.STAGES, lapack, ws.stages):
            stage(*args)
            if ws.info.value:
                raise np.linalg.LinAlgError(f"LAPACK d{name} gave info {ws.info.value}")
    finally:
        _restore(d, ws.block, ws.upper)
        diagonal[...] = ws.diag
    return ws.w, ws.z.T


def _restore(d: np.ndarray, block: np.ndarray, upper: np.ndarray) -> None:
    """Rebuild the strict upper triangle of ``d`` from its strict lower
    one, which LAPACK never writes, a block of rows at a time through
    ``block``: no N x N temporary."""
    n = len(d)
    rows = len(block)
    for r in range(0, n, rows):
        c = min(rows, n - r)
        mirror = block[:c, :n - r]
        np.copyto(mirror, d[r:, r:r + c].T)
        np.copyto(d[r:r + c, r:], mirror, where=upper[:c, :n - r])


def eigendecompose(d: LagCorrMatrix, out: Workspace | None = None) -> EigenSystem:
    """Solve the symmetric eigenproblem for one lagged correlation matrix.

    Ascending eigenvalues whose consecutive gaps are at most 1e-8 times the
    Frobenius norm chain into a degenerate cluster.  Rounding picks the
    eigenvectors within a cluster's span, so each member of a cluster of
    m >= 2 gets the IPR of the span rather than of its own vector: the
    expected IPR of a uniformly random unit vector in the span,
    ``3 * sum_i P_ii**2 / (m * (m + 2))`` with ``P`` the projector onto it.
    A singleton's IPR is that of its vector, ``sum_i u_i**4``.

    With ``out``, a ``Workspace(N)``, the solve and its checks run in its
    buffers and, where numpy's LAPACK is found, in ``d.values`` itself,
    which holds its bytes again on return (see ``_eigh``): no N x N
    temporary is made, and the result's eigenvalues and eigenvectors are
    views into ``out``.  Without ``out``, ``np.linalg.eigh`` solves D.

    Raises ConvergenceFailure, naming the lag, if the solver fails, the
    residual ``||D u_k - lambda_k u_k||`` exceeds 1e-10 times the Frobenius
    norm, the eigenvalues miss the trace, or the result fails EigenSystem's
    sort, unit-norm or orthogonality checks.
    """
    try:
        vals, vecs = _eigh(d.values, out)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed at lag {d.lag}: {exc}") from exc
    n = vals.shape[0]
    rows = min(n, max(1, _BLOCK_FLOATS // n))
    if out is None:
        square, block = np.empty((n, n)), np.empty((rows, n))
    else:
        square, block = out.scratch, out.block

    # row k of ``each`` is eigenvector k, with unit stride where the solve
    # left it in ``out``
    each = vecs.T
    # deterministic sign: largest-magnitude component positive
    lead = np.argmax(np.abs(each, out=square), axis=1)
    each *= np.copysign(1.0, each[np.arange(n), lead])[:, None]

    # row norms of U^T D - diag(vals) U^T, the residuals D u - lambda u
    # transposed, as D is symmetric, built in place in U^T D
    residual = np.matmul(each, d.values, out=square)
    for r in range(0, n, rows):
        residual[r:r + rows] -= np.multiply(each[r:r + rows], vals[r:r + rows, None],
                                            out=block[:n - r])
    worst = math.sqrt(np.einsum("ij,ij->i", residual, residual).max())
    flat = d.values.ravel(order="K")
    frob = math.sqrt(flat.dot(flat))  # np.linalg.norm(d.values), bit for bit
    if not worst <= _RESIDUAL_FACTOR * frob:  # NaN fails too
        raise ConvergenceFailure(
            f"eigen residual {worst:.3e} exceeds {_RESIDUAL_FACTOR:.0e} * ||D||_F "
            f"at lag {d.lag}"
        )
    if abs(float(vals.sum()) - d.trace) > 1e-8 * n:
        raise ConvergenceFailure(
            f"eigenvalue sum deviates from trace at lag {d.lag}"
        )

    iprs = _column_iprs(vecs, out=square)
    _cluster_iprs(vals, vecs, iprs, _CLUSTER_GAP * frob)
    try:
        return EigenSystem(eigenvalues=vals, eigenvectors=vecs, iprs=iprs)
    except ValueError as exc:
        raise ConvergenceFailure(f"bad eigen system at lag {d.lag}: {exc}") from exc


def _column_iprs(vecs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of fourth powers down each column, from squares made in C order
    (in ``out`` if given): the sums then run as for ``np.linalg.eigh``'s
    C-order eigenvectors, whatever the layout of ``vecs``."""
    sq = np.multiply(vecs, vecs, out=out, order="C")
    return np.einsum("ij,ij->j", sq, sq)


def _cluster_iprs(vals: np.ndarray, vecs: np.ndarray, iprs: np.ndarray,
                  gap: float) -> None:
    """Overwrite, in ``iprs``, each member of a run of ascending eigenvalues
    with consecutive gaps at most ``gap`` by the IPR of the run's span.
    ``P_ii = sum_{k in run} U_ik**2`` depends on the span only."""
    close = (vals[1:] - vals[:-1] <= gap).nonzero()[0]
    if not close.size:
        return
    # a run of close gaps i..j joins positions i..j+1
    breaks = close[1:] - close[:-1] > 1
    starts = close[np.concatenate(([True], breaks))]
    ends = close[np.concatenate((breaks, [True]))] + 2
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        # rows of unit stride, as in np.linalg.eigh's C-order eigenvectors:
        # the sums run the same way for any layout of ``vecs``
        span = np.ascontiguousarray(vecs[:, lo:hi])
        p = np.einsum("ik,ik->i", span, span)
        m = hi - lo
        iprs[lo:hi] = 3.0 * float(p @ p) / (m * (m + 2))


def ipr(vector: np.ndarray) -> float:
    """Inverse participation ratio of a unit vector: sum of fourth powers.

    1/N means the vector is spread evenly over all N components, 1 means a
    single component carries everything.
    """
    v = np.asarray(vector, dtype=float)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NotNormalized(f"vector norm is {norm!r}, expected 1")
    return float(_column_iprs(v.reshape(-1, 1))[0])


def rmt_bounds(n: int, length: int) -> RmtBounds:
    """Marchenko-Pastur band (1 +- 1/sqrt(q))^2 with q = length / n, where
    length is the number of returns per series."""
    if n < 1:
        raise ValueError("n must be positive")
    if length <= n:
        raise DegenerateAspect(
            f"effective length {length} must exceed dimension {n}"
        )
    q = length / n
    spread = 1.0 / np.sqrt(q)
    return RmtBounds(
        lambda_minus=float((1.0 - spread) ** 2),
        lambda_plus=float((1.0 + spread) ** 2),
        q=float(q),
    )


def segment(eigenvalues: np.ndarray, bounds: RmtBounds) -> SpectrumSegmentation:
    """Split eigenvalue indices by strict comparison against the band.

    Values exactly on a boundary count as random (deviation must be strict
    to be flagged).
    """
    vals = np.asarray(eigenvalues, dtype=float)
    left = np.flatnonzero(vals < bounds.lambda_minus)
    right = np.flatnonzero(vals > bounds.lambda_plus)
    random = np.flatnonzero(
        (vals >= bounds.lambda_minus) & (vals <= bounds.lambda_plus)
    )
    return SpectrumSegmentation(
        left=tuple(left), random=tuple(random), right=tuple(right)
    )
