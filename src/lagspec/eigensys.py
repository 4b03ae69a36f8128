"""Eigen-decomposition of lagged correlation matrices, IPRs, and the
left/random/right segmentation of the spectrum against Marchenko-Pastur
bounds.
"""
from __future__ import annotations

import ctypes
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
        if np.any(np.diff(vals) < 0.0):
            raise ValueError("eigenvalues must be sorted ascending")
        if np.any(np.abs(np.einsum("ij,ij->j", vecs, vecs) - 1.0) > 2 * _NORM_TOL):
            raise ValueError("eigenvectors must be unit norm")
        # the upper triangle of V^T V a block of rows at a time, less its
        # diagonal: no N x N temporary, and half the flops of the full product
        rows = max(1, _BLOCK_FLOATS // n)
        block = np.empty(min(rows, n) * n)
        for r in range(0, n, rows):
            left = vecs[:, r:r + rows].T
            gram = np.matmul(left, vecs[:, r:], out=block[:len(left) * (n - r)].reshape(-1, n - r))
            np.fill_diagonal(gram, 0.0)
            if np.any(np.abs(gram, out=gram) > _ORTHO_TOL):
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
    at a time: the copy of D that LAPACK overwrites with the eigenvectors,
    one per row, the eigenvalues, and LAPACK's work arrays at the sizes of
    a workspace query, ``work`` holding the checks' scratch after the solve."""

    def __init__(self, n: int) -> None:
        self.a, self.w, self.info = np.empty((n, n)), np.empty(n), ctypes.c_int64()
        self.work, self.iwork = np.ones(1), np.ones(1, dtype=np.int64)
        sizes = [ctypes.c_int64(v) for v in (n, max(n, 1), -1, -1)]

        def args() -> tuple:
            """dsyevd's arguments and gfortran's string lengths: JOBZ = 'V', UPLO
            = 'L' of ``a`` as LAPACK sees it, ``a`` transposed, which has the
            same bits for an exactly symmetric matrix."""
            n_, lda, lwork, liwork, info = map(ctypes.byref, (*sizes, self.info))
            a, w, work, iwork = (ctypes.c_void_p(x.ctypes.data)
                                 for x in (self.a, self.w, self.work, self.iwork))
            return (b"V", b"L", n_, a, lda, w, work, lwork, iwork, liwork, info,
                    ctypes.c_size_t(1), ctypes.c_size_t(1))

        if _blas.syevd() is not None:  # the workspace query
            _blas.syevd()(*args())
        # the checks' scratch, 2 N^2 floats at most, fits in LAPACK's 2 N^2 +
        # 6 N + 1 but for N < 2 and where LAPACK is not found
        sizes[2].value = max(int(self.work[0]), 2 * n * n)
        sizes[3].value = int(self.iwork[0])
        self.work = np.empty(sizes[2].value)
        self.iwork = np.empty(sizes[3].value, dtype=np.int64)
        self.args = args()


def _eigh(d: np.ndarray, ws: Workspace | None) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(d)`` for a symmetric ``d``.  With ``ws``, LAPACK's
    ``dsyevd`` solves a copy of ``d`` there, called as eigh calls it, so
    with eigh's bits; eigh runs without ``ws`` or where that is not found.
    Fault tests patch this."""
    lapack = _blas.syevd()
    if ws is None or lapack is None:
        return np.linalg.eigh(d)
    ws.a[...] = d
    lapack(*ws.args)
    if ws.info.value:
        raise np.linalg.LinAlgError(f"Eigenvalues did not converge (info {ws.info.value})")
    return ws.w, ws.a.T


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
    buffers, making no N x N temporary, and where numpy's LAPACK is found
    the result's eigenvalues and eigenvectors are views into it.  Without
    ``out``, ``np.linalg.eigh`` solves D.

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
    scratch = np.empty(n * (n + rows)) if out is None else out.work
    square = scratch[:n * n].reshape(n, n)
    block = scratch[n * n:n * (n + rows)].reshape(rows, n)

    # deterministic sign: largest-magnitude component positive
    # |vecs| laid out transposed: argmax along a strided axis copies it
    lead = np.argmax(np.abs(vecs.T, out=square), axis=1)
    signs = np.sign(vecs[lead, np.arange(n)])
    signs[signs == 0.0] = 1.0
    vecs *= signs

    # column norms of D U - U diag(vals), built in place in D U
    residual = np.matmul(d.values, vecs, out=square)
    for r in range(0, n, rows):
        residual[r:r + rows] -= np.multiply(vecs[r:r + rows], vals, out=block[:n - r])
    residual *= residual
    worst = float(np.sqrt(np.max(residual.sum(axis=0))))
    frob = float(np.linalg.norm(d.values))
    if worst > _RESIDUAL_FACTOR * frob:
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
    close = np.flatnonzero(np.diff(vals) <= gap)
    if not close.size:
        return
    # a run of close gaps i..j joins positions i..j+1
    starts = close[np.r_[True, np.diff(close) > 1]]
    ends = close[np.r_[np.diff(close) > 1, True]] + 2
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
