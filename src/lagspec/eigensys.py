"""Eigen-decomposition of lagged correlation matrices, IPRs, and the
left/random/right segmentation of the spectrum against Marchenko-Pastur
bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateAspect, NotNormalized
from .lagcorr import LagCorrMatrix

_RESIDUAL_FACTOR = 1e-10  # max ||D u - lambda u|| allowed, relative to ||D||_F
_NORM_TOL = 1e-8
_ORTHO_TOL = 1e-8
_RESIDUAL_ROWS = 64  # rows of U diag(vals) formed at a time
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
        gram = vecs.T @ vecs
        if np.any(np.abs(np.diag(gram) - 1.0) > 2 * _NORM_TOL):
            raise ValueError("eigenvectors must be unit norm")
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


def eigendecompose(d: LagCorrMatrix) -> EigenSystem:
    """Solve the symmetric eigenproblem for one lagged correlation matrix.

    Ascending eigenvalues whose consecutive gaps are at most 1e-8 times the
    Frobenius norm chain into a degenerate cluster.  Rounding picks the
    eigenvectors within a cluster's span, so each member of a cluster of
    m >= 2 gets the IPR of the span rather than of its own vector: the
    expected IPR of a uniformly random unit vector in the span,
    ``3 * sum_i P_ii**2 / (m * (m + 2))`` with ``P`` the projector onto it.
    A singleton's IPR is that of its vector, ``sum_i u_i**4``.

    Raises ConvergenceFailure, naming the lag, if the solver fails, the
    residual ``||D u_k - lambda_k u_k||`` exceeds 1e-10 times the Frobenius
    norm, the eigenvalues miss the trace, or the result fails EigenSystem's
    sort, unit-norm or orthogonality checks.
    """
    try:
        vals, vecs = np.linalg.eigh(d.values)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed at lag {d.lag}: {exc}") from exc

    # deterministic sign: largest-magnitude component positive
    n = vals.shape[0]
    # |vecs| laid out transposed: argmax along a strided axis copies it
    lead = np.argmax(np.abs(vecs.T, order="C"), axis=1)
    signs = np.sign(vecs[lead, np.arange(n)])
    signs[signs == 0.0] = 1.0
    vecs *= signs

    # column norms of D U - U diag(vals), built in place in D U
    residual = d.values @ vecs
    for r in range(0, n, _RESIDUAL_ROWS):
        residual[r:r + _RESIDUAL_ROWS] -= vecs[r:r + _RESIDUAL_ROWS] * vals
    residual *= residual
    worst = float(np.sqrt(np.max(residual.sum(axis=0))))
    del residual
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

    iprs = _column_iprs(vecs)
    _cluster_iprs(vals, vecs, iprs, _CLUSTER_GAP * frob)
    try:
        return EigenSystem(eigenvalues=vals, eigenvectors=vecs, iprs=iprs)
    except ValueError as exc:
        raise ConvergenceFailure(f"bad eigen system at lag {d.lag}: {exc}") from exc


def _column_iprs(vecs: np.ndarray) -> np.ndarray:
    """Sum of fourth powers down each column."""
    sq = vecs * vecs
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
        span = vecs[:, lo:hi]
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
