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


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues, orthonormal eigenvectors and per-vector IPRs.

    Eigenvector k is the k-th column of ``eigenvectors`` and pairs with
    ``eigenvalues[k]``; eigenvalues are ascending.  Each vector's sign is
    fixed so its largest-magnitude component is positive, which makes the
    decomposition deterministic.
    """

    lag: int
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

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


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
    try:
        return EigenSystem(lag=d.lag, eigenvalues=vals, eigenvectors=vecs, iprs=iprs)
    except ValueError as exc:
        raise ConvergenceFailure(f"bad eigen system at lag {d.lag}: {exc}") from exc


def _column_iprs(vecs: np.ndarray) -> np.ndarray:
    """Sum of fourth powers down each column."""
    sq = vecs * vecs
    return np.einsum("ij,ij->j", sq, sq)


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


def segment(eigs: EigenSystem, bounds: RmtBounds) -> SpectrumSegmentation:
    """Split eigenvalue indices by strict comparison against the band.

    Values exactly on a boundary count as random (deviation must be strict
    to be flagged).
    """
    vals = eigs.eigenvalues
    left = np.flatnonzero(vals < bounds.lambda_minus)
    right = np.flatnonzero(vals > bounds.lambda_plus)
    random = np.flatnonzero(
        (vals >= bounds.lambda_minus) & (vals <= bounds.lambda_plus)
    )
    return SpectrumSegmentation(
        left=tuple(left), random=tuple(random), right=tuple(right)
    )
