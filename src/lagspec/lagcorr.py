"""Symmetrized time-lagged correlation matrices of normalized return series.

For a lag ``tau`` the matrix entry (i, j) averages
``returns[i, t] * returns[j, t + tau]`` together with the transposed product
over ``t = 0 .. L - tau - 1`` and divides by ``2 * (L - tau)``.  Summing only
over the overlap and dividing by the effective window keeps the estimate
unbiased at every lag; the distinction from dividing by the full record is
O(tau/L).  Symmetrization restricts eigenvalues and eigenvectors to real
values.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import CorrelationOutOfRange, LagTooLarge, ParseError
from .ingest import ReturnMatrix

_ENTRY_TOL = 1e-9
_DIAG_TOL = 1e-10


@dataclass(frozen=True)
class LagCorrMatrix:
    """Symmetric N x N lagged correlation matrix for a single lag."""

    lag: int
    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.n, self.n):
            raise ParseError(f"values must be {self.n} x {self.n}")
        if self.lag < 0:
            raise ValueError("lag must be non-negative")
        if not np.array_equal(values, values.T):
            raise ValueError("lagged correlation matrix must be exactly symmetric")
        if np.any(np.abs(values) > 1.0 + _ENTRY_TOL):
            raise CorrelationOutOfRange(
                f"correlation entries outside [-1, 1] at lag {self.lag}"
            )
        if self.lag == 0 and np.any(np.abs(np.diag(values) - 1.0) > _DIAG_TOL):
            raise ValueError("equal-time diagonal must be 1")

    @property
    def trace(self) -> float:
        return float(np.trace(self.values))


def lag_corr(g: ReturnMatrix, lag: int) -> LagCorrMatrix:
    """Build the symmetrized lagged correlation matrix at integer lag >= 0.

    Requires ``lag <= L/2`` so the effective window keeps at least L/2
    samples.  Symmetry is exact: entry (i, j) is ``cross[i, j] + cross[j, i]``
    and entry (j, i) the same two terms added the other way round, and IEEE
    addition commutes.
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
    cross = head @ tail.T  # cross[i, j] = sum_t g_i(t) g_j(t + lag)
    values = (cross + cross.T) / (2.0 * window)
    return LagCorrMatrix(lag=lag, n=n, values=values)


def equal_time_corr(g: ReturnMatrix) -> LagCorrMatrix:
    """The lag-0 case: plain correlation matrix of the normalized returns."""
    return lag_corr(g, 0)


def write_matrix_csv(matrix: LagCorrMatrix, path: Union[str, Path]) -> None:
    """Dump the full N x N matrix as CSV with 17-significant-digit floats."""
    np.savetxt(path, matrix.values, fmt="%.17g", delimiter=",")
