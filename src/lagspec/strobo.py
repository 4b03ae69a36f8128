"""Lag sweep of eigenvalues and IPRs, their trajectories, and their power
spectra.

The sweep solves lags 0..tau_max in order and keeps two tables, eigenvalues
and IPRs with one row per lag, plus the full equal-time EigenSystem.
Trajectories track a fixed sorted position across lags 1..tau_max: the
equal-time point carries the trivial autocorrelation spike and is excluded
from spectra, though it stays available in the sequence.  Eigenvalues are
identified by sorted position, not by eigenvector continuity.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Literal, Sequence, Union

import numpy as np

from .eigensys import EigenSystem, eigendecompose
from .errors import (
    IndexOutOfRange,
    LagTooLarge,
    LengthMismatch,
    TooShort,
)
from .ingest import ReturnMatrix
from .lagcorr import lag_corr

TrajectoryKind = Literal["eigenvalue", "ipr"]

_KINDS = ("eigenvalue", "ipr")
_DEFAULT_PROMINENCE_FACTOR = 5.0
# the fewest trajectory samples (lags 1..tau_max) a power spectrum accepts
MIN_SPECTRUM_LEN = 8

ENHANCED = "enhanced"
SUPPRESSED = "suppressed"
UNCHANGED = "unchanged"


@dataclass(frozen=True)
class StroboscopicSequence:
    """Eigenvalue and IPR tables for every lag 0..tau_max of one return
    matrix, plus the full equal-time eigen system.

    Row k of ``eigenvalues`` and ``iprs`` holds lag k; column j holds the
    j-th ascending position.
    """

    eigenvalues: np.ndarray
    iprs: np.ndarray
    equal_time: EigenSystem
    delta_t: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        iprs = np.asarray(self.iprs, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "iprs", iprs)
        if vals.ndim != 2 or not vals.size or iprs.shape != vals.shape:
            raise ValueError("eigenvalues and iprs must be (tau_max+1, n) tables")
        if self.equal_time.lag != 0 or self.equal_time.n != vals.shape[1]:
            raise ValueError("equal_time must be the lag-0 system of dimension n")

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[1]

    @property
    def tau_max(self) -> int:
        return self.eigenvalues.shape[0] - 1


@dataclass(frozen=True)
class Trajectory:
    """One eigenvalue or IPR tracked by sorted position over lags 1..tau_max."""

    kind: str
    position: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class SpectralPeak:
    frequency: float  # cycles per lag step
    power: float
    prominence: float


@dataclass(frozen=True)
class PowerSpectrum:
    """Squared-magnitude DFT of a trajectory with detected peaks.

    ``frequencies`` covers 0..0.5 cycles per lag step; ``peaks`` holds the
    local maxima whose prominence exceeds the configured multiple of the
    median nonzero-frequency power, sorted by power descending.
    """

    frequencies: np.ndarray
    power: np.ndarray
    peaks: tuple[SpectralPeak, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "frequencies", np.asarray(self.frequencies, dtype=float))
        object.__setattr__(self, "power", np.asarray(self.power, dtype=float))
        object.__setattr__(self, "peaks", tuple(self.peaks))
        if self.frequencies.shape != self.power.shape:
            raise ValueError("frequencies and power disagree in shape")
        if np.any(self.power < 0.0):
            raise ValueError("power must be non-negative")

    @property
    def bin_width(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


@dataclass(frozen=True)
class ResonanceEntry:
    period_steps: float
    before_power: float
    after_power: float
    ratio: float
    classification: str


@dataclass(frozen=True)
class ResonanceReport:
    """Per-period power ratios between an after and a before spectrum."""

    entries: tuple[ResonanceEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def entry(self, period_steps: float) -> ResonanceEntry:
        for item in self.entries:
            if abs(item.period_steps - period_steps) < 1e-9:
                return item
        raise KeyError(f"no probe at period {period_steps}")


def sweep(
    g: ReturnMatrix, tau_max: int, *, delta_t: float = 1.0
) -> StroboscopicSequence:
    """Eigen-decompose the lagged correlation matrix at every lag 0..tau_max.

    Lags are solved in order; BLAS threads are the only parallelism.  Every
    lag passes all of ``eigendecompose``'s checks; only lag 0 keeps its
    eigenvectors, as ``equal_time``.
    """
    tau_max = int(tau_max)
    if tau_max < 0:
        raise ValueError("tau_max must be non-negative")
    length = g.returns.shape[1]
    if tau_max > length // 2:
        raise LagTooLarge(f"tau_max {tau_max} exceeds half the record (L={length})")
    equal_time = eigendecompose(lag_corr(g, 0))
    eigenvalues = np.empty((tau_max + 1, g.n_series))
    iprs = np.empty_like(eigenvalues)
    eigenvalues[0], iprs[0] = equal_time.eigenvalues, equal_time.iprs
    for k in range(1, tau_max + 1):
        system = eigendecompose(lag_corr(g, k))
        eigenvalues[k], iprs[k] = system.eigenvalues, system.iprs
    return StroboscopicSequence(
        eigenvalues=eigenvalues, iprs=iprs, equal_time=equal_time, delta_t=delta_t
    )


def default_watch(n: int) -> tuple[int, ...]:
    """Default watched positions: 1, N/2 and N-1 of the ascending spectrum."""
    return tuple(sorted({1, n // 2, n - 1}))


def trajectory(
    seq: StroboscopicSequence, kind: TrajectoryKind, position: int
) -> Trajectory:
    """Extract the lag trajectory of one sorted spectral position.

    Covers lags 1..tau_max; the lowest position shows secular drift in lag
    and is excluded from default period reports, but stays extractable.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    position = int(position)
    if not 0 <= position < seq.n:
        raise IndexOutOfRange(
            f"position {position} outside 0..{seq.n - 1}"
        )
    table = seq.eigenvalues if kind == "eigenvalue" else seq.iprs
    return Trajectory(kind=kind, position=position, values=table[1:, position])


def power_spectrum(
    traj: Trajectory,
    detrend: Literal["none", "mean"] = "mean",
    *,
    taper: Literal["none", "hann"] = "none",
    prominence_factor: float = _DEFAULT_PROMINENCE_FACTOR,
) -> PowerSpectrum:
    """Squared-magnitude DFT of a trajectory with peak detection.

    No zero padding: frequency resolution is 1/len(values) cycles per lag
    step.  The default transform is rectangular (no taper), matching a plain
    FFT of the trajectory.
    """
    values = traj.values
    m = values.shape[0]
    if m < MIN_SPECTRUM_LEN:
        raise TooShort(
            f"trajectory has {m} samples, need at least {MIN_SPECTRUM_LEN}"
        )
    if detrend not in ("none", "mean"):
        raise ValueError(f"detrend must be 'none' or 'mean', got {detrend!r}")
    if taper not in ("none", "hann"):
        raise ValueError(f"taper must be 'none' or 'hann', got {taper!r}")
    x = values - values.mean() if detrend == "mean" else values
    if taper == "hann":
        x = x * np.hanning(m)
    transform = np.fft.rfft(x)
    power = transform.real**2 + transform.imag**2
    frequencies = np.fft.rfftfreq(m)
    peaks = _detect_peaks(frequencies, power, prominence_factor)
    return PowerSpectrum(frequencies=frequencies, power=power, peaks=peaks)


def _detect_peaks(
    frequencies: np.ndarray, power: np.ndarray, prominence_factor: float
) -> tuple[SpectralPeak, ...]:
    """Local maxima whose prominence exceeds prominence_factor times the
    median nonzero-frequency power.  The zero-frequency bin is never a peak
    because endpoints are not local maxima."""
    indices, prominences = _local_maxima(power)
    if indices.size == 0:
        return ()
    floor = float(np.median(power[1:]))
    keep = prominences > prominence_factor * floor
    peaks = [
        SpectralPeak(
            frequency=float(frequencies[i]),
            power=float(power[i]),
            prominence=float(p),
        )
        for i, p in zip(indices[keep], prominences[keep])
    ]
    peaks.sort(key=lambda p: (-p.power, p.frequency))
    return tuple(peaks)


def _local_maxima(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and prominences of the local maxima of a 1-D array, by the
    rules of SciPy's ``signal.find_peaks(x, prominence=0.0)``.

    A local maximum is a sample, or a run of equal samples, with a strict
    rise before it and a strict fall after it; the endpoints never qualify.
    A flat peak reports its middle index ``(left + right) // 2``.  The
    prominence is the peak's height above the higher of two minima: those
    of the samples reached walking left and walking right from the peak
    until a strictly higher sample or the edge.
    """
    values = x.tolist()
    last = len(values) - 1
    indices, prominences = [], []
    i = 1
    while i < last:
        if values[i - 1] < values[i]:
            ahead = i + 1
            while ahead < last and values[ahead] == values[i]:
                ahead += 1
            if values[ahead] < values[i]:
                peak = (i + ahead - 1) // 2
                height = values[peak]
                left = peak
                while left > 0 and values[left - 1] <= height:
                    left -= 1
                right = peak
                while right < last and values[right + 1] <= height:
                    right += 1
                base = max(min(values[left:peak + 1]), min(values[peak:right + 1]))
                indices.append(peak)
                prominences.append(height - base)
                i = ahead
        i += 1
    return np.array(indices, dtype=np.intp), np.array(prominences, dtype=float)


def characteristic_periods(
    spec: PowerSpectrum, top_n: int
) -> list[tuple[float, float]]:
    """Periods (in lag steps) of the top_n detected peaks with their powers.

    The zero-frequency bin never participates.  A flat spectrum yields an
    empty list rather than an error.
    """
    if top_n < 1:
        raise ValueError("top_n must be at least 1")
    return [(1.0 / p.frequency, p.power) for p in spec.peaks[:top_n]]


def _power_near_period(spec: PowerSpectrum, period: float) -> float:
    width = spec.bin_width
    target = 1.0 / period
    if target > spec.frequencies[-1] + width:
        raise ValueError(
            f"period {period} is below the resolvable range (Nyquist)"
        )
    center = int(round(target / width))
    lo = max(center - 1, 0)
    hi = min(center + 1, spec.power.shape[0] - 1)
    return float(np.max(spec.power[lo : hi + 1]))


def compare_spectra(
    before: PowerSpectrum,
    after: PowerSpectrum,
    probe_periods: Sequence[float],
    *,
    enhanced_ratio: float = 2.0,
    suppressed_ratio: float = 0.5,
) -> ResonanceReport:
    """Power ratio after/before within one bin of each probe period.

    A period is classified enhanced when the ratio reaches
    ``enhanced_ratio`` (default 2), suppressed at or below
    ``suppressed_ratio`` (default 0.5), unchanged otherwise.
    """
    if before.power.shape != after.power.shape:
        raise LengthMismatch(
            "spectra must come from trajectories of equal length"
        )
    entries = []
    for period in probe_periods:
        if period <= 0:
            raise ValueError(f"probe period must be positive, got {period}")
        b = _power_near_period(before, period)
        a = _power_near_period(after, period)
        if b == 0.0:
            ratio = 1.0 if a == 0.0 else float("inf")
        else:
            ratio = a / b
        if ratio >= enhanced_ratio:
            label = ENHANCED
        elif ratio <= suppressed_ratio:
            label = SUPPRESSED
        else:
            label = UNCHANGED
        entries.append(
            ResonanceEntry(
                period_steps=float(period),
                before_power=b,
                after_power=a,
                ratio=ratio,
                classification=label,
            )
        )
    return ResonanceReport(entries=tuple(entries))


def write_trajectory_csv(traj: Trajectory, path: Union[str, Path]) -> None:
    """CSV export: header ``tau,value``, one row per lag 1..tau_max."""
    with open(path, "w") as handle:
        handle.write("tau,value\n")
        for tau, value in enumerate(traj.values, start=1):
            handle.write(f"{tau},{value:.17g}\n")


def write_spectrum_csv(spec: PowerSpectrum, path: Union[str, Path]) -> None:
    """CSV export: header ``frequency,power``."""
    with open(path, "w") as handle:
        handle.write("frequency,power\n")
        for f, p in zip(spec.frequencies, spec.power):
            handle.write(f"{f:.17g},{p:.17g}\n")


def peak_report(
    spec: PowerSpectrum, *, position: int, kind: str, delta_t: float
) -> dict:
    """JSON-ready peak summary for one trajectory's spectrum."""
    return {
        "position": int(position),
        "kind": kind,
        "peaks": [
            {
                "frequency": p.frequency,
                "period_steps": 1.0 / p.frequency,
                "period_seconds": delta_t / p.frequency,
                "power": p.power,
                "prominence": p.prominence,
            }
            for p in spec.peaks
        ],
    }
