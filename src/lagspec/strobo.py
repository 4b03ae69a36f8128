"""Lag sweep of eigenvalues and IPRs, their trajectories, and their power
spectra.

The sweep solves lags 0..tau_max, several at once or each beside the build
of the next where BLAS threads allow (see ``_split``), and keeps two tables,
eigenvalues and IPRs with one row per lag, plus the equal-time matrix.  It
can sweep a record and an injected copy of it in one pass, building the
copy's lags from the record's on the direct path.
A trajectory is one column of a table over lags 1..tau_max, a plain 1-D
array: the equal-time row carries the trivial autocorrelation spike and is
excluded from spectra, though it stays available in the tables.  Eigenvalues
are identified by sorted position, not by eigenvector continuity.
"""
from __future__ import annotations

import math
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterator, Literal, Sequence, Union, overload

import numpy as np

from . import _blas, _threads
from .eigensys import eigendecompose
from .errors import (
    IndexOutOfRange,
    LagTooLarge,
    LengthMismatch,
    TooShort,
)
from .ingest import ReturnMatrix, _blocks
from .lagcorr import (
    LagCorrMatrix,
    block_lag_corrs,
    lag_corr,
    patch_rows,
    uses_block_path,
)

TrajectoryKind = Literal["eigenvalue", "ipr"]

_KINDS = ("eigenvalue", "ipr")
_DEFAULT_PROMINENCE_FACTOR = 5.0
# compare_spectra: enhanced at or above, suppressed at or below
_ENHANCED_RATIO = 2.0
_SUPPRESSED_RATIO = 0.5
# the fewest trajectory samples (lags 1..tau_max) a power spectrum accepts
MIN_SPECTRUM_LEN = 8

ENHANCED = "enhanced"
SUPPRESSED = "suppressed"
UNCHANGED = "unchanged"


@dataclass(frozen=True)
class StroboscopicSequence:
    """Eigenvalue and IPR tables for every lag 0..tau_max of one return
    matrix, plus the equal-time matrix (``equal_time_matrix``).

    Row k of ``eigenvalues`` and ``iprs`` holds lag k; column j holds the
    j-th ascending position.
    """

    eigenvalues: np.ndarray
    iprs: np.ndarray
    equal_time_matrix: LagCorrMatrix

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        iprs = np.asarray(self.iprs, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "iprs", iprs)
        if vals.ndim != 2 or not vals.size or iprs.shape != vals.shape:
            raise ValueError("eigenvalues and iprs must be (tau_max+1, n) tables")
        matrix = self.equal_time_matrix
        if matrix.lag != 0 or matrix.n != vals.shape[1]:
            raise ValueError("equal_time_matrix must be the lag-0 matrix of dimension n")

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[1]

    @property
    def tau_max(self) -> int:
        return self.eigenvalues.shape[0] - 1


@dataclass(frozen=True)
class SpectralPeak:
    frequency: float  # cycles per lag step
    power: float
    prominence: float


@dataclass(frozen=True)
class PowerSpectrum:
    """Squared-magnitude DFT of a trajectory with detected peaks.

    ``frequencies`` covers 0..0.5 cycles per lag step; ``peaks`` holds the
    local maxima whose prominence exceeds five times the median
    nonzero-frequency power, sorted by power descending.
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


@overload
def sweep(g: ReturnMatrix, tau_max: int) -> StroboscopicSequence: ...


@overload
def sweep(
    g: ReturnMatrix, tau_max: int, *, after: ReturnMatrix
) -> tuple[StroboscopicSequence, StroboscopicSequence]: ...


def sweep(
    g: ReturnMatrix, tau_max: int, *, after: ReturnMatrix | None = None
) -> StroboscopicSequence | tuple[StroboscopicSequence, StroboscopicSequence]:
    """Eigen-decompose the lagged correlation matrix at every lag 0..tau_max.

    Lag 0 is ``lag_corr(g, 0)``.  Lags 1..tau_max come from one ``lag_corr``
    per lag, or, for a long record (``uses_block_path``, decided from N and
    L only), from ``block_lag_corrs``.  Every lag passes all of
    ``LagCorrMatrix``'s and ``eigendecompose``'s checks and leaves one row
    of each table; only lag 0 keeps its matrix, as ``equal_time_matrix``.
    No eigenvectors are kept.

    With ``after``, a record of g's shape (ValueError otherwise), both are
    swept and the pair (g's sequence, after's) is returned; g's is the one
    ``sweep(g, tau_max)`` gives, bit for bit.  On the block path the two
    are swept one after the other.  On the direct path they are swept in
    one pass.  The series whose returns differ are found from the data, k
    of N.  Where 2k < N, after's matrix of lag τ is g's with those k rows
    and columns rebuilt (``patch_rows``), 2k/N of a full GEMM's flops; it
    differs from a fresh ``lag_corr(after, τ)`` by rounding only and holds
    g's entries, bit for bit, elsewhere.  Where 2k ≥ N it is
    ``lag_corr(after, τ)``.

    The lags are spread over the OpenBLAS threads counted at entry, and
    the count is restored on exit: ``_split`` chooses the workers and the
    threads per lag, ``_solve_rows`` the order of builds and solves.  On
    the block path the kernel splits its work over the same W threads,
    and each solver gets its own lag's matrix from it (``_in_lag_order``).
    Each lag's arithmetic depends on its thread count only, never on which
    thread builds or solves it.  The error raised is that of the lowest
    failing lag, as in a serial sweep; a failure in g, at any lag, is
    raised ahead of one in after, as if g were swept first.
    """
    tau_max = int(tau_max)
    if tau_max < 0:
        raise ValueError("tau_max must be non-negative")
    n, length = g.returns.shape
    if after is not None and after.returns.shape != g.returns.shape:
        raise ValueError(
            f"records differ in shape: {g.returns.shape} and {after.returns.shape}"
        )
    if tau_max > length // 2:
        raise LagTooLarge(f"tau_max {tau_max} exceeds half the record (L={length})")
    block_path = uses_block_path(n, length)
    rows = None
    if after is not None:
        if block_path:
            return sweep(g, tau_max), sweep(after, tau_max)
        differs = np.zeros(n, dtype=bool)
        for span in _blocks(n, length):  # no N x L temporary
            differs[span] = (g.returns[span] != after.returns[span]).any(axis=1)
        changed = np.flatnonzero(differs)
        # rebuilding k rows costs 4kLN flops; a full lag, 2N^2 L
        if 2 * len(changed) < n:
            rows = changed
    records = 1 if after is None else 2
    workers, helper, blas_threads = _split(g, tau_max, records)
    eigenvalues = np.empty((records, tau_max + 1, n))
    iprs = np.empty_like(eigenvalues)
    block = _in_lag_order(block_lag_corrs(g, tau_max, workers)) if block_path else None

    def matrices(k: int, out: np.ndarray | None = None) -> Iterator[LagCorrMatrix]:
        """Lag k's matrix of each record, in record order, each made when
        it is asked for.  ``out``, if given, holds one N x N slot per
        record; the lag-0 and block-path matrices of g ignore it."""
        out = (None, None) if out is None else out
        if k == 0:
            first = equal_time_matrix
        elif block is not None:
            first = block(k)
        else:
            first = lag_corr(g, k, out=out[0])
        yield first
        if after is not None and rows is None:
            yield lag_corr(after, k, out=out[1])
        elif after is not None:
            yield patch_rows(first, after, rows, out=out[1])

    slots = _unpooled((2, records, n, n)) if helper else None
    with _blas.threads(blas_threads) if workers > 1 or helper else nullcontext():
        equal_time_matrix = lag_corr(g, 0)
        _solve_rows(matrices, eigenvalues, iprs, workers, slots)
        # after's lag-0 matrix was not kept: it is made again, at the
        # threads it was solved at
        equal_time = list(matrices(0))
    sequences = tuple(
        StroboscopicSequence(eigenvalues=vals, iprs=table, equal_time_matrix=matrix)
        for vals, table, matrix in zip(eigenvalues, iprs, equal_time)
    )
    return sequences[0] if after is None else sequences


def _split(
    g: ReturnMatrix, tau_max: int, records: int = 1
) -> tuple[int, bool, int | None]:
    """How ``sweep`` spreads lags 0..tau_max over the thread budget T, the
    OpenBLAS thread count: (W, helper, BLAS threads per lag), the threads
    per lag being None where T cannot be read.

    Either W threads solve a lag each at T // W BLAS threads, or, where
    ``helper``, W = 1 and a helper thread builds the next lag while the
    calling thread solves this one, both at T // 2.  W is at most T and
    tau_max + 1, and the lags in flight beyond the first may hold at most
    half the bytes of g's returns, at about 5 N^2 floats each (the matrix,
    ``eigh``'s copy and workspace, the eigenvectors) and one N^2 more per
    further record.  A second record may lower W, down to one solver
    beside a helper, but never the T // W threads of a lone sweep of g,
    so that g's arithmetic stays the same.

    So a wide record on the direct path (L < 10 N, such as 512 x 4096)
    takes the helper where T >= 2 and tau_max >= 1: ``eigh`` gains little
    from a second thread, the GEMM much.  Only the calling thread solves
    then, as each thread that runs ``eigh`` keeps the solver's freed
    buffers in its own malloc arena, about 10 MB at 512 x 4096.  A record
    on the block path has L > 130 N, so memory caps its W at 14 or more:
    it takes W = min(T, tau_max + 1) at T // W threads up to there.  Its
    kernel builds the lags in batches and splits each batch over the same
    W threads, so the worker that reaches the kernel runs it on all of
    them while the others solve or wait.  Where numpy's bundled OpenBLAS
    is not found, W = 1, no helper runs and nothing is pinned."""
    total = _blas.thread_count()
    if total is None:
        return 1, False, total
    n = g.returns.shape[0]
    budget = g.returns.nbytes // 2
    workers = min(total, tau_max + 1, 1 + budget // (40 * n * n))
    threads = total // workers
    # only a lone W of 2 can fall to 1, whose threads are T // 2 as well
    workers = min(workers, 1 + budget // (8 * (4 + records) * n * n))
    if workers == 1 and total >= 2 and tau_max >= 1:
        return 1, True, total // 2
    return workers, False, threads


def _in_lag_order(lags: Iterator[LagCorrMatrix]) -> Callable[[int], LagCorrMatrix]:
    """A function that gives lag k's matrix from ``lags``, which yields
    the lags in order from the lowest, to whichever thread asks for lag k,
    in whatever order the threads come.  Each lag may be asked for once.
    The thread that comes first advances ``lags`` up to its lag under a
    lock, and keeps the lags it passes for their own threads.  Once
    ``lags`` raises, at the lowest lag not yet yielded, every lag not yet
    yielded raises that error: the failing lag's own thread raises it too,
    whichever thread met it first."""
    lock = threading.Lock()
    kept: dict[int, LagCorrMatrix] = {}
    failure: Exception | None = None

    def take(k: int) -> LagCorrMatrix:
        nonlocal failure
        with lock:
            while k not in kept:
                if failure is not None:
                    raise failure
                try:
                    matrix = next(lags)
                except Exception as exc:
                    failure = exc
                    raise
                kept[matrix.lag] = matrix
            return kept.pop(k)

    return take


def _unpooled(shape: tuple[int, ...]) -> np.ndarray:
    """A float array in an anonymous memory map of its own, whose pages go
    back to the OS when the array is freed.  Pages freed to the malloc heap
    stay resident, and what runs after the sweep adds to them: peak RSS of
    a 512 x 4096 ``analyze`` was 75.1 MB with the slots on the heap and
    73.7 MB with them here."""
    import mmap  # the helper path alone needs it

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=float).reshape(shape)


def _solve_rows(
    matrices: Callable[..., Iterator[LagCorrMatrix]],
    eigenvalues: np.ndarray,
    iprs: np.ndarray,
    workers: int,
    slots: np.ndarray | None = None,
) -> None:
    """Solve the matrices of ``matrices(k)``, one per record, into row k
    of that record's tables, for every row k: ``eigenvalues[r]`` and
    ``iprs[r]`` are record r's, and ``matrices(k, out)`` makes lag k's
    matrices in record order as they are asked for.

    ``workers`` threads, the calling one included, take lags from a
    counter under a lock, in order.  Without ``slots``, each builds and
    solves its lag's matrices outside the lock, one record after the
    other.  With ``slots``, a (2, records, N, N) array, ``workers`` is 1:
    a helper thread builds all of lag k's matrices into ``slots[k % 2]``
    once lag k - 1 is taken, which is once lag k - 2 is solved, and the
    calling thread waits for that build and solves it.

    A failure, in building or solving, ends that record's work at higher
    lags, and a failure in the first record ends all taking.  Once the
    lags in flight are done, the failure of the lowest record, at its
    lowest lag, is raised.  Every lag below it was solved for that record
    and those before it, so that is the failure that sweeping the records
    one after the other in serial loops meets first.
    """
    records, lags = eigenvalues.shape[:2]
    ready = threading.Condition()
    # (record, lag): its failure
    failures: dict[tuple[int, int], Exception] = {}
    taken = 0
    done = False
    # helper path: built[k] is the list of lag k's matrices, perhaps ending
    # in the failure that stopped its building
    built: dict[int, list] = {}

    def needed(k: int) -> int:
        """How many records, from the first, lag k is still to be solved
        for: none from one that failed at lag k or below.  Under the lock."""
        return min([records, *(r for r, lag in failures if lag <= k)])

    def solve(k: int, made: Iterator) -> None:
        """Solve lag k's matrices into row k of their records' tables, in
        record order, until one fails or lag k is no longer needed.  The
        last matrix and eigensystem die on return, before the next lag is
        built: a 512 x 512 eigensystem kept through the next solve raised
        a 512 x 4096 analyze's peak RSS by 1.8 MB."""
        for r in range(records):
            with ready:
                if r >= needed(k):
                    return
            try:
                matrix = next(made)
                if isinstance(matrix, Exception):
                    raise matrix
                system = eigendecompose(matrix)
            except Exception as exc:  # raised in the caller below
                with ready:
                    failures[r, k] = exc
                return
            eigenvalues[r, k], iprs[r, k] = system.eigenvalues, system.iprs

    def work() -> None:
        nonlocal taken
        while True:
            with ready:
                k = taken
                if k == lags or not needed(k):
                    return
                taken += 1
                if slots is None:
                    made = matrices(k)
                else:
                    ready.notify()
                    ready.wait_for(lambda: k in built)
                    made = iter(built.pop(k))
            solve(k, made)

    def build_ahead() -> None:
        for k in range(lags):
            with ready:
                # lag k - 1 is taken, so lag k - 2 has left slot k % 2
                ready.wait_for(lambda: taken >= k or done)
                count = 0 if done else needed(k)
            if not count:
                return
            made = []
            try:
                made.extend(islice(matrices(k, slots[k % 2]), count))
            except Exception as exc:  # raised by the caller at lag k
                made.append(exc)
            with ready:
                built[k] = made
                ready.notify()
            if isinstance(made[0], Exception):
                return

    def first() -> None:
        nonlocal done
        try:
            work()
        finally:
            with ready:
                done = True
                ready.notify()

    _threads.run([first, *([work] * (workers - 1) if slots is None else [build_ahead])])
    if failures:
        raise failures[min(failures)]


def default_watch(n: int) -> tuple[int, ...]:
    """Default watched positions: 1, N/2 and N-1 of the ascending spectrum."""
    return tuple(sorted({1, n // 2, n - 1}))


def check_position(position: int, n: int) -> int:
    """``position`` as an int, or IndexOutOfRange if it is outside 0..n-1."""
    position = int(position)
    if not 0 <= position < n:
        raise IndexOutOfRange(f"position {position} outside 0..{n - 1}")
    return position


def trajectory(
    seq: StroboscopicSequence, kind: TrajectoryKind, position: int
) -> np.ndarray:
    """The lag trajectory of one sorted spectral position: column
    ``position`` of the eigenvalue or IPR table over lags 1..tau_max.

    The lowest position shows secular drift in lag and is excluded from
    default period reports, but stays extractable.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    position = check_position(position, seq.n)
    table = seq.eigenvalues if kind == "eigenvalue" else seq.iprs
    return table[1:, position]


def power_spectrum(
    values: np.ndarray, detrend: Literal["none", "mean"] = "mean"
) -> PowerSpectrum:
    """Squared-magnitude DFT of a trajectory with peak detection.

    No zero padding: frequency resolution is 1/len(values) cycles per lag
    step.  The transform is rectangular (no window), a plain FFT of the
    trajectory.
    """
    values = np.asarray(values, dtype=float)
    m = values.shape[0]
    if m < MIN_SPECTRUM_LEN:
        raise TooShort(
            f"trajectory has {m} samples, need at least {MIN_SPECTRUM_LEN}"
        )
    if detrend not in ("none", "mean"):
        raise ValueError(f"detrend must be 'none' or 'mean', got {detrend!r}")
    x = values - values.mean() if detrend == "mean" else values
    transform = np.fft.rfft(x)
    power = transform.real**2 + transform.imag**2
    frequencies = np.fft.rfftfreq(m)
    peaks = _detect_peaks(frequencies, power)
    return PowerSpectrum(frequencies=frequencies, power=power, peaks=peaks)


def _detect_peaks(
    frequencies: np.ndarray, power: np.ndarray
) -> tuple[SpectralPeak, ...]:
    """Local maxima whose prominence exceeds ``_DEFAULT_PROMINENCE_FACTOR``
    times the median nonzero-frequency power.  The zero-frequency bin is never a peak
    because endpoints are not local maxima."""
    indices, prominences = _local_maxima(power)
    if indices.size == 0:
        return ()
    floor = float(np.median(power[1:]))
    keep = prominences > _DEFAULT_PROMINENCE_FACTOR * floor
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
) -> ResonanceReport:
    """Power ratio after/before within one bin of each probe period.

    A period is classified enhanced when the ratio reaches 2, suppressed at
    or below 0.5, unchanged otherwise.
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
        if ratio >= _ENHANCED_RATIO:
            label = ENHANCED
        elif ratio <= _SUPPRESSED_RATIO:
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


def write_trajectory_csv(values: np.ndarray, path: Union[str, Path]) -> None:
    """CSV export: header ``tau,value``, one row per lag 1..tau_max."""
    with open(path, "w") as handle:
        handle.write("tau,value\n")
        for tau, value in enumerate(values, start=1):
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
