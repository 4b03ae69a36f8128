"""Lag sweep of eigenvalues and IPRs, their trajectories, and their power
spectra.

The sweep solves lags 0..tau_max, several at once where BLAS threads allow
(see ``_plan``), and keeps two tables, eigenvalues and IPRs with one row
per lag.  Each batch of lags is solved by one ``eigendecompose`` call, in
its phases (solve, checks, IPRs), which writes the batch's eigenvalues and
IPRs straight into its rows of the tables: no per-lag object is made.  It
can sweep a record and an injected copy of it in one pass, building the
copy's lags from the record's on the direct path.
A trajectory is one column of a table over lags 1..tau_max, a plain 1-D
array: the equal-time row carries the trivial autocorrelation spike and is
excluded from spectra, though it stays available in the tables.  Eigenvalues
are identified by sorted position, not by eigenvector continuity.
"""
from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Literal, Sequence, Union, overload

import numpy as np

from . import _blas, _threads
from .eigensys import Workspace, batch_size, eigendecompose
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
    matrix.

    Row k of ``eigenvalues`` and ``iprs`` holds lag k; column j holds the
    j-th ascending position.
    """

    eigenvalues: np.ndarray
    iprs: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        iprs = np.asarray(self.iprs, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "iprs", iprs)
        if vals.ndim != 2 or not vals.size or iprs.shape != vals.shape:
            raise ValueError("eigenvalues and iprs must be (tau_max+1, n) tables")

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
def sweep(
    g: ReturnMatrix, tau_max: int, *, equal_time: np.ndarray | None = None
) -> StroboscopicSequence: ...


@overload
def sweep(
    g: ReturnMatrix, tau_max: int, *, after: ReturnMatrix, equal_time: np.ndarray | None = None
) -> tuple[StroboscopicSequence, StroboscopicSequence]: ...


def sweep(
    g: ReturnMatrix, tau_max: int, *, after: ReturnMatrix | None = None,
    equal_time: np.ndarray | None = None,
) -> StroboscopicSequence | tuple[StroboscopicSequence, StroboscopicSequence]:
    """Eigen-decompose the lagged correlation matrix at every lag 0..tau_max.

    Lag 0 is ``lag_corr(g, 0)``.  Lags 1..tau_max come from one ``lag_corr``
    per lag, or, for a long record (``uses_block_path``, decided from N and
    L only), from ``block_lag_corrs``.  Every lag passes all of
    ``LagCorrMatrix``'s and ``eigendecompose``'s checks and leaves one row
    of each table, written there by the ``eigendecompose`` call of its
    batch (``into``), with the bits of ``eigendecompose(lag_corr(g, k))``
    at the same threads per call.  No matrix, eigenvector or EigenSystem
    is kept or made for the tables, but where
    ``equal_time``, an N x N float array, is given, g's lag 0, built into
    its worker's plane like every other lag, is copied into it right after
    the build, so it holds that matrix, bit for bit, on return: a caller
    that writes lag 0 needs no second build.  Every batch, lag 0's too, is
    solved in place in its planes.  The tables are the same with or
    without it.

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
    the count is restored on exit: ``_plan`` chooses the workers, solvers,
    threads per lag and lags per batch, and ``_solve_rows`` the order of
    builds and solves.
    On the block path the kernel splits its work over the same W threads,
    and is asked for g's lags in increasing order: each worker has it
    build its batch's lags into its own planes as it takes the batch.
    Each lag's arithmetic depends on its thread count only, never on which
    thread builds or solves it.  The error raised is a serial sweep's: the
    lowest failing lag's, at the first check that it fails, with each lag
    solved once; a failure in g, at any lag, is raised ahead of one in
    after, as if g were swept first.
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
    if equal_time is not None and equal_time.shape != (n, n):
        raise ValueError(f"equal_time must be {n} x {n}, got {equal_time.shape}")
    block_path = uses_block_path(n, length)
    rows = None
    if after is not None:
        if block_path:
            return sweep(g, tau_max, equal_time=equal_time), sweep(after, tau_max)
        differs = np.zeros(n, dtype=bool)
        for span in _blocks(n, length):  # no N x L temporary
            differs[span] = (g.returns[span] != after.returns[span]).any(axis=1)
        changed = np.flatnonzero(differs)
        # rebuilding k rows costs 4kLN flops; a full lag, 2N^2 L
        if 2 * len(changed) < n:
            rows = changed
    records = 1 if after is None else 2
    workers, solvers, blas_threads, batch = _plan(g, tau_max)
    tables = np.empty((2, records, tau_max + 1, n))  # eigenvalues, IPRs
    kernel = block_lag_corrs(g, tau_max, workers) if block_path else None

    def matrices(k: int, out: np.ndarray) -> Iterator[LagCorrMatrix]:
        """Lag k's matrix of each record, in record order, each made into
        ``out``, one N x N plane, when it is asked for, so over the one
        before, which is solved by then; on the block path the kernel
        makes g's lags from 1 on.  g's lag 0 is copied into
        ``equal_time``, where that is given, before it is solved."""
        first = kernel(k, out) if k and kernel is not None else lag_corr(g, k, out=out)
        if k == 0 and equal_time is not None:
            np.copyto(equal_time, out)
        yield first
        if after is not None and rows is None:
            yield lag_corr(after, k, out=out)
        elif after is not None:
            yield patch_rows(first, after, rows, out=out)

    with _blas.threads(blas_threads) if workers > 1 else nullcontext():
        _solve_rows(matrices, block_path, tables, workers, solvers, batch)
    sequences = tuple(map(StroboscopicSequence, *tables))
    return sequences[0] if after is None else sequences


def _plan(g: ReturnMatrix, tau_max: int) -> tuple[int, int, int | None, int]:
    """How ``sweep`` spreads lags 0..tau_max over the thread budget T, the
    OpenBLAS thread count: (W workers, S solvers, BLAS threads per lag,
    b lags per batch), the threads per lag being None where T cannot be
    read.  README §Thread budget gives the rules: S is at most T and
    tau_max + 1, and its lags in flight beyond the first may hold at most
    half the bytes of g's returns.  Each holds 3 N^2 floats, a worker's
    plane and a solver's two N x N buffers (``Workspace``).  So a record
    takes a second solver where L >= 6 N.  W = S, but where memory leaves
    one solver, T >= 2 and tau_max >= 1, W = 2.  b is ``batch_size(N)``,
    whose check block bounds a batch in flight at 512 KiB, but no more
    than leaves each worker a batch.  The records swept do not
    change the plan, as an injected record's matrices are made over g's,
    so an injected record never changes the arithmetic of g's lags."""
    n = g.returns.shape[0]
    threads = _blas.thread_count()
    workers = solvers = 1
    if threads is not None:
        solvers = min(threads, tau_max + 1, 1 + g.returns.nbytes // 2 // (24 * n * n))
        workers = 2 if solvers == 1 and threads >= 2 and tau_max >= 1 else solvers
        threads //= workers
    return workers, solvers, threads, min(batch_size(n), -(-(tau_max + 1) // workers))


def _solve_rows(
    matrices: Callable[[int, np.ndarray], Iterator[LagCorrMatrix]],
    in_order: bool,
    tables: np.ndarray,
    workers: int,
    solvers: int,
    batch: int,
) -> None:
    """Solve the matrices of ``matrices(k, plane)``, one per record, into
    row k of that record's tables, for every row k: ``tables``, shaped
    (2, records, lags, N), holds record r's eigenvalues in ``tables[0, r]``
    and its IPRs in ``tables[1, r]``, and ``matrices(k, plane)`` makes lag
    k's matrices in record order, into ``plane``, as they are asked for.

    ``workers`` threads, the calling one included, take batches of
    ``batch`` consecutive lags, or fewer at the last, from a counter under
    a lock, in order, and build each lag into a plane of a stack of their
    own, one record at a time: every lag's matrix of the first record,
    then of the second, over the first's.  With ``in_order``, as on the
    block path, where the first record's lags must be made in increasing
    order, a worker builds them in the critical section that hands it the
    batch; otherwise after it.  Worker i solves each record's batch with
    one ``eigendecompose`` call, in workspace i % ``solvers``, holding its
    lock for the solve; ``with`` releases it also on an interrupt.  The
    call writes the batch's eigenvalues and IPRs into their rows of the
    tables itself (``into``, the (2, b, N) block of rows k..k+b-1), and
    only where no lag of the batch fails.  At ``batch`` 1 a batch is a
    lag.  Stacks and workspaces are made once,
    here on the calling thread, so no worker leaves freed memory in a
    malloc arena of its own.

    A batch's failure is that of its solve, the one ``eigendecompose``
    gives as a serial loop would, or else that of its build, above every
    lag solved.  It is filed at the batch's first lag and ends that
    record's work from there, and in the first record all taking.  Once
    the lags in flight are done, the failure of the lowest record, at its
    lowest batch, is raised.  Batches do not overlap, and every lag below
    it was solved for that record and those before it, so that is the
    failure that sweeping the records one after the other in serial loops
    meets first.  An interrupt (any BaseException) on any worker, or on
    the calling thread while it waits for the others, ends all taking,
    and is raised instead.
    """
    records, lags, n = tables.shape[1:]
    lock = threading.Lock()
    # (record, a batch's first lag): its failure; an interrupt is filed at
    # (0, -1), below every lag, so that it ends all taking and is raised
    failures: dict[tuple[int, int], BaseException] = {}
    taken = 0
    spaces = [(threading.Lock(), Workspace(n, batch)) for _ in range(solvers)]

    def needed(k: int) -> int:
        """How many records, from the first, the batch of lags from k is
        still to be solved for: none from one that failed at or below it.
        Under the lock."""
        return min([records, *(r for r, lag in failures if lag <= k)])

    def build(made: list[Iterator[LagCorrMatrix]]) -> tuple[list, Exception | None]:
        """The next matrix of each of ``made``, up to the first that fails
        to build, and its error, or None."""
        built: list[LagCorrMatrix] = []
        try:
            for m in made:
                built.append(next(m))
        except Exception as exc:  # the lags below it are solved first
            return built, exc
        return built, None

    def solve(k: int, made: list[Iterator[LagCorrMatrix]], first: tuple | None,
              held: threading.Lock, ws: Workspace) -> None:
        """Build and solve the batch of lags from k, whose matrices
        ``made`` makes, into their rows of each record's tables, in record
        order, until one fails or the batch is no longer needed.  A
        failure, of the batch's solve or else of its build, is filed at
        lag k.  ``first`` is the first record's ``build``, where the take
        made it."""
        for r in range(records):
            if r or first is None:
                with lock:
                    if needed(k) <= r:
                        return
                first = build(made)
            built, error = first
            with held:
                try:
                    eigendecompose(built, out=ws, into=tables[:, r, k:k + len(built)])
                except Exception as exc:  # raised in the caller below
                    error = exc
            if error is not None:
                with lock:
                    failures[r, k] = error
                return

    def stop(exc: BaseException) -> None:
        with lock:
            failures[0, -1] = exc

    def work(stack: np.ndarray, held: threading.Lock, ws: Workspace) -> None:
        nonlocal taken
        try:
            while True:
                with lock:
                    k = taken
                    if k == lags or not needed(k):
                        return
                    taken = min(k + batch, lags)
                    made = [matrices(lag, plane) for lag, plane in zip(range(k, taken), stack)]
                    # every lag below k is built already, and none above
                    first = build(made) if in_order else None
                solve(k, made, first, held, ws)
        except BaseException as exc:  # raised in the caller below
            stop(exc)

    _threads.run([partial(work, np.empty((batch, n, n)), *spaces[i % solvers])
                  for i in range(workers)], stop)
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
        if not 0 < period < np.inf:  # NaN too
            raise ValueError(f"probe period must be positive and finite, got {period}")
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
    """CSV export: header ``tau,value``, one row per lag 1..tau_max, the
    values with 17 significant digits; the rows are formatted by one ``%``
    each over Python floats and written at once."""
    rows = ["%d,%.17g\n" % row for row in enumerate(np.asarray(values).tolist(), start=1)]
    with open(path, "w") as handle:
        handle.write("".join(["tau,value\n", *rows]))


def write_spectrum_csv(spec: PowerSpectrum, path: Union[str, Path]) -> None:
    """CSV export: header ``frequency,power``, one row per bin, formatted
    as ``write_trajectory_csv``'s are."""
    rows = ["%.17g,%.17g\n" % row
            for row in zip(spec.frequencies.tolist(), spec.power.tolist())]
    with open(path, "w") as handle:
        handle.write("".join(["frequency,power\n", *rows]))


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
