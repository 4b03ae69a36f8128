"""Load traffic-counter series and turn them into normalized log rate changes.

The input format is a plain CSV: header ``t,<id1>,<id2>,...``, then one row
per sampling instant holding the timestamp followed by one count per series.
Counts are bytes or packets per interval and must be strictly positive; the
sampling interval is inferred from the timestamps and must be constant to
within 0.1%.
"""
from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence, Union

import numpy as np

from .errors import (
    ConfigInvalid,
    NonPositiveCount,
    ParseError,
    TooShort,
    ZeroVariance,
)

Source = Union[str, Path, bytes, IO]

_INTERVAL_RTOL = 1e-3  # timestamps must be evenly spaced within 0.1%
_MEAN_TOL = 1e-10
_VAR_TOL = 1e-10


@dataclass(frozen=True)
class CountMatrix:
    """Raw traffic counts: one row per series, one column per sampling instant.

    ``counts`` has shape (N, L+1) with N >= 2 series and L+1 >= 3 instants,
    all entries strictly positive.  ``interval`` is the sampling step in
    seconds.
    """

    series_ids: tuple[str, ...]
    interval: float
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "series_ids", tuple(self.series_ids))
        if counts.ndim != 2:
            raise ParseError("counts must be a 2-D array (series x time)")
        n, points = counts.shape
        if len(self.series_ids) != n:
            raise ParseError(
                f"{len(self.series_ids)} series ids for {n} count rows"
            )
        if n < 2:
            raise ParseError("need at least 2 series")
        if points < 3:
            raise TooShort(f"need at least 3 time points, got {points}")
        if not float(self.interval) > 0.0:
            raise ParseError(f"interval must be positive, got {self.interval}")
        if not np.all(np.isfinite(counts)):
            raise ParseError("counts contain non-finite values")
        if np.any(counts <= 0.0):
            i, t = map(int, np.argwhere(counts <= 0.0)[0])
            raise NonPositiveCount(
                f"series {self.series_ids[i]!r} has count "
                f"{counts[i, t]} at sample {t}"
            )

    @property
    def n_series(self) -> int:
        return self.counts.shape[0]

    @property
    def n_returns(self) -> int:
        """Number of rate changes each series yields (L)."""
        return self.counts.shape[1] - 1


@dataclass(frozen=True)
class ReturnMatrix:
    """Normalized log rate changes, one unit-variance zero-mean row per series."""

    series_ids: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self) -> None:
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "series_ids", tuple(self.series_ids))
        if returns.ndim != 2 or len(self.series_ids) != returns.shape[0]:
            raise ParseError("returns must be 2-D with one row per series id")
        means = returns.mean(axis=1)
        variances = returns.var(axis=1)  # population convention
        if np.any(np.abs(means) > _MEAN_TOL):
            i = int(np.argmax(np.abs(means)))
            raise ValueError(
                f"row {self.series_ids[i]!r} has mean {means[i]:.3e}, not 0"
            )
        if np.any(np.abs(variances - 1.0) > _VAR_TOL):
            i = int(np.argmax(np.abs(variances - 1.0)))
            raise ValueError(
                f"row {self.series_ids[i]!r} has variance {variances[i]!r}, not 1"
            )

    @property
    def n_series(self) -> int:
        return self.returns.shape[0]

    @property
    def n_returns(self) -> int:
        return self.returns.shape[1]


def _open_text(source: Source) -> IO[str]:
    if isinstance(source, (str, Path)):
        try:
            return open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise ConfigInvalid(f"counts file {source}: {exc.strerror}") from exc
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    if isinstance(source, io.TextIOBase):
        return source
    return io.TextIOWrapper(source, encoding="utf-8", newline="")


def load_counts(source: Source, *, epsilon_clamp: bool = False) -> CountMatrix:
    """Parse a counts CSV into a CountMatrix.

    The input is UTF-8 text.  Blank lines and double-quoted cells are
    accepted; ``#`` does not start a comment.  A malformed data row raises
    ParseError naming its line; bytes that are not UTF-8 raise ParseError
    naming the path.  A path that cannot be opened raises ConfigInvalid.

    With ``epsilon_clamp`` every count is replaced by max(count, eps) where
    eps is 1e-6 times the median of the series' positive values;
    otherwise any count <= 0 raises NonPositiveCount.
    """
    stream = _open_text(source)
    try:
        # the bad-row scan rewinds to the first data line
        seekable = stream if stream.seekable() else io.StringIO(stream.read())
        ids, table = _read_table(seekable)
    except UnicodeDecodeError as exc:
        name = source if isinstance(source, (str, Path)) else "input"
        raise ParseError(f"{name} is not UTF-8 text: {exc.reason}") from None
    finally:
        if isinstance(source, (str, Path)):
            stream.close()
        elif stream is not source:
            stream.detach()  # collecting the wrapper would close its buffer

    if len(table) < 3:
        raise TooShort(f"need at least 3 time points, got {len(table)}")

    steps = np.diff(table[:, 0])
    interval = float(np.median(steps))
    if interval <= 0 or np.any(np.abs(steps - interval) > _INTERVAL_RTOL * interval):
        raise ParseError("timestamps are not evenly spaced within 0.1%")

    counts = table[:, 1:].T  # series x time
    if epsilon_clamp:
        counts = _clamp_counts(counts, ids)

    return CountMatrix(series_ids=ids, interval=interval, counts=counts)


def _read_table(stream: IO[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Read the header, then every data row in one ``np.loadtxt`` pass.

    Returns the series ids and a (rows, N+1) table whose first column holds
    the timestamps.  Only when the table is malformed is the body read a
    second time, row by row, to name the offending line.
    """
    line = stream.readline()
    if not line:
        raise ParseError("empty input")
    try:
        header = next(csv.reader([line]))
    except csv.Error as exc:
        raise ParseError(f"header: {exc}") from None
    if len(header) < 3 or header[0].strip() != "t":
        raise ParseError(
            "header must be 't,<id1>,<id2>,...' with at least two series"
        )
    ids = tuple(name.strip() for name in header[1:])
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate series ids in header")

    width = len(ids) + 1
    body = stream.tell()
    try:
        with warnings.catch_warnings():
            # an empty body is reported as TooShort by the caller
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(
                stream, delimiter=",", ndmin=2, dtype=float,
                comments=None, quotechar='"',
            )
    except UnicodeDecodeError:  # a ValueError, but not a malformed row
        raise
    except ValueError as exc:
        problem = str(exc)
    else:
        if len(table) == 0 or (
            table.shape[1] == width and np.isfinite(table).all()
        ):
            return ids, table
        problem = (
            f"expected {width} fields per row, got {table.shape[1]}"
            if table.shape[1] != width
            else "non-finite value"
        )
    stream.seek(body)
    _raise_bad_row(stream, width)
    raise ParseError(problem)


def _raise_bad_row(stream: IO[str], width: int) -> None:
    """Raise ParseError naming the first data line that fails to parse.

    Reads the rows after the header with ``csv`` and ``float``; returns if
    every row is well formed.
    """
    reader = csv.reader(stream)
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    f"row at line {lineno}: expected {width} fields, "
                    f"got {len(row)}"
                )
            try:
                parsed = [float(cell) for cell in row]
            except ValueError as exc:
                raise ParseError(f"row at line {lineno}: {exc}") from None
            if not all(np.isfinite(parsed)):
                raise ParseError(f"row at line {lineno}: non-finite value")
    except csv.Error as exc:
        raise ParseError(f"row at line {reader.line_num + 1}: {exc}") from None


def _clamp_counts(counts: np.ndarray, ids: Sequence[str]) -> np.ndarray:
    clamped = counts.copy()
    for i in range(counts.shape[0]):
        row = counts[i]
        positive = row[row > 0.0]
        if positive.size == 0:
            raise NonPositiveCount(
                f"series {ids[i]!r} has no positive counts to clamp against"
            )
        clamped[i] = np.maximum(row, 1e-6 * float(np.median(positive)))
    return clamped


def rate_changes(counts: CountMatrix) -> np.ndarray:
    """Log ratio of successive counts for every series: shape (N, L)."""
    return np.diff(np.log(counts.counts), axis=1)


def normalize(
    raw: np.ndarray, series_ids: Sequence[str] | None = None
) -> ReturnMatrix:
    """Shift and scale each row of raw rate changes to zero mean, unit variance.

    Uses the population variance (1/L).  A row with zero variance raises
    ZeroVariance naming the series.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ParseError("rate changes must be a 2-D array")
    if series_ids is None:
        series_ids = tuple(f"g{i}" for i in range(raw.shape[0]))
    means = raw.mean(axis=1)
    stds = raw.std(axis=1)  # population convention
    if np.any(stds == 0.0):
        i = int(np.argmax(stds == 0.0))
        raise ZeroVariance(f"series {series_ids[i]!r} has constant rate changes")
    returns = (raw - means[:, None]) / stds[:, None]
    return ReturnMatrix(series_ids=tuple(series_ids), returns=returns)


def returns_from_counts(counts: CountMatrix) -> ReturnMatrix:
    """Convenience: rate_changes followed by normalize, keeping series ids."""
    return normalize(rate_changes(counts), counts.series_ids)
