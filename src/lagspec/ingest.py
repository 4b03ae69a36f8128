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
from typing import IO, Iterator, Sequence, Union

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
# bytes of one block: the counts and returns are built and reduced a block
# of rows or columns at a time, so no temporary is the size of a table
_BLOCK_BYTES = 1 << 20


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
        means, variances = _row_moments(returns)  # population variance
        if np.any(np.abs(means) > _MEAN_TOL):
            i = int(np.argmax(np.abs(means)))
            raise ValueError(
                f"row {self.series_ids[i]!r} has mean {means[i]:.3e}, not 0"
            )
        if np.any(np.abs(variances - 1.0) > _VAR_TOL):
            i = int(np.argmax(np.abs(variances - 1.0)))
            raise ValueError(
                f"row {self.series_ids[i]!r} has variance {float(variances[i])!r}, not 1"
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
        ids, table = _read_table(seekable, epsilon_clamp)
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


def _read_table(
    stream: IO[str], epsilon_clamp: bool
) -> tuple[tuple[str, ...], np.ndarray]:
    """Read the header, then every data row with ``np.loadtxt``: as int64
    where every cell is one, else in a second pass as floats.

    Returns the series ids and a (rows, N+1) table whose first column holds
    the timestamps.  Only when the table is malformed is the body read once
    more, row by row, to name the offending line.
    """
    line = stream.readline()
    if not line:
        raise ParseError("empty input")
    # spreadsheet exports often start with a UTF-8 byte order mark
    line = line.removeprefix("\ufeff")
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
    table = _read_integers(stream, width, epsilon_clamp)
    if table is not None:
        return ids, table
    stream.seek(body)
    try:
        table = _loadtxt(stream, float)
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


def _loadtxt(stream: IO[str], dtype: type) -> np.ndarray:
    """The rest of ``stream`` as a table of ``dtype``, read by
    ``np.loadtxt`` with load_counts' rules for cells and quotes."""
    with warnings.catch_warnings():
        # an empty body is reported as TooShort by load_counts
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(
            stream, delimiter=",", ndmin=2, dtype=dtype,
            comments=None, quotechar='"',
        )


def _read_integers(
    stream: IO[str], width: int, epsilon_clamp: bool
) -> np.ndarray | None:
    """The body as a float64 table, if every cell is an int64, every row
    has ``width`` of them and, unless ``epsilon_clamp``, every count is
    positive; otherwise None, and the caller parses the body again as
    floats, which reports any error.

    numpy's int64 parse is faster than its float parse.  Its table is made
    float64 in place, a block of rows at a time, and the cast rounds as the
    float parse does, so the table is the same bit for bit.  The int parse
    reads ``-0`` as 0, so without the clamp a count <= 0 is left to the
    float parse, for the NonPositiveCount message to keep its sign.  The
    clamp maps -0, 0 and every negative count alike to its epsilon.
    """
    try:
        with warnings.catch_warnings():
            # numpy releases that still read a float cell as an int, by
            # truncating it, warn that they do
            warnings.simplefilter("error", DeprecationWarning)
            ints = _loadtxt(stream, np.int64)
    except UnicodeDecodeError:  # a ValueError, but not a malformed row
        raise
    except (ValueError, DeprecationWarning):
        return None
    if ints.shape[1] != width:
        return None
    table = ints.view(np.float64)
    for rows in _blocks(len(ints), width):
        if not epsilon_clamp and ints[rows, 1:].min() <= 0:
            return None
        table[rows] = ints[rows]
    return table


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
    """max(count, eps) for every count, eps being 1e-6 times the median of
    the series' positive counts, as one new table."""
    eps = np.empty(counts.shape[0])
    for i, row in enumerate(counts):
        positive = row[row > 0.0]
        if positive.size == 0:
            raise NonPositiveCount(
                f"series {ids[i]!r} has no positive counts to clamp against"
            )
        eps[i] = 1e-6 * float(np.median(positive))
    return np.maximum(counts, eps[:, None])


def _blocks(count: int, width: int) -> Iterator[slice]:
    """Slices of 0..count-1 that cut a table of ``count`` rows (or columns)
    of ``width`` floats into blocks of about _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _row_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x.mean(axis=1)`` and ``x.var(axis=1)``, with temporaries of a
    block of rows rather than of the size of ``x``.

    numpy sums each row of a row-major table pairwise, so for one, such as
    every table of rate changes or returns that lagspec makes, they are
    equal bit for bit, and a row's moments depend on that row alone.
    """
    n, length = x.shape
    means = x.mean(axis=1)
    variances = np.empty_like(means)
    for rows in _blocks(n, length):
        variances[rows] = x[rows].var(axis=1)
    return means, variances


def rate_changes(counts: CountMatrix) -> np.ndarray:
    """Log ratio of successive counts for every series: shape (N, L).

    Equal bit for bit to ``np.diff(np.log(counts), axis=1)``, but the logs
    are taken a block of columns at a time.  The table is row-major whatever
    the counts' layout (column-major for counts read from CSV), so the rows
    that ``normalize`` reduces are laid out alike from every source.
    """
    c = counts.counts
    n, length = c.shape[0], c.shape[1] - 1
    out = np.empty((n, length))
    for cols in _blocks(length, n):
        logs = np.log(c[:, cols.start:cols.stop + 1])
        np.subtract(logs[:, 1:], logs[:, :-1], out=out[:, cols])
        del logs  # before the next block is allocated
    return out


def normalize(
    raw: np.ndarray, series_ids: Sequence[str] | None = None
) -> ReturnMatrix:
    """Shift and scale each row of raw rate changes to zero mean, unit variance.

    Uses the population variance (1/L).  A row with zero variance raises
    ZeroVariance naming the series.  ``raw`` is left as it is.  The returns
    are row-major, and each row depends on that row of ``raw`` alone, in
    whatever layout ``raw`` comes: a column-major one is copied first.
    """
    raw = np.ascontiguousarray(raw, dtype=float)
    if raw.ndim != 2:
        raise ParseError("rate changes must be a 2-D array")
    return _normalize(raw, series_ids, out=None)


def _normalize(
    raw: np.ndarray, series_ids: Sequence[str] | None, out: np.ndarray | None
) -> ReturnMatrix:
    """``normalize`` of a 2-D float array, writing the returns into ``out``
    (which may be ``raw``) or, when it is None, into a new array."""
    if series_ids is None:
        series_ids = tuple(f"g{i}" for i in range(raw.shape[0]))
    means, variances = _row_moments(raw)  # population variance
    stds = np.sqrt(variances)
    if np.any(stds == 0.0):
        i = int(np.argmax(stds == 0.0))
        raise ZeroVariance(f"series {series_ids[i]!r} has constant rate changes")
    returns = np.subtract(raw, means[:, None], out=out)
    returns /= stds[:, None]
    return ReturnMatrix(series_ids=tuple(series_ids), returns=returns)


def returns_from_counts(counts: CountMatrix) -> ReturnMatrix:
    """Convenience: rate_changes followed by normalize, keeping series ids.

    The rate changes are normalized in place, so the returns are the one
    table of their size that this allocates.
    """
    raw = rate_changes(counts)
    return _normalize(raw, counts.series_ids, out=raw)
