import contextlib
import csv
import gc
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagspec import (
    CountMatrix,
    LagspecError,
    NonPositiveCount,
    ParseError,
    TooShort,
    ZeroVariance,
    load_counts,
    normalize,
    rate_changes,
    returns_from_counts,
)

E = math.e


def csv_bytes(text: str) -> bytes:
    return text.encode()


class TestLoadCounts:
    def test_two_series_four_rows(self):
        cm = load_counts(csv_bytes(
            "t,a,b\n0,1,2\n300,3,4\n600,5,6\n900,7,8\n"
        ))
        assert cm.series_ids == ("a", "b")
        assert cm.n_series == 2
        assert cm.n_returns == 3
        assert cm.interval == 300.0
        assert np.array_equal(cm.counts, [[1, 3, 5, 7], [2, 4, 6, 8]])

    def test_five_hundred_series_two_thousand_records(self, tmp_path):
        # 497 series x 2016 records, i.e. L = 2015 rate changes per series
        n, rows = 497, 2016
        rng = np.random.default_rng(0)
        data = rng.uniform(1.0, 2.0, size=(rows, n))
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.write("t," + ",".join(f"s{i}" for i in range(n)) + "\n")
            for r in range(rows):
                fh.write(f"{r * 300}," + ",".join(f"{v:.6f}" for v in data[r]) + "\n")
        cm = load_counts(path)
        assert cm.n_series == 497
        assert cm.n_returns == 2015
        assert cm.interval == 300.0

    def test_zero_count_rejected(self):
        with pytest.raises(NonPositiveCount, match=r"'a'.*sample 1"):
            load_counts(csv_bytes("t,a,b\n0,1,2\n300,0,2\n600,3,2\n"))

    def test_epsilon_clamp_substitutes_median_fraction(self):
        cm = load_counts(
            csv_bytes("t,a,b\n0,1,2\n300,0,2\n600,3,2\n"),
            epsilon_clamp=True,
        )
        # median of positive values of 'a' is 2 -> clamp to 2e-6
        assert cm.counts[0, 1] == pytest.approx(2e-6)
        assert np.all(cm.counts > 0)

    def test_too_few_rows(self):
        with pytest.raises(TooShort):
            load_counts(csv_bytes("t,a,b\n0,1,2\n300,3,4\n"))

    def test_ragged_row_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_counts(csv_bytes("t,a,b\n0,1,2\n300,3\n600,5,6\n"))

    def test_non_numeric_cell(self):
        with pytest.raises(ParseError, match="line 2"):
            load_counts(csv_bytes("t,a,b\n0,x,2\n300,3,4\n600,5,6\n"))

    def test_uneven_timestamps(self):
        with pytest.raises(ParseError, match="evenly spaced"):
            load_counts(csv_bytes("t,a,b\n0,1,2\n300,3,4\n700,5,6\n"))

    def test_single_series_rejected(self):
        with pytest.raises(ParseError):
            load_counts(csv_bytes("t,a\n0,1\n300,2\n600,3\n"))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_counts(csv_bytes("t,a,a\n0,1,2\n300,3,4\n600,5,6\n"))

    def test_header_must_start_with_t(self):
        with pytest.raises(ParseError):
            load_counts(csv_bytes("time,a,b\n0,1,2\n300,3,4\n600,5,6\n"))

    def test_accepts_text_stream(self):
        cm = load_counts(io.StringIO("t,a,b\n0,1,2\n1,3,4\n2,5,6\n"))
        assert cm.interval == 1.0

    @pytest.mark.parametrize("row", ["1,3,4", "1,x,4"])
    def test_leaves_the_callers_binary_stream_open(self, row):
        stream = io.BytesIO(csv_bytes(f"t,a,b\n0,1,2\n{row}\n2,5,6\n"))
        with contextlib.suppress(ParseError):
            load_counts(stream)
        gc.collect()
        assert not stream.closed

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("2,5", "expected 3 fields, got 2"),
            ("2,x,6", "could not convert string to float: 'x'"),
            ("2,nan,6", "non-finite value"),
            ("2,1e400,6", "non-finite value"),
        ],
    )
    @pytest.mark.parametrize(
        "layout, line",
        [
            # a blank line before the bad row still counts as a line
            ("t,a,b\n0,1,2\n1,3,4\n\n{bad}\n3,7,8\n", 5),
            ("t,a,b\r\n0,1,2\r\n\r\n1,3,4\r\n{bad}\r\n3,7,8\r\n", 5),
            ("t,a,b\n0,1,2\n1,3,4\n3,7,8\n{bad}\n", 5),
            ("t,a,b\n0,1,2\n1,3,4\n3,7,8\n{bad}", 5),
            ("t,a,b\n{bad}\n0,1,2\n1,3,4\n3,7,8\n", 2),
        ],
    )
    def test_error_names_the_line(self, bad_row, message, layout, line):
        with pytest.raises(ParseError) as exc:
            load_counts(csv_bytes(layout.format(bad=bad_row)))
        assert str(exc.value) == f"row at line {line}: {message}"

    def test_same_wrong_width_on_every_row_names_line_2(self):
        with pytest.raises(ParseError, match="^row at line 2: expected 3 fields, got 4$"):
            load_counts(csv_bytes("t,a,b\n0,1,2,9\n1,3,4,9\n2,5,6,9\n"))

    def test_underscore_digits_rejected(self):
        # float() accepts "1_000"; numpy's parser does not
        with pytest.raises(ParseError, match="1_000"):
            load_counts(csv_bytes("t,a,b\n0,1,2\n1,1_000,4\n2,5,6\n"))

    def test_quoted_cells_blank_lines_and_crlf(self):
        cm = load_counts(csv_bytes(
            '"t","a","b"\r\n\r\n0,"1",2\r\n1,3,"4"\r\n\r\n2,5,6\r\n'
        ))
        assert cm.series_ids == ("a", "b")
        assert np.array_equal(cm.counts, [[1, 3, 5], [2, 4, 6]])

    def test_hash_is_not_a_comment(self):
        with pytest.raises(ParseError, match="line 3"):
            load_counts(csv_bytes("t,a,b\n0,1,2\n# note\n1,3,4\n2,5,6\n"))

    def test_undecodable_bytes(self):
        with pytest.raises(ParseError, match="not UTF-8"):
            load_counts(b"t,a,b\n0,1,2\n1,\xff,4\n2,5,6\n")

    def test_unseekable_stream_names_the_line(self):
        class Pipe(io.RawIOBase):
            def __init__(self, data):
                self._data = io.BytesIO(data)

            def readable(self):
                return True

            def readinto(self, buffer):
                return self._data.readinto(buffer)

        stream = io.BufferedReader(Pipe(b"t,a,b\n0,1,2\n1,x,4\n2,5,6\n"))
        assert not stream.seekable()
        with pytest.raises(ParseError, match="^row at line 3:"):
            load_counts(stream)


class TestRateChanges:
    def test_log_ratio_of_e_powers(self):
        cm = CountMatrix(("a", "b"), 1.0, [[1.0, E, E**2], [1.0, 1.0, 1.0]])
        g = rate_changes(cm)
        assert g[0] == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_constant_series_gives_zeros(self):
        cm = CountMatrix(("a", "b"), 1.0, [[5.0] * 4, [2.0] * 4])
        assert np.array_equal(rate_changes(cm)[0], [0.0, 0.0, 0.0])

    def test_hand_computed_logs(self):
        cm = CountMatrix(("a", "b"), 1.0, [[2.0, 8.0, 4.0], [1.0, 1.0, 1.0]])
        g = rate_changes(cm)
        assert g[0] == pytest.approx(
            [1.3862943611198906, -0.6931471805599453], abs=1e-15
        )


class TestNormalize:
    def test_constant_row_rejected(self):
        with pytest.raises(ZeroVariance, match="'a'"):
            normalize(np.array([[1.0, 1.0], [0.0, 1.0]]), ["a", "b"])

    def test_symmetric_two_point_case(self):
        rm = normalize(np.array([[-1.0, 1.0], [3.0, 5.0]]))
        assert rm.returns[0] == pytest.approx([-1.0, 1.0], abs=1e-15)
        assert rm.returns[1] == pytest.approx([-1.0, 1.0], abs=1e-15)

    def test_population_variance_convention(self):
        # mean 1.5, population std sqrt(1.25); frozen via independent script
        rm = normalize(np.array([[0.0, 1.0, 2.0, 3.0]] * 2))
        expected = [
            -1.3416407864998738,
            -0.4472135954999579,
            0.4472135954999579,
            1.3416407864998738,
        ]
        assert rm.returns[0] == pytest.approx(expected, abs=1e-12)

    def test_traceability_fields(self):
        raw = np.array([[0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 1.0, 3.0]])
        rm = normalize(raw, ["x", "y"])
        assert rm.series_ids == ("x", "y")
        assert rm.returns[1] == pytest.approx([-1.0, 1.0, -1.0, 1.0])

    def test_returns_from_counts_pipeline(self):
        cm = CountMatrix(("a", "b"), 300.0, [[1.0, 2.0, 8.0], [4.0, 2.0, 4.0]])
        rm = returns_from_counts(cm)
        assert rm.series_ids == ("a", "b")
        assert rm.n_returns == 2


row_strategy = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=3,
    max_size=64,
)


@given(row=row_strategy)
@settings(max_examples=200)
def test_normalized_rows_have_zero_mean_unit_variance(row):
    raw = np.array([row, row[::-1]])
    if np.std(raw[0]) < 1e-3 or np.std(raw[1]) < 1e-3:
        return
    rm = normalize(raw)
    assert np.all(np.abs(rm.returns.mean(axis=1)) <= 1e-10)
    assert np.all(np.abs(rm.returns.var(axis=1) - 1.0) <= 1e-10)


@given(
    row=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=64,
    ),
    baseline=st.floats(min_value=0.1, max_value=1e6),
)
@settings(max_examples=200)
def test_rate_changes_inverts_exponential_cumsum(row, baseline):
    """Accumulating returns into counts and differencing the logs is the
    identity on the returns, up to 1e-12."""
    returns = np.array([row, [-v for v in row]])
    log_path = np.concatenate(
        [np.zeros((2, 1)), np.cumsum(returns, axis=1)], axis=1
    )
    cm = CountMatrix(("a", "b"), 1.0, baseline * np.exp(log_path))
    assert np.allclose(rate_changes(cm), returns, atol=1e-12, rtol=0)


@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    shift=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=100)
def test_normalization_is_affine_invariant(scale, shift):
    rng = np.random.default_rng(42)
    raw = rng.standard_normal((3, 128))
    base = normalize(raw)
    scaled = normalize(scale * raw + shift)
    assert np.allclose(base.returns, scaled.returns, atol=1e-10, rtol=0)


def reference_load(text: str):
    """The row-by-row csv + float() parse that load_counts must agree with."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    ids = tuple(name.strip() for name in rows[0][1:])
    table = np.array([[float(cell) for cell in row] for row in rows[1:] if row])
    interval = float(np.median(np.diff(table[:, 0])))
    return ids, interval, table[:, 1:].T


positive_cell = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300).map(repr),
    st.floats(min_value=5e-324, max_value=1e300).map(lambda v: "%.17g" % v),
    st.floats(min_value=1e-6, max_value=1e12).map(lambda v: "%.6f" % v),
    st.integers(min_value=1, max_value=10**15).map(str),
)


@st.composite
def counts_csv(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    points = draw(st.integers(min_value=3, max_value=12))
    interval = draw(st.one_of(
        st.integers(min_value=1, max_value=3600),
        st.floats(min_value=1e-3, max_value=1e5),
    ))
    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def cell(text):
        return f'"{text}"' if draw(st.booleans()) else text

    lines = [",".join(cell(name) for name in ["t"] + [f"s{i}" for i in range(n)])]
    for k in range(points):
        if draw(st.booleans()):
            lines.append("")
        stamp = repr(k * interval)
        lines.append(",".join(cell(c) for c in [stamp] + draw(
            st.lists(positive_cell, min_size=n, max_size=n)
        )))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(text=counts_csv())
@settings(max_examples=300, deadline=None)
def test_valid_tables_match_row_by_row_parse(text):
    ids, interval, counts = reference_load(text)
    cm = load_counts(text.encode())
    assert cm.series_ids == ids
    assert cm.interval == interval
    assert cm.counts.shape == counts.shape
    assert cm.counts.tobytes() == counts.tobytes()


def load_or_lagspec_error(data) -> None:
    try:
        load_counts(data)
    except LagspecError:
        pass


@given(data=st.binary(max_size=400))
@settings(max_examples=300, deadline=None)
def test_arbitrary_bytes_raise_only_lagspec_errors(data):
    load_or_lagspec_error(data)


@given(
    body=st.text(
        alphabet=st.sampled_from(list('0123456789,,,\n\n\r". +-_eEinfatx#\t\x00\xff')),
        max_size=200,
    )
)
@settings(max_examples=500, deadline=None)
def test_arbitrary_bodies_raise_only_lagspec_errors(body):
    load_or_lagspec_error(("t,a,b\n" + body).encode())
