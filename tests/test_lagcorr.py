import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagspec import (
    CorrelationOutOfRange,
    LagCorrMatrix,
    LagTooLarge,
    ParseError,
    ReturnMatrix,
    equal_time_corr,
    lag_corr,
    normalize,
    write_matrix_csv,
)
from lagspec import _blas
from lagspec.lagcorr import _block_plan, block_lag_corrs, uses_block_path

from conftest import block_lags, iid_returns, lag_corr_oracle, needs_openblas


class TestEqualTime:
    def test_diagonal_is_one(self, gaussian_returns_64):
        d = equal_time_corr(gaussian_returns_64)
        assert np.all(np.abs(np.diag(d.values) - 1.0) <= 1e-10)

    def test_identical_series_fully_correlated(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(512)
        g = normalize(np.vstack([x, x]))
        d = equal_time_corr(g)
        assert d.values[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_anti_identical_series(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(512)
        g = normalize(np.vstack([x, -x]))
        d = equal_time_corr(g)
        assert d.values[0, 1] == pytest.approx(-1.0, abs=1e-10)

    def test_matches_lag_corr_at_zero_exactly(self, gaussian_returns_64):
        a = equal_time_corr(gaussian_returns_64)
        b = lag_corr(gaussian_returns_64, 0)
        assert np.array_equal(a.values, b.values)

    def test_iid_off_diagonals_within_standard_error(self):
        # 4/sqrt(L) is a Monte-Carlo sanity bound: with ~2000 entries a few
        # seeds graze it, so the seed is pinned to a representative draw
        g = iid_returns(64, 2048, seed=0)
        d = equal_time_corr(g)
        off = d.values[~np.eye(64, dtype=bool)]
        assert np.max(np.abs(off)) <= 4.0 / np.sqrt(2048)


class TestLagCorr:
    def test_three_by_three_matches_brute_force(self):
        raw = np.array(
            [
                [0.3, -1.1, 0.8, 0.2, -0.6, 1.4, -0.9, 0.1],
                [1.0, 0.4, -0.2, -1.3, 0.6, 0.0, 0.9, -1.5],
                [-0.7, 0.2, 1.1, -0.4, -1.0, 0.8, 0.3, -0.2],
            ]
        )
        g = normalize(raw)
        for lag in range(0, 4):
            expected = lag_corr_oracle(g.returns, lag)
            got = lag_corr(g, lag)
            assert np.allclose(got.values, expected, atol=1e-12, rtol=0)

    def test_planted_pair_half_correlation(self):
        # follower copies the leader five steps later; symmetrization halves
        # the unit correlation
        vals = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(4096 + 5)
            g = normalize(np.vstack([x[5:], x[:-5]]))
            vals.append(lag_corr(g, 5).values[0, 1])
        assert np.mean(vals) == pytest.approx(0.5, abs=0.05)

    def test_lag_limit(self):
        g = iid_returns(4, 100, seed=0)
        lag_corr(g, 50)  # exactly L/2 is allowed
        with pytest.raises(LagTooLarge):
            lag_corr(g, 51)

    def test_negative_lag_rejected(self):
        g = iid_returns(4, 100, seed=0)
        with pytest.raises(ValueError):
            lag_corr(g, -1)
        with pytest.raises(ValueError, match="lag must be non-negative"):
            LagCorrMatrix(lag=-1, values=np.eye(2))

    def test_equal_time_diagonal_must_be_one(self):
        LagCorrMatrix(lag=1, values=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="equal-time diagonal must be 1"):
            LagCorrMatrix(lag=0, values=np.zeros((2, 2)))

    def test_bitwise_symmetry(self):
        for seed in range(5):
            g = iid_returns(8, 256, seed=seed)
            for lag in (0, 1, 7, 64):
                d = lag_corr(g, lag)
                assert np.array_equal(d.values, d.values.T)

    def test_plain_sum_matches_mirrored_upper_triangle(self, gaussian_returns_64):
        # (C + C.T) / 2w needs no mirroring: same values and same zero signs
        g = gaussian_returns_64
        for lag in (0, 1, 7, 30):
            d = lag_corr(g, lag).values
            mirrored = np.triu(d) + np.triu(d, 1).T
            assert np.array_equal(d, mirrored)
            assert np.array_equal(np.signbit(d), np.signbit(mirrored))

    def test_entries_bounded(self, gaussian_returns_64):
        for lag in (0, 1, 13, 500):
            d = lag_corr(gaussian_returns_64, lag)
            assert np.all(np.abs(d.values) <= 1.0 + 1e-9)

    def test_lag_records_metadata(self, gaussian_returns_64):
        d = lag_corr(gaussian_returns_64, 17)
        assert d.lag == 17
        assert d.n == 64

    @pytest.mark.parametrize("n", [1, 8, 64, 65, 130])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_in_place_sum_equals_the_plain_sum(self, n, layout):
        """Symmetrizing the product in blocks of rows, in a new array or in
        ``out``, gives the bytes of ``(cross + cross.T) / 2w``, also for
        column-major returns, which ``normalize`` never gives."""
        g = normalize(np.random.default_rng(n).standard_normal((n, 300)))
        if layout == "F":
            g = ReturnMatrix(g.series_ids, np.asfortranarray(g.returns))
            assert g.returns.flags.f_contiguous
        for lag in (0, 1, 7, 150):
            window = 300 - lag
            cross = g.returns[:, :window] @ g.returns[:, lag:].T
            want = (cross + cross.T) / (2.0 * window)
            out = np.full((n, n), np.nan)
            assert np.array_equal(lag_corr(g, lag).values, want)
            assert lag_corr(g, lag, out=out).values is out
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("at", [(0, 1), (3, 70), (129, 64), (128, 129)])
    def test_asymmetry_in_any_block_rejected(self, at):
        values = np.eye(130)
        values[at] = 0.25
        with pytest.raises(ValueError, match="exactly symmetric"):
            LagCorrMatrix(lag=1, values=values)
        values[at[::-1]] = 0.25
        LagCorrMatrix(lag=1, values=values)
        values[at] = values[at[::-1]] = np.nan
        with pytest.raises(ValueError, match="exactly symmetric"):
            LagCorrMatrix(lag=1, values=values)

    @given(data=st.data(), n=st.integers(2, 200), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_one_broken_pair_is_rejected_at_any_position(self, data, n, seed):
        """The check compares each pair (i, j) once, from the diagonal on: a
        symmetric matrix passes, and one entry nudged off its mirror, or
        one off-diagonal NaN, alone or with its mirror, fails, in any block
        of 64 rows, the last partial one included."""
        i = data.draw(st.integers(0, n - 1), label="i")
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i), label="j")
        a = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, n))
        values = np.triu(a) + np.triu(a, 1).T
        LagCorrMatrix(lag=1, values=values)
        for broken in (np.nextafter(values[i, j], 1.0), np.nan):
            values[i, j] = broken
            with pytest.raises(ValueError, match="exactly symmetric"):
                LagCorrMatrix(lag=1, values=values)
        values[j, i] = np.nan
        with pytest.raises(ValueError, match="exactly symmetric"):
            LagCorrMatrix(lag=1, values=values)

    @pytest.mark.parametrize("entry", [1.0 + 2e-9, -1.0 - 2e-9, np.inf, -np.inf])
    def test_entries_outside_unit_range_rejected(self, entry):
        values = np.eye(70)
        values[2, 68] = values[68, 2] = entry
        with pytest.raises(CorrelationOutOfRange, match="at lag 4$"):
            LagCorrMatrix(lag=4, values=values)
        values[2, 68] = values[68, 2] = np.copysign(1.0 + 1e-9, entry)
        LagCorrMatrix(lag=4, values=values)

    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_values_must_be_square(self, shape):
        with pytest.raises(ParseError, match="values must be square"):
            LagCorrMatrix(lag=1, values=np.zeros(shape))

    def test_values_must_not_be_empty(self):
        """A 0 x 0 matrix is refused where it is made, naming its shape,
        not by a division by N in the solve."""
        with pytest.raises(ParseError, match=r"got shape \(0, 0\)"):
            LagCorrMatrix(lag=0, values=np.empty((0, 0)))


class TestBlockPath:
    @pytest.mark.parametrize(
        "n, length, tau_max",
        [
            (2, 5000, 2500),  # N = 2, L not a multiple of 32, tau_max = L/2
            (8, 6000, 333),  # several block lags of 64 samples, one a batch
            (8, 7300, 333),  # block lags of 64 samples in batches of two
            (16, 8192, 100),  # L a multiple of 32
            (64, 32768, 75),  # the shape of the long benchmark record
            (64, 32768, 300),  # there three block lags of 128 samples
            # blocks of 128 in chunks of 6 and batches of 2 block lags:
            # a chunk that a batch's later block lag does not reach
            (6, 10000, 300),
        ],
    )
    def test_matches_lag_corr(self, n, length, tau_max):
        g = iid_returns(n, length, seed=n)
        assert uses_block_path(n, length)
        lags = []
        for d in block_lags(g, tau_max):
            lags.append(d.lag)
            direct = lag_corr(g, d.lag).values
            assert np.max(np.abs(d.values - direct)) <= 1e-14, d.lag
            assert np.array_equal(d.values, d.values.T)
        assert lags == list(range(1, tau_max + 1))

    def test_planted_lead_lag_pair(self):
        # sign or window errors move the planted entry off 1/2 or onto
        # another lag
        rng = np.random.default_rng(11)
        x = rng.standard_normal(8192 + 37)
        g = normalize(np.vstack([x[37:], x[:-37], rng.standard_normal((2, 8192))]))
        peaks = {d.lag: d.values[0, 1] for d in block_lags(g, 70)}
        assert max(peaks, key=peaks.get) == 37
        assert peaks[37] == pytest.approx(0.5, abs=0.03)

    def test_shape_rule(self):
        assert uses_block_path(64, 32768)  # long: L/N = 512
        assert not uses_block_path(64, 10759)
        assert uses_block_path(64, 10760)  # the first block-path L at N = 64
        assert not uses_block_path(64, 2048)  # inject: L/N = 32
        assert not uses_block_path(512, 4096)  # wide: L/N = 8
        assert not uses_block_path(8, 256)

    def test_direct_path_shape_and_lag_limit_rejected(self):
        with pytest.raises(ValueError, match="direct path"):
            block_lag_corrs(iid_returns(8, 256, seed=0), 10)
        g = iid_returns(16, 8192, seed=0)
        with pytest.raises(LagTooLarge):
            block_lag_corrs(g, 4097)
        with pytest.raises(ValueError, match="tau_max must be non-negative, got -1"):
            block_lag_corrs(g, -1)
        with pytest.raises(ValueError, match="lag 1 is outside the block path's lags 1..0"):
            block_lag_corrs(g, 0)(1)

    @needs_openblas
    @pytest.mark.parametrize(
        "n, length, tau_max",
        [
            (8, 6000, 333),  # several batches, the last block padded
            (64, 32768, 100),  # the shape of the long benchmark record
            (64, 32768, 300),  # there three block lags of 128 samples
        ],
    )
    def test_split_kernel_bit_equal_to_one_thread(self, n, length, tau_max):
        g = iid_returns(n, length, seed=n)
        with _blas.threads(1):
            want = [d.values for d in block_lags(g, tau_max)]
            for threads in (2, 3):
                got = [d.values for d in block_lags(g, tau_max, threads)]
                assert len(got) == len(want) == tau_max
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), threads

    def test_lags_must_be_asked_for_in_increasing_order(self):
        """A lag at or below the last one built is refused, naming both,
        and leaves the builder as it was: the next lags equal a fresh
        builder's, also after a skip past a batch of block lags."""
        g = iid_returns(8, 6000, seed=5)
        build = block_lag_corrs(g, 333)
        fresh = list(block_lags(g, 333))
        assert np.array_equal(build(40).values, fresh[39].values)
        for lag in (40, 39, 1):
            with pytest.raises(ValueError, match=f"lag {lag} asked for after lag 40"):
                build(lag)
        for lag in (0, 334):
            with pytest.raises(ValueError, match=f"lag {lag} is outside"):
                build(lag)
        for lag in (41, 300, 333):
            assert np.array_equal(build(lag).values, fresh[lag - 1].values), lag

    def test_lags_are_built_into_out(self):
        """Each lag is written into the array given, with the bytes of a
        lag built into one of its own."""
        g = iid_returns(8, 6000, seed=6)
        build, out = block_lag_corrs(g, 70), np.empty((8, 8))
        for d in block_lags(g, 70):
            got = build(d.lag, out)
            assert got.values is out
            assert np.array_equal(out, d.values), d.lag

    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            block_lag_corrs(iid_returns(8, 6000, seed=0), 10, 0)

    @pytest.mark.parametrize(
        "n, length, size", [(8, 4900, 32), (16, 8192, 64), (64, 32768, 128)]
    )
    def test_block_length_is_the_largest_that_fits(self, n, length, size):
        """Blocks of 32 samples where nothing larger fits in the returns'
        bytes, 128 on the long benchmark record."""
        assert _block_plan(n, length)[0] == size

    @pytest.mark.parametrize("n, length", [(8, 4900), (64, 32768)])
    def test_lags_do_not_depend_on_tau_max(self, n, length):
        """Lags 1..40 are the same bit for bit at tau_max 40, 100 and 300,
        which change the block lags summed in a batch and the batches, with
        blocks of 32 samples and of 128."""
        g = iid_returns(n, length, seed=8)
        want = [d.values for d in block_lags(g, 40)]
        for tau_max in (100, 300):
            build = block_lag_corrs(g, tau_max)
            assert all(np.array_equal(build(k).values, want[k - 1])
                       for k in range(1, 41)), tau_max

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("tau_max", [100, 1000])
    @pytest.mark.parametrize("n, length", [(8, 4900), (16, 8192), (64, 32768)])
    def test_working_set_within_returns_bytes(self, n, length, tau_max, threads):
        """The peak of every thread's allocations together, with blocks of
        32, 64 and 128 samples."""
        g = iid_returns(n, length, seed=3)
        for _ in block_lags(g, 40, threads):  # warm FFT and import caches
            pass
        gc.collect()
        tracemalloc.start()
        try:
            for _ in block_lags(g, tau_max, threads):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= g.returns.nbytes


@given(perm_seed=st.integers(min_value=0, max_value=2**31), lag=st.integers(0, 8))
@settings(max_examples=50)
def test_permutation_equivariance(perm_seed, lag):
    """Reordering series commutes with building the matrix."""
    g = iid_returns(6, 64, seed=1)
    perm = np.random.default_rng(perm_seed).permutation(6)
    permuted = normalize(g.returns[perm])
    direct = lag_corr(permuted, lag).values
    base = lag_corr(g, lag).values
    assert np.allclose(direct, base[np.ix_(perm, perm)], atol=1e-12, rtol=0)


def test_matrix_csv_round_trip(tmp_path, gaussian_returns_64):
    d = lag_corr(gaussian_returns_64, 3)
    path = tmp_path / "d3.csv"
    write_matrix_csv(d, path)
    loaded = np.loadtxt(path, delimiter=",")
    assert loaded.shape == (64, 64)
    assert np.array_equal(loaded, d.values)  # 17 significant digits round-trip


@pytest.mark.parametrize("case", ["random", "edges", "one-by-one", "wide"])
def test_matrix_csv_has_the_bytes_of_savetxt(tmp_path, case):
    """The writer formats rows itself: its bytes are np.savetxt's, for
    -0.0, the smallest subnormal, +-1e308 and a 1 x 1 matrix too."""
    rng = np.random.default_rng(9)
    values = {
        "random": rng.uniform(-1.0, 1.0, (37, 37)),
        "edges": np.array([[-0.0, 5e-324, 1e308], [-1e308, 0.0, -5e-324], [1.0, -1.0, 0.1]]),
        "one-by-one": np.array([[0.30000000000000004]]),
        "wide": rng.standard_normal((3, 300)) * 10.0 ** rng.integers(-300, 300, (3, 300)),
    }[case]
    write_matrix_csv(SimpleNamespace(values=values), tmp_path / "got.csv")
    np.savetxt(tmp_path / "want.csv", values, fmt="%.17g", delimiter=",")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
