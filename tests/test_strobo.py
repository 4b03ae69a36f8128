import numpy as np
import pytest
from collections import Counter

from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from lagspec import (
    ConvergenceFailure,
    IndexOutOfRange,
    LagTooLarge,
    LengthMismatch,
    StroboscopicSequence,
    TooShort,
    Trajectory,
    characteristic_periods,
    compare_spectra,
    eigendecompose,
    equal_time_corr,
    power_spectrum,
    sweep,
    trajectory,
    write_spectrum_csv,
    write_trajectory_csv,
)

from lagspec.strobo import _local_maxima

from conftest import dft_power_oracle, iid_returns, two_sided_power_sum


def tone_trajectory(periods_amps, length=100, kind="eigenvalue", position=0):
    t = np.arange(1, length + 1, dtype=float)
    values = np.zeros(length)
    for period, amp in periods_amps:
        values += amp * np.cos(2.0 * np.pi * t / period)
    return Trajectory(kind=kind, position=position, values=values)


class TestSweep:
    def test_degenerate_sweep(self):
        g = iid_returns(4, 64, seed=0)
        seq = sweep(g, 0)
        assert seq.tau_max == 0
        assert seq.eigenvalues.shape == seq.iprs.shape == (1, 4)
        assert seq.equal_time.lag == 0

    def test_full_sweep_spans_all_lags(self):
        g = iid_returns(8, 256, seed=1)
        seq = sweep(g, 100, delta_t=300.0)
        assert seq.tau_max == 100
        assert seq.n == 8
        assert seq.eigenvalues.shape == seq.iprs.shape == (101, 8)
        assert seq.delta_t == 300.0

    def test_prefix_property(self):
        g = iid_returns(6, 128, seed=2)
        long = sweep(g, 8)
        short = sweep(g, 4)
        assert np.array_equal(long.eigenvalues[:5], short.eigenvalues)
        assert np.array_equal(long.iprs[:5], short.iprs)
        assert np.array_equal(
            long.equal_time.eigenvectors, short.equal_time.eigenvectors
        )

    def test_rows_match_fresh_solves_exactly(self):
        from lagspec import lag_corr

        g = iid_returns(8, 256, seed=3)
        seq = sweep(g, 20)
        for k in range(21):
            system = eigendecompose(lag_corr(g, k))
            assert np.array_equal(seq.eigenvalues[k], system.eigenvalues)
            assert np.array_equal(seq.iprs[k], system.iprs)
            if k == 0:
                assert np.array_equal(
                    seq.equal_time.eigenvectors, system.eigenvectors
                )

    def test_solver_fault_names_the_lag(self, doubled_eigh):
        g = iid_returns(4, 64, seed=4)
        with pytest.raises(ConvergenceFailure, match="at lag 0.*unit norm"):
            sweep(g, 5)

    def test_lag_too_large(self):
        g = iid_returns(4, 64, seed=5)
        with pytest.raises(LagTooLarge):
            sweep(g, 33)

    def test_eigenvalue_sum_matches_trace_at_every_lag(self):
        from lagspec import lag_corr

        g = iid_returns(8, 256, seed=6)
        seq = sweep(g, 20)
        for k, eigenvalues in enumerate(seq.eigenvalues):
            d = lag_corr(g, k)
            assert float(eigenvalues.sum()) == pytest.approx(d.trace, abs=1e-8 * 8)

    def test_middle_positions_have_no_extra_structure(self):
        """On i.i.d. data the middle of the spectrum moves no more than the
        edges across lags."""
        mid, edge = [], []
        for seed in range(20):
            g = iid_returns(16, 1024, seed=seed)
            seq = sweep(g, 20)
            for pos in (7, 8):
                mid.append(np.var(trajectory(seq, "eigenvalue", pos).values))
            for pos in (0, 15):
                edge.append(np.var(trajectory(seq, "eigenvalue", pos).values))
        ratio = np.mean(mid) / np.mean(edge)
        assert 1.0 / 3.0 < ratio < 3.0


class TestTrajectory:
    def test_largest_eigenvalue_trajectory(self):
        g = iid_returns(8, 256, seed=7)
        seq = sweep(g, 10)
        traj = trajectory(seq, "eigenvalue", 7)
        assert traj.values.shape == (10,)
        for tau in range(1, 11):
            assert traj.values[tau - 1] == seq.eigenvalues[tau, 7]
            assert seq.eigenvalues[tau, 7] == max(seq.eigenvalues[tau])

    def test_lowest_position_extractable(self):
        g = iid_returns(8, 256, seed=8)
        seq = sweep(g, 10)
        traj = trajectory(seq, "eigenvalue", 0)
        assert traj.position == 0

    def test_ipr_kind(self):
        g = iid_returns(8, 256, seed=9)
        seq = sweep(g, 10)
        traj = trajectory(seq, "ipr", 3)
        assert traj.values[4] == seq.iprs[5, 3]

    def test_constant_sequence_gives_constant_trajectory(self):
        g = iid_returns(5, 64, seed=10)
        base = eigendecompose(equal_time_corr(g))
        seq = StroboscopicSequence(
            eigenvalues=np.tile(base.eigenvalues, (6, 1)),
            iprs=np.tile(base.iprs, (6, 1)),
            equal_time=base,
            delta_t=1.0,
        )
        traj = trajectory(seq, "eigenvalue", 2)
        assert np.all(traj.values == traj.values[0])

    def test_tables_must_match_equal_time_dimension(self):
        base = eigendecompose(equal_time_corr(iid_returns(5, 64, seed=10)))
        with pytest.raises(ValueError, match="lag-0 system"):
            StroboscopicSequence(
                eigenvalues=np.zeros((3, 4)),
                iprs=np.zeros((3, 4)),
                equal_time=base,
                delta_t=1.0,
            )

    def test_position_out_of_range(self):
        g = iid_returns(4, 64, seed=11)
        seq = sweep(g, 5)
        with pytest.raises(IndexOutOfRange):
            trajectory(seq, "eigenvalue", 4)

    def test_bad_kind(self):
        g = iid_returns(4, 64, seed=12)
        seq = sweep(g, 5)
        with pytest.raises(ValueError):
            trajectory(seq, "spectral", 0)


class TestPowerSpectrum:
    def test_constant_trajectory_all_power_at_zero(self):
        traj = Trajectory("eigenvalue", 0, np.full(32, 2.5))
        spec = power_spectrum(traj, "none")
        assert np.argmax(spec.power) == 0
        assert spec.power[0] == pytest.approx((32 * 2.5) ** 2)
        assert np.all(spec.power[1:] <= 1e-20 * spec.power[0])
        assert spec.peaks == ()

    def test_pure_tone_peaks_within_one_bin(self):
        traj = tone_trajectory([(3.0, 1.0)], length=99)
        spec = power_spectrum(traj, "mean")
        top = spec.peaks[0]
        assert abs(top.frequency - 1.0 / 3.0) <= 1.0 / 99

    def test_matches_brute_force_dft(self):
        g = iid_returns(6, 256, seed=13)
        seq = sweep(g, 24)
        for kind in ("eigenvalue", "ipr"):
            traj = trajectory(seq, kind, 5)
            spec = power_spectrum(traj, "mean")
            oracle = dft_power_oracle(traj.values - traj.values.mean())
            scale = oracle.max()
            assert np.max(np.abs(spec.power - oracle)) <= 1e-9 * scale

    def test_frequency_grid(self):
        for m in (8, 9, 100):
            traj = Trajectory("eigenvalue", 0, np.random.default_rng(m).random(m))
            spec = power_spectrum(traj, "mean")
            assert spec.frequencies.shape == (m // 2 + 1,)
            assert spec.frequencies[0] == 0.0
            assert spec.frequencies[-1] == pytest.approx(0.5 if m % 2 == 0 else 0.5 - 0.5 / m)

    def test_parseval(self):
        for m in (64, 99, 100):
            rng = np.random.default_rng(m)
            traj = Trajectory("eigenvalue", 0, rng.standard_normal(m))
            for detrend in ("none", "mean"):
                spec = power_spectrum(traj, detrend)
                x = traj.values - traj.values.mean() if detrend == "mean" else traj.values
                total = two_sided_power_sum(spec.power, m)
                assert total == pytest.approx(m * np.sum(x**2), rel=1e-6)

    def test_too_short(self):
        with pytest.raises(TooShort):
            power_spectrum(Trajectory("eigenvalue", 0, np.ones(7)), "mean")

    def test_bad_options(self):
        traj = Trajectory("eigenvalue", 0, np.ones(16))
        with pytest.raises(ValueError):
            power_spectrum(traj, "linear")
        with pytest.raises(ValueError):
            power_spectrum(traj, "mean", taper="hamming")

    def test_hann_taper_still_finds_tone(self):
        traj = tone_trajectory([(4.0, 1.0)], length=96)
        spec = power_spectrum(traj, "mean", taper="hann")
        assert abs(spec.peaks[0].frequency - 0.25) <= 1.0 / 96

    def test_no_persistent_false_periodicity_on_iid_data(self):
        """White trajectories may throw isolated detections, but no frequency
        bin repeats across seeds and no detection approaches the significance
        of a planted period."""
        bin_hits = Counter()
        worst = 0.0
        n_seeds = 20
        for seed in range(n_seeds):
            g = iid_returns(16, 1024, seed=100 + seed)
            seq = sweep(g, 40)
            for pos in range(16):
                for kind in ("eigenvalue", "ipr"):
                    spec = power_spectrum(trajectory(seq, kind, pos), "mean")
                    floor = np.median(spec.power[1:])
                    for peak in spec.peaks:
                        worst = max(worst, peak.prominence / floor)
                        bin_hits[(pos, kind, round(peak.frequency * 40))] += 1
        assert max(bin_hits.values(), default=0) <= n_seeds // 2
        assert worst <= 40.0  # planted periods in this suite sit above 250x


class TestLocalMaxima:
    """scipy's find_peaks is the reference for the peak rules."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]), max_size=300))
    def test_matches_find_peaks_with_plateaus_and_ties(self, values):
        x = np.array(values, dtype=float)
        indices, prominences = _local_maxima(x)
        want, props = find_peaks(x, prominence=0.0)
        assert np.array_equal(indices, want)
        assert np.array_equal(prominences, props["prominences"])


class TestCharacteristicPeriods:
    def test_single_tone_period(self):
        spec = power_spectrum(tone_trajectory([(3.0, 1.0)], length=99), "mean")
        periods = characteristic_periods(spec, top_n=1)
        assert len(periods) == 1
        assert periods[0][0] == pytest.approx(3.0, abs=0.3)

    def test_two_tones_ordered_by_power(self):
        spec = power_spectrum(
            tone_trajectory([(3.0, 2.0), (6.0, 1.0)], length=96), "mean"
        )
        periods = characteristic_periods(spec, top_n=2)
        assert periods[0][0] == pytest.approx(3.0, abs=1e-9)
        assert periods[1][0] == pytest.approx(6.0, abs=1e-9)
        assert periods[0][1] > periods[1][1]

    def test_flat_spectrum_returns_empty(self):
        traj = Trajectory("eigenvalue", 0, np.full(32, 1.0))
        spec = power_spectrum(traj, "mean")
        assert characteristic_periods(spec, top_n=3) == []

    def test_top_n_validated(self):
        spec = power_spectrum(tone_trajectory([(3.0, 1.0)]), "mean")
        with pytest.raises(ValueError):
            characteristic_periods(spec, top_n=0)


class TestCompareSpectra:
    def test_identical_spectra_unchanged(self):
        spec = power_spectrum(tone_trajectory([(3.0, 1.0), (6.0, 0.5)], 96), "mean")
        report = compare_spectra(spec, spec, [3.0, 6.0])
        for entry in report.entries:
            assert entry.ratio == pytest.approx(1.0)
            assert entry.classification == "unchanged"

    def test_boosted_peak_classified_enhanced(self):
        before = power_spectrum(tone_trajectory([(3.0, 1.0), (6.0, 1.0)], 96), "mean")
        boosted = tone_trajectory([(3.0, np.sqrt(10.0)), (6.0, 1.0)], 96)
        after = power_spectrum(boosted, "mean")
        report = compare_spectra(before, after, [3.0, 6.0])
        assert report.entry(3.0).classification == "enhanced"
        assert report.entry(3.0).ratio == pytest.approx(10.0, rel=1e-6)
        assert report.entry(6.0).classification == "unchanged"

    def test_suppression_threshold(self):
        before = power_spectrum(tone_trajectory([(4.0, 1.0)], 96), "mean")
        after = power_spectrum(tone_trajectory([(4.0, 0.1)], 96), "mean")
        report = compare_spectra(before, after, [4.0])
        assert report.entry(4.0).classification == "suppressed"

    def test_length_mismatch(self):
        a = power_spectrum(tone_trajectory([(3.0, 1.0)], 96), "mean")
        b = power_spectrum(tone_trajectory([(3.0, 1.0)], 90), "mean")
        with pytest.raises(LengthMismatch):
            compare_spectra(a, b, [3.0])

    def test_custom_thresholds(self):
        before = power_spectrum(tone_trajectory([(4.0, 1.0)], 96), "mean")
        after = power_spectrum(tone_trajectory([(4.0, 1.2)], 96), "mean")
        lenient = compare_spectra(before, after, [4.0], enhanced_ratio=1.2)
        assert lenient.entry(4.0).classification == "enhanced"


def test_csv_exports(tmp_path):
    traj = tone_trajectory([(3.0, 1.0)], length=30)
    spec = power_spectrum(traj, "mean")
    tpath = tmp_path / "traj.csv"
    spath = tmp_path / "spec.csv"
    write_trajectory_csv(traj, tpath)
    write_spectrum_csv(spec, spath)
    tdata = np.loadtxt(tpath, delimiter=",", skiprows=1)
    assert tdata.shape == (30, 2)
    assert np.array_equal(tdata[:, 0], np.arange(1, 31))
    assert np.array_equal(tdata[:, 1], traj.values)
    sdata = np.loadtxt(spath, delimiter=",", skiprows=1)
    assert np.array_equal(sdata[:, 0], spec.frequencies)
    assert np.array_equal(sdata[:, 1], spec.power)
