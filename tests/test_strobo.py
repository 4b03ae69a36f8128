import sys
import threading
import time
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from hypothesis import given, reject, settings, strategies as st
from scipy.signal import find_peaks

from lagspec import (
    ConvergenceFailure,
    CorrelationOutOfRange,
    IndexOutOfRange,
    LagTooLarge,
    LengthMismatch,
    PowerSpectrum,
    ReturnMatrix,
    StroboscopicSequence,
    TooShort,
    characteristic_periods,
    compare_spectra,
    eigendecompose,
    equal_time_corr,
    lag_corr,
    normalize,
    power_spectrum,
    sweep,
    trajectory,
    write_spectrum_csv,
    write_trajectory_csv,
)

from lagspec import _blas
from lagspec.lagcorr import block_lag_corrs, patch_rows, uses_block_path
from lagspec.strobo import _local_maxima, _solve_rows, _split

from conftest import (
    dft_power_oracle,
    iid_returns,
    needs_openblas,
    sweep_blas,
    two_sided_power_sum,
)


def faulty_eigh(monkeypatch, matrices, lags, slow=()):
    """Make np.linalg.eigh return 2x its eigenvectors, which fails the unit
    norm check, for the matrices of ``matrices`` at ``lags``; at ``slow``
    lags, faulty or not, it first sleeps 0.2 s.  Faults are keyed on the
    input matrix, so they hold whichever worker solves it."""
    eigh = np.linalg.eigh
    matrices = [m for m in matrices if m.lag in lags or m.lag in slow]
    faulty = {m.values.tobytes() for m in matrices if m.lag in lags}
    sleepy = {m.values.tobytes() for m in matrices if m.lag in slow}

    def doubled_at_lags(a):
        if a.tobytes() in sleepy:
            time.sleep(0.2)
        vals, vecs = eigh(a)
        return vals, (2.0 if a.tobytes() in faulty else 1.0) * vecs

    monkeypatch.setattr(np.linalg, "eigh", doubled_at_lags)


def assert_restored_after_sweeps(monkeypatch, shape):
    """The OpenBLAS count and the number of threads are those before a
    sweep, after a normal sweep and after one that raises."""
    n, length, tau_max = shape
    g = iid_returns(n, length, seed=13)
    threads = threading.active_count()
    with _blas.threads(2):
        sweep(g, tau_max)
        assert _blas.thread_count() == 2
        assert threading.active_count() == threads
        with sweep_blas(g, tau_max):
            faulty_eigh(monkeypatch, lagged(g, tau_max), {9})
        with pytest.raises(ConvergenceFailure, match="at lag 9.*unit norm"):
            sweep(g, tau_max)
        assert _blas.thread_count() == 2
        assert threading.active_count() == threads


def tone_trajectory(periods_amps, length=100):
    t = np.arange(1, length + 1, dtype=float)
    values = np.zeros(length)
    for period, amp in periods_amps:
        values += amp * np.cos(2.0 * np.pi * t / period)
    return values


class TestSweep:
    def test_degenerate_sweep(self):
        g = iid_returns(4, 64, seed=0)
        seq = sweep(g, 0)
        assert seq.tau_max == 0
        assert seq.eigenvalues.shape == seq.iprs.shape == (1, 4)

    def test_full_sweep_spans_all_lags(self):
        g = iid_returns(8, 256, seed=1)
        seq = sweep(g, 100)
        assert seq.tau_max == 100
        assert seq.n == 8
        assert seq.eigenvalues.shape == seq.iprs.shape == (101, 8)

    @pytest.mark.parametrize(
        "n, length, short_tau, long_tau",
        # direct path; block path with its first batch of block lags ending
        # at the same block (40, 100) and at different blocks (10, 100)
        [(6, 128, 4, 8), (8, 6000, 40, 100), (8, 6000, 10, 100)],
    )
    def test_prefix_property(self, n, length, short_tau, long_tau):
        g = iid_returns(n, length, seed=2)
        long = sweep(g, long_tau)
        short = sweep(g, short_tau)
        assert np.array_equal(long.eigenvalues[:short_tau + 1], short.eigenvalues)
        assert np.array_equal(long.iprs[:short_tau + 1], short.iprs)
        for k in (1, short_tau, short_tau + 1, long_tau):
            fresh = eigendecompose(lag_corr(g, k))
            assert np.allclose(long.eigenvalues[k], fresh.eigenvalues, atol=1e-13, rtol=0)

    def test_rows_match_fresh_solves_exactly(self):
        g = iid_returns(8, 256, seed=3)
        seq = sweep(g, 20)
        for k in range(21):
            with sweep_blas(g, 20):
                system = eigendecompose(lag_corr(g, k))
            assert np.array_equal(seq.eigenvalues[k], system.eigenvalues)
            assert np.array_equal(seq.iprs[k], system.iprs)
            if k == 0:
                assert np.array_equal(seq.equal_time_matrix.values, lag_corr(g, 0).values)

    @pytest.mark.parametrize(
        "n, length, tau_max, block_path",
        [
            (6, 128, 12, False),
            (512, 4096, 30, False),  # the wide benchmark's shape
            (64, 2048, 400, False),  # the inject benchmark's shape
            (64, 32768, 100, True),  # the long benchmark's shape
        ],
    )
    def test_one_lag_corr_per_lag(self, monkeypatch, n, length, tau_max, block_path):
        """Long records take lags >= 1 from the block kernel; other records
        call lag_corr once per lag.  The products and eigensolves are
        stubbed: only the lags asked for matter here."""
        import lagspec.strobo
        from lagspec import EigenSystem, LagCorrMatrix

        lags, solved = [], []
        system = EigenSystem(eigenvalues=np.ones(n), eigenvectors=np.eye(n),
                             iprs=np.ones(n))

        def counting(g, lag, out=None):
            lags.append(lag)
            return LagCorrMatrix(lag=lag, values=np.eye(n))

        def solve(d):
            solved.append(d.lag)
            return system

        monkeypatch.setattr(lagspec.strobo, "lag_corr", counting)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        seq = sweep(iid_returns(n, length, seed=5), tau_max)
        # each lag built once and solved once, in whatever order
        assert sorted(lags) == ([0] if block_path else list(range(tau_max + 1)))
        assert sorted(solved) == list(range(tau_max + 1))
        assert seq.equal_time_matrix.lag == 0

    @pytest.mark.parametrize(
        "n, length, tau_max", [(4, 64, 5), (8, 6000, 40)]  # direct, block path
    )
    def test_solver_fault_names_the_lag(self, doubled_eigh, n, length, tau_max):
        g = iid_returns(n, length, seed=4)
        with pytest.raises(ConvergenceFailure, match="at lag 0.*unit norm"):
            sweep(g, tau_max)

    def test_solver_fault_at_a_block_path_lag(self, monkeypatch):
        g = iid_returns(8, 6000, seed=4)
        with sweep_blas(g, 40):
            faulty_eigh(monkeypatch, block_lag_corrs(g, 40), range(34, 41))
        with pytest.raises(ConvergenceFailure, match="at lag 34.*unit norm"):
            sweep(g, 40)

    def test_out_of_range_block_path_matrix_names_the_lag(self):
        # series 0 moves only at t = 0, 2000 and 4000: its lag-2000 self term
        # is about 2/3 * L / (L - 2000) = 1.11
        raw = np.zeros((2, 5000))
        raw[0, [0, 2000, 4000]] = 1.0
        raw[1] = np.random.default_rng(0).standard_normal(5000)
        g = normalize(raw)
        from lagspec.lagcorr import uses_block_path

        assert uses_block_path(2, 5000)
        with pytest.raises(CorrelationOutOfRange, match="at lag 2000$"):
            sweep(g, 2100)

    def test_lag_too_large(self):
        g = iid_returns(4, 64, seed=5)
        with pytest.raises(LagTooLarge):
            sweep(g, 33)

    def test_eigenvalue_sum_matches_trace_at_every_lag(self):
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
                mid.append(np.var(trajectory(seq, "eigenvalue", pos)))
            for pos in (0, 15):
                edge.append(np.var(trajectory(seq, "eigenvalue", pos)))
        ratio = np.mean(mid) / np.mean(edge)
        assert 1.0 / 3.0 < ratio < 3.0


# (n, length, tau_max): the direct path, the block path over two batches,
# and a direct-path record wide enough (L < 10 N) to take the helper
DIRECT, BLOCK, HELPER = (8, 256, 20), (8, 6000, 100), (32, 128, 20)


def lagged(g, tau_max):
    """The sweep's matrices of lags 1..tau_max, by either path."""
    if uses_block_path(*g.returns.shape):
        return block_lag_corrs(g, tau_max)
    return (lag_corr(g, k) for k in range(1, tau_max + 1))


def one_record(matrices):
    """``_solve_rows``'s lag function for one record's matrices, made
    already: lag k yields the k-th."""
    matrices = list(matrices)
    return lambda k, out=None: iter(matrices[k:k + 1])


@needs_openblas
class TestSweepWorkers:
    @pytest.mark.parametrize("shape", [DIRECT, BLOCK])
    def test_tables_bit_equal_for_one_and_two_workers(self, shape):
        """The worker loop itself, on either path's matrices: at one BLAS
        thread, one and two workers give the same bytes."""
        n, length, tau_max = shape
        g = iid_returns(n, length, seed=12)
        tables = []
        for workers in (1, 2):
            eigenvalues, iprs = np.empty((2, 1, tau_max + 1, n))
            matrices = one_record(chain([lag_corr(g, 0)], lagged(g, tau_max)))
            with _blas.threads(1):
                _solve_rows(matrices, eigenvalues, iprs, workers)
            tables.append((eigenvalues, iprs))
        assert np.array_equal(tables[0][0], tables[1][0])
        assert np.array_equal(tables[0][1], tables[1][1])

    def test_sweep_spreads_a_direct_path_record(self):
        n, length, tau_max = DIRECT
        g = iid_returns(n, length, seed=12)
        with _blas.threads(1):
            assert _split(g, tau_max) == (1, False, 1)
            serial = sweep(g, tau_max)
        with _blas.threads(2):
            assert _split(g, tau_max) == (2, False, 1)
            spread = sweep(g, tau_max)
        assert np.array_equal(serial.eigenvalues, spread.eigenvalues)
        assert np.array_equal(serial.iprs, spread.iprs)

    def test_sweep_spreads_a_block_path_record(self):
        """Two solvers, the kernel split over both threads: the tables of
        one thread, bit for bit."""
        n, length, tau_max = BLOCK
        g = iid_returns(n, length, seed=12)
        with _blas.threads(1):
            assert _split(g, tau_max) == (1, False, 1)
            serial = sweep(g, tau_max)
        with _blas.threads(2):
            assert _split(g, tau_max) == (2, False, 1)
            spread = sweep(g, tau_max)
        assert np.array_equal(serial.eigenvalues, spread.eigenvalues)
        assert np.array_equal(serial.iprs, spread.iprs)

    @pytest.mark.parametrize(
        "n, length, tau_max",
        [(512, 4096, 30), (64, 32768, 100), BLOCK, HELPER],  # wide, long benchmark shapes
    )
    def test_wide_records_take_the_helper_and_block_path_records_spread(
        self, n, length, tau_max
    ):
        """On the direct path a wide record has one solver, at 1 thread
        beside the helper; a block-path record has a solver per thread, as
        its kernel is split over them.  At one thread, one serial solver."""
        g = iid_returns(n, length, seed=0)
        block_path = uses_block_path(n, length)
        with _blas.threads(2):
            assert _split(g, tau_max) == ((2, False, 1) if block_path else (1, True, 1))
        with _blas.threads(3):
            assert _split(g, tau_max) == ((3, False, 1) if block_path else (1, True, 1))
        with _blas.threads(1):
            assert _split(g, tau_max) == (1, False, 1)

    def test_no_helper_without_lags_to_build(self):
        g = iid_returns(*HELPER[:2], seed=0)
        with _blas.threads(2):
            assert _split(g, 0) == (1, False, 2)

    def test_blas_threads_restored(self, monkeypatch):
        assert_restored_after_sweeps(monkeypatch, DIRECT)

    def test_lowest_failing_lag_is_raised(self, monkeypatch):
        n, length, tau_max = DIRECT
        g = iid_returns(n, length, seed=14)
        # lag 6 is slow, so lag 7, solved beside it, fails first
        faulty_eigh(monkeypatch, lagged(g, tau_max), {6, 7, 15, tau_max}, slow={6})
        with _blas.threads(2):
            with pytest.raises(ConvergenceFailure, match="at lag 6.*unit norm"):
                sweep(g, tau_max)

    def test_failure_in_building_names_its_lag(self, monkeypatch):
        """A lag whose build raises, as the block kernel can: its error is
        raised unless a lower lag's solve fails too."""
        n, length, tau_max = BLOCK
        g = iid_returns(n, length, seed=14)
        made = one_record(chain([lag_corr(g, 0)], lagged(g, tau_max)))

        def matrices(k, out=None):
            if k == 8:
                raise CorrelationOutOfRange("correlation entries outside [-1, 1] at lag 8")
            yield from made(k)

        eigenvalues, iprs = np.empty((2, 1, tau_max + 1, n))
        with _blas.threads(1):
            with pytest.raises(CorrelationOutOfRange, match="at lag 8$"):
                _solve_rows(matrices, eigenvalues, iprs, 2)
            faulty_eigh(monkeypatch, lagged(g, tau_max), {7}, slow={7})
            with pytest.raises(ConvergenceFailure, match="at lag 7.*unit norm"):
                _solve_rows(matrices, eigenvalues, iprs, 2)

    @pytest.mark.parametrize("case", ["out-of-range", "solver-fault"])
    def test_block_path_failure_met_first_by_the_next_lag(self, monkeypatch, case):
        """Lag k's take is held back, so the solver holding lag k + 1 runs
        the kernel past lag k first.  Lag k still reaches its own solver,
        and the sweep raises lag k's error: neither the kernel's failure
        nor lag k's matrix goes to the solver of lag k + 1 instead."""
        import lagspec.strobo

        if case == "out-of-range":
            # series 0 moves only at t = 0, 2000 and 4000
            raw = np.zeros((2, 5000))
            raw[0, [0, 2000, 4000]] = 1.0
            raw[1] = np.random.default_rng(0).standard_normal(5000)
            g, tau_max, k = normalize(raw), 2100, 2000
            error, match = CorrelationOutOfRange, "at lag 2000$"
        else:
            g, tau_max, k = iid_returns(8, 6000, seed=4), 40, 34
            error, match = ConvergenceFailure, "at lag 34.*unit norm"
            with _blas.threads(1):
                faulty_eigh(monkeypatch, block_lag_corrs(g, tau_max), range(34, 41))
        in_lag_order = lagspec.strobo._in_lag_order
        asked = []

        def held_back(lags):
            take = in_lag_order(lags)

            def slow_take(lag):
                if lag == k:
                    time.sleep(0.3)
                asked.append(lag)
                return take(lag)

            return slow_take

        monkeypatch.setattr(lagspec.strobo, "_in_lag_order", held_back)
        with _blas.threads(2):
            assert _split(g, tau_max) == (2, False, 1)
            with pytest.raises(error, match=match):
                sweep(g, tau_max)
        assert asked.index(k + 1) < asked.index(k)

    def test_direct_path_build_failure_names_its_lag(self, monkeypatch):
        import lagspec.strobo

        def failing(g, lag, out=None):
            if lag in (9, 12):
                raise CorrelationOutOfRange(f"correlation entries outside [-1, 1] at lag {lag}")
            return lag_corr(g, lag, out=out)

        g = iid_returns(*DIRECT[:2], seed=17)
        # solver faults above the first build failure lose to it
        faulty_eigh(monkeypatch, lagged(g, DIRECT[2]), {10, 11})
        monkeypatch.setattr(lagspec.strobo, "lag_corr", failing)
        with _blas.threads(2):
            with pytest.raises(CorrelationOutOfRange, match="at lag 9$"):
                sweep(g, DIRECT[2])
            assert _blas.thread_count() == 2

    @pytest.mark.parametrize("shape, total", [(BLOCK, 1), (DIRECT, 1)], ids=["block", "direct"])
    def test_one_worker_solves_every_lag_on_the_calling_thread_in_order(
        self, monkeypatch, shape, total
    ):
        """Where ``_split`` gives one worker and no helper, at one thread on
        either path, the calling thread solves lags 0..tau_max in order."""
        import lagspec.strobo

        solves = []

        def solve(d):
            solves.append((threading.get_ident(), d.lag))
            return eigendecompose(d)

        n, length, tau_max = shape
        g = iid_returns(n, length, seed=22)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        with _blas.threads(total):
            assert _split(g, tau_max) == (1, False, total)
            sweep(g, tau_max)
        assert solves == [(threading.get_ident(), k) for k in range(tau_max + 1)]

    def test_serial_without_openblas(self, monkeypatch):
        import lagspec.strobo

        threads = set()

        def solve(d):
            threads.add(threading.get_ident())
            return eigendecompose(d)

        g = iid_returns(*DIRECT[:2], seed=15)
        with _blas.threads(2):
            spread = sweep(g, DIRECT[2])
        monkeypatch.setattr(_blas, "_functions", lambda: None)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        assert _split(g, DIRECT[2]) == (1, False, None)
        assert _split(g, HELPER[2]) == (1, False, None)
        serial = sweep(g, DIRECT[2])
        assert threads == {threading.get_ident()}
        assert np.array_equal(serial.eigenvalues, spread.eigenvalues)

    def test_many_workers_solve_each_lag_once(self, monkeypatch):
        """More workers than cores and a short switch interval: a lost
        update to the shared lag counter would solve a lag twice or leave
        a row unwritten."""
        import lagspec.strobo

        solved = []

        def solve(d):
            solved.append(d.lag)
            return eigendecompose(d)

        g = iid_returns(8, 4096, seed=16)
        with _blas.threads(1):
            serial = sweep(g, 200)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _blas.threads(8):
                assert _split(g, 200) == (8, False, 1)
                runner = threading.Thread(target=lambda: results.append(sweep(g, 200)))
                runner.start()
                runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(solved) == list(range(201))
        assert np.array_equal(results[0].eigenvalues, serial.eigenvalues)
        assert np.array_equal(results[0].iprs, serial.iprs)

    def test_many_workers_take_each_block_path_lag_once(self, monkeypatch):
        """Eight solvers and a kernel split eight ways, with a short switch
        interval: every lag reaches its own solver once, and the tables are
        those of one thread."""
        import lagspec.strobo

        solved = []

        def solve(d):
            solved.append(d.lag)
            return eigendecompose(d)

        n, length, tau_max = BLOCK
        g = iid_returns(n, length, seed=16)
        with _blas.threads(1):
            serial = sweep(g, tau_max)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _blas.threads(8):
                assert _split(g, tau_max) == (8, False, 1)
                runner = threading.Thread(target=lambda: results.append(sweep(g, tau_max)))
                runner.start()
                runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(solved) == list(range(tau_max + 1))
        assert np.array_equal(results[0].eigenvalues, serial.eigenvalues)
        assert np.array_equal(results[0].iprs, serial.iprs)


class TestTrajectory:
    def test_largest_eigenvalue_trajectory(self):
        g = iid_returns(8, 256, seed=7)
        seq = sweep(g, 10)
        traj = trajectory(seq, "eigenvalue", 7)
        assert traj.shape == (10,)
        for tau in range(1, 11):
            assert traj[tau - 1] == seq.eigenvalues[tau, 7]
            assert seq.eigenvalues[tau, 7] == max(seq.eigenvalues[tau])

    def test_lowest_position_extractable(self):
        g = iid_returns(8, 256, seed=8)
        seq = sweep(g, 10)
        traj = trajectory(seq, "eigenvalue", 0)
        assert np.array_equal(traj, seq.eigenvalues[1:, 0])

    def test_ipr_kind(self):
        g = iid_returns(8, 256, seed=9)
        seq = sweep(g, 10)
        traj = trajectory(seq, "ipr", 3)
        assert traj[4] == seq.iprs[5, 3]

    def test_constant_sequence_gives_constant_trajectory(self):
        g = iid_returns(5, 64, seed=10)
        d0 = equal_time_corr(g)
        base = eigendecompose(d0)
        seq = StroboscopicSequence(
            eigenvalues=np.tile(base.eigenvalues, (6, 1)),
            iprs=np.tile(base.iprs, (6, 1)),
            equal_time_matrix=d0,
        )
        traj = trajectory(seq, "eigenvalue", 2)
        assert np.all(traj == traj[0])

    def test_tables_must_match_equal_time_dimension(self):
        d0 = equal_time_corr(iid_returns(5, 64, seed=10))
        with pytest.raises(ValueError, match="lag-0 matrix"):
            StroboscopicSequence(
                eigenvalues=np.zeros((3, 4)),
                iprs=np.zeros((3, 4)),
                equal_time_matrix=d0,
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
        traj = np.full(32, 2.5)
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
            oracle = dft_power_oracle(traj - traj.mean())
            scale = oracle.max()
            assert np.max(np.abs(spec.power - oracle)) <= 1e-9 * scale

    def test_frequency_grid(self):
        for m in (8, 9, 100):
            traj = np.random.default_rng(m).random(m)
            spec = power_spectrum(traj, "mean")
            assert spec.frequencies.shape == (m // 2 + 1,)
            assert spec.frequencies[0] == 0.0
            assert spec.frequencies[-1] == pytest.approx(0.5 if m % 2 == 0 else 0.5 - 0.5 / m)

    def test_parseval(self):
        for m in (64, 99, 100):
            rng = np.random.default_rng(m)
            traj = rng.standard_normal(m)
            for detrend in ("none", "mean"):
                spec = power_spectrum(traj, detrend)
                x = traj - traj.mean() if detrend == "mean" else traj
                total = two_sided_power_sum(spec.power, m)
                assert total == pytest.approx(m * np.sum(x**2), rel=1e-6)

    def test_too_short(self):
        with pytest.raises(TooShort):
            power_spectrum(np.ones(7), "mean")

    def test_bad_options(self):
        traj = np.ones(16)
        with pytest.raises(ValueError):
            power_spectrum(traj, "linear")

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
        traj = np.full(32, 1.0)
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

    @pytest.mark.parametrize("ratio", [10.0, 2.0])
    def test_boosted_peak_classified_enhanced(self, ratio):
        before = power_spectrum(tone_trajectory([(3.0, 1.0), (6.0, 1.0)], 96), "mean")
        if ratio == 2.0:
            # doubling the three bins around period 3 is exact: the ratio
            # sits on the threshold
            power = before.power.copy()
            power[31:34] *= 2.0
            after = PowerSpectrum(before.frequencies, power, ())
        else:
            boosted = tone_trajectory([(3.0, np.sqrt(10.0)), (6.0, 1.0)], 96)
            after = power_spectrum(boosted, "mean")
        report = compare_spectra(before, after, [3.0, 6.0])
        assert report.entry(3.0).classification == "enhanced"
        assert report.entry(3.0).ratio == pytest.approx(ratio, rel=1e-6)
        assert report.entry(6.0).classification == "unchanged"
        if ratio == 2.0:
            assert report.entry(3.0).ratio == 2.0

    @pytest.mark.parametrize("exact_half", [False, True])
    def test_suppression_threshold(self, exact_half):
        before = power_spectrum(tone_trajectory([(4.0, 1.0)], 96), "mean")
        if exact_half:  # halving every bin is exact: the ratio is 0.5
            after = PowerSpectrum(before.frequencies, before.power * 0.5, ())
        else:
            after = power_spectrum(tone_trajectory([(4.0, 0.1)], 96), "mean")
        report = compare_spectra(before, after, [4.0])
        assert report.entry(4.0).classification == "suppressed"
        if exact_half:
            assert report.entry(4.0).ratio == 0.5

    def test_length_mismatch(self):
        a = power_spectrum(tone_trajectory([(3.0, 1.0)], 96), "mean")
        b = power_spectrum(tone_trajectory([(3.0, 1.0)], 90), "mean")
        with pytest.raises(LengthMismatch):
            compare_spectra(a, b, [3.0])



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
    assert np.array_equal(tdata[:, 1], traj)
    sdata = np.loadtxt(spath, delimiter=",", skiprows=1)
    assert np.array_equal(sdata[:, 0], spec.frequencies)
    assert np.array_equal(sdata[:, 1], spec.power)


@needs_openblas
class TestSweepHelper:
    """Records that the memory cap keeps at one solver: a helper thread
    builds lag k + 1 into one of two slots while the calling thread solves
    lag k, both at 1 BLAS thread of a budget of 2."""

    def test_wide_tables_bit_equal_to_fresh_solves(self):
        # the wide benchmark's shape, over fewer lags: each slot is reused
        n, length, tau_max = 512, 4096, 12
        g = iid_returns(n, length, seed=18)
        with _blas.threads(2):
            assert _split(g, tau_max) == (1, True, 1)
            seq = sweep(g, tau_max)
            with sweep_blas(g, tau_max):
                for k in range(tau_max + 1):
                    system = eigendecompose(lag_corr(g, k))
                    assert np.array_equal(seq.eigenvalues[k], system.eigenvalues), k
                    assert np.array_equal(seq.iprs[k], system.iprs), k
            # lag 0, built at 1 thread, equals its build at 2: numpy forms
            # returns @ returns.T with syrk, so equal_time.csv keeps its bytes
            assert np.array_equal(seq.equal_time_matrix.values, lag_corr(g, 0).values)

    def test_blas_threads_restored(self, monkeypatch):
        assert_restored_after_sweeps(monkeypatch, HELPER)

    def test_helper_builds_into_two_slots_and_the_caller_solves(self, monkeypatch):
        import lagspec.strobo

        n, length, tau_max = HELPER
        builders, slots, solvers = {}, {}, set()

        def counting(g, lag, out=None):
            builders[lag] = threading.get_ident()
            slots[lag] = None if out is None else out.__array_interface__["data"][0]
            return lag_corr(g, lag, out=out)

        def solve(d):
            solvers.add(threading.get_ident())
            return eigendecompose(d)

        g = iid_returns(n, length, seed=19)
        with _blas.threads(1):
            serial = sweep(g, tau_max)
        monkeypatch.setattr(lagspec.strobo, "lag_corr", counting)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        with _blas.threads(2):
            helped = sweep(g, tau_max)
        caller = threading.get_ident()
        assert solvers == {caller}
        assert sorted(builders) == list(range(tau_max + 1))
        assert builders[0] == caller and slots[0] is None
        assert caller not in {builders[k] for k in range(1, tau_max + 1)}
        # lags k and k + 2 share a slot; lags k and k + 1 never do
        assert len({slots[k] for k in range(1, tau_max + 1)}) == 2
        assert all(slots[k] == slots[k + 2] != slots[k + 1] for k in range(1, tau_max - 1))
        assert np.array_equal(helped.eigenvalues, serial.eigenvalues)
        assert np.array_equal(helped.iprs, serial.iprs)

    @pytest.mark.parametrize("slow", [(), (8,)], ids=["none-slow", "lag-8-slow"])
    def test_build_fault_names_its_lag(self, monkeypatch, slow):
        """Lag 9's build fails, while lag 8 is solved if that is slow;
        solver faults above it are never reached."""
        import lagspec.strobo

        def failing(g, lag, out=None):
            if lag in (9, 12):
                raise CorrelationOutOfRange(f"correlation entries outside [-1, 1] at lag {lag}")
            return lag_corr(g, lag, out=out)

        n, length, tau_max = HELPER
        g = iid_returns(n, length, seed=20)
        with _blas.threads(1):
            faulty_eigh(monkeypatch, lagged(g, tau_max), {10, 11}, slow=slow)
        monkeypatch.setattr(lagspec.strobo, "lag_corr", failing)
        with _blas.threads(2):
            with pytest.raises(CorrelationOutOfRange, match="at lag 9$"):
                sweep(g, tau_max)

    @pytest.mark.parametrize("slow", [(), (8,), (9,)],
                             ids=["none-slow", "lag-8-slow", "lag-9-slow"])
    def test_solve_fault_names_its_lag(self, monkeypatch, slow):
        """Lag 9's solve fails and lag 10's build fails: lag 9's error is
        raised, also when lag 9's slow solve lets lag 10's build fail
        first."""
        import lagspec.strobo

        def failing(g, lag, out=None):
            if lag == 10:
                raise CorrelationOutOfRange(f"correlation entries outside [-1, 1] at lag {lag}")
            return lag_corr(g, lag, out=out)

        n, length, tau_max = HELPER
        g = iid_returns(n, length, seed=20)
        with _blas.threads(1):
            faulty_eigh(monkeypatch, lagged(g, tau_max), {9, 15}, slow=slow)
        monkeypatch.setattr(lagspec.strobo, "lag_corr", failing)
        with _blas.threads(2):
            with pytest.raises(ConvergenceFailure, match="at lag 9.*unit norm"):
                sweep(g, tau_max)

    def test_no_slot_is_overwritten_while_its_lag_is_solved(self, monkeypatch):
        """Slow solves and a short switch interval give the helper every
        chance to run ahead: a lag whose slot were overwritten before or
        during its solve would leave another lag's row."""
        import lagspec.strobo

        def slow_solve(d):
            time.sleep(0.002)
            system = eigendecompose(d)
            time.sleep(0.002)
            return system

        g = iid_returns(32, 128, seed=21)
        with _blas.threads(1):
            serial = sweep(g, 60)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", slow_solve)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _blas.threads(2):
                assert _split(g, 60) == (1, True, 1)
                runner = threading.Thread(target=lambda: results.append(sweep(g, 60)))
                runner.start()
                runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert np.array_equal(results[0].eigenvalues, serial.eigenvalues)
        assert np.array_equal(results[0].iprs, serial.iprs)


def replaced(g, rows, seed):
    """g with the series ``rows`` replaced by fresh normalized ones, as an
    injection leaves a record."""
    returns = g.returns.copy()
    returns[rows] = iid_returns(len(rows), g.n_returns, seed=seed).returns
    return ReturnMatrix(series_ids=g.series_ids, returns=returns)


@needs_openblas
class TestPairedSweep:
    """``sweep(g, tau_max, after=a)``: both records in one pass, a's lags
    made from g's by rebuilding the rows that differ, where those are fewer
    than half."""

    @pytest.mark.parametrize(
        "shape", [DIRECT, HELPER, BLOCK], ids=["direct", "helper", "block"],
    )
    @pytest.mark.parametrize("changed", [0, 1, 3])
    def test_before_bit_equal_and_after_within_rounding(self, shape, changed):
        """On the block path the records are swept in turn, so a's tables
        are a lone sweep's."""
        n, length, tau_max = shape
        g = iid_returns(n, length, seed=30)
        a = replaced(g, list(range(2, 2 + changed)), seed=31)
        with _blas.threads(2):
            before, after = sweep(g, tau_max, after=a)
            lone_before, lone_after = sweep(g, tau_max), sweep(a, tau_max)
            with sweep_blas(g, tau_max):
                for k, matrix in enumerate(chain([lag_corr(g, 0)], lagged(g, tau_max))):
                    system = eigendecompose(matrix)
                    assert np.array_equal(before.eigenvalues[k], system.eigenvalues)
                    assert np.array_equal(before.iprs[k], system.iprs)
        assert np.array_equal(before.eigenvalues, lone_before.eigenvalues)
        assert np.array_equal(before.iprs, lone_before.iprs)
        assert np.array_equal(before.equal_time_matrix.values,
                              lone_before.equal_time_matrix.values)
        if changed == 0:
            assert np.array_equal(after.eigenvalues, before.eigenvalues)
            assert np.array_equal(after.iprs, before.iprs)
        if uses_block_path(n, length):
            assert np.array_equal(after.eigenvalues, lone_after.eigenvalues)
            assert np.array_equal(after.iprs, lone_after.iprs)
        assert np.allclose(after.eigenvalues, lone_after.eigenvalues, rtol=0, atol=1e-13)
        assert np.allclose(after.iprs, lone_after.iprs, rtol=0, atol=1e-9)
        assert np.allclose(after.equal_time_matrix.values,
                           lone_after.equal_time_matrix.values, rtol=0, atol=4e-15)

    def test_after_lowers_workers_never_threads_per_lag(self):
        """On the default experiment preset's shape at T = 6 and 12, a's
        extra matrix per lag leaves room for fewer lags at once than a lone
        sweep of g, but each still runs at the lone sweep's BLAS threads,
        so g's tables keep their bytes."""
        g = iid_returns(64, 2048, seed=41)
        a = replaced(g, [3, 9, 20, 40], seed=42)
        for total, lone, paired in ((6, (4, False, 1), (3, False, 1)),
                                    (12, (4, False, 3), (3, False, 3))):
            with _blas.threads(total):
                assert _split(g, 400) == lone
                assert _split(g, 400, records=2) == paired
        with _blas.threads(6):
            before, after = sweep(g, 40, after=a)
            lone_before, lone_after = sweep(g, 40), sweep(a, 40)
        assert np.array_equal(before.eigenvalues, lone_before.eigenvalues)
        assert np.array_equal(before.iprs, lone_before.iprs)
        assert np.allclose(after.eigenvalues, lone_after.eigenvalues, rtol=0, atol=1e-13)

    def test_half_the_series_changed_builds_after_in_full(self, monkeypatch):
        """Where 2k >= N, each lag of a is ``lag_corr(a, k)``, so a's tables
        are a lone sweep's bit for bit; where 2k < N no lag of a is built
        in full."""
        import lagspec.strobo

        n, length, tau_max = DIRECT
        g = iid_returns(n, length, seed=32)
        built = Counter()

        def counting(record, lag, out=None):
            built[record is g] += 1
            return lag_corr(record, lag, out=out)

        monkeypatch.setattr(lagspec.strobo, "lag_corr", counting)
        with _blas.threads(2):
            half = replaced(g, list(range(n // 2)), seed=33)
            after = sweep(g, tau_max, after=half)[1]
            assert built == {True: tau_max + 1, False: tau_max + 2}
            lone = sweep(half, tau_max)
            assert np.array_equal(after.eigenvalues, lone.eigenvalues)
            assert np.array_equal(after.iprs, lone.iprs)
            built.clear()
            sweep(g, tau_max, after=replaced(g, list(range(n // 2 - 1)), seed=33))
            assert built == {True: tau_max + 1}

    def test_records_of_different_shapes(self, monkeypatch):
        import lagspec.strobo

        def no_work(*args, **kwargs):
            raise AssertionError("work began before the shapes were checked")

        monkeypatch.setattr(lagspec.strobo, "lag_corr", no_work)
        g = iid_returns(8, 256, seed=34)
        for other in (iid_returns(8, 254, seed=34), iid_returns(7, 256, seed=34)):
            with pytest.raises(ValueError, match="differ in shape"):
                sweep(g, 20, after=other)

    @pytest.mark.parametrize("shape", [(8, 1024, 300), (64, 640, 300)], ids=["workers", "helper"])
    def test_a_fault_in_g_at_any_lag_is_raised_first(self, monkeypatch, shape):
        """a's solve fails at lag 3 and g's at lag 300: g's error is raised,
        as if g were swept first; without g's fault a's is.  Helpers are
        joined and the BLAS count restored either way."""
        n, length, tau_max = shape
        g = iid_returns(n, length, seed=35)
        rows = np.array([1, 4])
        a = replaced(g, rows, seed=36)
        with _blas.threads(2):
            expected = (2, False, 1) if n == 8 else (1, True, 1)
            assert _split(g, tau_max, records=2) == expected
            with sweep_blas(g, tau_max):
                a_at_3 = patch_rows(lag_corr(g, 3), a, rows)
                g_at_300 = lag_corr(g, 300)
            threads = threading.active_count()
            for faults, lag in (([a_at_3, g_at_300], 300), ([a_at_3], 3)):
                faulty_eigh(monkeypatch, faults, {3, 300})
                with pytest.raises(ConvergenceFailure, match=f"at lag {lag}.*unit norm"):
                    sweep(g, tau_max, after=a)
                assert _blas.thread_count() == 2
                assert threading.active_count() == threads
                monkeypatch.undo()

    def test_many_workers_solve_each_lag_of_each_record_once(self, monkeypatch):
        """More workers than cores and a short switch interval: a lost
        update would solve a lag of a record twice or leave a row
        unwritten."""
        import lagspec.strobo

        solved = Counter()

        def solve(d):
            solved[d.lag] += 1
            return eigendecompose(d)

        g = iid_returns(8, 4096, seed=39)
        a = replaced(g, [5], seed=40)
        with _blas.threads(1):
            serial = sweep(g, 200, after=a)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _blas.threads(8):
                assert _split(g, 200, records=2) == (8, False, 1)
                runner = threading.Thread(
                    target=lambda: results.append(sweep(g, 200, after=a)))
                runner.start()
                runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert solved == {k: 2 for k in range(201)}
        for seq, expected in zip(results[0], serial, strict=True):
            assert np.array_equal(seq.eigenvalues, expected.eigenvalues)
            assert np.array_equal(seq.iprs, expected.iprs)

    def test_a_build_fault_in_g_beats_a_lower_one_in_a(self, monkeypatch):
        import lagspec.strobo

        n, length, tau_max = DIRECT
        g = iid_returns(n, length, seed=37)
        a = replaced(g, list(range(n // 2)), seed=38)  # a is built in full

        def failing(record, lag, out=None):
            if (record is a and lag == 2) or (record is g and lag == 15):
                raise CorrelationOutOfRange(f"correlation entries outside [-1, 1] at lag {lag}")
            return lag_corr(record, lag, out=out)

        monkeypatch.setattr(lagspec.strobo, "lag_corr", failing)
        with _blas.threads(2):
            with pytest.raises(CorrelationOutOfRange, match="at lag 15$"):
                sweep(g, tau_max, after=a)
            with pytest.raises(CorrelationOutOfRange, match="at lag 2$"):
                sweep(g, 14, after=a)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_patched_rows_match_a_full_build(data):
    """Each patched matrix is exactly symmetric, within 4e-15 of a full
    build, and g's matrix bit for bit outside the changed rows and
    columns.  Short records can have lagged entries above 1, as
    |D_ij(τ)| <= L / (L - τ): draws where g's matrix is out of range are
    rejected, and where a's is, patching must fail at the same lag."""
    n = data.draw(st.integers(2, 12), label="n")
    length = data.draw(st.integers(4, 300), label="length")
    lag = data.draw(st.integers(0, length // 2), label="lag")
    rows = np.array(sorted(data.draw(
        st.sets(st.integers(0, n - 1), max_size=n), label="rows")), dtype=np.intp)
    g = iid_returns(n, length, seed=data.draw(st.integers(0, 2**16), label="seed"))
    a = replaced(g, rows, seed=length)
    try:
        base = lag_corr(g, lag)
    except CorrelationOutOfRange:
        reject()
    try:
        full = lag_corr(a, lag).values
    except CorrelationOutOfRange:
        with pytest.raises(CorrelationOutOfRange, match=f"at lag {lag}$"):
            patch_rows(base, a, rows)
        return
    patched = patch_rows(base, a, rows).values  # LagCorrMatrix checks symmetry
    assert np.array_equal(patched, patched.T)
    assert np.max(np.abs(patched - full), initial=0.0) <= 4e-15
    keep = np.setdiff1d(np.arange(n), rows)
    assert np.array_equal(patched[np.ix_(keep, keep)], base.values[np.ix_(keep, keep)])
