import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from itertools import chain, product
from types import SimpleNamespace

import numpy as np
import pytest

import lagspec.eigensys
import lagspec.strobo
from hypothesis import given, reject, settings, strategies as st
from scipy.signal import find_peaks

from lagspec import (
    ConvergenceFailure,
    CorrelationOutOfRange,
    IndexOutOfRange,
    LagspecError,
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

from lagspec import _blas, _threads
from lagspec.lagcorr import patch_rows, uses_block_path
from lagspec.eigensys import batch_size
from lagspec.strobo import _batch, _local_maxima, _solve_rows, _split

from conftest import (
    block_lags,
    dft_power_oracle,
    iid_returns,
    needs_openblas,
    sweep_blas,
    two_sided_power_sum,
)


def faulty_eigh(monkeypatch, matrices, lags, slow=()):
    """Make the eigensolve (``eigensys._eigh``) return 2x its eigenvectors,
    which fails the unit norm check, for the matrices of ``matrices`` at
    ``lags``; at ``slow`` lags, faulty or not, it first sleeps 0.2 s.
    Faults are keyed on the input matrix, so they hold whichever worker
    solves it."""
    eigh = lagspec.eigensys._eigh
    matrices = [m for m in matrices if m.lag in lags or m.lag in slow]
    faulty = {m.values.tobytes() for m in matrices if m.lag in lags}
    sleepy = {m.values.tobytes() for m in matrices if m.lag in slow}

    def doubled_at_lags(d, ws, i=0):
        key = d.tobytes()
        if key in sleepy:
            time.sleep(0.2)
        vals, vecs = eigh(d, ws, i)
        if key in faulty:
            vecs *= 2.0
        return vals, vecs

    monkeypatch.setattr(lagspec.eigensys, "_eigh", doubled_at_lags)


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
        from lagspec import LagCorrMatrix

        lags, solved = [], []

        def counting(g, lag, out=None):
            lags.append(lag)
            return LagCorrMatrix(lag=lag, values=np.eye(n))

        def solve(ds, out=None, into=None):
            solved.extend(d.lag for d in ds)
            for rows in into:  # the rows of the identity's eigen system
                rows[...] = 1.0

        monkeypatch.setattr(lagspec.strobo, "lag_corr", counting)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        seq = sweep(iid_returns(n, length, seed=5), tau_max)
        # each lag built once and solved once, in whatever order
        assert sorted(lags) == ([0] if block_path else list(range(tau_max + 1)))
        assert sorted(solved) == list(range(tau_max + 1))
        assert seq.eigenvalues.shape == (tau_max + 1, n)

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
            faulty_eigh(monkeypatch, block_lags(g, 40), range(34, 41))
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
        with pytest.raises(ValueError, match="tau_max must be non-negative"):
            sweep(g, -1)

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


# (n, length, tau_max): the direct path, the block path over two batches
# of the kernel, and a direct-path record wide enough (L < 6 N) that two
# workers share one solver at T = 2.  At their own batch sizes, 256 lags
# at N = 8 and 16 at N = 32, all or most of their lags are one batch; the
# tests of per-lag order run them one lag per batch (``one_lag_batches``)
DIRECT, BLOCK, POOLED = (8, 256, 20), (8, 6000, 100), (32, 128, 20)


@pytest.fixture
def one_lag_batches(monkeypatch):
    """Sweep batches of one lag at every N, as at N >= 91: blocks of one
    float (``eigensys.batch_size``), and so of one row.  The workers take
    and solve one lag at a time, as the tests of their order and failures
    at small shapes expect."""
    monkeypatch.setattr(lagspec.eigensys, "_BLOCK_FLOATS", 1)


def lagged(g, tau_max):
    """The sweep's matrices of lags 1..tau_max, by either path."""
    if uses_block_path(*g.returns.shape):
        return block_lags(g, tau_max)
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
        thread, one worker, two with a solver each and two sharing one
        give the same bytes, a lag at a time or in batches of 7."""
        n, length, tau_max = shape
        g = iid_returns(n, length, seed=12)
        tables = []
        for (workers, solvers), batch in product(((1, 1), (2, 2), (2, 1)), (1, 7)):
            eigenvalues, iprs = table = np.empty((2, 1, tau_max + 1, n))
            matrices = one_record(chain([lag_corr(g, 0)], lagged(g, tau_max)))
            with _blas.threads(1):
                _solve_rows(matrices, False, table, workers, solvers, batch)
            tables.append((eigenvalues, iprs))
        for eigenvalues, iprs in tables[1:]:
            assert np.array_equal(tables[0][0], eigenvalues)
            assert np.array_equal(tables[0][1], iprs)

    @pytest.mark.parametrize("shape", [DIRECT, POOLED, BLOCK], ids=["direct", "pooled", "block"])
    def test_no_eigen_system_is_built(self, monkeypatch, shape):
        """Each batch's eigenvalues and IPRs are written straight into the
        rows of the sweep's tables: no EigenSystem is built, alone or with
        an injected record, and the tables are the same."""
        n, length, tau_max = shape
        g = iid_returns(n, length, seed=23)
        after = replaced(g, [0], seed=3)
        with _blas.threads(2):
            want = [sweep(g, tau_max), *sweep(g, tau_max, after=after)]

            def refused(*args):
                raise AssertionError("an EigenSystem was built")

            monkeypatch.setattr(lagspec.eigensys.EigenSystem, "__post_init__", refused)
            got = [sweep(g, tau_max), *sweep(g, tau_max, after=after)]
        for seq, fresh in zip(want, got, strict=True):
            assert np.array_equal(seq.eigenvalues, fresh.eigenvalues)
            assert np.array_equal(seq.iprs, fresh.iprs)

    def test_wide_tables_bit_equal_to_fresh_solves(self):
        # the wide benchmark's shape, over fewer lags, on two solvers:
        # each slot and workspace is reused
        n, length, tau_max = 512, 4096, 12
        g = iid_returns(n, length, seed=18)
        with _blas.threads(2):
            assert _split(g, tau_max) == (2, 2, 1)
            seq = sweep(g, tau_max)
            with sweep_blas(g, tau_max):
                for k in range(tau_max + 1):
                    system = eigendecompose(lag_corr(g, k))
                    assert np.array_equal(seq.eigenvalues[k], system.eigenvalues), k
                    assert np.array_equal(seq.iprs[k], system.iprs), k

    @needs_openblas
    @pytest.mark.parametrize("shape, one_lag", [
        (DIRECT, True), (DIRECT, False), (BLOCK, False), ((16, 6000, 40), True)])
    def test_equal_time_holds_the_solved_lag0(self, monkeypatch, shape, one_lag):
        """``sweep(g, tau_max, equal_time=a)`` leaves g's lag-0 matrix in
        ``a``, bit for bit that of ``lag_corr(g, 0)``, and gives the tables
        of ``sweep(g, tau_max)``, alone or with ``after``, where it gives
        the pair of ``sweep(g, tau_max, after=after)``: on the direct path
        a lag or a batch at a time, and on the block path, at 1 to 4
        OpenBLAS threads."""
        n, length, tau_max = shape
        if one_lag:
            monkeypatch.setattr(lagspec.eigensys, "_BLOCK_FLOATS", 1)
        g = iid_returns(n, length, seed=30)
        after = replaced(g, [0], seed=3)
        assert uses_block_path(n, length) == (shape != DIRECT)
        want = lag_corr(g, 0).values
        batches = set()
        for total in range(1, 5):
            with _blas.threads(total):
                batches.add(_batch(g, tau_max, *_split(g, tau_max)[:2]))
                plain = [sweep(g, tau_max), *sweep(g, tau_max, after=after)]
                a, b = np.full((2, n, n), np.nan)
                made = [sweep(g, tau_max, equal_time=a),
                        *sweep(g, tau_max, after=after, equal_time=b)]
            assert np.array_equal(a, want) and np.array_equal(b, want), total
            for seq, fresh in zip(plain, made, strict=True):
                assert np.array_equal(seq.eigenvalues, fresh.eigenvalues), total
                assert np.array_equal(seq.iprs, fresh.iprs), total
        assert (batches == {1}) == one_lag
        with pytest.raises(ValueError, match=f"equal_time must be {n} x {n}"):
            sweep(g, tau_max, equal_time=np.empty((n, n + 1)))

    @pytest.mark.usefixtures("one_lag_batches")
    def test_sweep_spreads_a_direct_path_record(self):
        n, length, tau_max = DIRECT
        g = iid_returns(n, length, seed=12)
        with _blas.threads(1):
            assert _split(g, tau_max) == (1, 1, 1)
            serial = sweep(g, tau_max)
        with _blas.threads(2):
            assert _split(g, tau_max) == (2, 2, 1)
            spread = sweep(g, tau_max)
        assert np.array_equal(serial.eigenvalues, spread.eigenvalues)
        assert np.array_equal(serial.iprs, spread.iprs)

    @pytest.mark.usefixtures("one_lag_batches")
    def test_sweep_spreads_a_block_path_record(self):
        """Two solvers, the kernel split over both threads: the tables of
        one thread, bit for bit."""
        n, length, tau_max = BLOCK
        g = iid_returns(n, length, seed=12)
        with _blas.threads(1):
            assert _split(g, tau_max) == (1, 1, 1)
            serial = sweep(g, tau_max)
        with _blas.threads(2):
            assert _split(g, tau_max) == (2, 2, 1)
            spread = sweep(g, tau_max)
        assert np.array_equal(serial.eigenvalues, spread.eigenvalues)
        assert np.array_equal(serial.iprs, spread.iprs)

    @pytest.mark.parametrize(
        "n, length, tau_max, at_2, at_3",
        [
            # the wide and long benchmark shapes
            (512, 4096, 30, (2, 2, 1), (2, 2, 1)),
            (64, 32768, 100, (2, 2, 1), (3, 3, 1)),
            (*BLOCK, (2, 2, 1), (3, 3, 1)),
            (512, 2048, 30, (2, 1, 1), (2, 1, 1)),
            (*POOLED, (2, 1, 1), (2, 1, 1)),
        ],
    )
    def test_records_below_six_n_share_one_solver(self, n, length, tau_max, at_2, at_3):
        """On the direct path a record with L < 6 N has one solver, shared
        by two workers at 1 thread each; a longer one, such as the wide
        benchmark's, has two.  A block-path record has a worker and a
        solver per thread, as its kernel is split over them.  At one
        thread, one serial worker."""
        g = iid_returns(n, length, seed=0)
        with _blas.threads(2):
            assert _split(g, tau_max) == at_2
        with _blas.threads(3):
            assert _split(g, tau_max) == at_3
        with _blas.threads(1):
            assert _split(g, tau_max) == (1, 1, 1)

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_a_lag_in_flight_holds_three_matrices(self, n):
        """Each lag in flight beyond the first holds 3 N^2 floats, for one
        record or two, within half the bytes of the returns: a second
        solver from L = 6 N."""
        def split(length):
            with _blas.threads(2):
                return _split(SimpleNamespace(returns=np.empty((n, length))), 30)

        assert split(6 * n - 1) == (2, 1, 1) and split(6 * n) == (2, 2, 1)

    @pytest.mark.parametrize("n", [16, 64])
    def test_a_batch_in_flight_holds_four_planes_per_lag(self, n):
        """At b >= 2 each batch in flight beyond the first holds 4 b N^2
        floats within half the bytes of the returns, so batches shrink to
        fit the solvers that ``_split`` gives, down to one lag: b lags on
        two solvers from L = 8 b N, one from L = 6 N at T = 3.  One
        solver takes b, and no worker is left without a batch."""
        b = batch_size(n)

        def fitted(length, total=2, tau_max=1000):
            g = SimpleNamespace(returns=np.empty((n, length)))
            with _blas.threads(total):
                return _batch(g, tau_max, *_split(g, tau_max)[:2])

        assert b >= 2
        assert fitted(8 * b * n) == b and fitted(8 * b * n - 1) == b - 1
        assert fitted(6 * n, 3) == 1
        assert fitted(6 * n - 1) == b and fitted(6 * n, 1) == b
        assert fitted(8 * b * n, tau_max=2 * b - 3) == b - 1

    def test_preset_batches_never_lower_the_workers(self):
        """The default experiment preset's shape keeps the solvers of one
        lag at a time, 3 N^2 floats each, at any T: batches of 4 at T = 2,
        of 2 at T = 3, and of one lag from T = 4."""
        g = SimpleNamespace(returns=np.empty((64, 2048)))
        for total, split, batch in ((2, (2, 2, 1), 4), (3, (3, 3, 1), 2),
                                    (4, (4, 4, 1), 1), (6, (6, 6, 1), 1)):
            with _blas.threads(total):
                assert _split(g, 400) == split
                assert _batch(g, 400, *split[:2]) == batch

    def test_one_worker_without_lags_to_build(self):
        g = iid_returns(*POOLED[:2], seed=0)
        with _blas.threads(2):
            assert _split(g, 0) == (1, 1, 2)

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

    def test_lowest_failing_lag_across_batches(self, monkeypatch):
        """Batches of 4 lags at N = 64 on two workers: lag 5, in the second
        batch, is slow, so the third batch's fault at lag 9 is met first.
        The second batch fails at lag 6, its lowest failing lag, and lag
        6's error is raised."""
        g = iid_returns(64, 2048, seed=14)
        assert batch_size(64) == 4
        with _blas.threads(2):
            assert _split(g, 20) == (2, 2, 1)
            with sweep_blas(g, 20):
                faulty_eigh(monkeypatch, lagged(g, 20), {6, 7, 9}, slow={5})
            with pytest.raises(ConvergenceFailure, match="at lag 6.*unit norm"):
                sweep(g, 20)

    @pytest.mark.parametrize("later", ["residual", "solver"])
    def test_the_lowest_lag_of_a_batch_wins_over_an_earlier_check(self, monkeypatch, later):
        """In the batch of lags 4..7 at N = 64, lag 5 fails the unit-norm
        check and lag 6 the residual check, which runs first, or its
        solver: the sweep raises lag 5's error, as a serial loop would."""
        g = iid_returns(64, 2048, seed=15)
        with _blas.threads(1):
            faults = {m.lag: m.values.tobytes() for m in lagged(g, 6) if m.lag in (5, 6)}
        eigh = lagspec.eigensys._eigh

        def faulty(d, ws, i=0):
            key = d.tobytes()
            if key == faults[6] and later == "solver":
                raise np.linalg.LinAlgError("LAPACK dstedc gave info 3")
            vals, vecs = eigh(d, ws, i)
            if key == faults[5]:
                vecs *= 2.0
            elif key == faults[6]:
                vals += 1.0
            return vals, vecs

        monkeypatch.setattr(lagspec.eigensys, "_eigh", faulty)
        with _blas.threads(1):
            assert _split(g, 20) == (1, 1, 1) and batch_size(64) == 4
            with pytest.raises(ConvergenceFailure, match="at lag 5: .* unit norm"):
                sweep(g, 20)

    @pytest.mark.parametrize("fault", ["unit-norm", "solver"])
    def test_a_failing_batch_solves_each_matrix_once(self, monkeypatch, fault):
        """One worker, batches of 4 lags at N = 64, and lag 5 fails its
        unit-norm check or its solver: every matrix the sweep solves
        reaches the solver once, none after lag 5's batch, and with the
        solver's failure none after lag 5."""
        g = iid_returns(64, 2048, seed=15)
        with _blas.threads(1):
            faulty = next(m for m in lagged(g, 5) if m.lag == 5).values.tobytes()
        eigh, solves = lagspec.eigensys._eigh, Counter()

        def counted(d, ws, i=0):
            key = d.tobytes()  # before the stages overwrite d
            solves[key] += 1
            if key == faulty and fault == "solver":
                raise np.linalg.LinAlgError("LAPACK dstedc gave info 3")
            vals, vecs = eigh(d, ws, i)
            if key == faulty:
                vecs *= 2.0
            return vals, vecs

        monkeypatch.setattr(lagspec.eigensys, "_eigh", counted)
        with _blas.threads(1):
            assert _split(g, 20) == (1, 1, 1) and batch_size(64) == 4
            with pytest.raises(ConvergenceFailure, match="at lag 5"):
                sweep(g, 20)
        assert max(solves.values()) == 1
        assert len(solves) == (8 if fault == "unit-norm" else 6)

    @pytest.mark.parametrize("in_order", [False, True])
    def test_failure_in_building_names_its_lag(self, monkeypatch, in_order):
        """A lag whose build raises, as the block kernel can: its error is
        raised unless a lower lag's solve fails too, whether the first
        record's lags are built as a batch is taken or after."""
        n, length, tau_max = BLOCK
        g = iid_returns(n, length, seed=14)
        made = one_record(chain([lag_corr(g, 0)], lagged(g, tau_max)))

        def matrices(k, out=None):
            if k == 8:
                raise CorrelationOutOfRange("correlation entries outside [-1, 1] at lag 8")
            yield from made(k)

        tables = np.empty((2, 1, tau_max + 1, n))
        with _blas.threads(1):
            with pytest.raises(CorrelationOutOfRange, match="at lag 8$"):
                _solve_rows(matrices, in_order, tables, 2, 2, 4)
            faulty_eigh(monkeypatch, lagged(g, tau_max), {7}, slow={7})
            with pytest.raises(ConvergenceFailure, match="at lag 7.*unit norm"):
                _solve_rows(matrices, in_order, tables, 2, 2, 4)

    @pytest.mark.parametrize("per_lag", [True, False], ids=["one-lag-batches", "batches"])
    @pytest.mark.parametrize("case", ["out-of-range", "solver-fault"])
    def test_block_path_failure_names_its_lag_on_two_workers(
        self, request, monkeypatch, case, per_lag
    ):
        """Two workers share the kernel, which builds each batch's lags in
        order as a worker takes it: the sweep raises the error of the
        lowest failing lag, whichever worker holds it."""
        if per_lag:
            request.getfixturevalue("one_lag_batches")
        if case == "out-of-range":
            # series 0 moves only at t = 0, 2000 and 4000
            raw = np.zeros((2, 5000))
            raw[0, [0, 2000, 4000]] = 1.0
            raw[1] = np.random.default_rng(0).standard_normal(5000)
            g, tau_max = normalize(raw), 2100
            error, match = CorrelationOutOfRange, "at lag 2000$"
        else:
            g, tau_max = iid_returns(8, 6000, seed=4), 40
            error, match = ConvergenceFailure, "at lag 34.*unit norm"
            with _blas.threads(1):
                faulty_eigh(monkeypatch, block_lags(g, tau_max), range(34, 41))
        with _blas.threads(2):
            assert _split(g, tau_max) == (2, 2, 1)
            with pytest.raises(error, match=match):
                sweep(g, tau_max)

    @pytest.mark.parametrize("shape", [DIRECT, POOLED, BLOCK], ids=["direct", "pooled", "block"])
    @pytest.mark.parametrize("per_lag", [True, False], ids=["one-lag-batches", "batches"])
    def test_batches_reach_the_solve_as_views_of_the_workers_stack(
        self, request, monkeypatch, shape, per_lag
    ):
        """Every lag of every sweep batch, lag 0 too, is built into a plane
        of its worker's stack, so the batch reaches ``_solve`` as a view of
        it, never a copy, with or without an injected record or an
        ``equal_time`` array."""
        if per_lag:
            request.getfixturevalue("one_lag_batches")
        stacked, seen = lagspec.eigensys._stacked, []

        def viewed(values):
            stack = stacked(values)
            seen.append(all(v.base is not None and v.base.shape == (batch, n, n)
                            and np.shares_memory(stack, v) for v in values))
            return stack

        monkeypatch.setattr(lagspec.eigensys, "_stacked", viewed)
        n, length, tau_max = shape
        g = iid_returns(n, length, seed=19)
        with _blas.threads(2):
            workers, solvers, _ = _split(g, tau_max)
            batch = _batch(g, tau_max, workers, solvers)
            sweep(g, tau_max)
            sweep(g, tau_max, equal_time=np.empty((n, n)))
            # one series changed, so after's lags are patched from g's,
            # and all of them
            for rows in [0], range(n):
                sweep(g, tau_max, after=replaced(g, list(rows), seed=3),
                      equal_time=np.empty((n, n)))
        assert len(seen) >= 4 and all(seen)

    def test_direct_path_build_failure_names_its_lag(self, monkeypatch):
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
        """Where ``_split`` gives one worker, at one thread on either path,
        the calling thread solves lags 0..tau_max in order."""
        solves = []

        def solve(ds, out=None, into=None):
            solves.extend((threading.get_ident(), d.lag) for d in ds)
            return eigendecompose(ds, out=out, into=into)

        n, length, tau_max = shape
        g = iid_returns(n, length, seed=22)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        with _blas.threads(total):
            assert _split(g, tau_max) == (1, 1, total)
            sweep(g, tau_max)
        assert solves == [(threading.get_ident(), k) for k in range(tau_max + 1)]

    def test_serial_without_openblas(self, monkeypatch):
        threads = set()

        def solve(ds, out=None, into=None):
            threads.add(threading.get_ident())
            return eigendecompose(ds, out=out, into=into)

        g = iid_returns(*DIRECT[:2], seed=15)
        with _blas.threads(2):
            spread = sweep(g, DIRECT[2])
        monkeypatch.setattr(_blas, "_functions", lambda: None)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        assert _split(g, DIRECT[2]) == (1, 1, None)
        assert _split(g, POOLED[2]) == (1, 1, None)
        serial = sweep(g, DIRECT[2])
        assert threads == {threading.get_ident()}
        assert np.array_equal(serial.eigenvalues, spread.eigenvalues)

    @pytest.mark.usefixtures("one_lag_batches")
    def test_many_workers_solve_each_lag_once(self, monkeypatch):
        """More workers than cores and a short switch interval: a lost
        update to the shared lag counter would solve a lag twice or leave
        a row unwritten."""
        solved = []

        def solve(ds, out=None, into=None):
            solved.extend(d.lag for d in ds)
            return eigendecompose(ds, out=out, into=into)

        g = iid_returns(8, 4096, seed=16)
        with _blas.threads(1):
            serial = sweep(g, 200)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _blas.threads(8):
                assert _split(g, 200) == (8, 8, 1)
                runner = threading.Thread(target=lambda: results.append(sweep(g, 200)))
                runner.start()
                runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert sorted(solved) == list(range(201))
        assert np.array_equal(results[0].eigenvalues, serial.eigenvalues)
        assert np.array_equal(results[0].iprs, serial.iprs)

    @pytest.mark.usefixtures("one_lag_batches")
    def test_many_workers_take_each_block_path_lag_once(self, monkeypatch):
        """Eight solvers and a kernel split eight ways, with a short switch
        interval: every lag reaches its own solver once, and the tables are
        those of one thread."""
        solved = []

        def solve(ds, out=None, into=None):
            solved.extend(d.lag for d in ds)
            return eigendecompose(ds, out=out, into=into)

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
                assert _split(g, tau_max) == (8, 8, 1)
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
        )
        traj = trajectory(seq, "eigenvalue", 2)
        assert np.all(traj == traj[0])

    @pytest.mark.parametrize("shapes", [((3, 4), (3, 5)), ((4,), (4,)), ((0, 4), (0, 4))])
    def test_tables_must_agree_in_shape(self, shapes):
        with pytest.raises(ValueError, match="tables"):
            StroboscopicSequence(eigenvalues=np.zeros(shapes[0]), iprs=np.zeros(shapes[1]))

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
        spec = power_spectrum(traj, "none")
        with pytest.raises(ValueError, match="disagree in shape"):
            PowerSpectrum(spec.frequencies, spec.power[1:], ())
        with pytest.raises(ValueError, match="must be non-negative"):
            PowerSpectrum(spec.frequencies, -spec.power - 1.0, ())

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
        with pytest.raises(KeyError, match="no probe at period 5.0"):
            report.entry(5.0)
        # no power before: the ratio is 1 where there is none after either
        silent = PowerSpectrum(spec.frequencies, np.zeros_like(spec.power), ())
        assert compare_spectra(silent, silent, [3.0]).entry(3.0).ratio == 1.0
        woken = compare_spectra(silent, spec, [3.0]).entry(3.0)
        assert woken.ratio == float("inf") and woken.classification == "enhanced"

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

    @pytest.mark.parametrize("period, named", [
        (0, "got 0$"), (-1, "got -1$"), (float("nan"), "got nan$"), (float("inf"), "got inf$"),
        (1.5, "^period 1.5 is below the resolvable range"),
    ], ids=["zero", "negative", "nan", "inf", "under-two-steps"])
    def test_bad_probe_period_is_refused_by_name(self, period, named):
        """A probe period that is not positive and finite is a ValueError
        that names it, as is one shorter than two lag steps, beyond the
        Nyquist frequency."""
        spec = power_spectrum(tone_trajectory([(3.0, 1.0)], 96), "mean")
        with pytest.raises(ValueError, match=named):
            compare_spectra(spec, spec, [3.0, period])



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


@pytest.mark.parametrize(
    "values", [[-0.0, 5e-324, 1e308, 0.1, -2.0 / 3.0, 1e-7, 123456789.0], [0.1]],
    ids=["awkward", "one-sample"],
)
def test_csv_bytes_are_those_of_line_by_line_writes(tmp_path, values):
    """Both files hold the bytes of a write per row, each formatted by an
    f-string over numpy floats."""
    values = np.array(values)
    spec = PowerSpectrum(frequencies=values, power=np.abs(values), peaks=())
    write_trajectory_csv(values, tmp_path / "traj.csv")
    write_spectrum_csv(spec, tmp_path / "spec.csv")
    traj = "tau,value\n" + "".join(f"{tau},{v:.17g}\n" for tau, v in enumerate(values, start=1))
    power = "frequency,power\n" + "".join(
        f"{f:.17g},{p:.17g}\n" for f, p in zip(spec.frequencies, spec.power))
    assert (tmp_path / "traj.csv").read_bytes() == traj.encode()
    assert (tmp_path / "spec.csv").read_bytes() == power.encode()


def replaced(g, rows, seed):
    """g with the series ``rows`` replaced by fresh normalized ones, as an
    injection leaves a record."""
    returns = g.returns.copy()
    returns[rows] = iid_returns(len(rows), g.n_returns, seed=seed).returns
    return ReturnMatrix(series_ids=g.series_ids, returns=returns)


@needs_openblas
class TestPooledSweep:
    """Records that the memory cap keeps at one solver: two workers each
    build a lag into a slot of their own and take turns on the one solver
    workspace, both at 1 BLAS thread of a budget of 2."""

    def test_blas_threads_restored(self, monkeypatch):
        assert_restored_after_sweeps(monkeypatch, POOLED)

    def test_workers_build_into_their_own_slots_and_solve_one_at_a_time(self, monkeypatch):
        n, length, tau_max = POOLED
        lock = threading.Lock()
        slots, solvers, spaces = {}, set(), set()
        active = [0, 0]  # solves running now, most at once

        def counting(g, lag, out=None):
            slots[lag] = (threading.get_ident(), out.__array_interface__["data"][0])
            return lag_corr(g, lag, out=out)

        def solve(ds, out=None, into=None):
            with lock:
                active[0] += 1
                active[1] = max(active)
                solvers.add(threading.get_ident())
                spaces.add(id(out))
            time.sleep(0.002)
            try:
                return eigendecompose(ds, out=out, into=into)
            finally:
                with lock:
                    active[0] -= 1

        g = iid_returns(n, length, seed=19)
        with _blas.threads(1):
            serial = sweep(g, tau_max)
        monkeypatch.setattr(lagspec.strobo, "lag_corr", counting)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        with _blas.threads(2):
            pooled = sweep(g, tau_max)
        assert sorted(slots) == list(range(tau_max + 1))
        # one slot per worker thread, lag 0's included
        builders = dict(slots.values())
        assert len(builders) == 2 == len(set(builders.values()))
        assert len(solvers) == 2 and len(spaces) == 1 and active[1] == 1
        assert np.array_equal(pooled.eigenvalues, serial.eigenvalues)
        assert np.array_equal(pooled.iprs, serial.iprs)

    @pytest.mark.parametrize("slow", [(), (8,)], ids=["none-slow", "lag-8-slow"])
    def test_build_fault_names_its_lag(self, monkeypatch, slow):
        """Lag 9's build fails, while lag 8 is solved if that is slow;
        solver faults above it are never reached."""
        def failing(g, lag, out=None):
            if lag in (9, 12):
                raise CorrelationOutOfRange(f"correlation entries outside [-1, 1] at lag {lag}")
            return lag_corr(g, lag, out=out)

        n, length, tau_max = POOLED
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
        def failing(g, lag, out=None):
            if lag == 10:
                raise CorrelationOutOfRange(f"correlation entries outside [-1, 1] at lag {lag}")
            return lag_corr(g, lag, out=out)

        n, length, tau_max = POOLED
        g = iid_returns(n, length, seed=20)
        with _blas.threads(1):
            faulty_eigh(monkeypatch, lagged(g, tau_max), {9, 15}, slow=slow)
        monkeypatch.setattr(lagspec.strobo, "lag_corr", failing)
        with _blas.threads(2):
            with pytest.raises(ConvergenceFailure, match="at lag 9.*unit norm"):
                sweep(g, tau_max)

    def test_no_slot_is_overwritten_while_its_lag_is_solved(self, monkeypatch):
        """Slow solves and a short switch interval give the other worker
        every chance to run ahead: a lag whose slot or workspace were
        overwritten before or during its solve would leave another lag's
        row."""
        def slow_solve(ds, out=None, into=None):
            time.sleep(0.002)
            systems = eigendecompose(ds, out=out, into=into)
            time.sleep(0.002)
            return systems

        g = iid_returns(32, 128, seed=21)
        with _blas.threads(1):
            serial = sweep(g, 60)
        monkeypatch.setattr(lagspec.strobo, "eigendecompose", slow_solve)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _blas.threads(2):
                assert _split(g, 60) == (2, 1, 1)
                runner = threading.Thread(target=lambda: results.append(sweep(g, 60)))
                runner.start()
                runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert np.array_equal(results[0].eigenvalues, serial.eigenvalues)
        assert np.array_equal(results[0].iprs, serial.iprs)


@needs_openblas
@pytest.mark.usefixtures("one_lag_batches")
class TestInterrupt:
    """A KeyboardInterrupt raised by the solve of lag k, on whichever
    worker holds it: all taking stops, the workers end after the lags in
    flight, and the interrupt is raised with the BLAS count restored."""

    @pytest.mark.parametrize(
        "shape, paired, split",
        [(DIRECT, False, (2, 2, 1)), (POOLED, False, (2, 1, 1)),
         (BLOCK, False, (2, 2, 1)), (DIRECT, True, (2, 2, 1))],
        ids=["direct", "pooled", "block", "paired"],
    )
    def test_interrupt_stops_the_sweep(self, monkeypatch, shape, paired, split):
        n, length, tau_max = shape
        k = 8
        g = iid_returns(n, length, seed=23)
        after = replaced(g, [1], seed=24) if paired else None
        solved = []

        def interrupted(ds, out=None, into=None):
            solved.extend(d.lag for d in ds)
            if k in solved[-len(ds):]:
                raise KeyboardInterrupt
            time.sleep(0.001)
            return eigendecompose(ds, out=out, into=into)

        monkeypatch.setattr(lagspec.strobo, "eigendecompose", interrupted)
        threads = threading.active_count()
        with _blas.threads(2):
            assert _split(g, tau_max) == split
            with pytest.raises(KeyboardInterrupt):
                sweep(g, tau_max, after=after)
            assert _blas.thread_count() == 2
        assert threading.active_count() == threads
        assert k in solved and max(solved) <= k + split[0]

    def test_interrupt_while_the_caller_joins(self, monkeypatch):
        """An interrupt that reaches the calling thread in its join, while
        the other worker still solves the first record of its lag: that
        worker solves nothing more, and the interrupt is raised once it has
        ended, the BLAS count being restored after that."""
        n, length, tau_max = DIRECT
        g = iid_returns(n, length, seed=26)
        after = replaced(g, [1], seed=27)
        caller = threading.current_thread()
        holding = threading.Event()  # the other worker is in its first solve
        interrupted = threading.Event()  # the caller's join has raised
        solves = []  # (lag, whether the join had raised) of every solve
        other = []

        def solve(ds, out=None, into=None):
            solves.extend((d.lag, interrupted.is_set()) for d in ds)
            if threading.current_thread() is caller:
                assert holding.wait(timeout=30)
            elif not holding.is_set():
                other.append(threading.current_thread())
                holding.set()
                assert interrupted.wait(timeout=30)
                time.sleep(0.05)  # still solving while the caller joins
            return eigendecompose(ds, out=out, into=into)

        join = threading.Thread.join

        def join_once_interrupted(thread, timeout=None):
            if threading.current_thread() is caller and not interrupted.is_set():
                interrupted.set()
                raise KeyboardInterrupt
            return join(thread, timeout)

        blas_threads = _blas.threads
        alive_when_restored = []

        @contextmanager
        def watched_threads(count):
            try:
                with blas_threads(count):
                    yield
            finally:
                alive_when_restored.append(other[0].is_alive())

        monkeypatch.setattr(lagspec.strobo, "eigendecompose", solve)
        threads = threading.active_count()
        with _blas.threads(2):
            assert _split(g, tau_max) == (2, 2, 1)
            monkeypatch.setattr(_blas, "threads", watched_threads)
            monkeypatch.setattr(threading.Thread, "join", join_once_interrupted)
            with pytest.raises(KeyboardInterrupt):
                sweep(g, tau_max, after=after)
            other[0].join(timeout=30)
            assert not other[0].is_alive()
        assert alive_when_restored == [False]
        assert interrupted.is_set() and not any(late for _, late in solves)
        # every lag was solved for both records, but the other worker's
        # for the first only
        assert sorted(Counter(lag for lag, _ in solves).values()) == [1] + [2] * tau_max
        assert threading.active_count() == threads

    def test_interrupt_that_cuts_stop_short(self, monkeypatch):
        """A second interrupt that lands in ``stop``, before it has taken
        effect, does not end the join: ``stop`` is called again, and the
        first interrupt is raised once the other thread has ended."""
        caller = threading.current_thread()
        stopped = threading.Event()
        ended = []
        calls = []

        def other():
            assert stopped.wait(timeout=30)
            time.sleep(0.05)  # still running while the caller joins
            ended.append(True)

        def stop(exc):
            calls.append(exc)
            if len(calls) == 1:
                raise KeyboardInterrupt("second")
            stopped.set()

        join = threading.Thread.join

        def join_once_interrupted(thread, timeout=None):
            if threading.current_thread() is caller and not calls:
                raise KeyboardInterrupt("first")
            return join(thread, timeout)

        monkeypatch.setattr(threading.Thread, "join", join_once_interrupted)
        with pytest.raises(KeyboardInterrupt, match="^first$"):
            _threads.run([lambda: None, other], stop)
        assert ended == [True]
        assert [str(exc) for exc in calls] == ["first", "first"]

    def test_interrupt_while_the_kernel_runs(self, monkeypatch):
        """An interrupt in one of the block kernel's parts, at its third
        transform, ends the kernel's parts and the sweep."""
        n, length, tau_max = BLOCK
        g = iid_returns(n, length, seed=25)
        spectra = lagspec.lagcorr._spectra
        calls = []

        def interrupted(*args):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return spectra(*args)

        monkeypatch.setattr(lagspec.lagcorr, "_spectra", interrupted)
        threads = threading.active_count()
        with _blas.threads(2):
            with pytest.raises(KeyboardInterrupt):
                sweep(g, tau_max)
            assert _blas.thread_count() == 2
        assert threading.active_count() == threads


@needs_openblas
@pytest.mark.parametrize("shape", [DIRECT, POOLED, BLOCK], ids=["direct", "pooled", "block"])
@pytest.mark.parametrize("paired", [False, True], ids=["lone", "paired"])
def test_eigh_fallback_gives_the_same_tables(monkeypatch, shape, paired):
    """Where numpy's bundled LAPACK is not found, every solve calls
    np.linalg.eigh, and the tables keep their bytes."""
    n, length, tau_max = shape
    g = iid_returns(n, length, seed=26)
    after = replaced(g, [2], seed=27) if paired else None
    with _blas.threads(2):
        lapack = sweep(g, tau_max, after=after)
        eigh, calls = np.linalg.eigh, []

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(_blas, "lapack", lambda: None)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        fallback = sweep(g, tau_max, after=after)
    assert len(calls) == (tau_max + 1) * (2 if paired else 1)
    for got, want in zip(fallback, lapack) if paired else [(fallback, lapack)]:
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.iprs, want.iprs)


@needs_openblas
class TestPairedSweep:
    """``sweep(g, tau_max, after=a)``: both records in one pass, a's lags
    made from g's by rebuilding the rows that differ, where those are fewer
    than half."""

    @pytest.mark.parametrize(
        "shape", [DIRECT, POOLED, BLOCK], ids=["direct", "pooled", "block"],
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
        if changed == 0:
            assert np.array_equal(after.eigenvalues, before.eigenvalues)
            assert np.array_equal(after.iprs, before.iprs)
        if uses_block_path(n, length):
            assert np.array_equal(after.eigenvalues, lone_after.eigenvalues)
            assert np.array_equal(after.iprs, lone_after.iprs)
        assert np.allclose(after.eigenvalues, lone_after.eigenvalues, rtol=0, atol=1e-13)
        assert np.allclose(after.iprs, lone_after.iprs, rtol=0, atol=1e-9)

    def test_after_never_changes_the_split(self):
        """On the default experiment preset's shape at T = 6 and 12, a's
        matrices are made over g's, so a pair runs the lone sweep's workers
        at its BLAS threads, and g's tables keep their bytes."""
        g = iid_returns(64, 2048, seed=41)
        a = replaced(g, [3, 9, 20, 40], seed=42)
        for total, split in ((6, (6, 6, 1)), (12, (6, 6, 2))):
            with _blas.threads(total):
                assert _split(g, 400) == split
        with _blas.threads(6):
            before, after = sweep(g, 40, after=a)
            lone_before, lone_after = sweep(g, 40), sweep(a, 40)
        assert np.array_equal(before.eigenvalues, lone_before.eigenvalues)
        assert np.array_equal(before.iprs, lone_before.iprs)
        assert np.allclose(after.eigenvalues, lone_after.eigenvalues, rtol=0, atol=1e-13)

    def test_half_the_series_changed_builds_after_in_full(self, monkeypatch):
        """Where 2k >= N, each lag of a is ``lag_corr(a, k)``, so a's tables
        are a lone sweep's bit for bit; where 2k < N no lag of a is built
        in full.  Each lag of each record is built once."""
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
            assert built == {True: tau_max + 1, False: tau_max + 1}
            lone = sweep(half, tau_max)
            assert np.array_equal(after.eigenvalues, lone.eigenvalues)
            assert np.array_equal(after.iprs, lone.iprs)
            built.clear()
            sweep(g, tau_max, after=replaced(g, list(range(n // 2 - 1)), seed=33))
            assert built == {True: tau_max + 1}

    def test_records_of_different_shapes(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work began before the shapes were checked")

        monkeypatch.setattr(lagspec.strobo, "lag_corr", no_work)
        g = iid_returns(8, 256, seed=34)
        for other in (iid_returns(8, 254, seed=34), iid_returns(7, 256, seed=34)):
            with pytest.raises(ValueError, match="differ in shape"):
                sweep(g, 20, after=other)

    # below L = 6 N a record has one solver; batches of 16 and 4 lags
    @pytest.mark.parametrize("shape", [(8, 1024, 300), (64, 380, 180)], ids=["workers", "pooled"])
    def test_a_fault_in_g_at_any_lag_is_raised_first(self, monkeypatch, shape):
        """a's solve fails at lag 3 and g's at tau_max: g's error is raised,
        as if g were swept first; without g's fault a's is.  Workers are
        joined and the BLAS count restored either way."""
        n, length, tau_max = shape
        g = iid_returns(n, length, seed=35)
        rows = np.array([1, 4])
        a = replaced(g, rows, seed=36)
        with _blas.threads(2):
            expected = (2, 2, 1) if n == 8 else (2, 1, 1)
            assert _split(g, tau_max) == expected
            with sweep_blas(g, tau_max):
                a_at_3 = patch_rows(lag_corr(g, 3), a, rows)
                g_at_last = lag_corr(g, tau_max)
            threads = threading.active_count()
            for faults, lag in (([a_at_3, g_at_last], tau_max), ([a_at_3], 3)):
                faulty_eigh(monkeypatch, faults, {3, tau_max})
                with pytest.raises(ConvergenceFailure, match=f"at lag {lag}.*unit norm"):
                    sweep(g, tau_max, after=a)
                assert _blas.thread_count() == 2
                assert threading.active_count() == threads
                monkeypatch.undo()

    @pytest.mark.usefixtures("one_lag_batches")
    def test_many_workers_solve_each_lag_of_each_record_once(self, monkeypatch):
        """More workers than cores and a short switch interval: a lost
        update would solve a lag of a record twice or leave a row
        unwritten."""
        solved = Counter()

        def solve(ds, out=None, into=None):
            solved.update(d.lag for d in ds)
            return eigendecompose(ds, out=out, into=into)

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
                assert _split(g, 200) == (8, 8, 1)
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


def _first_block_length(n: int) -> int:
    """The shortest record of n series that takes the block path."""
    lo, hi = n + 2, 64 * n * n + 20000
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if uses_block_path(n, mid) else (mid + 1, hi)
    return lo


def serial_matrices(g, tau_max, after=None):
    """(record, lag, matrix) for every lag of each record in turn, each
    matrix built as the sweep builds it: from the block kernel on the
    block path, and a's from g's by ``patch_rows`` where fewer than half
    its series changed on the direct path."""
    n, length = g.returns.shape
    records = [g] if after is None else [g, after]
    changed = [] if after is None else np.flatnonzero(
        (g.returns != after.returns).any(axis=1))
    for r, record in enumerate(records):
        if uses_block_path(n, length):
            lags = chain([lag_corr(record, 0)], block_lags(record, tau_max))
        elif r and 2 * len(changed) < n:
            lags = (patch_rows(lag_corr(g, k), record, changed) for k in range(tau_max + 1))
        else:
            lags = (lag_corr(record, k) for k in range(tau_max + 1))
        for k, matrix in enumerate(lags):
            yield r, k, matrix


@needs_openblas
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sweep_equals_a_serial_loop(data):
    """The scheduler property.  On either path, for any thread budget T in
    1..4, with or without an injected record and a solver fault at one
    (record, lag), the sweep's tables are those of a plain serial loop of
    ``eigendecompose`` over ``serial_matrices`` at the sweep's BLAS
    threads per call, bit for bit, and its error is the loop's: the
    lowest record's, at its lowest lag.  Lags run past several batches
    where the record is long enough."""
    n = data.draw(st.sampled_from([3, 16, 24, 40]), label="n")
    b = batch_size(n)
    first_block = _first_block_length(n)
    if data.draw(st.booleans(), label="block path"):
        length = data.draw(st.integers(first_block, first_block + 200), label="length")
    else:
        length = data.draw(st.integers(2 * n + 8, min(first_block - 1, 6 * b + 40)), label="length")
    tau_max = data.draw(st.integers(0, min(length // 2, 3 * b + 3)), label="tau_max")
    total = data.draw(st.integers(1, 4), label="T")
    g = iid_returns(n, length, seed=data.draw(st.integers(0, 2**16), label="seed"))
    after = None
    if data.draw(st.booleans(), label="paired"):
        rows = sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n), label="changed"))
        after = replaced(g, rows, seed=length)
    fault = data.draw(st.none() | st.tuples(
        st.integers(0, 0 if after is None else 1), st.integers(0, tau_max)), label="fault")

    with _blas.threads(total), pytest.MonkeyPatch.context() as mp:
        blas_threads = _split(g, tau_max)[2]
        with _blas.threads(blas_threads):
            if fault is not None:
                try:
                    faulted = next(m for r, k, m in serial_matrices(g, tau_max, after)
                                   if (r, k) == fault)
                    faulty_eigh(mp, [faulted], {fault[1]})
                except CorrelationOutOfRange:
                    pass  # a build fails first
            want = np.empty((1 if after is None else 2, 2, tau_max + 1, n))
            try:
                for r, k, matrix in serial_matrices(g, tau_max, after):
                    system = eigendecompose(matrix)
                    want[r, :, k] = system.eigenvalues, system.iprs
            except LagspecError as exc:
                want = exc
        try:
            got = sweep(g, tau_max, after=after)
        except LagspecError as exc:
            assert isinstance(want, LagspecError), exc
            assert (type(exc), str(exc)) == (type(want), str(want))
            return
    assert not isinstance(want, LagspecError), want
    for seq, table in zip([got] if after is None else got, want, strict=True):
        assert np.array_equal(seq.eigenvalues, table[0])
        assert np.array_equal(seq.iprs, table[1])
