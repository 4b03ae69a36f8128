"""The large tables are built in place: the counts, the returns and each lag's
matrices stay within a small multiple of their own size, and every table
equals, bit for bit, the whole-array formula it replaces."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagspec.ingest
from lagspec import (
    _blas,
    CountMatrix,
    InjectionSpec,
    LagCorrMatrix,
    SynthConfig,
    eigendecompose,
    lag_corr,
    normalize,
    rate_changes,
    returns_from_counts,
    run_experiment,
    sweep,
    synth_generate,
)
from lagspec.eigensys import _BLOCK_FLOATS, Workspace, batch_size
from lagspec.experiment import _BACKGROUND_PHI, _BACKGROUND_SIGMA
from lagspec.lagcorr import uses_block_path

from conftest import eigh_reference

# the benchmark's `wide` shape: 512 series, 4096 returns
WIDE = SynthConfig(n_series=512, length=4097, n_drivers=8, driver_periods=(3, 6), seed=1)


def traced_peak(fn):
    """``fn()`` and the peak of the bytes it had allocated at any one time."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csv_like(counts: np.ndarray) -> np.ndarray:
    """The counts as ``load_counts`` lays them out: the transposed columns
    1.. of a (time, 1 + series) table."""
    table = np.empty((counts.shape[1], counts.shape[0] + 1))
    table[:, 0] = np.arange(counts.shape[1])
    table[:, 1:] = counts.T
    return table[:, 1:].T


def counts_matrix(counts: np.ndarray) -> CountMatrix:
    return CountMatrix(tuple(f"s{i}" for i in range(counts.shape[0])), 300.0, counts)


def old_returns(counts: np.ndarray) -> np.ndarray:
    raw = np.diff(np.log(counts), axis=1)
    return (raw - raw.mean(1)[:, None]) / raw.std(1)[:, None]


def old_synth(cfg: SynthConfig) -> np.ndarray:
    """The generator as one whole-array draw and formula per step."""
    rng = np.random.default_rng(cfg.seed)
    n_drv, points = cfg.n_drivers, cfg.length
    length = points - 1
    noise = rng.standard_normal((cfg.n_series - n_drv, length))
    walk = np.zeros((cfg.n_series - n_drv, points))
    np.multiply(noise, _BACKGROUND_SIGMA, out=walk[:, 1:])
    for t in range(1, points):
        walk[:, t] += _BACKGROUND_PHI * walk[:, t - 1]
    drivers = np.empty((n_drv, points))
    t = np.arange(length, dtype=float)
    driver_noise = rng.standard_normal((n_drv, length))
    for d, lag in enumerate(cfg.resolved_lags()):
        signal = sum(np.cos(2.0 * np.pi * (t - lag) / p) for p in cfg.driver_periods)
        rate = cfg.coupling * signal + (1.0 - cfg.coupling) * driver_noise[d]
        drivers[d] = cfg.baseline * np.exp(np.concatenate(([0.0], np.cumsum(rate))))
    return np.vstack([drivers, cfg.baseline * np.exp(walk)])


def long_counts(n: int = 64, points: int = 32769) -> np.ndarray:
    rng = np.random.default_rng(3)
    return np.rint(1e6 * np.exp(0.05 * rng.standard_normal((n, points))))


@pytest.fixture(params=[64, 4096, None], ids=["64B", "4kB", "default"])
def block_bytes(request, monkeypatch):
    """Row and column blocks of 64 bytes, 4 kB or the default size."""
    if request.param is not None:
        monkeypatch.setattr(lagspec.ingest, "_BLOCK_BYTES", request.param)
    return request.param


class TestSynth:
    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(n_series=300, length=1001, n_drivers=3, seed=5),
            SynthConfig(n_series=7, length=40, n_drivers=0, seed=2),
            SynthConfig(n_series=5, length=33, n_drivers=5, seed=1),
        ],
        ids=["300x1001", "no-drivers", "all-drivers"],
    )
    def test_counts_equal_the_whole_array_draw(self, cfg, block_bytes):
        assert np.array_equal(synth_generate(cfg).counts, old_synth(cfg))

    def test_wide_peak_is_within_1_25_counts(self):
        counts, peak = traced_peak(lambda: synth_generate(WIDE))
        assert peak <= 1.25 * counts.counts.nbytes


class TestReturns:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 17), (5, 100), (65, 1001), (130, 40)])
    @pytest.mark.parametrize("layout", ["C", "csv"])
    def test_equal_the_whole_array_formula(self, shape, layout, block_bytes):
        counts = np.exp(np.random.default_rng(shape[0]).standard_normal(shape)) * 1e3
        want = old_returns(counts)  # of C-ordered counts
        if layout == "csv":
            counts = csv_like(counts)
        cm = counts_matrix(counts)
        raw = np.diff(np.log(counts), axis=1)
        got = returns_from_counts(cm).returns
        assert np.array_equal(rate_changes(cm), raw)
        assert np.array_equal(got, want)
        assert np.array_equal(normalize(raw).returns, want)

    @pytest.mark.parametrize("layout", ["C", "F", "csv"])
    def test_are_row_major(self, layout):
        counts = long_counts(8, 50)
        if layout == "F":
            counts = np.asfortranarray(counts)
        elif layout == "csv":
            counts = csv_like(counts)
        cm = counts_matrix(counts)
        assert rate_changes(cm).flags.c_contiguous
        assert returns_from_counts(cm).returns.flags.c_contiguous
        assert normalize(np.diff(np.log(counts), axis=1)).returns.flags.c_contiguous

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 12), points=st.integers(3, 300), seed=st.integers(0, 2**32 - 1),
           whole=st.booleans(), block=st.sampled_from([64, 4096, None]), data=st.data())
    def test_of_a_series_depend_on_its_own_counts_alone(self, n, points, seed, whole, block,
                                                        data):
        """From a C array, a Fortran array or a CSV-style view the returns
        are the same bytes, and changing one series' counts leaves every
        other series' returns as they were, bit for bit."""
        rng = np.random.default_rng(seed)
        counts = 1e3 * np.exp(rng.standard_normal((n, points)))
        if whole:
            counts = np.rint(counts) + 1.0
        changed = counts.copy()
        row = data.draw(st.integers(0, n - 1), label="row")
        changed[row] = 1e3 * np.exp(rng.standard_normal(points))
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(lagspec.ingest, "_BLOCK_BYTES", block)
            want = returns_from_counts(counts_matrix(counts)).returns
            for layout in (np.asfortranarray(counts), csv_like(counts)):
                assert returns_from_counts(counts_matrix(layout)).returns.tobytes() == (
                    want.tobytes())
            got = returns_from_counts(counts_matrix(csv_like(changed))).returns
        others = np.arange(n) != row
        assert got[others].tobytes() == want[others].tobytes()

    def test_normalize_leaves_its_input_alone(self):
        raw = np.random.default_rng(0).standard_normal((4, 50))
        copy = raw.copy()
        normalize(raw)
        assert np.array_equal(raw, copy)

    @pytest.mark.parametrize("layout", ["C", "csv"])
    def test_peak_is_within_1_15_returns(self, layout):
        counts = long_counts()
        if layout == "csv":
            counts = csv_like(counts)
        cm = counts_matrix(counts)
        g, peak = traced_peak(lambda: returns_from_counts(cm))
        assert peak <= 1.15 * g.returns.nbytes


def test_integer_table_peak_is_within_one_block_of_the_float_parse():
    """An all-integer table is parsed as int64 and made float64 in place:
    its peak is at most one block above that of the same table with one
    float cell, which numpy parses as floats."""
    counts = long_counts(64, 8193).astype(np.int64)
    rows = [[300 * t, *column] for t, column in enumerate(counts.T.tolist())]
    lines = ["t," + ",".join(f"s{i}" for i in range(64))]
    lines += [",".join(map(str, row)) for row in rows]
    integers = ("\n".join(lines) + "\n").encode()
    rows[0][1] = f"{rows[0][1]}.0"
    lines[1] = ",".join(map(str, rows[0]))
    one_float = ("\n".join(lines) + "\n").encode()
    for data in integers, one_float:  # not the first call's one-time set-up
        lagspec.ingest.load_counts(data)
    int_cm, int_peak = traced_peak(lambda: lagspec.ingest.load_counts(integers))
    float_cm, float_peak = traced_peak(lambda: lagspec.ingest.load_counts(one_float))
    assert int_cm.counts.tobytes() == float_cm.counts.tobytes()
    assert int_peak <= float_peak + lagspec.ingest._BLOCK_BYTES


def test_lag_corr_peak_is_within_1_1_matrices():
    """The product is symmetrized in place: no second N x N array."""
    n = 1024
    g = normalize(np.random.default_rng(0).standard_normal((n, 2048)))
    _, peak = traced_peak(lambda: lag_corr(g, 3))
    assert peak <= 1.1 * n * n * 8


@pytest.mark.parametrize("lag", [0, 3])
def test_lag_corr_matrix_checks_allocate_no_n_by_n_array(lag):
    n = 512
    values = lag_corr(normalize(np.random.default_rng(1).standard_normal((n, 2048))),
                      lag).values
    _, peak = traced_peak(lambda: LagCorrMatrix(lag=lag, values=values))
    assert peak < n * n  # the bytes of an N x N boolean array


def test_one_lag_peak_is_within_3_5_matrices():
    n = 512
    g = normalize(np.random.default_rng(0).standard_normal((n, 2048)))
    _, peak = traced_peak(lambda: eigendecompose(lag_corr(g, 3)))
    assert peak <= 3.5 * n * n * 8


@pytest.mark.skipif(_blas.lapack() is None, reason="numpy's bundled LAPACK not found")
def test_solve_into_a_workspace_allocates_no_n_by_n_array():
    """The solve, its checks and the IPRs run in D and the workspace's
    buffers, leave D as it was, and give the bytes of
    ``np.linalg.eigh``'s solve."""
    n = 512
    d = lag_corr(normalize(np.random.default_rng(2).standard_normal((n, 2048))), 3)
    before = d.values.copy()
    ws = Workspace(n)
    system, peak = traced_peak(lambda: eigendecompose(d, out=ws))
    assert peak < n * n  # the bytes of an N x N boolean array
    assert np.shares_memory(system.eigenvectors, ws.z)
    assert np.array_equal(d.values, before)
    vals, vecs, iprs = eigh_reference(before)
    assert np.array_equal(system.eigenvalues, vals)
    assert np.array_equal(system.eigenvectors, vecs)
    assert np.array_equal(system.iprs, iprs)


@pytest.mark.parametrize("n", [64, 512])
def test_workspace_holds_two_matrices(n):
    """A solver of one lag at a time holds z and LAPACK's scratch, 2 N^2
    floats, a few vectors of N, and one check block with its mask; with
    the worker's plane that is the 3 N^2 per lag in flight of
    ``strobo._plan``."""
    ws = Workspace(n)
    held = sum(x.nbytes for x in vars(ws).values()
               if isinstance(x, np.ndarray) and x.base is None)
    assert held <= 8 * (2 * n * n + 16 * n) + 9 * _BLOCK_FLOATS


@pytest.mark.parametrize("n", [8, 64, 90])
def test_batch_workspace_holds_three_planes_per_lag(n):
    """At b = ``batch_size(N)`` >= 2 a solver holds the planes of z, the
    checks' scratch and their block, b N^2 floats each, and vectors of
    b N; with the worker's stack a batch in flight holds 4 b N^2 floats,
    at most 4 ``_BLOCK_FLOATS``, 512 KiB."""
    b = batch_size(n)
    ws = Workspace(n, b)
    held = sum(x.nbytes for x in vars(ws).values()
               if isinstance(x, np.ndarray) and x.base is None)
    assert b >= 2
    assert held <= 8 * (3 * b * n * n + (2 * b + 16) * n) + n * n


def test_experiment_peak_is_within_2_5_counts():
    """Two return tables live through the sweeps; the injected counts are
    gone by then."""
    counts = synth_generate(SynthConfig(n_series=128, length=8193, seed=2))
    spec = InjectionSpec(kind="periodic", target_ids=("s010", "s020"), period=1200.0)
    _, peak = traced_peak(lambda: run_experiment(counts, spec, 8, [1, 64]))
    assert peak <= 2.5 * counts.counts.nbytes


def test_paired_sweep_finds_the_changed_series_in_row_blocks():
    """The records are compared a block of rows at a time: no N x L
    boolean array, on the longest direct-path record at N = 64."""
    n, length = 64, 10700
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((n, length))
    g = normalize(raw)
    raw[5] = rng.standard_normal(length)
    after = normalize(raw)
    assert not uses_block_path(n, length)
    sweep(g, 0, after=after)  # warm caches
    _, peak = traced_peak(lambda: sweep(g, 0, after=after))
    assert peak < n * length // 2  # half the bytes of an N x L boolean array
