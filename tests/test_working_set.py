"""The large tables are built in place: the counts, the returns and each lag's
matrices stay within a small multiple of their own size, and every table
equals, bit for bit, the whole-array formula it replaces."""
import tracemalloc

import numpy as np
import pytest

import lagspec.ingest
from lagspec import (
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
from lagspec.experiment import _BACKGROUND_PHI, _BACKGROUND_SIGMA
from lagspec.lagcorr import uses_block_path

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
        if layout == "csv":
            counts = csv_like(counts)
        cm = counts_matrix(counts)
        raw = np.diff(np.log(counts), axis=1)
        want = old_returns(counts)
        got = returns_from_counts(cm).returns
        assert np.array_equal(rate_changes(cm), raw)
        assert np.array_equal(got, want)
        assert np.array_equal(normalize(raw).returns, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous

    @pytest.mark.parametrize("layout", ["C", "csv"])
    def test_keep_the_memory_order_of_the_counts(self, layout):
        counts = long_counts(8, 50)
        if layout == "csv":
            counts = csv_like(counts)
        returns = returns_from_counts(counts_matrix(counts)).returns
        if layout == "csv":
            assert returns.flags.f_contiguous and not returns.flags.c_contiguous
        else:
            assert returns.flags.c_contiguous

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
    n, length = 64, 14000
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((n, length))
    g = normalize(raw)
    raw[5] = rng.standard_normal(length)
    after = normalize(raw)
    assert not uses_block_path(n, length)
    sweep(g, 0, after=after)  # warm caches
    _, peak = traced_peak(lambda: sweep(g, 0, after=after))
    assert peak < n * length // 2  # half the bytes of an N x L boolean array
