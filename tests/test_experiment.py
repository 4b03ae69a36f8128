import json
import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from lagspec import (
    ConfigInvalid,
    CountMatrix,
    IndexOutOfRange,
    InjectionSpec,
    SYNTH_PRESETS,
    SynthConfig,
    TooShort,
    UnknownSeries,
    WindowOutOfRange,
    default_targets,
    eigendecompose,
    equal_time_corr,
    inject,
    lag_corr,
    load_injection_spec,
    returns_from_counts,
    rmt_bounds,
    run_experiment,
    segment,
    sweep,
    synth_generate,
    trajectory,
)
from lagspec import _blas
from lagspec.experiment import _BACKGROUND_PHI, _BACKGROUND_SIGMA

from conftest import needs_openblas

DRIVER_CFG = SynthConfig(
    n_series=64, length=2049, delta_t=300.0, n_drivers=4,
    driver_periods=(3, 6), coupling=0.9, seed=0,
)


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_series=1, length=100),
            dict(n_series=4, length=2),
            dict(n_series=4, length=100, delta_t=0.0),
            dict(n_series=4, length=100, n_drivers=5),
            dict(n_series=4, length=100, n_drivers=2, driver_periods=(1,)),
            dict(n_series=4, length=100, coupling=0.0),
            dict(n_series=4, length=100, coupling=1.5),
            dict(n_series=4, length=100, baseline=-1.0),
            dict(n_series=4, length=100, n_drivers=2, driver_lags=(0,)),
            dict(n_series=4, length=100, delta_t=float("inf")),
            dict(n_series=4, length=100, delta_t=float("nan")),
            dict(n_series=4, length=100, baseline=float("inf")),
            dict(n_series=4, length=100, seed=-1),
            dict(n_series=10**30, length=100),
            # integers that no float holds
            dict(n_series=4, length=100, delta_t=10**400),
            dict(n_series=4, length=100, baseline=10**400),
            dict(n_series=4, length=100, n_drivers=1, driver_periods=(10**400,)),
            dict(n_series=4, length=100, n_drivers=1, driver_lags=(-(10**400),)),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigInvalid):
            SynthConfig(**kwargs)

    def test_size_cap_is_2_to_the_28_cells(self):
        SynthConfig(n_series=2**14, length=2**14)  # checked, not generated
        with pytest.raises(ConfigInvalid, match=r"n_series \* length .* 16384 \* 16385"):
            SynthConfig(n_series=2**14, length=2**14 + 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_series", 8.5),
            ("n_series", "8"),
            ("length", True),
            ("delta_t", "300"),
            ("n_drivers", None),
            ("driver_periods", 3),
            ("driver_periods", [3, 6.0]),
            ("driver_lags", [0, False]),
            ("coupling", "0.9"),
            ("baseline", None),
            ("seed", 1.5),
        ],
    )
    def test_field_types_checked(self, field, value):
        kwargs = dict(n_series=4, length=100, n_drivers=2)
        kwargs[field] = value
        with pytest.raises(ConfigInvalid, match=f"^{field} must be an? "):
            SynthConfig(**kwargs)

    def test_json_round_trip(self):
        data = DRIVER_CFG.to_json()
        again = SynthConfig.from_json(data)
        assert again == SynthConfig(**{**data, "driver_lags": tuple(data["driver_lags"])})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown"):
            SynthConfig.from_json({"n_series": 4, "length": 100, "volume": 11})


class TestSynthGenerate:
    def test_reproducible_bit_identical(self):
        a = synth_generate(DRIVER_CFG)
        b = synth_generate(DRIVER_CFG)
        assert np.array_equal(a.counts, b.counts)
        assert a.series_ids == b.series_ids

    def test_overflowing_baseline_names_it(self):
        cfg = SynthConfig(n_series=8, length=40, baseline=1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigInvalid, match=r"range \(baseline 1.7e\+308\)"):
                synth_generate(cfg)

    def test_seed_changes_output(self):
        a = synth_generate(DRIVER_CFG)
        b = synth_generate(SynthConfig(**{**DRIVER_CFG.to_json(), "seed": 1}))
        assert not np.array_equal(a.counts, b.counts)

    @pytest.mark.parametrize("preset", ["default", "small"])
    def test_background_walk_matches_lfilter(self, preset):
        cfg = SYNTH_PRESETS[preset]
        n_bg = cfg.n_series - cfg.n_drivers
        rng = np.random.default_rng(cfg.seed)
        noise = rng.standard_normal((n_bg, cfg.length - 1))
        walk = np.zeros((n_bg, cfg.length))
        walk[:, 1:] = lfilter(
            [1.0], [1.0, -_BACKGROUND_PHI], _BACKGROUND_SIGMA * noise, axis=1
        )
        counts = synth_generate(cfg).counts
        assert np.array_equal(counts[cfg.n_drivers:], cfg.baseline * np.exp(walk))

    def test_counts_positive_and_shaped(self):
        cm = synth_generate(DRIVER_CFG)
        assert cm.counts.shape == (64, 2049)
        assert np.all(cm.counts > 0)
        assert cm.interval == 300.0

    def test_background_only_obeys_rmt_null(self):
        bounds = rmt_bounds(64, 2048)
        for seed in range(3):
            cfg = SynthConfig(n_series=64, length=2049, n_drivers=0, seed=seed)
            g = returns_from_counts(synth_generate(cfg))
            parts = segment(eigendecompose(equal_time_corr(g)).eigenvalues, bounds)
            assert len(parts.random) >= 0.9 * 64

    def test_weak_coupling_degrades_to_background(self):
        bounds = rmt_bounds(64, 2048)
        cfg = SynthConfig(
            n_series=64, length=2049, n_drivers=4, coupling=0.02, seed=5
        )
        g = returns_from_counts(synth_generate(cfg))
        parts = segment(eigendecompose(equal_time_corr(g)).eigenvalues, bounds)
        assert len(parts.random) >= 0.9 * 64

    def test_drivers_put_planted_periods_on_top(self):
        from lagspec import characteristic_periods, power_spectrum

        for seed in range(2):
            cfg = SynthConfig(**{**DRIVER_CFG.to_json(), "seed": seed})
            seq = sweep(returns_from_counts(synth_generate(cfg)), 100)
            spec = power_spectrum(trajectory(seq, "eigenvalue", 63), "mean")
            freqs = sorted(1.0 / p for p, _ in characteristic_periods(spec, 2))
            assert abs(freqs[0] - 1.0 / 6.0) <= 1.0 / 100
            assert abs(freqs[1] - 1.0 / 3.0) <= 1.0 / 100

    def test_lead_lag_mode_localizes_near_spectrum_center(self):
        """For tau > 0 the driver mode passing the median position keeps a
        footprint of about four series, well above the delocalized floor."""
        for seed in range(2):
            cfg = SynthConfig(**{**DRIVER_CFG.to_json(), "seed": seed})
            seq = sweep(returns_from_counts(synth_generate(cfg)), 100)
            center_peak = seq.iprs[1:, 32].max()
            floor = np.median(np.median(seq.iprs[1:], axis=1))
            assert center_peak >= 5.0 * floor


class TestInjectionSpec:
    def test_requires_period_for_periodic(self):
        with pytest.raises(ConfigInvalid):
            InjectionSpec(kind="periodic", target_ids=("a",))

    def test_modulation_depth_bounds(self):
        for depth in (0.0, 1.0, -0.2):
            with pytest.raises(ConfigInvalid):
                InjectionSpec(
                    kind="periodic", target_ids=("a",), period=900.0,
                    modulation_depth=depth,
                )

    def test_bad_kind(self):
        with pytest.raises(ConfigInvalid):
            InjectionSpec(kind="burst", target_ids=("a",))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigInvalid, match="seed"):
            InjectionSpec(kind="noise", target_ids=("a",), seed=-1)

    def test_window_ordering(self):
        with pytest.raises(ConfigInvalid):
            InjectionSpec(kind="noise", target_ids=("a",), t_start=5, t_end=5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("target_ids", "s001"),
            ("target_ids", ["s001", 7]),
            ("t_start", 1.0),
            ("t_start", True),
            ("t_end", "9"),
            ("period", "900"),
            ("period", False),
            ("modulation_depth", "0.5"),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_field_types_checked(self, field, value):
        kwargs = dict(kind="periodic", target_ids=("a",), period=900.0)
        kwargs[field] = value
        with pytest.raises(ConfigInvalid, match=f"^{field} must be"):
            InjectionSpec(**kwargs)

    @pytest.mark.parametrize(
        "period",
        [float("nan"), float("inf"), -900.0, pytest.param(10**400, id="10**400")],
    )
    def test_period_must_be_positive_and_finite(self, period):
        with pytest.raises(ConfigInvalid, match="period"):
            InjectionSpec(kind="periodic", target_ids=("a",), period=period)

    def test_numpy_scalars_accepted(self):
        spec = InjectionSpec(
            kind="periodic", target_ids=("a",), period=np.float64(900.0),
            t_start=np.int64(2), seed=np.int64(3),
        )
        assert spec.t_start == 2

    def test_json_file_round_trip(self, tmp_path):
        spec = InjectionSpec(
            kind="periodic", target_ids=("s001", "s002"), period=900.0,
            modulation_depth=0.4, seed=9,
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_json()))
        assert load_injection_spec(path) == spec

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid):
            load_injection_spec(path)

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigInvalid, match="bad.json"):
            load_injection_spec(path)


@pytest.fixture(scope="module")
def counts():
    return synth_generate(DRIVER_CFG)


class TestInject:
    def test_empty_target_list_is_identity(self, counts):
        out = inject(counts, InjectionSpec(kind="noise", target_ids=()))
        assert np.array_equal(out.counts, counts.counts)

    def test_unknown_series(self, counts):
        with pytest.raises(UnknownSeries, match="nope"):
            inject(counts, InjectionSpec(kind="noise", target_ids=("nope",)))

    def test_window_out_of_range(self, counts):
        spec = InjectionSpec(
            kind="noise", target_ids=("s000",), t_start=0, t_end=5000
        )
        with pytest.raises(WindowOutOfRange):
            inject(counts, spec)

    def test_period_below_nyquist_rejected(self, counts):
        spec = InjectionSpec(
            kind="periodic", target_ids=("s000",), period=450.0,
        )
        with pytest.raises(ConfigInvalid):
            inject(counts, spec)

    @pytest.mark.parametrize("points, count", [(4, 1e308), (5, 1.2e308)])
    def test_overflowing_periodic_injection_names_the_series(self, points, count):
        # four points: the median's mean of two 1e308 counts overflows; five
        # points: the median is finite and only base * 1.5 overflows
        cm = CountMatrix(("a", "b"), 300.0, [[1.0] * points, [count] * points])
        spec = InjectionSpec(kind="periodic", target_ids=("b",), period=900.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigInvalid, match="into series 'b' overflows"):
                inject(cm, spec)

    def test_periodic_cycles_every_three_samples(self, counts):
        # 15 minutes at 300 s sampling is a 3-sample cycle
        spec = InjectionSpec(
            kind="periodic", target_ids=("s010",), period=900.0,
            modulation_depth=0.5,
        )
        out = inject(counts, spec)
        row = out.counts[10]
        base = np.median(counts.counts[10])
        assert row[0] == pytest.approx(base * 1.5)
        assert np.allclose(row[0::3], row[0], rtol=1e-12)
        assert np.allclose(row[1::3], row[1], rtol=1e-12)
        assert np.all(row > 0)

    def test_noise_draws_stay_in_series_range(self, counts):
        spec = InjectionSpec(kind="noise", target_ids=("s001", "s007"), seed=3)
        out = inject(counts, spec)
        for idx in (1, 7):
            lo, hi = counts.counts[idx].min(), counts.counts[idx].max()
            assert np.all(out.counts[idx] >= lo)
            assert np.all(out.counts[idx] <= hi)
            assert np.all(out.counts[idx] > 0)

    def test_non_targets_bit_identical(self, counts):
        spec = InjectionSpec(kind="noise", target_ids=("s001",), seed=3)
        out = inject(counts, spec)
        for i in range(64):
            if i == 1:
                assert not np.array_equal(out.counts[i], counts.counts[i])
            else:
                assert np.array_equal(out.counts[i], counts.counts[i])

    def test_window_restricts_overwrite(self, counts):
        spec = InjectionSpec(
            kind="noise", target_ids=("s002",), t_start=100, t_end=200, seed=1
        )
        out = inject(counts, spec)
        assert np.array_equal(out.counts[2, :100], counts.counts[2, :100])
        assert np.array_equal(out.counts[2, 200:], counts.counts[2, 200:])
        assert not np.array_equal(out.counts[2, 100:200], counts.counts[2, 100:200])

    def test_injection_reproducible(self, counts):
        spec = InjectionSpec(kind="noise", target_ids=("s001",), seed=3)
        assert np.array_equal(inject(counts, spec).counts, inject(counts, spec).counts)


class TestDefaultTargets:
    def test_noise_targets_are_the_drivers(self):
        counts = synth_generate(DRIVER_CFG)
        targets = default_targets(counts, "noise")
        assert targets == ("s000", "s001", "s002", "s003")

    def test_periodic_targets_avoid_drivers_and_follow_seed(self):
        counts = synth_generate(DRIVER_CFG)
        a = default_targets(counts, "periodic", seed=1)
        b = default_targets(counts, "periodic", seed=1)
        c = default_targets(counts, "periodic", seed=2)
        assert a == b
        assert len(a) == 4
        assert not set(a) & {"s000", "s001", "s002", "s003"}
        assert a != c


class TestRunExperiment:
    def test_zero_target_injection_changes_nothing(self):
        cfg = SynthConfig(n_series=16, length=513, n_drivers=3, seed=2)
        counts = synth_generate(cfg)
        spec = InjectionSpec(kind="noise", target_ids=())
        report = run_experiment(counts, spec, tau_max=40, watch_positions=[15])
        for watch in report.watches:
            assert np.array_equal(watch.before, watch.after)
            assert np.array_equal(
                watch.spectrum_before.power, watch.spectrum_after.power
            )
            for entry in watch.resonance.entries:
                assert entry.ratio == pytest.approx(1.0)
                assert entry.classification == "unchanged"

    def test_periodic_resonance_quick(self):
        counts = synth_generate(DRIVER_CFG)
        targets = default_targets(counts, "periodic", seed=0)
        spec = InjectionSpec(
            kind="periodic", target_ids=targets, period=3 * 300.0,
            modulation_depth=0.5, seed=0,
        )
        report = run_experiment(counts, spec, 100, watch_positions=[63])
        watch = report.watch(63, "eigenvalue")
        by_period = {round(e.period_steps): e for e in watch.resonance.entries}
        assert by_period[3].classification == "enhanced"
        assert by_period[6].classification == "suppressed"

    def test_one_sweep_fills_both_records(self, monkeypatch):
        """``run_experiment`` calls ``sweep`` once, with the injected
        returns as ``after``; its trajectories are those of lone sweeps,
        before bit for bit and after within rounding."""
        import lagspec.experiment

        counts = synth_generate(SYNTH_PRESETS["small"])
        spec = InjectionSpec(kind="noise", target_ids=("s004", "s009"), seed=1)
        calls = []

        def counting(g, tau_max, **kwargs):
            calls.append(sorted(kwargs))
            return sweep(g, tau_max, **kwargs)

        monkeypatch.setattr(lagspec.experiment, "sweep", counting)
        report = run_experiment(counts, spec, 40, watch_positions=[1, 15])
        assert calls == [["after"]]
        lone_before = sweep(returns_from_counts(counts), 40)
        lone_after = sweep(returns_from_counts(inject(counts, spec)), 40)
        for watch in report.watches:
            before = trajectory(lone_before, watch.kind, watch.position)
            after = trajectory(lone_after, watch.kind, watch.position)
            assert np.array_equal(watch.before, before)
            assert np.allclose(watch.after, after, rtol=0, atol=1e-9)
            assert not np.array_equal(watch.before, watch.after)

    def test_default_watch_positions(self):
        cfg = SynthConfig(n_series=16, length=513, n_drivers=0, seed=4)
        counts = synth_generate(cfg)
        report = run_experiment(
            counts, InjectionSpec(kind="noise", target_ids=()), tau_max=20
        )
        assert {w.position for w in report.watches} == {1, 8, 15}
        assert {w.kind for w in report.watches} == {"eigenvalue", "ipr"}

    @pytest.mark.parametrize(
        "watch, tau_max, error, message",
        [
            ([3, 99], 20, IndexOutOfRange, "position 99 outside 0..15"),
            ([-1], 20, IndexOutOfRange, "position -1 outside 0..15"),
            ([3, 5, 3], 20, ConfigInvalid, "watch position 3 is named twice"),
            ([3], 5, TooShort, "tau_max 5 gives trajectories of 5 samples"),
        ],
    )
    def test_bad_arguments_fail_before_any_work(
        self, monkeypatch, watch, tau_max, error, message
    ):
        import lagspec.experiment

        def no_work(*args, **kwargs):
            raise AssertionError("work began before the arguments were checked")

        monkeypatch.setattr(lagspec.experiment, "sweep", no_work)
        monkeypatch.setattr(lagspec.experiment, "inject", no_work)
        counts = synth_generate(SYNTH_PRESETS["small"])
        spec = InjectionSpec(kind="noise", target_ids=("s001",))
        with pytest.raises(error, match=message):
            run_experiment(counts, spec, tau_max, watch_positions=watch)

    @pytest.mark.parametrize("kind", ["noise", "periodic"])
    def test_random_segment_statistically_unchanged(self, kind):
        """Either injection type leaves the random segment's trajectories
        alone: the median per-position variance ratio stays within 3x, and
        only the handful of positions a structured mode sweeps through may
        drift outside."""
        bounds = rmt_bounds(64, 2048)
        var_before = np.zeros(64)
        var_after = np.zeros(64)
        random_sets = []
        for seed in range(4):
            cfg = SynthConfig(**{**DRIVER_CFG.to_json(), "seed": seed})
            cm = synth_generate(cfg)
            seq_b = sweep(returns_from_counts(cm), 100)
            if kind == "noise":
                spec = InjectionSpec(
                    kind="noise",
                    target_ids=tuple(f"s{i:03d}" for i in range(4)),
                    seed=seed,
                )
            else:
                spec = InjectionSpec(
                    kind="periodic",
                    target_ids=default_targets(cm, "periodic", seed=seed),
                    period=900.0, modulation_depth=0.5, seed=seed,
                )
            seq_a = sweep(returns_from_counts(inject(cm, spec)), 100)
            parts = segment(seq_b.eigenvalues[0], bounds)
            random_sets.append(set(parts.random))
            for p in parts.random:
                var_before[p] += np.var(trajectory(seq_b, "eigenvalue", p))
                var_after[p] += np.var(trajectory(seq_a, "eigenvalue", p))
        common = sorted(set.intersection(*random_sets))
        ratios = var_after[common] / var_before[common]
        assert 1.0 / 3.0 < np.median(ratios) < 3.0
        inside = np.mean((ratios > 1.0 / 3.0) & (ratios < 3.0))
        assert inside >= 0.85

    def test_report_json_is_serializable(self, tmp_path):
        from lagspec import serialize

        cfg = SynthConfig(n_series=16, length=513, n_drivers=3, seed=1)
        counts = synth_generate(cfg)
        spec = InjectionSpec(
            kind="periodic", target_ids=("s010",), period=900.0, seed=1
        )
        report = run_experiment(counts, spec, 40, watch_positions=[15])
        serialize.write_json(report.to_json(), tmp_path / "report.json")
        parsed = json.loads((tmp_path / "report.json").read_text())
        assert parsed["tau_max"] == 40
        assert parsed["watched"][0]["position"] == 15


# a periodic injection into 4 background series of the default preset: the
# targets share their returns to ~3e-15, so each D(tau) has a cluster of 3
# eigenvalues within ~1e-15 of each other
PRESET_INJECTION = InjectionSpec(
    kind="periodic", target_ids=("s020", "s034", "s040", "s052"), period=1200.0,
    modulation_depth=0.5,
)


@needs_openblas
class TestAcrossBlasThreads:
    """Outputs agree within rounding across BLAS thread counts, degenerate
    positions included."""

    def test_injected_iprs_agree(self):
        counts = inject(synth_generate(SYNTH_PRESETS["default"]), PRESET_INJECTION)
        g = returns_from_counts(counts)

        def iprs(threads):
            with _blas.threads(threads):
                return np.array([eigendecompose(lag_corr(g, k)).iprs for k in range(21)])

        one, two = iprs(1), iprs(2)
        assert np.max(np.abs(one - two)) <= 1e-9

    def test_periods_and_classifications_equal(self):
        counts = synth_generate(SYNTH_PRESETS["default"])

        def experiment(threads):
            with _blas.threads(threads):
                return run_experiment(counts, PRESET_INJECTION, 100)

        one, two = experiment(1), experiment(2)
        for a, b in zip(one.watches, two.watches, strict=True):
            assert np.allclose(a.after, b.after, rtol=0, atol=1e-9)
            assert [p for p, _ in a.periods_before] == [p for p, _ in b.periods_before]
            assert [p for p, _ in a.periods_after] == [p for p, _ in b.periods_after]
            assert ([e.classification for e in a.resonance.entries]
                    == [e.classification for e in b.resonance.entries])
