"""Synthetic traffic with planted lead-lag oscillatory structure, count
injections (noise-like and periodic), and before/after experiment
orchestration.

The generator plants a driver group whose rate changes share a lagged
cosine mixture, so the largest eigenvalue of the lagged correlation matrix
oscillates at the configured periods; the remaining series are background
walks whose rate changes are approximately i.i.d.
"""
from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable, Literal, Sequence, Union

import numpy as np

from . import serialize
from .eigensys import eigendecompose, rmt_bounds, segment
from .errors import ConfigInvalid, TooShort, UnknownSeries, WindowOutOfRange
from .ingest import CountMatrix, _blocks, returns_from_counts
from .lagcorr import equal_time_corr
from .strobo import (
    MIN_SPECTRUM_LEN,
    PowerSpectrum,
    ResonanceReport,
    characteristic_periods,
    check_position,
    compare_spectra,
    default_watch,
    power_spectrum,
    sweep,
    trajectory,
)

# background rate changes are AR(1) increments: w(t+1) = PHI*w(t) + SIGMA*xi
_BACKGROUND_PHI = 0.98
_BACKGROUND_SIGMA = 0.05
# largest synthetic count matrix, n_series * length cells (2 GiB of floats)
_MAX_SYNTH_CELLS = 2**28
# the largest finite float; a Python int above it cannot become a float
_FLOAT_MAX = sys.float_info.max


def _check_types(obj, checks) -> None:
    """Raise ConfigInvalid naming the first field whose value is not of its
    type; a bool is not a number."""
    for name, want, label in checks:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, want):
            raise ConfigInvalid(f"{name} must be {label}, got {value!r}")


def _set_tuple(obj, name: str, want, label: str) -> None:
    """Store field ``name`` as a tuple once it is known to list ``want``s."""
    value = getattr(obj, name)
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, want) and not isinstance(v, bool) for v in value
    ):
        raise ConfigInvalid(f"{name} must be a list of {label}, got {value!r}")
    object.__setattr__(obj, name, tuple(value))


class _FromJson:
    """``from_json`` of the frozen config dataclasses: an unknown field or a
    missing one raises ConfigInvalid."""

    @classmethod
    def from_json(cls, data: dict):
        extra = set(data) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigInvalid(f"unknown {cls._what} fields: {sorted(extra)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigInvalid(str(exc)) from exc


@dataclass(frozen=True)
class SynthConfig(_FromJson):
    """Configuration of the synthetic count generator.

    The first ``n_drivers`` series carry the shared lagged periodic signal;
    ``coupling`` weighs signal against noise in the driver rate changes.
    ``length`` counts sampling instants (L+1), so the series yield
    ``length - 1`` rate changes.  ``n_series * length`` may not exceed
    2**28 cells.
    """

    _what = "synth config"

    n_series: int
    length: int
    delta_t: float = 300.0
    n_drivers: int = 0
    driver_periods: tuple[int, ...] = (3, 6)
    driver_lags: tuple[int, ...] | None = None
    coupling: float = 0.9
    baseline: float = 1e6
    seed: int = 0

    def __post_init__(self) -> None:
        _check_types(self, (
            ("n_series", numbers.Integral, "an integer"),
            ("length", numbers.Integral, "an integer"),
            ("delta_t", numbers.Real, "a number"),
            ("n_drivers", numbers.Integral, "an integer"),
            ("coupling", numbers.Real, "a number"),
            ("baseline", numbers.Real, "a number"),
            ("seed", numbers.Integral, "an integer"),
        ))
        _set_tuple(self, "driver_periods", numbers.Integral, "integers")
        if self.driver_lags is not None:
            _set_tuple(self, "driver_lags", numbers.Integral, "integers")
        if self.n_series < 2:
            raise ConfigInvalid("n_series must be at least 2")
        if self.length < 3:
            raise ConfigInvalid("length must be at least 3 sampling instants")
        if self.n_series * self.length > _MAX_SYNTH_CELLS:
            raise ConfigInvalid(
                f"n_series * length must be at most 2**28 cells, "
                f"got {self.n_series} * {self.length}"
            )
        if not 0 < self.delta_t <= _FLOAT_MAX:
            raise ConfigInvalid("delta_t must be positive and finite")
        if not 0 <= self.n_drivers <= self.n_series:
            raise ConfigInvalid("n_drivers must lie in 0..n_series")
        if self.n_drivers > 0 and not self.driver_periods:
            raise ConfigInvalid("drivers need at least one period")
        if any(p < 2 for p in self.driver_periods):
            raise ConfigInvalid("driver periods must be at least 2 lag steps")
        steps = (*self.driver_periods, *(self.driver_lags or ()))
        if any(abs(k) > _FLOAT_MAX for k in steps):
            raise ConfigInvalid("driver periods and lags must fit in a float")
        if not 0.0 < self.coupling <= 1.0:
            raise ConfigInvalid("coupling must lie in (0, 1]")
        if not 0 < self.baseline <= _FLOAT_MAX:
            raise ConfigInvalid("baseline must be positive and finite")
        if self.driver_lags is not None and len(self.driver_lags) != self.n_drivers:
            raise ConfigInvalid("driver_lags must list one lag per driver")
        if self.seed < 0:
            raise ConfigInvalid("seed must be non-negative")

    def resolved_lags(self) -> tuple[int, ...]:
        # alternating 0/1 keeps the driver block low rank, which keeps the
        # bulk positions quiet while still dephasing the drivers
        if self.driver_lags is not None:
            return self.driver_lags
        return tuple(d % 2 for d in range(self.n_drivers))

    def to_json(self) -> dict:
        data = asdict(self)
        data["driver_periods"] = list(self.driver_periods)
        data["driver_lags"] = list(self.resolved_lags())
        return data


DEFAULT_SYNTH = SynthConfig(
    n_series=64,
    length=2049,
    delta_t=300.0,
    n_drivers=4,
    driver_periods=(3, 6),
    coupling=0.9,
    baseline=1e6,
    seed=0,
)

SYNTH_PRESETS = {
    "default": DEFAULT_SYNTH,
    "background": SynthConfig(n_series=64, length=2049, delta_t=300.0, n_drivers=0),
    "small": SynthConfig(
        n_series=16, length=513, delta_t=300.0, n_drivers=3, coupling=0.9
    ),
}


@dataclass(frozen=True)
class InjectionSpec(_FromJson):
    """What to overwrite in a count matrix and how.

    ``kind`` is ``noise`` (uniform draws over each target series' observed
    range) or ``periodic`` (cosinusoidal modulation of the series' median
    count).  The window [t_start, t_end) defaults to the full record.
    """

    _what = "injection"

    kind: Literal["noise", "periodic"]
    target_ids: tuple[str, ...]
    t_start: int = 0
    t_end: int | None = None
    period: float | None = None  # seconds, periodic only
    modulation_depth: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        _set_tuple(self, "target_ids", str, "series ids")
        _check_types(self, (
            ("t_start", numbers.Integral, "an integer"),
            ("t_end", (numbers.Integral, type(None)), "an integer or null"),
            ("period", (numbers.Real, type(None)), "a number or null"),
            ("modulation_depth", numbers.Real, "a number"),
            ("seed", numbers.Integral, "an integer"),
        ))
        if self.kind not in ("noise", "periodic"):
            raise ConfigInvalid(f"kind must be 'noise' or 'periodic', got {self.kind!r}")
        if self.t_start < 0:
            raise ConfigInvalid("t_start must be non-negative")
        if self.t_end is not None and self.t_end <= self.t_start:
            raise ConfigInvalid("t_end must exceed t_start")
        if self.kind == "periodic":
            if self.period is None or not 0 < self.period <= _FLOAT_MAX:
                raise ConfigInvalid(
                    "periodic injection needs a positive finite period"
                )
            if not 0.0 < self.modulation_depth < 1.0:
                raise ConfigInvalid("modulation_depth must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigInvalid("seed must be non-negative")

    def to_json(self) -> dict:
        data = asdict(self)
        data["target_ids"] = list(self.target_ids)
        return data


def load_injection_spec(path: Union[str, Path]) -> InjectionSpec:
    return InjectionSpec.from_json(serialize.read_config(path, "injection spec"))


@np.errstate(over="ignore")  # an overflow is reported as ConfigInvalid
def synth_generate(cfg: SynthConfig) -> CountMatrix:
    """Deterministically generate counts with a planted driver group.

    Background series are baseline * exp(w) for a mean-reverting walk w, so
    their rate changes are approximately i.i.d. Gaussian.  Driver rate
    changes mix the shared signal sum_p cos(2*pi*t/p), shifted by the
    per-driver lag, with i.i.d. noise at weight (1 - coupling), then are
    accumulated back into counts.  Counts beyond the float range raise
    ConfigInvalid naming the baseline.
    """
    rng = np.random.default_rng(cfg.seed)
    n, points = cfg.n_series, cfg.length
    length = points - 1
    n_drv = cfg.n_drivers
    counts = np.empty((n, points), dtype=float)

    # background walks, drawn first so the stream layout is stable; they are
    # built in place in their rows of ``counts``, the noise a row block at a
    # time, which draws the same stream as one (n_bg, length) draw
    n_bg = n - n_drv
    if n_bg:
        walk = counts[n_drv:]
        walk[:, 0] = 0.0
        for rows in _blocks(n_bg, length):
            noise = rng.standard_normal((rows.stop - rows.start, length))
            np.multiply(noise, _BACKGROUND_SIGMA, out=walk[rows, 1:])
            del noise  # before the next block is drawn
        for t in range(1, points):
            walk[:, t] += _BACKGROUND_PHI * walk[:, t - 1]
        np.exp(walk, out=walk)
        walk *= cfg.baseline

    if n_drv:
        t = np.arange(length, dtype=float)
        lags = cfg.resolved_lags()
        driver_noise = rng.standard_normal((n_drv, length))
        for d in range(n_drv):
            shifted = t - lags[d]
            signal = np.zeros(length)
            for period in cfg.driver_periods:
                signal += np.cos(2.0 * np.pi * shifted / period)
            rate = cfg.coupling * signal + (1.0 - cfg.coupling) * driver_noise[d]
            log_path = np.concatenate(([0.0], np.cumsum(rate)))
            counts[d] = cfg.baseline * np.exp(log_path)

    if not np.isfinite(counts).all():
        raise ConfigInvalid(
            f"synthetic counts overflow the float range (baseline {cfg.baseline!r})"
        )

    ids = tuple(f"s{i:03d}" for i in range(n))
    return CountMatrix(series_ids=ids, interval=cfg.delta_t, counts=counts)


def inject(counts: CountMatrix, spec: InjectionSpec) -> CountMatrix:
    """Return a copy of the counts with the target series overwritten.

    Non-target series are bit-identical to the input; injected values stay
    strictly positive by construction.  A periodic injection whose values
    overflow the float range raises ConfigInvalid naming the series.
    """
    points = counts.counts.shape[1]
    t_end = points if spec.t_end is None else spec.t_end
    if not 0 <= spec.t_start < t_end <= points:
        raise WindowOutOfRange(
            f"window [{spec.t_start}, {t_end}) outside record of {points} samples"
        )
    index = {name: i for i, name in enumerate(counts.series_ids)}
    missing = [name for name in spec.target_ids if name not in index]
    if missing:
        raise UnknownSeries(f"unknown series ids: {missing}")
    if spec.kind == "periodic" and spec.period < 2.0 * counts.interval:
        raise ConfigInvalid(
            f"period {spec.period}s is below two sampling intervals "
            f"({2.0 * counts.interval}s)"
        )

    new_counts = counts.counts.copy()
    window = slice(spec.t_start, t_end)
    rng = np.random.default_rng(spec.seed)
    for name in spec.target_ids:
        row = counts.counts[index[name]]
        if spec.kind == "noise":
            low, high = float(row.min()), float(row.max())
            new_counts[index[name], window] = rng.uniform(
                low, high, size=t_end - spec.t_start
            )
        else:
            t = np.arange(spec.t_start, t_end, dtype=float)
            phase = 2.0 * np.pi * t * counts.interval / spec.period
            with np.errstate(over="ignore"):
                base = float(np.median(row))
                values = base * (1.0 + spec.modulation_depth * np.cos(phase))
            if not np.isfinite(values).all():
                raise ConfigInvalid(
                    f"periodic injection into series {name!r} overflows: "
                    f"median count {base!r}, modulation_depth "
                    f"{spec.modulation_depth!r}"
                )
            new_counts[index[name], window] = values
    return CountMatrix(
        series_ids=counts.series_ids, interval=counts.interval, counts=new_counts
    )


def default_targets(
    counts: CountMatrix,
    kind: Literal["noise", "periodic"],
    *,
    seed: int = 0,
) -> tuple[str, ...]:
    """Pick injection targets from the equal-time correlation structure.

    Noise injections go to every series of the pattern: those whose
    squared components on the right-segment eigenvectors (which carry the
    correlation pattern) sum to more than 2/N.  Periodic injections go to
    4 series drawn at random, with ``seed``, from the rest.
    """
    g = returns_from_counts(counts)
    system = eigendecompose(equal_time_corr(g))
    bounds = rmt_bounds(g.n_series, g.n_returns)
    parts = segment(system.eigenvalues, bounds)
    n = g.n_series
    if parts.right:
        loading = np.sum(system.eigenvectors[:, list(parts.right)] ** 2, axis=1)
    else:
        loading = np.zeros(n)
    pattern = np.flatnonzero(loading > 2.0 / n)
    if kind == "noise":
        if pattern.size == 0:
            raise ConfigInvalid(
                "no series load on the right segment; pass explicit targets"
            )
        return tuple(counts.series_ids[i] for i in pattern)
    rest = np.setdiff1d(np.arange(n), pattern)
    if rest.size < 4:
        raise ConfigInvalid(f"only {rest.size} random-segment series available")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(rest, size=4, replace=False)
    return tuple(counts.series_ids[i] for i in sorted(chosen))


@dataclass(frozen=True)
class WatchReport:
    """Before/after view of one spectral position under an injection."""

    position: int
    kind: str
    before: np.ndarray
    after: np.ndarray
    spectrum_before: PowerSpectrum
    spectrum_after: PowerSpectrum
    periods_before: tuple[tuple[float, float], ...]
    periods_after: tuple[tuple[float, float], ...]
    resonance: ResonanceReport


@dataclass(frozen=True)
class ExperimentReport:
    """Everything an injection experiment produced."""

    injection: InjectionSpec
    tau_max: int
    delta_t: float
    watches: tuple[WatchReport, ...]

    def watch(self, position: int, kind: str) -> WatchReport:
        for item in self.watches:
            if item.position == position and item.kind == kind:
                return item
        raise KeyError(f"no watch for position {position} kind {kind!r}")

    def to_json(self) -> dict:
        return {
            "injection": self.injection.to_json(),
            "tau_max": self.tau_max,
            "delta_t": self.delta_t,
            "watched": [
                {
                    "position": w.position,
                    "kind": w.kind,
                    "characteristic_periods_before": [
                        {"period_steps": p, "power": pw} for p, pw in w.periods_before
                    ],
                    "characteristic_periods_after": [
                        {"period_steps": p, "power": pw} for p, pw in w.periods_after
                    ],
                    "resonance": [
                        {
                            "period_steps": e.period_steps,
                            "before_power": e.before_power,
                            "after_power": e.after_power,
                            "ratio": e.ratio,
                            "classification": e.classification,
                        }
                        for e in w.resonance.entries
                    ],
                }
                for w in self.watches
            ],
        }


def run_experiment(
    counts: CountMatrix,
    spec: InjectionSpec,
    tau_max: int,
    watch_positions: Sequence[int] | None = None,
    *,
    detrend: Literal["none", "mean"] = "mean",
    on_stage: Callable[[str], object] | None = None,
) -> ExperimentReport:
    """Sweep before and after an injection, in one pass, and compare
    trajectory spectra.

    Probe periods are the two strongest characteristic periods detected
    before the injection plus, for periodic injections, the injection period
    itself.  Bad watch positions (IndexOutOfRange, ConfigInvalid) and a
    ``tau_max`` below MIN_SPECTRUM_LEN (TooShort) fail before any work.
    ``on_stage``, if given, is called with "returns" as the injected
    record and both records' returns are made, then with "sweep".
    """
    if watch_positions is None:
        watch_positions = default_watch(counts.n_series)
    watch_positions = [check_position(k, counts.n_series) for k in watch_positions]
    for i, k in enumerate(watch_positions):
        if k in watch_positions[:i]:
            raise ConfigInvalid(f"watch position {k} is named twice")
    if int(tau_max) < MIN_SPECTRUM_LEN:
        raise TooShort(f"tau_max {tau_max} gives trajectories of {tau_max} samples, "
                       f"need at least {MIN_SPECTRUM_LEN}")
    stage = on_stage or (lambda name: None)
    stage("returns")
    # the injected counts are freed once their returns exist
    after_returns = returns_from_counts(inject(counts, spec))
    before_returns = returns_from_counts(counts)
    stage("sweep")
    seq_before, seq_after = sweep(before_returns, tau_max, after=after_returns)

    watches = []
    for position in watch_positions:
        for kind in ("eigenvalue", "ipr"):
            t_before = trajectory(seq_before, kind, position)
            t_after = trajectory(seq_after, kind, position)
            s_before = power_spectrum(t_before, detrend)
            s_after = power_spectrum(t_after, detrend)
            periods_before = tuple(characteristic_periods(s_before, top_n=2))
            periods_after = tuple(characteristic_periods(s_after, top_n=2))
            probes = [p for p, _ in periods_before]
            if spec.kind == "periodic":
                injected_steps = spec.period / counts.interval
                if not any(abs(p - injected_steps) < 1e-9 for p in probes):
                    probes.append(injected_steps)
            resonance = compare_spectra(s_before, s_after, probes)
            watches.append(
                WatchReport(
                    position=position,
                    kind=kind,
                    before=t_before,
                    after=t_after,
                    spectrum_before=s_before,
                    spectrum_after=s_after,
                    periods_before=periods_before,
                    periods_after=periods_after,
                    resonance=resonance,
                )
            )
    return ExperimentReport(
        injection=spec,
        tau_max=int(tau_max),
        delta_t=float(counts.interval),
        watches=tuple(watches),
    )
