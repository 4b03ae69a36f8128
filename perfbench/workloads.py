"""The three benchmark workloads: inputs made from a seed, and checks of a
run directory against an independent plain-numpy reference.

Each workload loads a different layer of lagspec:

- ``wide``: many series, few lags; the N^3 eigensolves dominate.
- ``long``: few series, a long CSV record; CSV parsing and the L >> N GEMMs
  of ``lag_corr`` dominate.
- ``inject``: two sweeps of 401 small lags each; per-call overhead, the
  spectra code and 64 CSV writers dominate.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.signal import lfilter

EIGEN_RTOL = 1e-9  # watched eigenvalues vs reference, relative to the spectral radius
PERIOD_RTOL = 0.05  # a detected period must lie within 5% of a planted one
PLANTED_PERIODS = (3, 6)
INJECT_WATCH = (1, 8, 16, 24, 32, 40, 48, 63)
INJECT_PERIOD_STEPS = 4


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload and the check of its outputs."""

    argv: tuple[str, ...]  # CLI arguments, without --out
    files: tuple[Path, ...]
    sizes: dict  # n, L, tau_max, input_bytes
    check: Callable[[Path], list[str]]  # run directory -> problems found


def reference_eigenvalues(counts: np.ndarray, lags) -> dict[int, np.ndarray]:
    """Ascending eigenvalues of (A B^T + B A^T) / (2w) at each lag, where A
    and B are the head and tail windows of the normalized log-diff."""
    x = np.diff(np.log(counts), axis=1)
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    length = x.shape[1]
    out = {}
    for tau in lags:
        w = length - tau
        a, b = x[:, :w], x[:, tau:]
        out[tau] = np.linalg.eigvalsh((a @ b.T + b @ a.T) / (2.0 * w))
    return out


def sample_lags(tau_max: int) -> tuple[int, ...]:
    return tuple(sorted({1, tau_max // 2, tau_max}))


def check_trajectory(path: Path, position: int, ref: dict[int, np.ndarray]) -> list[str]:
    """Compare one ``trajectory_*_eigenvalue_<pos>.csv`` with the reference."""
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    by_lag = dict(zip(rows[:, 0].astype(int), rows[:, 1]))
    problems = []
    for tau, eigs in ref.items():
        want = eigs[position]
        got = by_lag.get(tau)
        tol = EIGEN_RTOL * float(np.max(np.abs(eigs)))
        if got is None or not abs(got - want) <= tol:
            problems.append(f"{path.name} lag {tau}: {got!r} vs reference {want!r}")
    return problems


def _has_period(periods, target: float) -> bool:
    return any(abs(p - target) <= PERIOD_RTOL * target for p in periods)


def check_analyze(out: Path, ref, watch, n: int) -> list[str]:
    problems = []
    for pos in watch:
        problems += check_trajectory(out / f"trajectory_eigenvalue_{pos}.csv", pos, ref)
    summary_path = out / "summary.json"
    if not summary_path.is_file():
        return problems + ["summary.json missing"]
    summary = json.loads(summary_path.read_text())
    top = [
        item["period_steps"]
        for entry in summary["watched"]
        if entry["position"] == n - 1 and entry["kind"] == "eigenvalue"
        for item in entry.get("characteristic_periods", [])
    ]
    for period in PLANTED_PERIODS:
        if not _has_period(top, period):
            problems.append(f"period {period} not among top periods {top} of position {n - 1}")
    return problems


def check_experiment(out: Path, ref_before, ref_after, watch) -> list[str]:
    problems = []
    for pos in watch:
        problems += check_trajectory(out / f"trajectory_before_eigenvalue_{pos}.csv", pos, ref_before)
        problems += check_trajectory(out / f"trajectory_after_eigenvalue_{pos}.csv", pos, ref_after)
    n_csv = len(list(out.glob("*.csv")))
    if n_csv != 8 * len(watch):
        problems.append(f"{n_csv} CSV files, expected {8 * len(watch)}")
    report_path = out / "report.json"
    if not report_path.is_file():
        return problems + ["report.json missing"]
    report = json.loads(report_path.read_text())
    labels = [
        e["classification"]
        for w in report["watched"]
        if w["position"] == watch[-1] and w["kind"] == "eigenvalue"
        for e in w["resonance"]
        if abs(e["period_steps"] - INJECT_PERIOD_STEPS) < 1e-9
    ]
    if labels != ["enhanced"]:
        problems.append(f"period-{INJECT_PERIOD_STEPS} probe at position {watch[-1]}: {labels}")
    return problems


def default_watch(n: int) -> tuple[int, ...]:
    return tuple(sorted({1, n // 2, n - 1}))


def long_counts(seed: int, n: int, points: int, n_drivers: int = 4) -> np.ndarray:
    """Integer counts around 1e6: AR(1) log-walks, plus, on the first
    ``n_drivers`` series, cosines at the planted periods.  Integers make the
    CSV short and parse back exactly."""
    rng = np.random.default_rng(seed)
    walk = lfilter([1.0], [1.0, -0.98], 0.05 * rng.standard_normal((n, points)), axis=1)
    t = np.arange(points)
    for d in range(n_drivers):
        walk[d] += 0.05 * sum(np.cos(2 * np.pi * (t - d % 2) / p) for p in PLANTED_PERIODS)
    return np.rint(1e6 * np.exp(walk))


def write_counts_csv(counts: np.ndarray, interval: int, path: Path) -> None:
    n, points = counts.shape
    table = np.column_stack([np.arange(points) * interval, counts.T]).astype(np.int64)
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"c{i:03d}" for i in range(n)) + "\n")
        fh.write("\n".join(",".join(map(str, row)) for row in table.tolist()))
        fh.write("\n")


def periodic_injection(counts, rows, period_steps: float, depth: float) -> np.ndarray:
    """Rows replaced by median * (1 + depth cos(2 pi t / period)) over the
    whole record."""
    out = counts.copy()
    phase = 2.0 * np.pi * np.arange(counts.shape[1]) / period_steps
    for r in rows:
        out[r] = np.median(counts[r]) * (1.0 + depth * np.cos(phase))
    return out


def _wide(seed: int, workdir: Path) -> Inputs:
    from lagspec.experiment import SynthConfig, synth_generate

    n, points, tau_max = 512, 4097, 30
    cfg = {"n_series": n, "length": points, "delta_t": 300.0, "n_drivers": 8,
           "driver_periods": list(PLANTED_PERIODS), "seed": seed}
    path = workdir / "wide_synth.json"
    path.write_text(json.dumps(cfg, sort_keys=True) + "\n")
    ref = reference_eigenvalues(synth_generate(SynthConfig(**cfg)).counts, sample_lags(tau_max))
    watch = default_watch(n)
    return Inputs(
        argv=("analyze", "--synth", str(path), "--tau-max", str(tau_max)),
        files=(path,),
        sizes={"n": n, "L": points - 1, "tau_max": tau_max, "input_bytes": path.stat().st_size},
        check=lambda out: check_analyze(out, ref, watch, n),
    )


def _long(seed: int, workdir: Path) -> Inputs:
    n, points, tau_max = 64, 32769, 100
    counts = long_counts(seed, n, points)
    path = workdir / "long_counts.csv"
    write_counts_csv(counts, 300, path)
    ref = reference_eigenvalues(counts, sample_lags(tau_max))
    watch = default_watch(n)
    return Inputs(
        argv=("analyze", "--input", str(path), "--tau-max", str(tau_max)),
        files=(path,),
        sizes={"n": n, "L": points - 1, "tau_max": tau_max, "input_bytes": path.stat().st_size},
        check=lambda out: check_analyze(out, ref, watch, n),
    )


def _inject(seed: int, workdir: Path) -> Inputs:
    from lagspec.experiment import SYNTH_PRESETS, synth_generate

    tau_max, depth = 400, 0.5
    cfg = dataclasses.replace(SYNTH_PRESETS["default"], seed=seed)
    synth = synth_generate(cfg)
    background = np.arange(cfg.n_drivers, cfg.n_series)
    rows = sorted(np.random.default_rng(seed).choice(background, size=4, replace=False).tolist())
    spec = {"kind": "periodic", "target_ids": [synth.series_ids[r] for r in rows],
            "period": INJECT_PERIOD_STEPS * cfg.delta_t, "modulation_depth": depth,
            "seed": seed}
    path = workdir / "inject_spec.json"
    path.write_text(json.dumps(spec, sort_keys=True) + "\n")
    lags = sample_lags(tau_max)
    ref_before = reference_eigenvalues(synth.counts, lags)
    ref_after = reference_eigenvalues(
        periodic_injection(synth.counts, rows, INJECT_PERIOD_STEPS, depth), lags
    )
    watch = ",".join(map(str, INJECT_WATCH))
    return Inputs(
        argv=("experiment", "--synth", "default", "--seed", str(seed), "--inject", str(path),
              "--tau-max", str(tau_max), "--watch", watch),
        files=(path,),
        sizes={"n": cfg.n_series, "L": cfg.length - 1, "tau_max": tau_max,
               "input_bytes": path.stat().st_size},
        check=lambda out: check_experiment(out, ref_before, ref_after, INJECT_WATCH),
    )


WORKLOADS = {"wide": _wide, "long": _long, "inject": _inject}


def prepare(name: str, seed: int, workdir: Path) -> Inputs:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    return WORKLOADS[name](seed, workdir)
