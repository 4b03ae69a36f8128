"""Command-line front end for the full pipeline.

``lagspec analyze`` ingests counts (or generates synthetic ones), runs the
lag sweep, and writes equal-time spectrum, trajectories, power spectra and
a characteristic-period summary into one output directory.
``lagspec experiment`` additionally applies an injection and reports
before/after spectra with per-period resonance classification.

Exit codes: 0 success, 1 data or processing error, 2 configuration error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import serialize
from .eigensys import rmt_bounds, segment
from .errors import (
    ConfigInvalid,
    LagspecError,
    UnknownSeries,
    WindowOutOfRange,
)
from .experiment import (
    SYNTH_PRESETS,
    SynthConfig,
    load_injection_spec,
    run_experiment,
    synth_generate,
)
from .ingest import CountMatrix, load_counts, returns_from_counts
from .lagcorr import equal_time_corr, write_matrix_csv
from .strobo import (
    characteristic_periods,
    default_watch,
    peak_report,
    power_spectrum,
    sweep,
    trajectory,
    write_spectrum_csv,
    write_trajectory_csv,
)

_MIN_SPECTRUM_LEN = 8


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved invocation, echoed verbatim into the run directory."""

    command: str
    input_path: str | None
    synth: dict | None
    tau_max: int
    watch_positions: tuple[int, ...] | None
    detrend: str
    seed: int | None
    out_dir: str
    epsilon_clamp: bool
    injection: dict | None = None

    def to_json(self) -> dict:
        data = {
            "command": self.command,
            "input_path": self.input_path,
            "synth": self.synth,
            "tau_max": self.tau_max,
            "watch_positions": (
                None
                if self.watch_positions is None
                else list(self.watch_positions)
            ),
            "detrend": self.detrend,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "epsilon_clamp": self.epsilon_clamp,
        }
        if self.injection is not None:
            data["injection"] = self.injection
        return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagspec",
        description=(
            "Eigenvalue and IPR spectra of time-lagged correlation matrices "
            "of multivariate traffic time series"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", metavar="PATH", help="counts CSV to analyze")
        src.add_argument(
            "--synth",
            metavar="PRESET|PATH",
            help=(
                "synthetic data: a preset name "
                f"({', '.join(sorted(SYNTH_PRESETS))}) or a SynthConfig JSON file"
            ),
        )
        p.add_argument("--tau-max", type=int, default=100, metavar="K",
                       help="largest lag of the sweep (default 100)")
        p.add_argument("--watch", metavar="k1,k2,...",
                       help="spectral positions to report "
                            "(default: 1, N/2, N-1)")
        p.add_argument("--detrend", choices=("mean", "none"), default="mean",
                       help="subtract the trajectory mean before the FFT")
        p.add_argument("--seed", type=int, default=None, metavar="S",
                       help="override the synthetic generator seed")
        p.add_argument("--out", metavar="DIR", default="lagspec_run",
                       help="output directory (default ./lagspec_run)")
        p.add_argument("--epsilon-clamp", action="store_true",
                       help="clamp non-positive counts instead of failing")

    analyze = sub.add_parser("analyze", help="ingest, sweep, report spectra")
    common(analyze)

    experiment = sub.add_parser(
        "experiment", help="before/after analysis of a traffic injection"
    )
    common(experiment)
    experiment.add_argument(
        "--inject", metavar="SPEC.json", required=True,
        help="InjectionSpec JSON file",
    )
    return parser


def _parse_watch(raw: str | None) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        positions = tuple(int(piece) for piece in raw.split(",") if piece.strip())
    except ValueError:
        raise ConfigInvalid(f"--watch must be a comma-separated list of ints: {raw!r}")
    if not positions:
        raise ConfigInvalid("--watch must name at least one position")
    return positions


def _resolve_synth(raw: str, seed: int | None) -> SynthConfig:
    if raw in SYNTH_PRESETS:
        cfg = SYNTH_PRESETS[raw]
    else:
        path = Path(raw)
        if not path.exists():
            raise ConfigInvalid(
                f"--synth {raw!r} is neither a preset "
                f"({', '.join(sorted(SYNTH_PRESETS))}) nor a file"
            )
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigInvalid(f"synth config {raw}: {exc}") from exc
        cfg = SynthConfig.from_json(data)
    if seed is not None:
        cfg = SynthConfig(**{**cfg.to_json(), "seed": seed})
    return cfg


def _load_input(args) -> tuple[CountMatrix, dict | None]:
    if args.input is not None:
        counts = load_counts(args.input, epsilon_clamp=args.epsilon_clamp)
        return counts, None
    cfg = _resolve_synth(args.synth, args.seed)
    return synth_generate(cfg), cfg.to_json()


def _check_watch(positions: tuple[int, ...], n: int) -> tuple[int, ...]:
    for k in positions:
        if not 0 <= k < n:
            raise ConfigInvalid(f"watch position {k} outside 0..{n - 1}")
    return positions


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_analyze(args) -> int:
    counts, synth_echo = _load_input(args)
    n = counts.n_series
    watch = _parse_watch(args.watch)
    watch = default_watch(n) if watch is None else _check_watch(watch, n)
    g = returns_from_counts(counts)
    seq = sweep(g, args.tau_max, delta_t=counts.interval)
    equal_time = seq.equal_time
    bounds = rmt_bounds(n, g.n_returns)
    parts = segment(equal_time, bounds)

    # the run directory appears only once the sweep has succeeded
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    config = PipelineConfig(
        command="analyze",
        input_path=args.input,
        synth=synth_echo,
        tau_max=args.tau_max,
        watch_positions=watch,
        detrend=args.detrend,
        seed=args.seed,
        out_dir=str(out_dir),
        epsilon_clamp=args.epsilon_clamp,
    )
    serialize.write_json(config.to_json(), out_dir / "config.json")
    write_matrix_csv(equal_time_corr(g), out_dir / "equal_time.csv")

    summary = {
        "timestamp": _timestamp(),
        "n_series": n,
        "n_returns": g.n_returns,
        "delta_t": counts.interval,
        "tau_max": args.tau_max,
        "rmt_bounds": {
            "lambda_minus": bounds.lambda_minus,
            "lambda_plus": bounds.lambda_plus,
            "q": bounds.q,
        },
        "equal_time": {
            "eigenvalues": [float(v) for v in equal_time.eigenvalues],
            "iprs": [float(v) for v in equal_time.iprs],
            "segmentation": {
                "left": list(parts.left),
                "random": list(parts.random),
                "right": list(parts.right),
            },
        },
        "watched": [],
    }
    reports = []
    for position in watch:
        for kind in ("eigenvalue", "ipr"):
            entry = {"position": position, "kind": kind}
            if seq.tau_max >= 1:
                traj = trajectory(seq, kind, position)
                write_trajectory_csv(
                    traj, out_dir / f"trajectory_{kind}_{position}.csv"
                )
                if seq.tau_max >= _MIN_SPECTRUM_LEN:
                    spec = power_spectrum(traj, args.detrend)
                    write_spectrum_csv(
                        spec, out_dir / f"spectrum_{kind}_{position}.csv"
                    )
                    entry["characteristic_periods"] = [
                        {"period_steps": p, "period_seconds": p * counts.interval,
                         "power": w}
                        for p, w in characteristic_periods(spec, top_n=2)
                    ]
                    reports.append(
                        peak_report(
                            spec, position=position, kind=kind,
                            delta_t=counts.interval,
                        )
                    )
            summary["watched"].append(entry)
    serialize.write_json(summary, out_dir / "summary.json")
    serialize.write_json(reports, out_dir / "report.json")
    return 0


def cmd_experiment(args) -> int:
    counts, synth_echo = _load_input(args)
    n = counts.n_series
    watch = _parse_watch(args.watch)
    watch = default_watch(n) if watch is None else _check_watch(watch, n)
    spec = load_injection_spec(args.inject)
    report = run_experiment(
        counts, spec, args.tau_max, watch, detrend=args.detrend
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    config = PipelineConfig(
        command="experiment",
        input_path=args.input,
        synth=synth_echo,
        tau_max=args.tau_max,
        watch_positions=watch,
        detrend=args.detrend,
        seed=args.seed,
        out_dir=str(out_dir),
        epsilon_clamp=args.epsilon_clamp,
        injection=spec.to_json(),
    )
    serialize.write_json(config.to_json(), out_dir / "config.json")
    for item in report.watches:
        stem = f"{item.kind}_{item.position}"
        write_trajectory_csv(item.before, out_dir / f"trajectory_before_{stem}.csv")
        write_trajectory_csv(item.after, out_dir / f"trajectory_after_{stem}.csv")
        write_spectrum_csv(item.spectrum_before, out_dir / f"spectrum_before_{stem}.csv")
        write_spectrum_csv(item.spectrum_after, out_dir / f"spectrum_after_{stem}.csv")
    serialize.write_json(report.to_json(), out_dir / "report.json")
    serialize.write_json(
        {
            "timestamp": _timestamp(),
            "n_series": n,
            "delta_t": counts.interval,
            "tau_max": args.tau_max,
            "injection": spec.to_json(),
        },
        out_dir / "summary.json",
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tau_max < 0:
        parser.error(f"argument --tau-max: must be >= 0, got {args.tau_max}")
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_experiment(args)
    except (ConfigInvalid, UnknownSeries, WindowOutOfRange) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except LagspecError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
