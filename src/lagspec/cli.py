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
import sys
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
    InjectionSpec,
    SynthConfig,
    load_injection_spec,
    run_experiment,
    synth_generate,
)
from .ingest import CountMatrix, load_counts, returns_from_counts
from .lagcorr import equal_time_corr, write_matrix_csv
from .strobo import (
    MIN_SPECTRUM_LEN,
    characteristic_periods,
    default_watch,
    peak_report,
    power_spectrum,
    sweep,
    trajectory,
    write_spectrum_csv,
    write_trajectory_csv,
)


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
    elif Path(raw).exists():
        cfg = SynthConfig.from_json(serialize.read_config(raw, "synth config"))
    else:
        raise ConfigInvalid(
            f"--synth {raw!r} is neither a preset "
            f"({', '.join(sorted(SYNTH_PRESETS))}) nor a file"
        )
    if seed is not None:
        cfg = SynthConfig(**{**cfg.to_json(), "seed": seed})
    return cfg


def _prepare(args) -> tuple[CountMatrix, tuple[int, ...], InjectionSpec | None, dict]:
    """Check every configuration item, then load the input and check the
    watch positions against it.  Returns the counts, the watch positions, the
    injection (experiment only) and the record that becomes config.json."""
    watch = _parse_watch(args.watch)
    spec = load_injection_spec(args.inject) if args.command == "experiment" else None
    synth = None if args.synth is None else _resolve_synth(args.synth, args.seed)
    if synth is None:
        counts = load_counts(args.input, epsilon_clamp=args.epsilon_clamp)
    else:
        counts = synth_generate(synth)
    n = counts.n_series
    if watch is None:
        watch = default_watch(n)
    for k in watch:
        if not 0 <= k < n:
            raise ConfigInvalid(f"watch position {k} outside 0..{n - 1}")
    config = {
        "command": args.command,
        "input_path": args.input,
        "synth": None if synth is None else synth.to_json(),
        "tau_max": args.tau_max,
        "watch_positions": list(watch),
        "detrend": args.detrend,
        "seed": args.seed,
        "out_dir": str(Path(args.out)),
        "epsilon_clamp": args.epsilon_clamp,
    }
    if spec is not None:
        config["injection"] = spec.to_json()
    return counts, watch, spec, config


def _make_run_dir(config: dict) -> Path:
    """Create the run directory and write config.json into it.  Called only
    once the sweep has succeeded, so a failed sweep leaves no directory."""
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    serialize.write_json(config, out_dir / "config.json")
    return out_dir


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_analyze(args) -> int:
    counts, watch, _, config = _prepare(args)
    n = counts.n_series
    g = returns_from_counts(counts)
    seq = sweep(g, args.tau_max, delta_t=counts.interval)
    equal_time = seq.equal_time
    bounds = rmt_bounds(n, g.n_returns)
    parts = segment(equal_time, bounds)

    out_dir = _make_run_dir(config)
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
                if seq.tau_max >= MIN_SPECTRUM_LEN:
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
    counts, watch, spec, config = _prepare(args)
    report = run_experiment(
        counts, spec, args.tau_max, watch, detrend=args.detrend
    )

    out_dir = _make_run_dir(config)
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
            "n_series": counts.n_series,
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
    # experiment compares power spectra, which need MIN_SPECTRUM_LEN lags
    floor = MIN_SPECTRUM_LEN if args.command == "experiment" else 0
    if args.tau_max < floor:
        parser.error(
            f"argument --tau-max: {args.command} needs >= {floor}, got {args.tau_max}"
        )
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
