"""Command-line front end for the full pipeline.

``lagspec analyze`` ingests counts (or generates synthetic ones), runs the
lag sweep, and writes equal-time spectrum, trajectories, power spectra and
a characteristic-period summary into one output directory.
``lagspec experiment`` additionally applies an injection and reports
before/after spectra with per-period resonance classification.

Exit codes: 0 success, 1 data or processing error, 2 configuration error,
130 interrupted (Ctrl-C).
"""
from __future__ import annotations

import argparse
import fnmatch
import os
import shutil
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from . import serialize
from .eigensys import rmt_bounds, segment
from .errors import (
    ConfigInvalid,
    LagspecError,
    UnknownSeries,
    WindowOutOfRange,
    WriteFailed,
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
from .lagcorr import LagCorrMatrix, write_matrix_csv
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
    # the run's shape, set once its input is loaded, and the stage running
    parser.set_defaults(shape=None, stage=None)

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
    for i, k in enumerate(positions):
        if k in positions[:i]:
            raise ConfigInvalid(f"--watch names position {k} twice")
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


# the files a run writes; an --out holding only these is an earlier run
RUN_FILES = ("config.json", "summary.json", "report.json", "equal_time.csv",
             "trajectory_*.csv", "spectrum_*.csv")


def _replaceable(path: Path) -> bool:
    """Whether the directory ``path`` is empty or holds an earlier run and
    nothing else: plain files named as a run names them, with a config.json
    that is the record of a lagspec run."""
    with os.scandir(path) as entries:
        entries = list(entries)
    if not entries:
        return True
    if not all(
        entry.is_file(follow_symlinks=False)
        and any(fnmatch.fnmatchcase(entry.name, pattern) for pattern in RUN_FILES)
        for entry in entries
    ):
        return False
    try:
        return "command" in serialize.read_config(path / "config.json", "run record")
    except ConfigInvalid:
        return False


def _check_out(raw: str) -> None:
    """``--out`` must be a directory or a path that mkdir can create: the
    nearest part of it that exists must be a directory.  An existing
    ``--out`` must be empty or hold an earlier run and nothing else, which
    the new run replaces whole; any other directory is refused and left as
    it is."""
    out = Path(raw)
    if os.path.isdir(out):
        try:
            replaceable = _replaceable(out)
        except OSError as exc:
            raise ConfigInvalid(f"--out {raw}: {exc.strerror}") from exc
        if not replaceable:
            raise ConfigInvalid(
                f"--out {raw}: {raw} is neither empty nor an earlier lagspec run"
            )
        return
    for path in (out, *out.parents):
        if os.path.isdir(path):
            return
        if os.path.lexists(path):
            raise ConfigInvalid(f"--out {raw}: {path} is not a directory")


def _prepare(args) -> tuple[CountMatrix, tuple[int, ...], InjectionSpec | None, dict]:
    """Check every configuration item, then load the input and check the
    watch positions against it.  Returns the counts, the watch positions, the
    injection (experiment only) and the record that becomes config.json.
    Once the input is loaded, ``args.shape`` names the run's N, L and
    tau_max for ``main``'s out-of-memory line, which also names
    ``args.stage``, the stage running: "loading" here, then "returns",
    "sweep" and "writing", as the ``cmd_*`` functions set it."""
    args.stage = "loading"
    _check_out(args.out)
    watch = _parse_watch(args.watch)
    spec = load_injection_spec(args.inject) if args.command == "experiment" else None
    synth = None if args.synth is None else _resolve_synth(args.synth, args.seed)
    if synth is None:
        counts = load_counts(args.input, epsilon_clamp=args.epsilon_clamp)
    else:
        counts = synth_generate(synth)
    n = counts.n_series
    args.shape = f"N = {n}, L = {counts.n_returns}, tau_max = {args.tau_max}"
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


@contextmanager
def _run_dir(config: dict) -> Iterator[Path]:
    """A fresh temporary sibling of ``--out`` holding config.json, for the
    run's writers.  When they finish it is renamed to ``--out``, replacing
    the directory there.  If anything fails, ``--out`` is left as it was and
    the sibling is removed; an OSError becomes WriteFailed naming the path.
    A symlinked ``--out`` is followed: the directory it names is replaced.
    """
    out = Path(config["out_dir"])
    target = Path(os.path.realpath(out))
    tmp = None
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.partial")
        tmp.mkdir()  # mode from the umask, as for a plain mkdir of --out
        serialize.write_json(config, tmp / "config.json")
        yield tmp
        _check_out(str(out))  # again: the run may have taken a while
        _move_into_place(tmp, target)
    except OSError as exc:
        name = exc.filename
        if tmp is not None and name is not None and Path(name).is_relative_to(tmp):
            name = out / Path(name).relative_to(tmp)
        raise WriteFailed(f"cannot write {name or out}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.lexists(tmp):
            shutil.rmtree(tmp, ignore_errors=True)


def _move_into_place(tmp: Path, target: Path) -> None:
    if not os.path.lexists(target):
        os.rename(tmp, target)
        return
    old = tmp.with_name(tmp.name + ".old")
    os.rename(target, old)
    try:
        os.rename(tmp, target)
    except OSError:
        os.rename(old, target)
        raise
    shutil.rmtree(old, ignore_errors=True)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_analyze(args) -> int:
    counts, watch, _, config = _prepare(args)
    n, interval = counts.n_series, counts.interval
    args.stage = "returns"
    g = returns_from_counts(counts)
    del counts  # free the count table before the sweep
    bounds = rmt_bounds(n, g.n_returns)  # N >= L fails here, before any solve
    args.stage = "sweep"
    equal_time = np.empty((n, n))
    seq = sweep(g, args.tau_max, equal_time=equal_time)
    parts = segment(seq.eigenvalues[0], bounds)
    args.stage = "writing"
    with _run_dir(config) as out_dir:
        # the sweep's own lag 0, built once
        write_matrix_csv(LagCorrMatrix(0, equal_time), out_dir / "equal_time.csv")

        summary = {
            "timestamp": _timestamp(),
            "n_series": n,
            "n_returns": g.n_returns,
            "delta_t": interval,
            "tau_max": args.tau_max,
            "rmt_bounds": {
                "lambda_minus": bounds.lambda_minus,
                "lambda_plus": bounds.lambda_plus,
                "q": bounds.q,
            },
            "equal_time": {
                "eigenvalues": [float(v) for v in seq.eigenvalues[0]],
                "iprs": [float(v) for v in seq.iprs[0]],
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
                            {"period_steps": p, "period_seconds": p * interval,
                             "power": w}
                            for p, w in characteristic_periods(spec, top_n=2)
                        ]
                        reports.append(
                            peak_report(
                                spec, position=position, kind=kind,
                                delta_t=interval,
                            )
                        )
                summary["watched"].append(entry)
        serialize.write_json(summary, out_dir / "summary.json")
        serialize.write_json(reports, out_dir / "report.json")
    return 0


def cmd_experiment(args) -> int:
    counts, watch, spec, config = _prepare(args)
    report = run_experiment(counts, spec, args.tau_max, watch, detrend=args.detrend,
                            on_stage=lambda stage: setattr(args, "stage", stage))
    args.stage = "writing"
    with _run_dir(config) as out_dir:
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
    except MemoryError as exc:  # numpy's message names the array and the bytes
        message = " ".join(str(exc).split()) or "out of memory"
        shape = "" if args.shape is None else f" ({args.shape}, stage = {args.stage})"
        print(f"MemoryError: {message}{shape}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("KeyboardInterrupt: stopped", file=sys.stderr)
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
