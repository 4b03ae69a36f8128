"""Benchmark of the lagspec CLI on three workloads.

    python3 perfbench/run.py --workload wide|long|inject|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are made from the seed before timing starts.  Each repetition is
one ``lagspec.cli.main`` call in a fresh interpreter (a closed loop of one
client); repetitions start until S seconds have passed, and every run
directory is checked against a plain-numpy reference.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics (medians over the repetitions).  With ``--trace 1`` the
same untraced repetitions run first, then one traced repetition gives the
per-layer metrics.  Earlier lines give the environment, input
sizes and a readable summary; the full record, spans included, goes to
``.bench_work/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))

import spans  # noqa: E402

SETUP_MIN_SAMPLES = 4
IMPORTTIME_REPEATS = 3
REP_TIMEOUT_S = 150
THREAD_VARS = ("LAGSPEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

SPAN_NAMES = (
    "cli.main", "ingest.load_counts", "ingest.returns_from_counts", "lagcorr.lag_corr",
    "lagcorr.write_matrix_csv", "eigensys.eigendecompose", "strobo.sweep", "strobo.spectra",
    "strobo.writers", "experiment.synth_generate", "experiment.inject",
    "experiment.run_experiment", "serialize.write_json",
)

# per-layer metric -> (unit, span it is taken from, figure of that span)
PER_LAYER = {
    "setup.scipy_import_s": ("s", None, None),
    "ingest.load_counts.busy_s": ("s", "ingest.load_counts", "busy_s"),
    "ingest.load_counts.mb_per_s": ("MB/s", "ingest.load_counts", None),
    "ingest.returns_from_counts.busy_s": ("s", "ingest.returns_from_counts", "busy_s"),
    "lagcorr.lag_corr.calls": ("count", "lagcorr.lag_corr", "calls"),
    "lagcorr.lag_corr.busy_s": ("s", "lagcorr.lag_corr", "busy_s"),
    "lagcorr.lag_corr.gflop": ("GFLOP", "lagcorr.lag_corr", "gflop"),
    "lagcorr.gemm_floor_s": ("s", "lagcorr.lag_corr", None),
    "lagcorr.write_matrix_csv.busy_s": ("s", "lagcorr.write_matrix_csv", "busy_s"),
    "eigensys.eigendecompose.calls": ("count", "eigensys.eigendecompose", "calls"),
    "eigensys.eigendecompose.busy_s": ("s", "eigensys.eigendecompose", "busy_s"),
    "eigensys.eigh_floor_s": ("s", "eigensys.eigendecompose", None),
    "eigensys.overhead_ratio": ("ratio", "eigensys.eigendecompose", None),
    "strobo.sweep.wall_s": ("s", "strobo.sweep", "busy_s"),
    "strobo.sweep.self_s": ("s", "strobo.sweep", "self_s"),
    "strobo.sweep.workers": ("count", "strobo.sweep", None),
    "strobo.sweep.blas_threads": ("count", "strobo.sweep", None),
    "strobo.sweep.retained_mb": ("MB", "strobo.sweep", "retained_mb"),
    "strobo.spectra.busy_s": ("s", "strobo.spectra", "busy_s"),
    "strobo.writers.busy_s": ("s", "strobo.writers", "busy_s"),
    "strobo.writers.mb": ("MB", "strobo.writers", None),
    "experiment.synth_generate.busy_s": ("s", "experiment.synth_generate", "busy_s"),
    "experiment.inject.busy_s": ("s", "experiment.inject", "busy_s"),
    "experiment.run_experiment.self_s": ("s", "experiment.run_experiment", "self_s"),
    "serialize.write_json.busy_s": ("s", "serialize.write_json", "busy_s"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
    **{f"{name}.errors": ("count", name, "errors") for name in SPAN_NAMES},
    "trace.overhead_s": ("s", None, None),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment() -> dict:
    import numpy
    import scipy

    thread_env = {name: os.environ.get(name) for name in THREAD_VARS}
    cpu = os.cpu_count()
    raw = thread_env["LAGSPEC_THREADS"]
    try:  # the README's rule for the sweep worker count
        workers = min(4, cpu or 1) if raw is None else max(1, int(raw))
    except ValueError:
        workers = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": cpu,
        "sweep_workers_rule": workers,
        "thread_env": thread_env,
        "default_threads": all(v is None for v in thread_env.values()),
    }


def setup_once(env: dict) -> float:
    code = "import time; t = time.perf_counter(); import lagspec.cli; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return float(proc.stdout)


def scipy_import_once(env: dict) -> float:
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lagspec.cli"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return spans.scipy_import_s(proc.stderr)


def run_rep(inputs, out: Path, env: dict, traced: bool = False) -> dict:
    """One repetition in a fresh interpreter; its run directory is checked
    and then removed."""
    result_path = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
           *(["--trace"] if traced else []), "--", *inputs.argv, "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    rep = json.loads(result_path.read_text()) if result_path.is_file() else {}
    problems = []
    if proc.returncode != 0 or rep.get("rc") != 0:
        problems.append(f"exit code {proc.returncode}, main returned {rep.get('rc')}")
    if "Traceback (most recent call last)" in proc.stderr:
        problems.append("traceback: " + proc.stderr.strip().splitlines()[-1])
    if rep and not Path(rep["lagspec_file"]).resolve().is_relative_to(SRC):
        problems.append(f"lagspec imported from {rep['lagspec_file']}, not {SRC}")
    if not problems:
        problems += inputs.check(out)
    rep["problems"] = problems
    shutil.rmtree(out, ignore_errors=True)
    return rep


def layer_metrics(rep: dict, untraced_wall: float, scipy_s: float) -> tuple[dict, list[str]]:
    """Per-layer values from one traced repetition, and the spans that were
    never entered (their figures read 0)."""
    recorded = rep["spans"]
    agg = spans.summarize(recorded)
    values = {"setup.scipy_import_s": scipy_s, "trace.overhead_s": rep["wall_s"] - untraced_wall}
    for metric, (_unit, span, figure) in PER_LAYER.items():
        if figure is not None:
            values[metric] = agg.get(span, {}).get(figure, 0)
    load, eig = agg.get("ingest.load_counts", {}), agg.get("eigensys.eigendecompose", {})
    values["ingest.load_counts.mb_per_s"] = (
        load["bytes"] / 2**20 / load["busy_s"] if load.get("busy_s") else 0.0
    )
    values["lagcorr.gemm_floor_s"] = rep["gemm_floor_s"]
    values["eigensys.eigh_floor_s"] = rep["eigh_floor_s"]
    values["eigensys.overhead_ratio"] = (
        eig["busy_s"] / rep["eigh_floor_s"] if eig and rep["eigh_floor_s"] else 0.0
    )
    sweeps = [i for i, s in enumerate(recorded) if s["name"] == "strobo.sweep"]
    values["strobo.sweep.workers"] = max(
        (len(spans.descendants_threads(recorded, i)) for i in sweeps), default=0
    )
    values["strobo.sweep.blas_threads"] = rep["blas_threads"] if sweeps else 0
    values["strobo.writers.mb"] = agg.get("strobo.writers", {}).get("bytes", 0) / 2**20
    absent = [name for name in SPAN_NAMES if name not in agg]
    return values, absent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns the result line and the full record of one workload run."""
    from workloads import prepare

    env = child_env()
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        inputs = prepare(name, seed, workdir)
        record = {"workload": name, "seed": seed, "trace": trace, "env": environment(),
                  "sizes": inputs.sizes, "prepare_s": time.perf_counter() - t0}
        reps = []
        start = time.perf_counter()
        while not reps or time.perf_counter() - start < seconds:
            reps.append(run_rep(inputs, workdir / f"rep{len(reps)}", env))
        timed = [r for r in reps if not r["problems"]] or [r for r in reps if "wall_s" in r]
        medians = {m: statistics.median(r[m] for r in timed) for m in ("wall_s", "cpu_s", "peak_rss_mb")}
        if trace:
            traced = run_rep(inputs, workdir / "traced", env, traced=True)
            reps.append(traced)
            if "spans" not in traced:
                raise SystemExit(f"traced repetition failed: {traced['problems']}")
            record["scipy_import_s"] = [scipy_import_once(env) for _ in range(IMPORTTIME_REPEATS)]
            values, record["absent"] = layer_metrics(
                traced, medians["wall_s"], statistics.median(record["scipy_import_s"])
            )
            metrics = {m: {"value": values[m], "unit": PER_LAYER[m][0]} for m in PER_LAYER}
            record["spans"] = traced.pop("spans")
        else:
            # each repetition's import of lagspec.cli is a set-up sample; the
            # first one may also have compiled the bytecode cache
            setup = [r["import_s"] for r in reps[1:] if "import_s" in r]
            while len(setup) < SETUP_MIN_SAMPLES:
                setup.append(setup_once(env))
            record["setup_s"] = setup
            medians["setup_s"] = statistics.median(setup)
            metrics = {m: {"value": medians[m], "unit": unit} for m, unit in END_TO_END.items()}
        record["reps"] = reps
        failed = sum(1 for r in reps if r["problems"])
        record["fail_ratio"] = failed / len(reps)
        result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
                  "metrics": metrics}
        record["result"] = result
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(record: dict) -> None:
    """Readable lines for one workload run."""
    env, result = record["env"], record["result"]
    print(f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])} "
          f"sizes={json.dumps(record['sizes'])}")
    print(f"env {json.dumps(env)}")
    if not env["default_threads"]:
        print("NOTE: thread variables are set; do not compare with a default-thread result")
    for rep in record["reps"]:
        for problem in rep["problems"]:
            print(f"FAILED: {problem}")
    wall = sorted(r["wall_s"] for r in record["reps"] if "wall_s" in r)
    print(f"repetitions={len(record['reps'])} wall_s range {wall[0]:.3f}..{wall[-1]:.3f}")
    for metric, item in result["metrics"].items():
        print(f"{metric} = {item['value']:.6g} {item['unit']}")
    print(f"fail_ratio = {record['fail_ratio']:.6g} ({result['failed']}/{result['attempted']})")
    if record.get("absent"):
        print(f"absent (never called, figures read 0): {', '.join(record['absent'])}")


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lagspec" / "cli.py").is_file():
        print(f"error: no lagspec sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name], record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(record)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=1) + "\n")
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
