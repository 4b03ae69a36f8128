"""One repetition of a workload in a fresh interpreter.

    python3 child.py RESULT.json [--trace] -- <lagspec CLI arguments>

Times ``lagspec.cli.main(argv)`` with wall and CPU clocks and writes the
timings and the process's peak resident set to RESULT.json, also when
``main`` raises.  With ``--trace``, spans are recorded around the calls into each
layer; after ``main`` returns, the same GEMMs and eigensolves are run bare
and serially to give their floors.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

# Nothing heavy is imported before lagspec.cli, whose import is timed as
# the set-up cost; numpy and the tracer load only after it.


def retained_nbytes(obj, seen: set[int] | None = None) -> int:
    """Bytes of the distinct numpy arrays reachable through dataclass
    fields, tuples, lists and dicts."""
    from dataclasses import fields, is_dataclass

    import numpy as np

    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if is_dataclass(obj):
        return sum(retained_nbytes(getattr(obj, f.name), seen) for f in fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(retained_nbytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(retained_nbytes(x, seen) for x in obj.values())
    return 0


def blas_threads() -> int:
    """Thread count reported by the OpenBLAS that numpy loaded, or 0 if it
    cannot be found."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def peak_rss_mb() -> float:
    """High-water resident set of this process image.  ``ru_maxrss`` is not
    used: Linux carries the parent's peak into it across fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _path_bytes(args, kwargs, _result) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


def targets(lag_calls: list) -> list:
    """Every public name the traced run wraps, at the module it is looked up
    in when the CLI runs."""
    import spans

    def lag_corr(args, kwargs, _result):
        returns, lag = args[0].returns, int(args[1])
        lag_calls.append((returns, lag))
        n, length = returns.shape
        return {"gflop": 2.0 * n * n * (length - lag) / 1e9}

    def load_counts(args, kwargs, _result):
        return {"bytes": os.path.getsize(args[0])}

    def sweep(args, kwargs, result):
        return {"retained_mb": retained_nbytes(result) / 2**20}

    cli_spectra = ("trajectory", "power_spectrum", "characteristic_periods", "peak_report")
    experiment_spectra = ("trajectory", "power_spectrum", "characteristic_periods",
                          "compare_spectra")
    return [
        spans.Target("lagspec.cli.main", "cli.main"),
        spans.Target("lagspec.cli.load_counts", "ingest.load_counts", load_counts),
        spans.Target("lagspec.cli.returns_from_counts", "ingest.returns_from_counts"),
        spans.Target("lagspec.experiment.returns_from_counts", "ingest.returns_from_counts"),
        spans.Target("lagspec.strobo.lag_corr", "lagcorr.lag_corr", lag_corr),
        spans.Target("lagspec.cli.write_matrix_csv", "lagcorr.write_matrix_csv"),
        spans.Target("lagspec.strobo.eigendecompose", "eigensys.eigendecompose"),
        spans.Target("lagspec.cli.sweep", "strobo.sweep", sweep),
        spans.Target("lagspec.experiment.sweep", "strobo.sweep", sweep),
        *(spans.Target(f"lagspec.cli.{name}", "strobo.spectra") for name in cli_spectra),
        *(spans.Target(f"lagspec.experiment.{name}", "strobo.spectra")
          for name in experiment_spectra),
        spans.Target("lagspec.cli.write_trajectory_csv", "strobo.writers", _path_bytes),
        spans.Target("lagspec.cli.write_spectrum_csv", "strobo.writers", _path_bytes),
        spans.Target("lagspec.cli.synth_generate", "experiment.synth_generate"),
        spans.Target("lagspec.experiment.inject", "experiment.inject"),
        spans.Target("lagspec.cli.run_experiment", "experiment.run_experiment"),
        spans.Target("lagspec.serialize.write_json", "serialize.write_json"),
    ]


def floors(lag_calls: list) -> dict:
    """Serial time of the bare GEMM and the bare eigh for every traced lag."""
    import numpy as np

    gemm = eigh = 0.0
    for returns, lag in lag_calls:
        window = returns.shape[1] - lag
        t0 = time.perf_counter()
        cross = returns[:, :window] @ returns[:, lag:].T
        t1 = time.perf_counter()
        sym = (cross + cross.T) / (2.0 * window)
        t2 = time.perf_counter()
        np.linalg.eigh(sym)
        t3 = time.perf_counter()
        gemm += t1 - t0
        eigh += t3 - t2
    return {"gemm_floor_s": gemm, "eigh_floor_s": eigh}


def main(argv: list[str]) -> None:
    result_path, rest = argv[0], argv[1:]
    traced = rest[0] == "--trace"
    cli_argv = rest[rest.index("--") + 1:]

    t_import = time.perf_counter()
    import lagspec.cli

    result = {"rc": None, "lagspec_file": lagspec.cli.__file__,
              "import_s": time.perf_counter() - t_import}
    tracer, lag_calls = None, []
    if traced:
        import spans

        tracer = spans.Tracer(time.perf_counter)
        spans.install(tracer, targets(lag_calls))
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        result["rc"] = lagspec.cli.main(cli_argv)
    finally:
        t1 = time.perf_counter()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        result["wall_s"] = t1 - t0
        result["cpu_s"] = (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime)
        result["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            result["spans"] = [vars(s) for s in tracer.spans]
            result["blas_threads"] = blas_threads()
            result.update(floors(lag_calls))
        with open(result_path, "w") as fh:
            json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
