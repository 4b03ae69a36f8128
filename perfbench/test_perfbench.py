"""Tests of the benchmark's own helpers: span arithmetic, the coverage check
of traced names, input generation and the output checks.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import child
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def span(name, start, end, parent=None, thread=1, error=False, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "error": error, "attrs": attrs}


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(3, 8), (1, 5), (9, 10), (4, 6)]) == pytest.approx(8.0)


def test_self_time_subtracts_union_of_overlapping_children():
    recorded = [
        span("strobo.sweep", 0.0, 10.0),
        span("eigensys.eigendecompose", 1.0, 5.0, parent=0, thread=2),
        span("eigensys.eigendecompose", 3.0, 8.0, parent=0, thread=3),  # overlaps the first
        span("eigensys.eigendecompose", 9.0, 12.0, parent=0, thread=2),  # runs past the parent
        span("lagcorr.lag_corr", 1.5, 2.0, parent=1, thread=2),
    ]
    selfs = spans.self_times(recorded)
    assert selfs[0] == pytest.approx(10.0 - 8.0)  # children cover [1, 8] and [9, 10]
    assert selfs[1] == pytest.approx(4.0 - 0.5)
    agg = spans.summarize(recorded)
    assert agg["eigensys.eigendecompose"]["busy_s"] == pytest.approx(4.0 + 5.0 + 3.0)
    assert agg["strobo.sweep"]["self_s"] == pytest.approx(2.0)
    assert spans.descendants_threads(recorded, 0) == {2, 3}


def test_pool_thread_spans_take_the_open_main_span_as_parent():
    tracer = spans.Tracer(iter(range(1000)).__next__)
    outer = tracer.open("strobo.sweep")

    def work(_):
        index = tracer.open("eigensys.eigendecompose")
        tracer.close(index)
        return threading.get_ident()

    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(work, range(4)))
    tracer.close(outer)
    inner = [s for s in tracer.spans if s.name == "eigensys.eigendecompose"]
    assert len(inner) == 4 and all(s.parent == outer for s in inner)


def test_wrapped_function_counts_calls_and_errors():
    module = types.ModuleType("fake_layer")

    def layer(x):
        if x < 0:
            raise ValueError("negative")
        return x

    module.layer = layer
    sys.modules["fake_layer"] = module
    try:
        tracer = spans.Tracer(iter(range(1000)).__next__)
        spans.install(tracer, [spans.Target("fake_layer.layer", "fake.layer",
                                            lambda a, k, r: {"units": r})])
        assert module.layer(3) == 3
        with pytest.raises(ValueError):
            module.layer(-1)
    finally:
        del sys.modules["fake_layer"]
    agg = spans.summarize([vars(s) for s in tracer.spans])["fake.layer"]
    assert (agg["calls"], agg["errors"], agg["units"]) == (2, 1, 3)


def test_coverage_check_trips_on_a_missing_name():
    import lagspec.cli

    original = lagspec.cli.sweep
    names = [spans.Target("lagspec.cli.sweep", "strobo.sweep"),
             spans.Target("lagspec.cli.no_such_stage", "x"),
             spans.Target("lagspec.no_such_module.fn", "y")]
    with pytest.raises(LookupError, match="no_such_stage.*no_such_module"):
        spans.install(spans.Tracer(iter(range(10)).__next__), names)
    assert lagspec.cli.sweep is original  # nothing was wrapped


def test_every_traced_name_exists_today():
    assert spans.missing_targets(child.targets([])) == []


def test_scipy_import_counts_only_outermost_scipy_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:        50 |         50 |       numpy.linalg",
        "import time:       200 |        250 |     scipy.version",
        "import time:       300 |        650 |   scipy",
        "import time:       400 |        400 |     scipy.signal._peak",
        "import time:        10 |        410 |   scipy.signal",
        "import time:        20 |       1080 | lagspec.strobo",
        "import time:         5 |          5 | json",
    ])
    assert spans.scipy_import_s(text) == pytest.approx((650 + 410) / 1e6)


def test_retained_nbytes_counts_shared_arrays_once():
    @dataclass
    class Holder:
        a: np.ndarray
        b: tuple

    arr = np.zeros(100)
    assert child.retained_nbytes(Holder(arr, (arr, np.zeros(10), "x"))) == 800 + 80


def test_peak_rss_excludes_the_parent_process():
    ballast = np.ones(128 * 2**20 // 8)  # 128 MB resident in this process
    code = "import child; print(child.peak_rss_mb())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(child.__file__).parent,
                          capture_output=True, text=True, timeout=60, check=True)
    assert 0 < float(proc.stdout) < 64
    del ballast


def test_long_inputs_are_byte_identical_per_seed(tmp_path):
    paths = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        paths.append(tmp_path / f"{name}.csv")
        workloads.write_counts_csv(workloads.long_counts(seed, n=6, points=300), 300, paths[-1])
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b and a != c


def test_inject_inputs_are_byte_identical_per_seed(tmp_path):
    first = workloads.prepare("inject", 3, _mkdir(tmp_path / "1"))
    second = workloads.prepare("inject", 3, _mkdir(tmp_path / "2"))
    assert first.files[0].read_bytes() == second.files[0].read_bytes()
    assert first.sizes == second.sizes


def _mkdir(path: Path) -> Path:
    path.mkdir()
    return path


@pytest.fixture(scope="module")
def small_analyze(tmp_path_factory):
    """A real analyze run on a small long-style input, and its reference."""
    import lagspec.cli

    tmp = tmp_path_factory.mktemp("analyze")
    counts = workloads.long_counts(5, n=12, points=2049)
    workloads.write_counts_csv(counts, 300, tmp / "in.csv")
    tau_max = 60
    out = tmp / "run"
    assert lagspec.cli.main(["analyze", "--input", str(tmp / "in.csv"),
                             "--tau-max", str(tau_max), "--out", str(out)]) == 0
    ref = workloads.reference_eigenvalues(counts, workloads.sample_lags(tau_max))
    return out, ref, tau_max


def test_output_check_accepts_a_correct_run(small_analyze):
    out, ref, _ = small_analyze
    assert workloads.check_analyze(out, ref, workloads.default_watch(12), 12) == []


def test_output_check_rejects_a_perturbed_eigenvalue_file(small_analyze, tmp_path):
    out, ref, tau_max = small_analyze
    bad = tmp_path / "run"
    bad.mkdir()
    for item in out.iterdir():
        (bad / item.name).write_bytes(item.read_bytes())
    path = bad / "trajectory_eigenvalue_11.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    rows[tau_max // 2 - 1, 1] *= 1.0 + 1e-7
    path.write_text("tau,value\n" + "".join(f"{int(t)},{v:.17g}\n" for t, v in rows))
    problems = workloads.check_analyze(bad, ref, workloads.default_watch(12), 12)
    assert len(problems) == 1 and f"lag {tau_max // 2}" in problems[0]


def test_output_check_rejects_missing_outputs(tmp_path):
    problems = workloads.check_experiment(tmp_path, {}, {}, (1, 63))
    assert any("report.json" in p for p in problems)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _span, _figure) in run.PER_LAYER.items()
    }


def test_layer_metrics_mark_absent_spans():
    rep = {
        "wall_s": 5.5, "gemm_floor_s": 1.0, "eigh_floor_s": 2.0, "blas_threads": 2,
        "spans": [
            span("cli.main", 0.0, 5.0),
            span("strobo.sweep", 1.0, 4.0, parent=0, retained_mb=3.0),
            span("eigensys.eigendecompose", 1.0, 3.0, parent=1, thread=2),
            span("eigensys.eigendecompose", 1.5, 3.5, parent=1, thread=3),
        ],
    }
    values, absent = run.layer_metrics(rep, untraced_wall=5.0, scipy_s=1.2)
    assert set(values) == set(run.PER_LAYER)
    assert values["eigensys.overhead_ratio"] == pytest.approx(4.0 / 2.0)
    assert values["strobo.sweep.workers"] == 2
    assert values["strobo.sweep.self_s"] == pytest.approx(3.0 - 2.5)
    assert values["trace.overhead_s"] == pytest.approx(0.5)
    assert "ingest.load_counts" in absent and "strobo.sweep" not in absent
    assert values["ingest.load_counts.busy_s"] == 0
