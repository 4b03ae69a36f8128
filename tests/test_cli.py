import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagspec
import lagspec.lagcorr
import lagspec.strobo
from lagspec import (
    SYNTH_PRESETS,
    CountMatrix,
    InjectionSpec,
    SynthConfig,
    lag_corr,
    returns_from_counts,
    synth_generate,
    write_matrix_csv,
)
from lagspec.cli import main

from conftest import digest_run_dir


def run_cli(*argv) -> int:
    return main(list(argv))


def write_counts_csv(path, counts):
    with open(path, "w") as fh:
        fh.write("t," + ",".join(counts.series_ids) + "\n")
        for r in range(counts.counts.shape[1]):
            t = r * counts.interval
            fh.write(
                f"{t:g}," + ",".join(f"{v:.17g}" for v in counts.counts[:, r]) + "\n"
            )


def write_spiky_csv(tmp_path):
    """Counts whose series 0 moves only at t = 0, 10 and 20, so its lag-10
    self term is about 1.23."""
    rates = np.zeros((3, 21))
    rates[0, [0, 10, 20]] = 1.0
    rates[1:] = 0.1 * np.random.default_rng(0).standard_normal((2, 21))
    log_counts = np.concatenate((np.zeros((3, 1)), np.cumsum(rates, axis=1)), axis=1)
    counts = CountMatrix(("a", "b", "c"), 300.0, 100.0 * np.exp(log_counts))
    csv_path = tmp_path / "spiky.csv"
    write_counts_csv(csv_path, counts)
    return csv_path


class TestAnalyze:
    def test_synth_preset_writes_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "analyze", "--synth", "small", "--tau-max", "40", "--out", str(out)
        )
        assert code == 0
        for name in ("config.json", "equal_time.csv", "summary.json", "report.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_series"] == 16
        assert summary["tau_max"] == 40
        seg = summary["equal_time"]["segmentation"]
        assert sorted(seg["left"] + seg["random"] + seg["right"]) == list(range(16))
        # watched positions default to 1, N/2, N-1
        positions = {w["position"] for w in summary["watched"]}
        assert positions == {1, 8, 15}
        report = json.loads((out / "report.json").read_text())
        assert all({"position", "kind", "peaks"} <= set(r) for r in report)

    def test_summary_lists_planted_periods_for_top_position(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--synth", "default", "--tau-max", "100",
            "--out", str(out),
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["watched"]:
            if entry["position"] == 63 and entry["kind"] == "eigenvalue":
                periods = entry["characteristic_periods"]
                steps = sorted(round(p["period_steps"]) for p in periods)
                assert steps == [3, 6]
                # at 300 s sampling the 3- and 6-step periods are the
                # 15- and 30-minute oscillations
                minutes = sorted(p["period_seconds"] / 60.0 for p in periods)
                assert minutes == pytest.approx([15.0, 30.0], rel=0.05)
                break
        else:
            pytest.fail("no eigenvalue entry for the top position")

    def test_input_csv_path(self, tmp_path):
        counts = synth_generate(SynthConfig(n_series=8, length=257, n_drivers=0, seed=3))
        csv_path = tmp_path / "traffic.csv"
        write_counts_csv(csv_path, counts)
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--input", str(csv_path), "--tau-max", "20", "--out", str(out)
        ) == 0
        loaded = np.loadtxt(out / "equal_time.csv", delimiter=",")
        assert loaded.shape == (8, 8)

    def test_tau_max_zero_gives_equal_time_only_report(self, tmp_path):
        counts = synth_generate(SynthConfig(n_series=8, length=65, n_drivers=0, seed=3))
        csv_path = tmp_path / "traffic.csv"
        write_counts_csv(csv_path, counts)
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--input", str(csv_path), "--tau-max", "0", "--out", str(out)
        ) == 0
        assert (out / "equal_time.csv").exists()
        assert not list(out.glob("trajectory_*"))
        assert not list(out.glob("spectrum_*"))
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["equal_time"]["eigenvalues"]) == 8

    def test_malformed_csv_exits_1_naming_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,a,b\n0,1,2\n300,3\n600,4,5\n")
        out = tmp_path / "run"
        assert run_cli("analyze", "--input", str(bad), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "ParseError" in err and "line 3" in err

    def test_nonpositive_count_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,a,b\n0,1,2\n300,0,2\n600,4,5\n")
        out = tmp_path / "run"
        assert run_cli("analyze", "--input", str(bad), "--out", str(out)) == 1
        assert "NonPositiveCount" in capsys.readouterr().err

    def test_epsilon_clamp_flag_recovers(self, tmp_path):
        counts = synth_generate(SynthConfig(n_series=8, length=65, n_drivers=0, seed=3))
        csv_path = tmp_path / "traffic.csv"
        write_counts_csv(csv_path, counts)
        text = csv_path.read_text().splitlines()
        cells = text[1].split(",")
        cells[1] = "0"
        text[1] = ",".join(cells)
        csv_path.write_text("\n".join(text) + "\n")
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--input", str(csv_path), "--tau-max", "10",
            "--epsilon-clamp", "--out", str(out),
        ) == 0

    def test_negative_tau_max_exits_2_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--synth", "small", "--tau-max", "-3", "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tau-max" in err and "Traceback" not in err
        assert not out.exists()

    def test_solver_fault_exits_1_naming_the_lag(self, tmp_path, capsys, doubled_eigh):
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--synth", "small", "--tau-max", "10", "--out", str(out)
        ) == 1
        err = capsys.readouterr().err
        assert "ConvergenceFailure" in err and "at lag 0" in err
        assert "Traceback" not in err

    def test_out_of_range_lagged_entry_exits_1_naming_the_lag(self, tmp_path, capsys):
        csv_path = write_spiky_csv(tmp_path)
        assert run_cli(
            "analyze", "--input", str(csv_path), "--tau-max", "10",
            "--out", str(tmp_path / "run"),
        ) == 1
        err = capsys.readouterr().err
        assert "CorrelationOutOfRange" in err and "at lag 10" in err

    @pytest.mark.parametrize("command", ["analyze", "experiment"])
    def test_failed_sweep_leaves_no_run_directory(self, tmp_path, capsys, command):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps({"kind": "noise", "target_ids": []}))
        inject = ("--inject", str(spec_path)) if command == "experiment" else ()
        out = tmp_path / "run"
        assert run_cli(
            command, "--input", str(write_spiky_csv(tmp_path)), "--tau-max", "10",
            *inject, "--out", str(out),
        ) == 1
        assert "CorrelationOutOfRange" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_2_and_writes_nothing(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        out = tmp_path / "run"
        assert run_cli("analyze", "--input", str(missing), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and str(missing) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_directory_input_exits_2_and_writes_nothing(self, tmp_path, capsys):
        folder = tmp_path / "data"
        folder.mkdir()
        out = tmp_path / "run"
        assert run_cli("analyze", "--input", str(folder), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and str(folder) in err
        assert not out.exists()

    def test_undecodable_input_exits_1_naming_the_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("t,a,b\n0,1,2\n300,3,4\n600,5,6\n# caf\u00e9\n".encode("latin-1"))
        out = tmp_path / "run"
        assert run_cli("analyze", "--input", str(bad), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "ParseError" in err and str(bad) in err
        assert not out.exists()

    def test_bad_watch_position_exits_2(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--synth", "small", "--watch", "99", "--out", str(out)
        ) == 2

    @pytest.mark.parametrize("command", ["analyze", "experiment"])
    def test_repeated_watch_position_exits_2_and_writes_nothing(
        self, tmp_path, capsys, command
    ):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps(
            {"kind": "periodic", "target_ids": ["s005"], "period": 900.0}
        ))
        out = tmp_path / "run"
        extra = ["--inject", str(spec_path)] if command == "experiment" else []
        assert run_cli(
            command, "--synth", "small", "--tau-max", "10", "--watch", "4,3,4",
            *extra, "--out", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid: --watch names position 4 twice" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inj.json"]

    def test_more_series_than_returns_exits_1_before_the_sweep(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps({"n_series": 40, "length": 30}))

        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep ran before the aspect ratio was checked")

        monkeypatch.setattr(lagspec.cli, "sweep", no_sweep)
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--synth", str(cfg_path), "--tau-max", "10", "--out", str(out)
        ) == 1
        err = capsys.readouterr().err
        assert "DegenerateAspect: effective length 29 must exceed dimension 40" in err
        assert not out.exists()

    def test_integer_baseline_beyond_floats_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text('{"n_series": 4, "length": 20, "baseline": 1' + "0" * 400 + "}")
        out = tmp_path / "run"
        assert run_cli("analyze", "--synth", str(cfg_path), "--out", str(out)) == 2
        assert "baseline must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_preset_exits_2(self, tmp_path):
        assert run_cli(
            "analyze", "--synth", "nonesuch", "--out", str(tmp_path / "r")
        ) == 2

    def test_synth_config_file(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(
            {"n_series": 8, "length": 129, "n_drivers": 2, "seed": 6}
        ))
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--synth", str(cfg_path), "--tau-max", "20", "--out", str(out)
        ) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["synth"]["n_series"] == 8

    @pytest.mark.parametrize("content", ["directory", "latin-1", "[8, 129]", "5"])
    def test_bad_synth_file_exits_2_naming_it(self, tmp_path, capsys, content):
        path = tmp_path / "synth.json"
        if content == "directory":
            path.mkdir()
        elif content == "latin-1":
            path.write_bytes('{"n_series": 8, "length": 129, "x": "caf\u00e9"}'
                             .encode("latin-1"))
        else:
            path.write_text(content)
        out = tmp_path / "run"
        assert run_cli("analyze", "--synth", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and str(path) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [8.5, "8"])
    def test_mistyped_synth_field_exits_2_naming_it(self, tmp_path, capsys, value):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"n_series": value, "length": 100}))
        out = tmp_path / "run"
        assert run_cli("analyze", "--synth", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid: n_series must be an integer" in err
        assert "not supported" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["tab\trun", "bell\x07run", "caf\u00e9"])
    def test_out_path_with_control_or_non_ascii_text_gives_valid_json(
        self, tmp_path, name
    ):
        out = tmp_path / name
        assert run_cli(
            "analyze", "--synth", "small", "--tau-max", "10", "--out", str(out)
        ) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["out_dir"] == str(out)

    def test_tau_max_below_spectrum_floor_skips_spectra(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--synth", "small", "--tau-max", "5", "--out", str(out)
        ) == 0
        assert (out / "trajectory_eigenvalue_15.csv").exists()
        assert not list(out.glob("spectrum_*"))

    def test_equal_time_csv_is_the_sweeps_lag0_matrix(self, tmp_path, monkeypatch):
        lags = []

        def counting(g, lag, out=None):
            lags.append(lag)
            return lag_corr(g, lag, out=out)

        # equal_time_corr looks lag_corr up in lagcorr, the sweep in strobo
        monkeypatch.setattr(lagspec.lagcorr, "lag_corr", counting)
        monkeypatch.setattr(lagspec.strobo, "lag_corr", counting)
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--synth", "small", "--tau-max", "12", "--out", str(out)
        ) == 0
        assert lags == list(range(13))
        g = returns_from_counts(synth_generate(SYNTH_PRESETS["small"]))
        write_matrix_csv(lag_corr(g, 0), tmp_path / "expected.csv")
        assert (out / "equal_time.csv").read_bytes() == (
            tmp_path / "expected.csv"
        ).read_bytes()

    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_out_on_a_file_exits_2_before_loading(
        self, tmp_path, capsys, monkeypatch, where
    ):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        out = afile if where == "file" else afile / "sub"

        def no_load(*args, **kwargs):
            raise AssertionError("input loaded before --out was checked")

        monkeypatch.setattr(lagspec.cli, "synth_generate", no_load)
        assert run_cli("analyze", "--synth", "small", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"ConfigInvalid: --out {out}: {afile} is not a directory" in err
        assert "Traceback" not in err
        assert afile.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    def test_out_under_missing_directories_is_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "run"
        assert run_cli(
            "analyze", "--synth", "small", "--tau-max", "8", "--out", str(out)
        ) == 0
        assert (out / "summary.json").exists()

    def test_oversized_synth_config_exits_2_naming_both_fields(self, tmp_path, capsys):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({"n_series": 10**30, "length": 100}))
        out = tmp_path / "run"
        assert run_cli("analyze", "--synth", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid: n_series * length must be at most 2**28 cells" in err
        assert str(10**30) in err and "Traceback" not in err
        assert not out.exists()

    def test_watch_flag_parsed(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "analyze", "--synth", "small", "--tau-max", "20",
            "--watch", "0,5", "--out", str(out),
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {w["position"] for w in summary["watched"]} == {0, 5}


class TestExperimentCommand:
    def test_periodic_experiment_writes_before_after(self, tmp_path):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps({
            "kind": "periodic",
            "target_ids": ["s005", "s008", "s010", "s012"],
            "period": 900.0,
            "modulation_depth": 0.5,
            "seed": 3,
        }))
        out = tmp_path / "run"
        code = run_cli(
            "experiment", "--synth", "small", "--tau-max", "40",
            "--inject", str(spec_path), "--watch", "15", "--out", str(out),
        )
        assert code == 0
        for name in (
            "trajectory_before_eigenvalue_15.csv",
            "trajectory_after_eigenvalue_15.csv",
            "spectrum_before_ipr_15.csv",
            "spectrum_after_ipr_15.csv",
            "report.json",
        ):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        eig = next(
            w for w in report["watched"]
            if w["position"] == 15 and w["kind"] == "eigenvalue"
        )
        classes = {
            round(e["period_steps"], 3): e["classification"]
            for e in eig["resonance"]
        }
        assert classes[3.0] == "enhanced"

    def test_unknown_series_exits_2(self, tmp_path, capsys):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps(
            {"kind": "noise", "target_ids": ["nope"], "seed": 1}
        ))
        code = run_cli(
            "experiment", "--synth", "small", "--tau-max", "20",
            "--inject", str(spec_path), "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert "UnknownSeries" in capsys.readouterr().err

    def test_missing_spec_file_exits_2_and_writes_nothing(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        out = tmp_path / "run"
        assert run_cli(
            "experiment", "--synth", "small", "--inject", str(missing),
            "--out", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid" in err and str(missing) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"kind": "periodic", "target_ids": ["s001"], "period": "900"}, "period"),
            ({"kind": "noise", "target_ids": ["s001"], "period": "x"}, "period"),
            ({"kind": "noise", "target_ids": ["s001"], "seed": True}, "seed"),
            ({"kind": "noise", "target_ids": "s001"}, "target_ids"),
        ],
    )
    def test_mistyped_spec_field_exits_2_naming_it(self, tmp_path, capsys, spec, field):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "run"
        assert run_cli(
            "experiment", "--synth", "small", "--tau-max", "10",
            "--inject", str(spec_path), "--out", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert f"ConfigInvalid: {field} must be" in err
        assert "not supported" not in err
        assert not out.exists()

    def test_tau_max_below_spectrum_floor_exits_2_and_writes_nothing(
        self, tmp_path, capsys
    ):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps(
            {"kind": "periodic", "target_ids": ["s005"], "period": 900.0}
        ))
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "experiment", "--synth", "small", "--tau-max", "5",
                "--inject", str(spec_path), "--out", str(out),
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tau-max" in err and "Traceback" not in err
        assert not out.exists()

    def test_distribution_field_is_unknown(self, tmp_path, capsys):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps(
            {"kind": "noise", "target_ids": ["s001"], "distribution": "uniform"}
        ))
        out = tmp_path / "run"
        assert run_cli(
            "experiment", "--synth", "small", "--tau-max", "10",
            "--inject", str(spec_path), "--out", str(out),
        ) == 2
        err = capsys.readouterr().err
        assert "ConfigInvalid: unknown injection fields: ['distribution']" in err
        assert not out.exists()

    def test_overflowing_periodic_injection_exits_2_naming_the_series(self, tmp_path):
        synth_path = tmp_path / "synth.json"
        synth_path.write_text(json.dumps(
            {"n_series": 8, "length": 40, "baseline": 1e308}
        ))
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps(
            {"kind": "periodic", "target_ids": ["s001"], "period": 900.0}
        ))
        out = tmp_path / "run"
        src = str(Path(lagspec.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "lagspec", "experiment", "--synth",
             str(synth_path), "--tau-max", "8", "--inject", str(spec_path),
             "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(
            "ConfigInvalid: periodic injection into series 's001' overflows"
        )
        assert not out.exists()

    def test_invalid_spec_json_exits_2(self, tmp_path):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text("{broken")
        assert run_cli(
            "experiment", "--synth", "small", "--inject", str(spec_path),
            "--out", str(tmp_path / "run"),
        ) == 2


SERIES = ["s000", "s001", "s005", "zz"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 64) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
field_values = (
    st.integers(-5, 64)
    | st.floats()
    | st.sampled_from(["noise", "periodic", "uniform"])
    | st.lists(st.integers(-5, 64), max_size=3)
    | st.lists(st.sampled_from(SERIES), max_size=3)
    | json_values
)


def config_files(cls, base: dict):
    """JSON values, and objects over the fields of ``cls``, some of them laid
    over a valid ``base`` so that whole runs happen too.  Every integer lies
    in -5..64, which keeps each run to a few MB."""
    names = st.sampled_from(sorted(cls.__dataclass_fields__))
    overrides = st.dictionaries(names, field_values, max_size=2)
    return (
        json_values
        | st.dictionaries(names, field_values)
        | overrides.map(lambda d: {**base, **d})
    )


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["analyze", "experiment"]),
    synth=config_files(SynthConfig, {"n_series": 8, "length": 40}),
    spec=config_files(
        InjectionSpec, {"kind": "periodic", "target_ids": ["s001"], "period": 900.0}
    ),
)
def test_main_gives_an_exit_code_on_fuzzed_config_files(command, synth, spec):
    with tempfile.TemporaryDirectory() as tmp:
        synth_path, spec_path = Path(tmp, "synth.json"), Path(tmp, "spec.json")
        synth_path.write_text(json.dumps(synth))
        spec_path.write_text(json.dumps(spec))
        argv = [command, "--synth", str(synth_path), "--tau-max", "8",
                "--out", str(Path(tmp, "run"))]
        if command == "experiment":
            argv += ["--inject", str(spec_path)]
        code = main(argv)
        assert code in (0, 1, 2)
        assert Path(tmp, "run").exists() == (code == 0)


def fuzz_inputs(tmp: Path) -> None:
    """The files that fuzzed argv may name, written into ``tmp``: six series
    of 40 samples, each at most a few kB."""
    rng = np.random.default_rng(0)
    counts = CountMatrix(
        tuple(f"s{i:03d}" for i in range(6)), 300.0,
        1e3 * np.exp(np.cumsum(0.1 * rng.standard_normal((6, 40)), axis=1)),
    )
    write_counts_csv(tmp / "good.csv", counts)
    (tmp / "bad.csv").write_text("t,a,b\n0,1,2\n300,x,4\n600,5,6\n")
    (tmp / "zeros.csv").write_text(
        "t,a,b\n" + "".join(f"{300 * i},{i % 3},{i + 1}\n" for i in range(20))
    )
    (tmp / "synth.json").write_text(json.dumps({"n_series": 8, "length": 40}))
    (tmp / "spec.json").write_text(json.dumps(
        {"kind": "periodic", "target_ids": ["s001"], "period": 900.0}
    ))
    (tmp / "noise.json").write_text(json.dumps(
        {"kind": "noise", "target_ids": ["s000", "s002"], "t_start": 5}
    ))
    (tmp / "broken.json").write_text("{")
    (tmp / "file").write_text("not a directory\n")


def _flag(name, values):
    return st.tuples(st.just(name), values)


IN_TMP = "{tmp}/"  # a value starting with it names a path in the test's directory
sources = st.one_of(
    _flag("--input", st.sampled_from(
        ["good.csv", "bad.csv", "zeros.csv", "missing.csv", "", "."]
    ).map(IN_TMP.__add__)),
    _flag("--synth", st.sampled_from(["small", "background", "nonesuch"])
          | st.just(IN_TMP + "synth.json")),
)
# experiment needs --tau-max 8 and analyze at least 0, so 8 is drawn two
# times in three
tau_maxes = _flag("--tau-max", st.integers(-1, 8).map(str)) | st.just(
    ("--tau-max", "8")
) | st.just(("--tau-max", "8"))
injects = _flag("--inject", st.sampled_from(
    ["spec.json", "noise.json", "broken.json", "missing.json"]
).map(IN_TMP.__add__))
argv_items = st.lists(
    st.one_of(
        _flag("--watch", st.lists(st.integers(-2, 20), max_size=4).map(
            lambda ks: ",".join(map(str, ks))
        ) | st.sampled_from(["a", ",", "3,,3", " 1"])),
        _flag("--detrend", st.sampled_from(["mean", "none", "linear"])),
        _flag("--seed", st.integers(-3, 5).map(str) | st.just("x")),
        _flag("--out", st.sampled_from(["run", "run2", "file", "file/under"]).map(
            IN_TMP.__add__
        )),
        st.just(("--epsilon-clamp",)),
        # rarer: flags that argparse itself mostly rejects
        st.one_of(
            tau_maxes,
            _flag("--tau-max", st.sampled_from(["x", "", "1.5"])),
            sources,
            injects,
            st.sampled_from([("--bogus",), ("extra",)]),
        ),
    ),
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["analyze", "experiment"] * 2 + ["nonesuch"]),
    base=st.tuples(sources, tau_maxes, injects),
    items=argv_items,
)
def test_main_gives_an_exit_code_on_fuzzed_argv(command, base, items):
    """Any argv over these flags exits 0, 1 or 2 without a traceback (argparse
    itself exits 2 through SystemExit), and leaves a run directory only on 0.
    Most draws start from a source, a --tau-max and, for experiment, an
    --inject, so that whole runs happen too.  Sizes stay small: inputs of
    6 to 64 series and --tau-max at most 8."""
    source, tau_max, inject = base
    with tempfile.TemporaryDirectory() as tmp:
        fuzz_inputs(Path(tmp))
        before = sorted(p.name for p in Path(tmp).iterdir())
        argv = [command, "--out", f"{tmp}/run"]
        for item in (source, tau_max, *([inject] * (command == "experiment")), *items):
            argv += [part.replace("{tmp}", tmp) for part in item]
        out = Path(argv[len(argv) - argv[::-1].index("--out")])  # the last --out
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        after = sorted(p.name for p in Path(tmp).iterdir())
        if code == 0:
            assert (out / "config.json").is_file()
            assert after == sorted({*before, out.name})
        else:
            assert after == before, (argv, err.getvalue())


class TestRunDirectory:
    """``--out`` is empty, absent or an earlier run, and is replaced whole by
    a run that is complete; anything else is refused or left as it was."""

    def small(self, out, *extra):
        return run_cli("analyze", "--synth", "small", "--tau-max", "10",
                       *extra, "--out", str(out))

    def test_rerun_replaces_the_earlier_run_whole(self, tmp_path):
        out, fresh = tmp_path / "d", tmp_path / "fresh"
        assert self.small(out, "--watch", "3,4") == 0
        assert self.small(out, "--watch", "5") == 0
        assert self.small(fresh, "--watch", "5") == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            p.name for p in fresh.iterdir()
        )
        assert len(list(out.iterdir())) == 8  # 4 files and 2 per watched kind
        assert json.loads((out / "config.json").read_text())["watch_positions"] == [5]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "fresh"]

    def test_empty_out_is_used(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        assert self.small(out) == 0
        assert (out / "summary.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

    @pytest.mark.parametrize(
        "name, content", [("notes.txt", "keep\n"), ("config.json", "{}\n")]
    )
    def test_other_nonempty_out_exits_2_before_loading(
        self, tmp_path, capsys, monkeypatch, name, content
    ):
        out = tmp_path / "d"
        out.mkdir()
        (out / name).write_text(content)

        def no_load(*args, **kwargs):
            raise AssertionError("input loaded before --out was checked")

        monkeypatch.setattr(lagspec.cli, "synth_generate", no_load)
        assert self.small(out) == 2
        err = capsys.readouterr().err
        assert err == (
            f"ConfigInvalid: --out {out}: {out} is neither empty nor an "
            "earlier lagspec run\n"
        )
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_text() == content
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

    def test_earlier_run_with_other_files_exits_2_and_is_left_as_it_was(
        self, tmp_path, capsys
    ):
        out = tmp_path / "d"
        assert self.small(out, "--watch", "3") == 0
        csv_path = out / "counts.csv"
        write_counts_csv(
            csv_path, synth_generate(SynthConfig(n_series=8, length=65, seed=3))
        )
        (out / "notes").mkdir()
        before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
        assert run_cli(
            "analyze", "--input", str(csv_path), "--tau-max", "10", "--out", str(out)
        ) == 2
        assert capsys.readouterr().err == (
            f"ConfigInvalid: --out {out}: {out} is neither empty nor an "
            "earlier lagspec run\n"
        )
        assert {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

    def test_file_added_during_the_run_is_kept(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "d"
        assert self.small(out, "--watch", "3") == 0
        real_sweep = lagspec.cli.sweep

        def sweep_then_add(g, tau_max):
            (out / "notes.txt").write_text("keep\n")
            return real_sweep(g, tau_max)

        monkeypatch.setattr(lagspec.cli, "sweep", sweep_then_add)
        assert self.small(out, "--watch", "5") == 2
        assert capsys.readouterr().err == (
            f"ConfigInvalid: --out {out}: {out} is neither empty nor an "
            "earlier lagspec run\n"
        )
        assert (out / "notes.txt").read_text() == "keep\n"
        assert json.loads((out / "config.json").read_text())["watch_positions"] == [3]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

    def test_symlinked_out_replaces_the_directory_it_names(self, tmp_path):
        real, link = tmp_path / "real", tmp_path / "link"
        assert self.small(real, "--watch", "3,4") == 0
        link.symlink_to(real, target_is_directory=True)
        assert self.small(link, "--watch", "5") == 0
        assert link.is_symlink() and link.resolve() == real.resolve()
        assert json.loads((real / "config.json").read_text())["watch_positions"] == [5]
        assert len(list(real.iterdir())) == 8
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]

    @pytest.mark.parametrize("earlier", [False, True])
    def test_writer_fault_exits_1_and_leaves_out_as_it_was(
        self, tmp_path, capsys, monkeypatch, earlier
    ):
        out = tmp_path / "d"
        if earlier:
            assert self.small(out, "--watch", "3") == 0
            before = digest_run_dir(out)

        def full_disk(spec, path):
            raise OSError(28, "No space left on device", str(path))

        monkeypatch.setattr(lagspec.cli, "write_spectrum_csv", full_disk)
        assert self.small(out, "--watch", "5") == 1
        err = capsys.readouterr().err
        assert err == (
            f"WriteFailed: cannot write {out / 'spectrum_eigenvalue_5.csv'}: "
            "No space left on device\n"
        )
        if earlier:
            assert digest_run_dir(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == (["d"] if earlier else [])

    def test_counts_are_freed_before_the_sweep(self, monkeypatch):
        made, alive = [], []
        real_generate, real_sweep = lagspec.cli.synth_generate, lagspec.cli.sweep

        def generate(cfg):
            counts = real_generate(cfg)
            made.append(weakref.ref(counts))
            return counts

        def checked_sweep(g, tau_max):
            gc.collect()
            alive.extend(ref() is not None for ref in made)
            return real_sweep(g, tau_max)

        monkeypatch.setattr(lagspec.cli, "synth_generate", generate)
        monkeypatch.setattr(lagspec.cli, "sweep", checked_sweep)
        with tempfile.TemporaryDirectory() as tmp:
            assert self.small(Path(tmp, "run")) == 0
        assert alive == [False]


class TestDeterminism:
    def test_repeated_runs_byte_identical_modulo_timestamp(self, tmp_path):
        out = tmp_path / "run"
        args = [
            "analyze", "--synth", "small", "--tau-max", "30", "--seed", "5",
            "--out", str(out),
        ]
        assert run_cli(*args) == 0
        first = digest_run_dir(out)
        assert run_cli(*args) == 0
        second = digest_run_dir(out)
        assert first == second

    def test_experiment_determinism(self, tmp_path):
        spec_path = tmp_path / "inj.json"
        spec_path.write_text(json.dumps({
            "kind": "noise",
            "target_ids": ["s000", "s001", "s002"],
            "seed": 7,
        }))
        out = tmp_path / "run"
        args = [
            "experiment", "--synth", "small", "--tau-max", "30",
            "--inject", str(spec_path), "--out", str(out),
        ]
        assert run_cli(*args) == 0
        first = digest_run_dir(out)
        assert run_cli(*args) == 0
        second = digest_run_dir(out)
        assert first == second


def test_module_entry_point(tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "lagspec", "analyze", "--synth", "small",
         "--tau-max", "10", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.json").exists()


def test_cli_import_loads_no_scipy():
    """Importing the CLI loads neither scipy nor concurrent.futures, and
    does not look up OpenBLAS: each would show in every run's set-up."""
    src = str(Path(lagspec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import json, sys, lagspec.cli, lagspec._blas; "
        "print(json.dumps(["
        "[m for m in sys.modules if m.split('.')[0] in ('scipy', 'concurrent')], "
        "lagspec._blas._functions.cache_info().misses]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], 0]
