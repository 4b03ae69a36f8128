"""The scripts under scripts/ run to completion on small settings."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lagspec

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(lagspec.__file__).resolve().parents[1])


@pytest.mark.parametrize(
    "script, args, writes",
    [
        ("run_injection_experiments.py",
         ["--tau-max", "20", "--out", "{tmp}/injections"],
         ["injections/noise_drivers.json", "injections/periodic_15min.json"]),
        ("run_synth_analysis.py",
         ["--tau-max", "20", "--out", "{tmp}/synth"],
         ["synth/summary.json"]),
        ("run_null_model.py", ["--seeds", "2"], []),
    ],
    ids=["injection_experiments", "synth_analysis", "null_model"],
)
def test_script_exits_0(script, args, writes, tmp_path):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         *(arg.replace("{tmp}", str(tmp_path)) for arg in args)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert "Traceback" not in proc.stderr
    for name in writes:
        assert (tmp_path / name).is_file(), name
