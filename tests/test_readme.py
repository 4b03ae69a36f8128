"""The Library example in README.md runs as written."""
import contextlib
import io
import re
from pathlib import Path

from lagspec import characteristic_periods

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_and_finds_the_planted_periods():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, str(README), "exec"), namespace)
    assert out.getvalue().startswith("[(")
    # within one frequency bin (1/tau_max) of the planted 6 and 3 lag steps
    freqs = sorted(1.0 / p for p, _ in characteristic_periods(namespace["spec"], 2))
    assert abs(freqs[0] - 1.0 / 6.0) <= 1.0 / 100
    assert abs(freqs[1] - 1.0 / 3.0) <= 1.0 / 100
