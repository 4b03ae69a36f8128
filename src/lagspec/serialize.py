"""The one JSON path: every JSON file lagspec writes goes through
``write_json``, and every JSON configuration file it reads goes through
``read_config``."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import ConfigInvalid


def write_json(obj, path: Union[str, Path]) -> None:
    """Write ``obj`` as JSON indented by 2.  Floats use Python's shortest
    round-trip repr, NaN and infinities are written as ``NaN`` and
    ``Infinity``, and control characters and non-ASCII text are escaped."""
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def read_config(path: Union[str, Path], what: str) -> dict:
    """Parse a JSON file that must hold one object.  A file that cannot be
    read, is not UTF-8, is not JSON or holds another value raises
    ConfigInvalid naming ``what`` and the path."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigInvalid(f"{what} {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or bad JSON
        raise ConfigInvalid(f"{what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigInvalid(f"{what} {path} must hold a JSON object")
    return data
