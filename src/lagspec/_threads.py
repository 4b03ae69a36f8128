"""The one way lagspec runs work on several threads: the calling thread
runs the first target, a thread started for each further target runs that
one, and all have ended before ``run`` returns.  The sweep's workers and
the block kernel's parts are started this way.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence


def run(targets: Sequence[Callable[[], object]]) -> None:
    """Run ``targets[0]`` here and every further target on a thread of its
    own, and return once all have returned.  Once all have ended, the
    exception of the lowest target that raised one is raised."""
    errors: list[BaseException | None] = [None] * len(targets)

    def guarded(i: int) -> None:
        try:
            targets[i]()
        except BaseException as exc:  # raised by the calling thread below
            errors[i] = exc

    started = [
        threading.Thread(target=guarded, args=(i,)) for i in range(1, len(targets))
    ]
    for thread in started:
        thread.start()
    try:
        targets[0]()
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
