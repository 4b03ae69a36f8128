"""The one way lagspec runs work on several threads: the calling thread
runs the first target, a thread started for each further target runs that
one, and all have ended before ``run`` returns.  The sweep's workers and
the block kernel's parts are started this way.
"""
from __future__ import annotations

import threading
from typing import Callable, Sequence


def run(
    targets: Sequence[Callable[[], object]],
    stop: Callable[[BaseException], object] | None = None,
) -> None:
    """Run ``targets[0]`` here and every further target on a thread of its
    own, and return once all have returned.  Once all have ended, the
    exception of the lowest target that raised one is raised.

    An interrupt that reaches this thread while it waits for the others is
    handed to ``stop``, which should make them end early, and is raised,
    in place of theirs, once they have ended.  Further interrupts are
    dropped; one that cuts ``stop`` short makes it be called again."""
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
        interrupt = None
        stopped = stop is None
        for thread in started:
            while thread.is_alive():
                try:
                    if interrupt is not None and not stopped:
                        stop(interrupt)
                        stopped = True
                    thread.join()
                except BaseException as exc:  # raised below
                    if interrupt is None:
                        interrupt = exc
        if interrupt is not None:
            raise interrupt
    for exc in errors:
        if exc is not None:
            raise exc
