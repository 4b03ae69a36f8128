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
    stop: Callable[[BaseException], object],
) -> None:
    """Run ``targets[0]`` here and every further target on a thread of its
    own, and return once all have returned.  Once all have ended, the
    exception of the lowest target that raised one is raised.

    An exception raised on this thread is handed to ``stop``, which should
    make the others end early, and is raised, in place of theirs, once they
    have ended: target 0's, an interrupt while it waits for the others, or
    a thread that cannot start, raised as MemoryError.  Further interrupts
    are dropped; one that cuts ``stop`` short makes it be called again."""
    errors: list[BaseException | None] = [None] * len(targets)

    def guarded(i: int) -> None:
        try:
            targets[i]()
        except BaseException as exc:  # raised by the calling thread below
            errors[i] = exc

    started: list[threading.Thread] = []
    raised: BaseException | None = None
    try:
        for i in range(1, len(targets)):
            thread = threading.Thread(target=guarded, args=(i,))
            try:
                thread.start()
            except RuntimeError as exc:  # "can't start new thread"
                raise MemoryError(f"cannot start a thread: {exc}") from None
            started.append(thread)
        targets[0]()
    except BaseException as exc:  # raised below, once the others have ended
        raised = exc
    stopped = False
    for thread in started:
        while thread.is_alive():
            try:
                if raised is not None and not stopped:
                    stop(raised)
                    stopped = True
                thread.join()
            except BaseException as exc:  # raised below
                if raised is None:
                    raised = exc
    if raised is not None:
        raise raised
    for exc in errors:
        if exc is not None:
            raise exc
