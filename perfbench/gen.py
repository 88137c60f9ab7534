"""Single-thread load generation that holds no completed future.

``repro.serve.loadgen`` is not used for timing: its closed loop runs
one client thread per outstanding request (tens of threads fighting
for two cores), and its open loop keeps every future in a list, which
made the generator fall tens of milliseconds behind its schedule at
5k req/s.  Here one thread submits every request; each future gets a
done-callback that writes the completion time and label into
preallocated lists and then drops the future.

* :func:`open_loop` submits request ``j`` at ``start + j / rate`` and
  records how late the submission was.  Latency runs from the due
  time, so a stall also charges the requests queued behind it.
* :func:`closed_loop` keeps a fixed number of requests outstanding
  (a semaphore released by the done-callback), so the server always
  has a bounded backlog and full batches.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from typing import Callable, Dict, Optional

import numpy as np

Submit = Callable[[int], "object"]


class Phase:
    """Completion records of one phase's requests.

    ``due`` and ``done`` are ``time.perf_counter`` seconds; ``done`` is
    NaN until a request completes, ``label`` is -1 unless it completed
    with an answer.  Errors are tallied by exception type.
    """

    def __init__(self, capacity: int, on_done: Optional[Callable[[], None]] = None):
        self.due = np.full(capacity, math.nan)
        self.late = np.full(capacity, math.nan)
        self.done = [math.nan] * capacity
        self.label = [-1] * capacity
        self.index = np.zeros(capacity, dtype=np.int64)
        self.count = 0
        self.started = math.nan
        self.errors: Dict[str, int] = {}
        self._finished: list = []
        self._on_done = on_done
        self._error_lock = threading.Lock()

    def _callback(self, j: int, future) -> None:
        now = time.perf_counter()
        error = future.exception()
        if error is None:
            self.label[j] = int(future.result())
        else:
            self._note_error(error)
        self.done[j] = now
        self._finished.append(j)
        if self._on_done is not None:
            self._on_done()

    def _note_error(self, error: BaseException) -> None:
        kind = type(error).__name__
        with self._error_lock:
            self.errors[kind] = self.errors.get(kind, 0) + 1

    def submit(self, submit: Submit, index: int, due: float) -> bool:
        """Submit request ``count`` now; False when refused at submission."""
        j = self.count
        self.count += 1
        self.index[j] = index
        self.due[j] = due
        now = time.perf_counter()
        self.late[j] = now - due
        try:
            future = submit(index)
        except Exception as error:  # noqa: BLE001 -- a refusal is a failed request
            self._note_error(error)
            return False
        future.add_done_callback(functools.partial(self._callback, j))
        return True

    def wait(self, submitted: int, until: float) -> None:
        """Block until ``submitted`` callbacks ran or ``until`` passes."""
        while len(self._finished) < submitted and time.perf_counter() < until:
            time.sleep(0.001)

    def arrays(self):
        """``(index, due, done, label)`` trimmed to the submitted requests."""
        n = self.count
        return (
            self.index[:n],
            self.due[:n],
            np.asarray(self.done[:n], dtype=np.float64),
            np.asarray(self.label[:n], dtype=np.int64),
        )


def open_loop(
    submit: Submit,
    indices: np.ndarray,
    rate: float,
    timeout_s: float,
    start: Optional[float] = None,
) -> Phase:
    """Submit ``indices`` at a fixed ``rate`` per second from this thread.

    Request ``j`` is due at ``start + j / rate`` (``start`` defaults to
    now).
    """
    phase = Phase(len(indices))
    interval = 1.0 / rate
    if start is None:
        start = time.perf_counter()
    submitted = 0
    for j, index in enumerate(indices.tolist()):
        due = start + j * interval
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        submitted += phase.submit(submit, index, due)
    phase.wait(submitted, time.perf_counter() + timeout_s)
    return phase


def closed_loop(
    submit: Submit,
    draw: Callable[[int], np.ndarray],
    depth: int,
    seconds: float,
    timeout_s: float,
    capacity: int,
) -> Phase:
    """Keep ``depth`` requests outstanding for ``seconds`` from this thread.

    ``draw(n)`` yields the next ``n`` request indices; ``capacity``
    bounds the requests one phase may record.  The phase's
    ``started`` is the time its first request could be submitted.
    """
    slots = threading.Semaphore(depth)
    phase = Phase(capacity, on_done=slots.release)
    batch = max(depth, 256)
    pending = iter(())
    submitted = 0
    phase.started = time.perf_counter()
    stop = phase.started + seconds
    while phase.count < capacity:
        slots.acquire()
        now = time.perf_counter()
        if now >= stop:
            slots.release()
            break
        index = next(pending, None)
        if index is None:
            pending = iter(draw(batch).tolist())
            index = next(pending)
        if phase.submit(submit, index, now):
            submitted += 1
        else:
            slots.release()
    phase.wait(submitted, time.perf_counter() + timeout_s)
    return phase
