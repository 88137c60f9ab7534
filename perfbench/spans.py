"""Span recording for the traced run, installed from outside the program.

:class:`Tracer` replaces public functions of the program with wrappers
that record one span per call: name, start, end, the enclosing span on
the same thread and the benchmark phase.  Request submissions and
batch runs are also kept as records of their own (submit and
completion times; batch start, end and size).  Everything stays in
memory and is written out when the run ends.  The wrappers pass
straight through in a forked child (a shard inherits them), so spans
inside shard processes are dropped.

Requests are matched to batches by per-model FIFO order: the batcher
pops its queue in submit order, so the ``k``-th request that entered a
model's queue ran in the batch whose cumulative size first exceeds
``k`` (:func:`match_fifo`).  A span's self time is its duration minus
the part of it that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import types
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: (span_id, parent_id, name, start, end, phase)
Span = Tuple[int, int, str, float, float, str]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        #: per served model, in submit order: [submit_start, submit_end, done, phase]
        self.requests: Dict[str, List[List[float]]] = {}
        #: per served model, in run order: (start, end, size)
        self.batches: Dict[str, List[Tuple[float, float, int]]] = {}
        #: train-cache lookups in ``ExecutionContext.trains_for``
        self.train_lookups = [0, 0]  # [hits, misses]
        #: name under which in-process runners serve (one per workload)
        self.served_model: Optional[str] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._forked = False
        os.register_at_fork(after_in_child=self._drop_in_child)

    def _drop_in_child(self) -> None:
        self._forked = True

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_enter: Optional[Callable[..., Any]] = None,
        on_exit: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``owner`` is a module, a class (the attribute may be inherited
        or a classmethod) or an instance.  ``on_enter(args)`` runs
        before each call; ``on_exit(start, end, args, result, entered)``
        after it (``result`` is None when the call raised).
        """
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own and isinstance(owner, (type, types.ModuleType)) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        target = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if tracer._forked:
                return target(*args, **kwargs)
            entered = on_enter(args) if on_enter is not None else None
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = target(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, tracer.phase))
                if on_exit is not None:
                    on_exit(start, end, args, result, entered)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw, own))

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def dump(self, path: str, per_layer: Dict[str, float]) -> None:
        """Write spans and request/batch records as one ``.npz`` file."""
        names = sorted({s[2] for s in self.spans} | {s[5] for s in self.spans})
        code = {name: k for k, name in enumerate(names)}
        table = np.array(
            [(s[0], s[1], code[s[2]], code[s[5]]) for s in self.spans], dtype=np.int64
        ).reshape(-1, 4)
        times = np.array([(s[3], s[4]) for s in self.spans], dtype=np.float64).reshape(-1, 2)
        np.savez(
            path,
            names=np.array(names),
            spans=table,
            times=times,
            per_layer=np.array(json.dumps(per_layer)),
        )

    # -- the program's layers --------------------------------------------

    def install(self) -> None:
        """Wrap the public functions each per-layer metric times."""
        from repro.analysis import common
        from repro.datasets import digits
        from repro.ir import execute, plan_cache
        from repro.ir.backends import get_backend, resolve_backend_name
        from repro.ir.runtime import ExecutionContext
        from repro.mlp.trainer import BackPropTrainer
        from repro.serve import engine, metrics, shm, workers
        from repro.snn import coding, network, snn_bp

        tracer = self

        self.wrap(common, "digits", "datasets.load")
        self.wrap(digits, "load_digits", "datasets.load")
        self.wrap(common, "cached_train", "artifacts.model_load")
        self.wrap(plan_cache, "compile_model", "ir.compile")
        self.wrap(engine.InferenceServer, "warm", "engine.warm")

        def on_submit(start, end, args, future, _entered):
            if future is None:
                return  # refused before reaching the queue
            record = [start, end, float("nan"), tracer.phase]
            tracer.requests.setdefault(args[1], []).append(record)
            future.add_done_callback(
                lambda _f: record.__setitem__(2, time.perf_counter())
            )

        self.wrap(engine.InferenceServer, "submit", "engine.submit", on_exit=on_submit)

        def batch_recorder(model_and_indices):
            def record(start, end, args, _result, _entered):
                model, indices = model_and_indices(args)
                tracer.batches.setdefault(model, []).append((start, end, len(indices)))

            return record

        self.wrap(
            engine.PlanRunner,
            "run",
            "engine.run",
            on_exit=batch_recorder(lambda args: (tracer.served_model, args[1])),
        )
        self.wrap(
            workers.ShardedPool,
            "run_batch",
            "workers.run_batch",
            on_exit=batch_recorder(lambda args: (args[1], args[2])),
        )
        self.wrap(execute, "run_plan", "ir.run_plan")
        self.wrap(execute, "check_plan_consts", "ir.const_check")
        self.wrap(get_backend(resolve_backend_name()), "run", "ir.backend")

        def trains_counted(start, end, args, trains, before):
            if trains is not None:
                misses = args[0].cached_train_count() - before
                tracer.train_lookups[0] += len(trains) - misses
                tracer.train_lookups[1] += misses

        self.wrap(
            ExecutionContext,
            "trains_for",
            "ir.encode",
            on_enter=lambda args: args[0].cached_train_count(),
            on_exit=trains_counted,
        )
        self.wrap(metrics.ServingMetrics, "record_batch", "metrics.record")
        self.wrap(metrics.ServingMetrics, "record_submit", "metrics.record")
        self.wrap(engine.InferenceServer, "swap_model", "engine.swap")
        self.wrap(workers.ShardedPool, "hot_swap", "workers.hot_swap")
        self.wrap(workers.ShardedPool, "retire_shard", "workers.retire")
        self.wrap(workers.ShardedPool, "respawn_shard", "workers.respawn")
        self.wrap(shm.SharedArrayBundle, "create", "shm.create")
        self.wrap(shm.SharedArrayBundle, "verify", "shm.verify")
        self.wrap(network.SNNTrainer, "fit", "stdp.fit")
        self.wrap(network.SNNTrainer, "evaluate", "eval.snnwt")
        self.wrap(BackPropTrainer, "train", "bp.train")
        self.wrap(snn_bp.BackPropSNN, "train", "snnbp.train")
        self.wrap(coding.PoissonCoder, "encode", "snn.encode")
        self.wrap(coding.PoissonCoder, "encode_batch", "snn.encode")


# ---------------------------------------------------------------------------
# Pure helpers (unit-tested in test_harness.py)
# ---------------------------------------------------------------------------


def match_fifo(n_requests: int, batch_sizes: Sequence[int]) -> np.ndarray:
    """Batch number of each request, matching in FIFO order.

    Request ``k`` ran in the first batch whose cumulative size exceeds
    ``k``.  Requests beyond the total size of all batches (still
    queued when the run ended) map to -1.
    """
    ends = np.cumsum(np.asarray(batch_sizes, dtype=np.int64))
    batch = np.searchsorted(ends, np.arange(n_requests), side="right")
    batch[batch >= len(ends)] = -1
    return batch


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the union its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span_id, parent, _name, start, end, _phase in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    result: Dict[int, float] = {}
    for span_id, _parent, _name, start, end, _phase in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result


def outermost(spans: Iterable[Span], name: str) -> List[Span]:
    """Spans called ``name`` that do not sit inside another span of that name."""
    spans = list(spans)
    by_id = {s[0]: s for s in spans}
    chosen = []
    for span in spans:
        if span[2] != name:
            continue
        parent = by_id.get(span[1])
        while parent is not None and parent[2] != name:
            parent = by_id.get(parent[1])
        if parent is None:
            chosen.append(span)
    return chosen


def fifo_view(requests: Sequence[Sequence[Any]], batches: Sequence[Sequence[float]]) -> Dict[str, np.ndarray]:
    """Join request records to batch records by FIFO order.

    ``requests`` are ``(submit_start, submit_end, done, phase)`` in
    submit order and ``batches`` ``(start, end, size)`` in run order.
    Per request: its phase, the wait from submit return to batch start
    and the fan-out from batch end to its done-callback (NaN when it
    matched no batch).  Per batch: its size and the phase of its first
    request.
    """
    n = len(requests)
    submit_end = np.array([r[1] for r in requests], dtype=np.float64)
    done = np.array([r[2] for r in requests], dtype=np.float64)
    phase = np.array([r[3] for r in requests], dtype=object)
    sizes = np.array([b[2] for b in batches], dtype=np.int64)
    starts = np.array([b[0] for b in batches], dtype=np.float64)
    ends = np.array([b[1] for b in batches], dtype=np.float64)
    batch = match_fifo(n, sizes)
    matched = batch >= 0
    wait = np.full(n, np.nan)
    fanout = np.full(n, np.nan)
    wait[matched] = starts[batch[matched]] - submit_end[matched]
    fanout[matched] = done[matched] - ends[batch[matched]]
    first = np.concatenate(([0], np.cumsum(sizes)[:-1])) if len(sizes) else sizes
    batch_phase = np.array(
        [phase[k] if k < n else "" for k in first], dtype=object
    )
    return {
        "phase": phase,
        "wait": wait,
        "fanout": fanout,
        "batch_size": sizes,
        "batch_phase": batch_phase,
    }


def load(path: str) -> Tuple[List[Span], Dict[str, float]]:
    """Spans and per-layer metrics of a file written by :meth:`Tracer.dump`."""
    with np.load(path) as data:
        names = data["names"].tolist()
        records = [
            (int(i), int(p), names[n], float(t0), float(t1), names[ph])
            for (i, p, n, ph), (t0, t1) in zip(data["spans"], data["times"])
        ]
        return records, json.loads(str(data["per_layer"]))
