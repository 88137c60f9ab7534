"""One run of one workload, in a process of its own.

``run.py`` starts this script, reads the line :data:`READY` to time
set-up (process start to ready to serve), and takes the last line of
standard output as the run's JSON result.  ``--probe`` stops after
set-up; ``--build`` only fills the model cache.  ``--trace 1`` installs
the span recorder of ``spans.py`` before set-up and reports per-layer
metrics instead of end-to-end ones.

A run: set-up; (offline-seed only) the Table 3 accuracy pipeline once;
a closed-loop warm-up; the workload's ``rounds`` rounds, each running
every repeated step -- light traffic, heavy traffic, capacity traffic,
(in the last ``swap_rounds`` rounds) a swap phase, one fresh training
of the served model's recipe (serving workloads), one cold
evaluation.  A repeated step reports its best round (see
:func:`best`).  Every answer is checked against an oracle, and every
failed operation is counted: the run exits 1 when any failed.
NOTES.md says why each piece is there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

READY = "PERFBENCH_READY"
CONFIG = json.loads((HERE / "config.json").read_text())


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set size of a process, from /proc, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def median_or_zero(values) -> float:
    """Median of a sample; 0.0 for a layer the workload never reached."""
    return median(values) if len(values) else 0.0


def best(values, better: str) -> float:
    """The best of repeated measurements: min if lower is better, else max.

    Each vCPU of the reference host runs at half speed for about a
    quarter of the time, in episodes of milliseconds to seconds (see
    NOTES.md).  A repetition caught by one reads slow; the best
    repetition reads the undisturbed program, and still moves with any
    change that slows every repetition -- including a stall that comes
    at least once per repetition.
    """
    return float(min(values) if better == "lower" else max(values))


class cache_off:
    """Bypass the program's model cache for the duration of a block."""

    def __enter__(self):
        self._previous = os.environ.get("REPRO_NO_CACHE")
        os.environ["REPRO_NO_CACHE"] = "1"

    def __exit__(self, *_exc):
        if self._previous is None:
            os.environ.pop("REPRO_NO_CACHE", None)
        else:
            os.environ["REPRO_NO_CACHE"] = self._previous


class Workload:
    """Set-up, phases and checks of one workload."""

    def __init__(self, name: str, seed: int, tracer):
        self.name = name
        self.cfg = CONFIG["workloads"][name]
        self.seed = seed
        self.tracer = tracer
        self.timeout_ms = float(CONFIG["timeout_ms"])
        self.timeout_s = self.timeout_ms / 1e3
        self.model = self.cfg["model"]
        self.offline = name == "offline-seed"
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.rounds: Dict[str, List[Dict[str, Any]]] = {}
        self.lateness: Dict[str, List[np.ndarray]] = {}
        self.child_hwm = 0.0
        self.server = None
        self.pool = None

    # -- helpers ---------------------------------------------------------

    def _rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng((self.seed,) + stream)

    def _mark(self, phase: str) -> None:
        if self.tracer is not None:
            # The tracer keeps one GC-tracked record per request.  Frozen at
            # each phase boundary, they stay out of the collector's full
            # passes; unfrozen, those passes grew past 100 ms and a traced
            # mlp-b16 run overflowed the queue at its heavy rate.
            gc.freeze()
            self.tracer.phase = phase

    def _sample_children(self) -> None:
        for child in multiprocessing.active_children():
            self.child_hwm = max(self.child_hwm, vm_hwm_mb(child.pid))

    def _check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def _record(self, step: str, result: Dict[str, Any]) -> None:
        self.rounds.setdefault(step, []).append(result)

    def _best(self, step: str, key: str, better: str) -> float:
        return best([r[key] for r in self.rounds[step]], better)

    # -- set-up (timed by run.py up to READY) ------------------------------

    def build(self) -> None:
        """Train every model the workload loads into the model cache."""
        from repro.analysis import common
        from repro.core.config import mnist_snn_config

        train = common.digits()[0]
        for seed in (0, 1):
            config, recipe = self._recipe(seed=seed)
            recipe(config, train)
        if self.offline:
            common.train_snn_model(mnist_snn_config(), train)
        else:
            config, recipe = self._recipe()
            recipe(config, train.take(self.cfg["seed_images"]), epochs=self.cfg["seed_epochs"])

    def setup(self) -> None:
        if self.offline:
            from repro.analysis import tables_accuracy  # noqa: F401
            from repro.datasets.digits import load_digits

            self.heldout = load_digits(
                n_train=10, n_test=self.cfg["heldout_images"], seed=1000 + self.seed
            )[1]
            return
        self._start_server()

    def _start_server(self) -> None:
        from repro.serve.batcher import BatchPolicy
        from repro.serve.engine import InferenceServer
        from repro.serve.loadgen import build_models

        built = build_models([self.model])
        self.train, self.test = built["train"], built["test"]
        self.images = np.asarray(self.test.images)
        served = built["models"][self.model]
        policy = BatchPolicy(**CONFIG["policy"])
        if self.tracer is not None:
            self.tracer.served_model = self.model
        if self.cfg["jobs"]:
            from repro.serve.supervisor import SupervisorPolicy
            from repro.serve.workers import ShardedPool

            self.pool = ShardedPool(
                {self.model: served},
                jobs=self.cfg["jobs"],
                images=self.images,
                supervisor=SupervisorPolicy(),
            )
            self.server = InferenceServer(pool=self.pool, policy=policy, images=self.images)
        else:
            self.server = InferenceServer.from_models(
                {self.model: served}, policy=policy, images=self.images
            )
            self.server.warm()
        self.generations = [served]

    def setup_layers(self) -> None:
        """Per-layer set-up metrics, read right after READY."""
        from repro.ir import plan_cache_stats

        counters = plan_cache_stats()
        spent = self._span_totals({"setup"})
        self.layers.update(
            {
                "datasets.load_s": spent.get("datasets.load", 0.0),
                "artifacts.model_load_s": spent.get("artifacts.model_load", 0.0),
                "ir.compile_s": spent.get("ir.compile", 0.0),
                "ir.plan_cache_hits": counters["plan_hits"],
                "ir.plan_cache_misses": counters["plan_misses"],
                "engine.warm_s": spent.get("engine.warm", 0.0),
                "workers.spawn_ready_s": (
                    self.pool.stats()["spawn_ready_seconds"]["mean"] if self.pool else 0.0
                ),
            }
        )

    # -- the measured part -------------------------------------------------

    def run(self) -> None:
        from repro.serve.loadgen import direct_predictions

        if self.offline:
            from repro.analysis import common
            from repro.core.config import mnist_snn_config
            from repro.mlp.quantized import QuantizedMLP

            self._offline_seed()
            self._mark("serve-setup")
            self.network = common.train_snn_model(mnist_snn_config(), common.digits()[0])
            self._start_server()
            self.generations.append(QuantizedMLP(self.generations[0]))
        else:
            config, recipe = self._recipe(seed=1)
            self.generations.append(recipe(config, self.train))
            config, recipe = self._recipe()
            self.seed_set = self.train.take(self.cfg["seed_images"])
            self.seed_reference = recipe(config, self.seed_set, epochs=self.cfg["seed_epochs"])
        n = len(self.images)
        self.oracles = [
            direct_predictions(model, self.images, range(n)) for model in self.generations
        ]
        server, model = self.server, self.model
        self.submit = lambda index: server.submit(model, index=index)

        self._mark("warmup")
        self._served(self._closed_loop(self._rng(0), CONFIG["warmup_s"]))
        if self.tracer is not None:
            # Untraced capacity first: the traced-untraced gap is the
            # tracing overhead.
            self.tracer.uninstall()
            self._mark("untraced")
            untraced = max(self._capacity(self._rng(5, r))["rps"] for r in range(2))
            self.tracer.install()
        for r in range(self.cfg["rounds"]):
            self._mark("light")
            self._record("light", self._open_phase("light", self._rng(1, r, 0)))
            self._mark("heavy")
            self._record("heavy", self._open_phase("heavy", self._rng(2, r)))
            self._mark("capacity")
            self._record("capacity", self._capacity(self._rng(3, r)))
            if r >= self.cfg["rounds"] - self.cfg["swap_rounds"]:
                self._mark("swap")
                self._record("swap", self._swap_phase(self._rng(4, r)))
            if not self.offline:
                self._mark("seed")
                self._record("seed", self._fresh_seed())
            self._mark("eval")
            self._record("eval", self._offline_eval() if self.offline else self._direct_eval())
            self._sample_children()
        self._summarize_rounds()
        if self.tracer is not None:
            self.layers["trace.overhead_pct"] = 100.0 * (untraced / self.metrics["capacity_rps"] - 1.0)

    def _recipe(self, **overrides):
        """The served model's config (with ``overrides``) and training recipe."""
        from repro.analysis import common
        from repro.core.config import mnist_mlp_config, mnist_snn_config

        if self.model == "snnwt":
            return mnist_snn_config(**overrides), common.train_snn_model
        return mnist_mlp_config(**overrides), common.train_mlp_model

    def _summarize_rounds(self) -> None:
        """Best round of every repeated step, and the generator self-check.

        Every round counts.  Latency runs from each request's due time,
        so a round whose generator ran late reads worse, never better.
        A light or heavy phase whose generator lateness p99, over all
        its rounds, exceeds ``late_p99_bound_ms`` is a failed operation:
        in-process the generator shares the interpreter with the server,
        so the lateness may be the program's own.
        """
        bound = CONFIG["late_p99_bound_ms"]
        worst = 0.0
        for phase in ("light", "heavy"):
            late = float(np.percentile(np.concatenate(self.lateness[phase]), 99))
            worst = max(worst, late)
            self._check(late <= bound, f"{phase} generator lateness p99 {late:.1f} ms > {bound} ms")
            for pct in ("p50", "p99"):
                self.metrics[f"{phase}_{pct}_ms"] = self._best(phase, pct, "lower")
        self.layers["loadgen.late_p99_ms"] = worst
        swaps = self.rounds["swap"]
        self.metrics["swap_s"] = best([t for r in swaps for t in r["burst_s"]], "lower")
        self.metrics["swap_ok_frac"] = sum(r["answered"] for r in swaps) / sum(r["requests"] for r in swaps)
        for name in ("breaker.open_s", "breaker.rejections", "workers.failed_in_flight"):
            self.layers[name] = sum(r[name] for r in swaps)
        self.metrics["capacity_rps"] = self._best("capacity", "rps", "higher")
        self.metrics["eval_img_s"] = self._best("eval", "img_s", "higher")
        if not self.offline:
            self.metrics["seed_s"] = self._best("seed", "seconds", "lower")

    # serving ------------------------------------------------------------

    def _tally(self, phase: "gen.Phase", ok: np.ndarray, unanswered_fail: bool = True):
        """Count a phase's requests; returns the answered-in-time mask.

        A wrong label always counts as failed.  A request that got no
        answer in time counts as failed too, except in the swap phase,
        where that unavailability is what ``swap_ok_frac`` measures.
        """
        index, due, done, label = phase.arrays()
        good = stats.answered_in_time(due, done, ok, self.timeout_ms)
        failed = ~good if unanswered_fail else (label >= 0) & ~ok
        self.attempted += len(index)
        self.failed += int(np.count_nonzero(failed))
        if failed.any():
            print(
                f"perfbench: {np.count_nonzero(failed)} of {len(index)} requests failed "
                f"(errors {phase.errors})",
                file=sys.stderr,
            )
        return good

    def _served(self, phase: "gen.Phase") -> np.ndarray:
        """Tally a phase served by generation 0 alone; returns :meth:`_tally`'s mask."""
        index, _, _, label = phase.arrays()
        return self._tally(phase, label == self.oracles[0][index])

    def _open_phase(self, phase: str, rng) -> Dict[str, Any]:
        rate = self.cfg[f"{phase}_rps"]
        count = int(rate * self.cfg[f"{phase}_s"])
        run = gen.open_loop(self.submit, rng.integers(len(self.images), size=count), rate, self.timeout_s)
        _, due, done, _ = run.arrays()
        good = self._served(run)
        latency = stats.request_latencies_ms(due, done, good, self.timeout_ms)
        late_ms = run.late[: run.count] * 1e3
        self.lateness.setdefault(phase, []).append(late_ms)
        return {
            "p50": stats.percentile(latency, 50),
            "p99": stats.percentile(latency, 99),
            "late_p99_ms": float(np.percentile(late_ms, 99)),
            "failed": int(np.count_nonzero(~good)),
            "errors": dict(run.errors),
        }

    def _closed_loop(self, rng, seconds: float) -> "gen.Phase":
        n = len(self.images)
        depth = CONFIG["closed_loop_depth"]
        return gen.closed_loop(
            self.submit,
            lambda k: rng.integers(n, size=k),
            depth,
            seconds,
            self.timeout_s,
            capacity=int(seconds * 400_000) + depth,
        )

    def _capacity(self, rng) -> Dict[str, Any]:
        """Closed loop; the rate is correct answers over the whole phase."""
        seconds = self.cfg["capacity_s"]
        run = self._closed_loop(rng, seconds)
        _, _, done, _ = run.arrays()
        good = self._served(run)
        return {
            "rps": phase_rate(done[good], run.started, seconds),
            "failed": int(np.count_nonzero(~good)),
            "errors": dict(run.errors),
        }

    def _swap_phase(self, rng) -> Dict[str, Any]:
        """Open loop at ``swap_rps`` while a second thread swaps models.

        At each of ``swaps`` fixed offsets the swapper makes a burst of
        ``swap_burst`` back-to-back calls, each alternating between the
        two generations; the total is even, so generation 0 serves the
        next round.  A burst's time is the median of its successful
        calls (of all its calls when none succeeded).
        An answer from a generation is correct when that generation
        could have served the request: from the call that installed it
        to the return of the next successful swap.  In-process, every
        swap installs a runner with cold caches; the server is warmed
        again afterwards, untimed, as at set-up.
        """
        cfg = self.cfg
        seconds = cfg["swap_s"]
        rate = cfg["swap_rps"]
        n_swaps = cfg["swaps"]
        indices = rng.integers(len(self.images), size=int(rate * seconds))
        metrics = self.server.metrics[self.model]
        rejections_before = metrics.breaker_rejections
        start = time.perf_counter() + 0.01
        events: List[tuple] = []

        def swapper() -> None:
            current = 0
            for k in range(n_swaps):
                delay = start + (k + 0.5) * seconds / n_swaps - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                for _ in range(cfg["swap_burst"]):
                    target = 1 - current
                    called = time.perf_counter()
                    try:
                        self.server.swap_model(self.model, self.generations[target])
                        ok = True
                        current = target
                    except Exception as error:  # noqa: BLE001 -- a failed swap is a failed operation
                        print(f"perfbench: swap failed: {error!r}", file=sys.stderr)
                        ok = False
                    events.append((target, called, time.perf_counter(), ok))
                self._sample_children()

        thread = threading.Thread(target=swapper, name="perfbench-swapper")
        thread.start()
        run = gen.open_loop(self.submit, indices, rate, self.timeout_s, start=start)
        thread.join()
        index, due, done, label = run.arrays()
        submitted = due + run.late[: run.count]
        ok = np.zeros(len(index), dtype=bool)
        for gen_id, begin, end in swap_windows(events):
            served = (submitted <= end) & (done >= begin)
            ok |= served & (label == self.oracles[gen_id][index])
        good = self._tally(run, ok, unanswered_fail=False)
        for _, called, returned, ok in events:
            self._check(ok, f"swap_model call at {called - start:.3f} s")
        if self.pool is None:
            self.server.warm()
        breaker = self.server.breakers[self.model].snapshot()
        burst = cfg["swap_burst"]
        bursts = [events[i : i + burst] for i in range(0, len(events), burst)]
        return {
            "burst_s": [
                median([e[2] - e[1] for e in b if e[3]] or [e[2] - e[1] for e in b]) for b in bursts
            ],
            "answered": int(np.count_nonzero(good)),
            "requests": len(good),
            "errors": dict(run.errors),
            "breaker.open_s": open_seconds(breaker["transitions"], start, start + seconds),
            "breaker.rejections": metrics.breaker_rejections - rejections_before,
            "workers.failed_in_flight": run.errors.get("ServingError", 0),
        }

    # offline work -----------------------------------------------------------

    def _offline_seed(self) -> None:
        """The paper's accuracy pipeline (Table 3) for one seed, cache off."""
        from repro.analysis import common
        from repro.analysis.tables_accuracy import table3_accuracy

        self._mark("seed")
        with cache_off():
            memo = common.digits
            while not hasattr(memo, "cache_clear"):  # unwrap the traced run's span wrapper
                memo = memo.__wrapped__
            memo.cache_clear()
            started = time.perf_counter()
            result = table3_accuracy()
            self.metrics["seed_s"] = time.perf_counter() - started
        recorded = self.cfg["accuracy"]
        tolerance = self.cfg["accuracy_tolerance_pts"]
        for row in result.rows:
            model, accuracy = row["model"], row["accuracy"]
            self._check(
                model in recorded and abs(accuracy - recorded[model]) <= tolerance,
                f"{model} accuracy {accuracy} vs recorded {recorded.get(model)}",
            )

    def _offline_eval(self) -> Dict[str, Any]:
        """One cold SNNwt evaluation of the held-out set at the trainer's batch."""
        from repro.ir.plan_cache import reset_plan_cache
        from repro.serve.loadgen import direct_predictions
        from repro.snn.network import SNNTrainer

        trainer = SNNTrainer(self.network)
        reset_plan_cache()
        with cache_off():
            started = time.perf_counter()
            trainer.evaluate(self.heldout)
            rate = len(self.heldout) / (time.perf_counter() - started)
            subset = self.heldout.take(50)
            served = trainer.predict(subset)
        expected = direct_predictions(self.network, subset.images, range(len(subset)))
        self._check(np.array_equal(served, expected), "held-out SNNwt labels vs predict_batch")
        return {"img_s": rate}

    def _fresh_seed(self) -> Dict[str, Any]:
        """Train the served model's recipe from scratch; it must equal the cached one."""
        config, recipe = self._recipe()
        with cache_off():
            started = time.perf_counter()
            fresh = recipe(config, self.seed_set, epochs=self.cfg["seed_epochs"])
            seconds = time.perf_counter() - started
        reference = self.seed_reference
        if self.model == "snnwt":
            same = np.array_equal(fresh.weights, reference.weights) and np.array_equal(
                fresh.neuron_labels, reference.neuron_labels
            )
        else:
            same = np.array_equal(
                fresh.predict_images(self.images), reference.predict_images(self.images)
            )
        self._check(same, "freshly trained model equals the cached one")
        return {"seconds": seconds}

    def _direct_eval(self) -> Dict[str, Any]:
        """Direct evaluation of the served model at the trainer's batch, cold caches."""
        from repro.ir.plan_cache import reset_plan_cache
        from repro.mlp.trainer import evaluate_mlp
        from repro.snn.network import SNNTrainer

        model = self.generations[0]
        evaluate: Callable = (
            SNNTrainer(model).evaluate if self.model == "snnwt" else lambda d: evaluate_mlp(model, d)
        )
        images, elapsed = 0, 0.0
        while images == 0 or elapsed < self.cfg["eval_min_s"]:
            reset_plan_cache()
            with cache_off():
                started = time.perf_counter()
                result = evaluate(self.test)
                elapsed += time.perf_counter() - started
            images += len(self.test)
        expected = float(np.mean(self.oracles[0] == self.test.labels))
        self._check(result.accuracy == expected, "direct evaluation accuracy equals the oracle's")
        return {"img_s": images / elapsed}

    # -- traced-run extras ---------------------------------------------------

    def _span_totals(self, phases) -> Dict[str, float]:
        """Seconds inside each span name (outermost calls only) in ``phases``."""
        records = [s for s in self.tracer.spans if s[5] in phases]
        return {
            name: sum(s[4] - s[3] for s in spans.outermost(records, name))
            for name in {s[2] for s in records}
        }

    def layer_metrics(self) -> None:
        """Per-layer metrics from the spans of the measured phases."""
        tracer = self.tracer
        per_call = {}
        for name in (
            "engine.submit", "metrics.record", "ir.const_check", "engine.run",
            "ir.run_plan", "ir.backend", "workers.run_batch",
        ):
            durations = [s[4] - s[3] for s in tracer.spans if s[2] == name and s[5] == "capacity"]
            per_call[name] = 1e6 * median_or_zero(durations)
        encode = [s[4] - s[3] for s in tracer.spans if s[2] == "ir.encode" and s[5] != "setup"]
        hits, misses = tracer.train_lookups
        view = spans.fifo_view(
            tracer.requests.get(self.model, []), tracer.batches.get(self.model, [])
        )
        light = view["phase"] == "light"
        capacity = view["phase"] == "capacity"
        sizes = view["batch_size"][view["batch_phase"] == "capacity"]
        mean_size = float(sizes.mean()) if sizes.size else 0.0
        swap = {
            name: median_or_zero([s[4] - s[3] for s in tracer.spans if s[2] == name and s[5] == "swap"])
            for name in ("workers.hot_swap", "workers.retire", "workers.respawn", "shm.create", "shm.verify")
        }
        self.layers.update(
            {
                "engine.submit_us": per_call["engine.submit"],
                "metrics.record_us": per_call["metrics.record"],
                "batcher.fanout_us": 1e6 * nan_percentile(view["fanout"][capacity], 50),
                "ir.const_check_us": per_call["ir.const_check"],
                "engine.run_us": per_call["engine.run"],
                "ir.run_plan_us": per_call["ir.run_plan"],
                "ir.backend_us": per_call["ir.backend"],
                "ir.encode_us": 1e6 * median_or_zero(encode),
                "ir.train_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "batcher.wait_ms_p50": 1e3 * nan_percentile(view["wait"][light], 50),
                "batcher.wait_ms_p99": 1e3 * nan_percentile(view["wait"][light], 99),
                "batcher.batch_size_mean": mean_size,
                "batcher.occupancy": mean_size / CONFIG["policy"]["max_batch"],
                "workers.run_batch_us": per_call["workers.run_batch"],
                "workers.hot_swap_s": swap["workers.hot_swap"],
                "workers.retire_s": swap["workers.retire"],
                "workers.respawn_s": swap["workers.respawn"],
                "shm.create_s": swap["shm.create"],
                "shm.verify_s": swap["shm.verify"],
            }
        )
        totals = self._span_totals({"seed", "eval"})
        for name in ("stdp.fit", "bp.train", "snnbp.train", "eval.snnwt", "snn.encode"):
            self.layers[f"{name}_s"] = totals.get(name, 0.0)

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None


def swap_windows(events):
    """``(generation, begin, end)`` spans in which each generation may answer.

    ``events`` are ``(generation, called, returned, ok)`` swaps in call
    order, starting from generation 0.  A generation may answer from
    the call that installs it until the next *successful* swap returns.
    """
    entries = [[0, -math.inf, math.inf]]
    for target, called, returned, ok in events:
        if ok:
            for entry in entries:
                if entry[2] == math.inf:
                    entry[2] = returned
        entries.append([target, called, math.inf])
    return [tuple(e) for e in entries]


def open_seconds(transitions, begin: float, end: float) -> float:
    """Seconds a breaker spent open inside ``[begin, end]``."""
    total, opened = 0.0, None
    for t in transitions:
        if t["to"] == "open" and opened is None:
            opened = t["at"]
        elif t["from"] == "open" and opened is not None:
            total += max(0.0, min(t["at"], end) - max(opened, begin))
            opened = None
    if opened is not None:
        total += max(0.0, end - max(opened, begin))
    return total


def phase_rate(done: np.ndarray, started: float, seconds: float) -> float:
    """Completions per second inside ``[started, started + seconds]``.

    Requests still draining after the phase's end are not counted, so a
    stall anywhere in the phase lowers the rate.
    """
    done = np.asarray(done, dtype=np.float64)
    return float(np.count_nonzero((done >= started) & (done <= started + seconds)) / seconds)


def nan_percentile(values, pct: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    values = values[np.isfinite(values)]
    return float(np.percentile(values, pct)) if values.size else 0.0


def host_record() -> Dict[str, Any]:
    """Host metadata stored with every result."""
    from repro.core.hostinfo import host_metadata

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **host_metadata(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--build", action="store_true", help="fill the model cache only")
    parser.add_argument("--out", help="directory for the result and span files")
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = Workload(args.workload, args.seed, tracer)
    if args.build:
        workload.build()
        return 0
    try:
        workload.setup()
        print(READY, flush=True)
        if args.probe:
            return 0
        if tracer is not None:
            workload.setup_layers()
        workload.run()
        if tracer is not None:
            workload.layer_metrics()
    finally:
        workload.close()
    workload.metrics["peak_rss_mb"] = vm_hwm_mb() + workload.child_hwm
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": workload.layers if tracer is not None else workload.metrics,
    }
    host = host_record()
    print("perfbench host: " + json.dumps(host, sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        record = {
            "workload": args.workload, "seed": args.seed, "host": host, **result,
            "end_to_end": workload.metrics, "per_layer": workload.layers,
            "rounds": workload.rounds,
        }
        (out / f"result-{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        if tracer is not None:
            tracer.dump(str(out / f"spans-{stem}.npz"), workload.layers)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
