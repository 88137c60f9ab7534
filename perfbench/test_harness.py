"""Self-tests of the benchmark harness (no program needed).

Run from the root of the repository::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402


# -- FIFO request -> batch matching -----------------------------------------


def test_fifo_assigns_requests_to_batches_in_submit_order():
    batch = spans.match_fifo(7, [3, 1, 2])
    assert batch.tolist() == [0, 0, 0, 1, 2, 2, -1]


def test_fifo_view_measures_wait_and_fanout_against_the_matched_batch():
    requests = [
        (0.0, 1.0, 12.0, "light"),
        (2.0, 3.0, 12.5, "light"),
        (4.0, 5.0, 21.0, "capacity"),
    ]
    batches = [(10.0, 11.0, 2), (20.0, 20.5, 1)]
    view = spans.fifo_view(requests, batches)
    assert view["wait"].tolist() == [9.0, 7.0, 15.0]
    assert view["fanout"].tolist() == [1.0, 1.5, 0.5]
    assert view["batch_phase"].tolist() == ["light", "capacity"]


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_coverage():
    records = [
        (1, 0, "parent", 0.0, 10.0, "p"),
        (2, 1, "child", 1.0, 3.0, "p"),
        (3, 1, "child", 2.0, 5.0, "p"),  # overlaps the first child
        (4, 1, "child", 8.0, 12.0, "p"),  # runs past the parent's end
        (5, 2, "grandchild", 1.5, 2.5, "p"),
    ]
    own = spans.self_times(records)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)


def test_outermost_skips_spans_nested_in_a_span_of_the_same_name():
    records = [
        (1, 0, "snn.encode", 0.0, 4.0, "p"),
        (2, 1, "other", 1.0, 3.0, "p"),
        (3, 2, "snn.encode", 1.5, 2.0, "p"),
        (4, 0, "snn.encode", 5.0, 6.0, "p"),
    ]
    assert [s[0] for s in spans.outermost(records, "snn.encode")] == [1, 4]


# -- failures enter the latency sample at T ------------------------------------


def test_failed_wrong_and_late_requests_are_charged_the_timeout():
    due = np.zeros(5)
    done = np.array([0.001, math.nan, 0.002, 0.9, 0.003])
    ok = np.array([True, False, False, True, True])
    latency = stats.request_latencies_ms(due, done, ok, timeout_ms=500.0)
    assert latency.tolist() == pytest.approx([1.0, 500.0, 500.0, 500.0, 3.0])
    assert stats.answered_in_time(due, done, ok, 500.0).tolist() == [
        True, False, False, False, True,
    ]


def test_a_failure_never_lowers_a_percentile():
    rng = np.random.default_rng(0)
    due = np.zeros(2000)
    done = rng.uniform(0.001, 0.004, size=2000)
    ok = np.ones(2000, dtype=bool)
    clean = stats.percentile(stats.request_latencies_ms(due, done, ok, 500.0), 99)
    ok[:30] = False
    failing = stats.percentile(stats.request_latencies_ms(due, done, ok, 500.0), 99)
    assert failing >= clean


# -- percentile refusal -----------------------------------------------------------


@pytest.mark.parametrize("pct, enough", [(99, 1000), (50, 20), (95, 200)])
def test_percentile_needs_ten_samples_beyond_it(pct, enough):
    stats.percentile(np.arange(enough, dtype=float), pct)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(np.arange(enough - 1, dtype=float), pct)


# -- swap-phase bookkeeping -------------------------------------------------------


def test_swap_windows_allow_either_generation_during_a_rollover():
    events = [(1, 10.0, 11.0, True), (0, 20.0, 21.0, False), (0, 30.0, 31.0, True)]
    windows = worker.swap_windows(events)
    assert windows == [
        (0, -math.inf, 11.0),
        (1, 10.0, 31.0),
        (0, 20.0, 31.0),  # a failed swap may still have installed it
        (0, 30.0, math.inf),
    ]


def test_open_seconds_clips_breaker_open_intervals_to_the_phase():
    transitions = [
        {"at": 1.0, "from": "closed", "to": "open"},
        {"at": 6.0, "from": "open", "to": "half_open"},
        {"at": 6.1, "from": "half_open", "to": "closed"},
        {"at": 9.0, "from": "closed", "to": "open"},
    ]
    assert worker.open_seconds(transitions, 2.0, 10.0) == pytest.approx(4.0 + 1.0)


# -- patching -----------------------------------------------------------------------


def test_tracer_wraps_and_restores_functions_methods_and_classmethods():
    class Base:
        def inherited(self):
            return "inherited"

    class Thing(Base):
        def method(self, x):
            return x + 1

        @classmethod
        def make(cls):
            return cls()

    module = types.ModuleType("fake")
    module.function = lambda: 3
    thing = Thing()
    originals = (Thing.__dict__["method"], Thing.__dict__["make"], module.function)

    tracer = spans.Tracer()
    tracer.wrap(Thing, "method", "m")
    tracer.wrap(Thing, "make", "make")
    tracer.wrap(Thing, "inherited", "i")
    tracer.wrap(module, "function", "f")
    tracer.wrap(thing, "method", "outer")
    assert thing.method(1) == 2
    assert isinstance(Thing.make(), Thing)
    assert thing.inherited() == "inherited"
    assert module.function() == 3
    names = [s[2] for s in tracer.spans]
    assert names == ["m", "outer", "make", "i", "f"]
    outer = next(s for s in tracer.spans if s[2] == "outer")
    inner = next(s for s in tracer.spans if s[2] == "m")
    assert inner[1] == outer[0]  # the class wrapper ran inside the instance one

    tracer.uninstall()
    assert (Thing.__dict__["method"], Thing.__dict__["make"], module.function) == originals
    assert "inherited" not in Thing.__dict__ and "method" not in vars(thing)


# -- round summaries ----------------------------------------------------------------


def _round(p50, p99):
    return {"p50": p50, "p99": p99}


def _swap(burst_s, answered, requests):
    counts = dict.fromkeys(("breaker.open_s", "breaker.rejections", "workers.failed_in_flight"), 1)
    return {"burst_s": burst_s, "answered": answered, "requests": requests, **counts}


def _summarized(late_ms):
    run = worker.Workload("mlp-b16", seed=0, tracer=None)
    run.rounds = {
        "light": [_round(1.3, 2.6), _round(1.2, 2.4)],
        "heavy": [_round(0.9, 1.6), _round(1.0, 1.5)],
        "capacity": [{"rps": 50000.0}, {"rps": 55000.0}],
        "seed": [{"seconds": 0.2}, {"seconds": 0.18}],
        "eval": [{"img_s": 3e5}, {"img_s": 3.5e5}],
        "swap": [_swap([3e-5, 4e-5], 90, 100), _swap([5e-5], 100, 100)],
    }
    run.lateness = {
        "light": [np.full(1000, 0.2), np.full(1000, 0.3)],
        "heavy": [np.full(1000, 0.4), np.full(1000, late_ms)],
    }
    run._summarize_rounds()
    return run


def test_rounds_report_the_best_round_of_every_step():
    run = _summarized(late_ms=0.5)
    assert run.metrics == {
        "light_p50_ms": 1.2, "light_p99_ms": 2.4,
        "heavy_p50_ms": 0.9, "heavy_p99_ms": 1.5,
        "capacity_rps": 55000.0, "eval_img_s": 3.5e5, "seed_s": 0.18,
        # The fastest burst of every swap phase; answers pooled.
        "swap_s": 3e-5, "swap_ok_frac": 0.95,
    }
    assert run.layers["breaker.rejections"] == 2
    assert (run.attempted, run.failed) == (2, 0)
    assert run.layers["loadgen.late_p99_ms"] == pytest.approx(0.5)


def test_a_late_generator_is_a_failed_operation_not_a_discarded_round():
    late = worker.CONFIG["late_p99_bound_ms"] + 1.0
    run = _summarized(late_ms=late)
    assert (run.attempted, run.failed) == (2, 1)
    assert run.metrics["heavy_p99_ms"] == 1.5  # the late round still counts
    assert run.layers["loadgen.late_p99_ms"] == pytest.approx(late)


def test_capacity_rate_counts_completions_over_the_whole_phase():
    steady = 10.0 + np.arange(1000) / 1000.0  # 1000 completions/s for one second
    assert worker.phase_rate(steady, started=10.0, seconds=1.0) == pytest.approx(1000.0, rel=0.01)
    # A 0.5 s stall in the middle lowers the rate of the whole phase...
    stalled = np.concatenate([steady[:500], steady[500:] + 0.5])
    assert worker.phase_rate(stalled, started=10.0, seconds=1.0) == pytest.approx(500.0, rel=0.01)
    # ... and what drains after the phase's end is not counted.
    assert worker.phase_rate(steady + 0.5, started=10.0, seconds=1.0) == pytest.approx(500.0, rel=0.01)
