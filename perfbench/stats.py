"""Sample statistics the benchmark reports.

Two rules of the benchmark live here so they are tested
in one place:

* a request that failed, was refused, returned a wrong label or took
  longer than the client timeout ``T`` enters the latency sample *at*
  ``T`` -- a failure can never make a percentile look better;
* a percentile is reported only when at least :data:`MIN_BEYOND`
  samples lie beyond it (p99 needs 1000 samples, p50 needs 20).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``pct`` percentile."""
    return int(math.floor(n * (100.0 - pct) / 100.0 + 1e-9))


def percentile(values: Sequence[float], pct: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``pct`` percentile, refusing samples with too few values beyond it."""
    sample = np.asarray(values, dtype=np.float64)
    beyond = samples_beyond(sample.size, pct)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{pct:g} of {sample.size} samples has {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    return float(np.percentile(sample, pct))


def answered_in_time(
    due: np.ndarray, done: np.ndarray, ok: np.ndarray, timeout_ms: float
) -> np.ndarray:
    """Mask of requests answered correctly within ``timeout_ms`` of their due time.

    ``done`` holds completion timestamps (NaN for never completed);
    ``ok`` marks answers that arrived and were correct.
    """
    latency = (np.asarray(done, dtype=np.float64) - np.asarray(due, dtype=np.float64)) * 1e3
    return np.asarray(ok, dtype=bool) & np.isfinite(latency) & (latency <= timeout_ms)


def request_latencies_ms(
    due: np.ndarray, done: np.ndarray, ok: np.ndarray, timeout_ms: float
) -> np.ndarray:
    """Per-request latency from due time to completion, in ms.

    Every request not :func:`answered_in_time` is charged exactly
    ``timeout_ms``.
    """
    good = answered_in_time(due, done, ok, timeout_ms)
    latency = (np.asarray(done, dtype=np.float64) - np.asarray(due, dtype=np.float64)) * 1e3
    return np.where(good, latency, timeout_ms)
