"""Which stage moved between two traced runs.

Usage::

    python3 perfbench/stagediff.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are span files written by a ``--trace 1`` run
(``.perfbench_out/spans-<workload>-seed<n>-trace1.npz``) or
directories holding them.  For every workload found on both sides it
prints, per phase and span name, the number of calls and the mean self
time per call (duration minus the time covered by child spans), then
the per-layer metrics, each before and after with the relative change.
Several files of one workload on a side are combined by taking the
median.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402

_NAME = re.compile(r"spans-(?P<workload>.+)-seed\d+-trace1\.npz$")


def _files(path: Path) -> Dict[str, List[Path]]:
    found: Dict[str, List[Path]] = defaultdict(list)
    for file in sorted(path.glob("spans-*.npz") if path.is_dir() else [path]):
        match = _NAME.search(file.name)
        if match:
            found[match["workload"]].append(file)
    return found


def stage_table(records: List[spans.Span]) -> Dict[Tuple[str, str], Tuple[int, float]]:
    """``(phase, name) -> (calls, mean self time in µs)`` of one run."""
    own = spans.self_times(records)
    calls: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for span_id, _parent, name, _start, _end, phase in records:
        calls[(phase, name)].append(own[span_id])
    return {key: (len(v), 1e6 * float(np.mean(v))) for key, v in calls.items()}


def _combine(documents: List[tuple]):
    tables = [stage_table(records) for records, _layers in documents]
    keys = set().union(*tables)
    stages = {
        key: (
            int(np.median([t.get(key, (0, 0.0))[0] for t in tables])),
            float(np.median([t.get(key, (0, 0.0))[1] for t in tables])),
        )
        for key in keys
    }
    layers = {
        name: float(np.median([layers[name] for _records, layers in documents]))
        for name in documents[0][1]
    }
    return stages, layers


def _change(before: float, after: float) -> str:
    if before == 0:
        return "    n/a" if after else "      ="
    return f"{100.0 * (after - before) / before:+6.1f}%"


def render(before: Dict[str, List[tuple]], after: Dict[str, List[tuple]]) -> str:
    lines: List[str] = []
    for workload in sorted(set(before) & set(after)):
        b_stages, b_layers = _combine(before[workload])
        a_stages, a_layers = _combine(after[workload])
        lines.append(f"== {workload}")
        lines.append(
            f"{'phase':10s} {'stage':22s} {'calls':>9s} {'self_us':>10s} "
            f"{'calls':>9s} {'self_us':>10s} {'change':>8s}"
        )
        for key in sorted(set(b_stages) | set(a_stages)):
            b_calls, b_self = b_stages.get(key, (0, 0.0))
            a_calls, a_self = a_stages.get(key, (0, 0.0))
            lines.append(
                f"{key[0]:10s} {key[1]:22s} {b_calls:9d} {b_self:10.2f} "
                f"{a_calls:9d} {a_self:10.2f} {_change(b_self, a_self):>8s}"
            )
        lines.append(f"{'per-layer metric':33s} {'before':>12s} {'after':>12s} {'change':>8s}")
        for name in b_layers:
            lines.append(
                f"{name:33s} {b_layers[name]:12.4g} {a_layers.get(name, 0.0):12.4g} "
                f"{_change(b_layers[name], a_layers.get(name, 0.0)):>8s}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    sides = []
    for path in (args.before, args.after):
        files = _files(path)
        if not files:
            print(f"stagediff: no span files in {path}", file=sys.stderr)
            return 2
        sides.append({w: [spans.load(str(f)) for f in fs] for w, fs in files.items()})
    text = render(*sides)
    if not text:
        print("stagediff: no workload traced on both sides", file=sys.stderr)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
