"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mlp-b16 --seed 1 --seconds 24 --trace 0

The program is imported from ``src/`` of the checkout; its model cache
lives in ``.perfbench_cache/<version>/``, keyed on the contents of
``src/`` and of this directory's code, and is filled, untimed, by the first
run of each workload.  ``--seconds`` must be ``run_seconds`` of
``BENCHMARK.json``: the phase lengths in ``config.json`` are sized for
it.  With ``--trace 0`` the set-up is run ``setup_runs`` times in fresh
processes (the last one goes on to measure) and the last line holds
every end-to-end metric; with ``--trace 1`` one traced process reports
every per-layer metric.  Result and span files go to
``.perfbench_out/``.  Exit codes: 0 measured with no failed operation;
1 an operation failed (the result line says how many) or the run
crashed; 2 a bad argument or no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHES = ROOT / ".perfbench_cache"
OUT = ROOT / ".perfbench_out"
READY = "PERFBENCH_READY"
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 700


def code_version() -> str:
    """Content hash of the program and the benchmark's code, naming their model cache.

    Models trained by one version of the code are never served by
    another, even when two versions take turns in one working tree.
    """
    digest = hashlib.sha256()
    paths = [*(ROOT / "src").rglob("*"), *HERE.glob("*.py"), *HERE.glob("*.json")]
    for path in sorted(paths):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def _env(cache: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(cache)
    return env


def _worker(args, *extra: str) -> list:
    return [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), *extra,
    ]


def _stop_session(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's session (its shard processes)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _timed_run(command: list, cache: Path, timeout: float):
    """Start a worker; return (seconds to READY, last stdout line, exit code).

    The worker runs in a session of its own; when it overruns
    ``timeout`` the whole session is killed, and whatever it leaves
    behind is killed after it exits.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, env=_env(cache), cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    timer = threading.Timer(max(1.0, timeout), _stop_session, args=(proc,))
    timer.start()
    ready = None
    try:
        for line in proc.stdout:
            if line.strip() == READY:
                ready = time.perf_counter() - started
                break
        out = proc.stdout.read()
        proc.wait()
    finally:
        timed_out = not timer.is_alive()
        timer.cancel()
        _stop_session(proc)
    if timed_out:
        print("perfbench: worker timed out", file=sys.stderr)
        return None, "", 1
    lines = [line for line in out.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line)
    return ready, (lines[-1] if lines else ""), proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds != bench["run_seconds"]:
        print(f"perfbench: --seconds must be {bench['run_seconds']}", file=sys.stderr)
        return 2
    config = json.loads((HERE / "config.json").read_text())

    cache = CACHES / code_version()
    built = cache / f"built-{args.workload}"
    if not built.exists():
        _, _, code = _timed_run(_worker(args, "--build"), cache, BUILD_TIMEOUT_S)
        if code != 0:
            return 1
        built.parent.mkdir(parents=True, exist_ok=True)
        built.write_text("ok\n")

    setups = []
    budget = time.monotonic() + RUN_TIMEOUT_S
    if not args.trace:
        for _ in range(config["setup_runs"] - 1):
            ready, _, code = _timed_run(_worker(args, "--probe"), cache, budget - time.monotonic())
            if code != 0 or ready is None:
                return 1
            setups.append(ready)
    ready, last, code = _timed_run(_worker(args, "--out", str(OUT)), cache, budget - time.monotonic())
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if code not in (0, 1) or ready is None or not isinstance(result, dict):
        return 1
    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = dict(result["metrics"])
    if not args.trace:
        setups.append(ready)
        values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        print(f"perfbench: worker reported no {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names
    }
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
