"""Run one ncprism benchmark workload and print its metrics.

    python3 perfbench/run.py --workload factory --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The library is imported from ``src/``; no
build step is needed. Set-up is timed in fresh processes (several probes plus
the measured process, median reported). The measured process runs whole
cycles of the workload, one operation at a time (closed loop, one caller),
and re-checks every output independently. ``--trace 1`` runs the same
cycles with spans recorded around each module's public functions and reports
per-layer metrics instead of end-to-end ones.

Every metric is printed as ``name value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. A full record,
with the pinned environment, goes to ``perfbench/results/``. The exit code
is 0 only when the run completed; ``correct`` is false if any re-check
failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("factory", "dilate", "positivity", "cli")

# One BLAS/OpenMP thread everywhere: the steadiest setting, and the same on
# every commit measured.
THREADS = "1"
SETUP_PROBES = 4
TOTAL_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, env, probe: bool, spans: Path | None):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    # A session of its own, so that a kill also ends any CLI child it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
    return proc, start


def kill(proc) -> None:
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        kill(proc)
        raise BenchError("worker exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def wait_ready(proc, start: float) -> tuple[float, float]:
    """Raw set-up seconds, and set-up adjusted by the worker's host-speed factor."""
    line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    speed = proc.stdout.readline().split()
    if line.strip() != "READY" or len(speed) != 2 or speed[0] != "SPEED":
        kill(proc)
        raise BenchError(f"worker failed during set-up (said {line.strip()!r})")
    return seconds, seconds * float(speed[1])


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ncprism").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def environment(worker_env: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": THREADS,
        "OMP_NUM_THREADS": THREADS,
        **worker_env,
        **source_identity(),
    }


def tail(seconds: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, result, setup) -> tuple[dict, dict]:
    seconds = [r["adjusted"] for r in records]
    raw = [r["seconds"] for r in records]
    count = {o: sum(r["outcome"] == o for r in records) for o in ("verified", "refused", "undecided", "error")}
    n = len(records)
    tail_s, tail_pct = tail(seconds)
    digits = [r["digits"] for r in records if r["digits"] is not None]
    metrics = {
        "setup_s": (statistics.median(adjusted for _, adjusted in setup), "s"),
        "throughput_ops_s": ((count["verified"] + count["refused"]) / sum(seconds), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(seconds), "ms"),
        "latency_tail_ms": (1000.0 * tail_s, "ms"),
        "ok_ratio": (1.0 - count["error"] / n, "ratio"),
        "decided_ratio": (1.0 - count["undecided"] / n, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "accuracy_digits": (min(digits) if digits else 0.0, "digits"),
    }
    detail = {
        "raw_wall_latency_p50_ms": 1000.0 * statistics.median(raw),
        "raw_wall_throughput_ops_s": (count["verified"] + count["refused"]) / sum(raw),
        "latency_tail_percentile": tail_pct,
        "latency_samples": n,
        "error_ratio": count["error"] / n,
        "undecided_ratio": count["undecided"] / n,
        "outcomes": count,
        "cycles": result["cycles"],
        "setup_samples_s": [raw for raw, _ in setup],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncprism" / "__init__.py").is_file():
        print(f"error: no ncprism sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TOTAL_BUDGET_S
    env = pinned_env()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = RESULTS / f"{stem}-spans.json.gz" if args.trace else None

    proc = None
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, start = start_worker(args, env, True, None)
                setup.append(wait_ready(proc, start))
                finish(proc, deadline)
        proc, start = start_worker(args, env, False, spans)
        setup.append(wait_ready(proc, start))
        lines = finish(proc, deadline).strip().splitlines()
        result = json.loads(lines[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            kill(proc)

    records = result["records"]
    failures = [r["detail"] for r in records if r["outcome"] == "error"]
    if result["warmup"]["outcome"] == "error":
        failures.append("warm-up: " + result["warmup"]["detail"])
    defects = Counter(d for r in records for d in r["defects"])
    if args.trace:
        traced = [r["outcome"] for r in records if r["cycle"] == 0]
        replayed = [r["outcome"] for r in result["replay"]]
        failures += [
            f"{r['kind']}: traced {a}, untraced {b}"
            for r, a, b in zip(result["replay"], traced, replayed)
            if a != b
        ]
        metrics, detail = result["per_layer"], {"cycles": result["cycles"], "latency_samples": len(records)}
    else:
        metrics, detail = end_to_end(records, result, setup)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(result["environment"]),
        "metrics": metrics,
        **detail,
        "failures": failures,
        "known_defects": defects,
        "records": records,
        "replay": result.get("replay"),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for defect, n in defects.items():
        print(f"# known defect in {n} of {len(records)} ops: {defect}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name in ("latency_tail_percentile", "latency_samples", "error_ratio", "undecided_ratio", "cycles", "raw_wall_latency_p50_ms", "raw_wall_throughput_ops_s"):
        if name in detail:
            print(f"# {name} {detail[name]:.6g}")
    print(json.dumps({"correct": not failures, "attempted": len(records), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
