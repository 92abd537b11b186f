"""One measured process: set up a workload, then run its cycles.

Started by ``run.py`` with the environment already pinned. It prints
``READY`` once set-up (imports, first-cycle inputs, one untimed warm-up op)
is done, so the parent can time set-up from process start. With
``--probe`` it exits there. Otherwise it runs the timed cycles and prints
one JSON line with every operation's outcome and time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"

import_start = time.perf_counter()
import numpy as np  # noqa: E402

import ncprism  # noqa: E402
import ncprism.cli  # noqa: E402,F401

from tracer import Tracer, per_layer_metrics, write_spans  # noqa: E402
from workloads import ERROR, WORKLOADS, Recheck, RecheckFailed  # noqa: E402

IMPORT_S = time.perf_counter() - import_start
CLI_TIMEOUT_S = 120


def failed(detail: str) -> dict:
    return {"outcome": ERROR, "digits": None, "detail": detail, "defects": []}


def outcome_of(op, result) -> dict:
    rc = Recheck()
    try:
        outcome = op.check(result, rc)
    except RecheckFailed as exc:
        return failed(f"{op.kind}: {exc}")
    except Exception as exc:  # a check that cannot parse the output is a failed check
        return failed(f"{op.kind}: re-check raised {type(exc).__name__}: {exc}")
    return {"outcome": outcome, "digits": rc.digits(), "detail": "", "defects": rc.defects}


class InProcess:
    """Runs library calls in this process."""

    def __init__(self):
        self.tracer = None

    def run(self, op, op_id):
        if self.tracer is not None:
            self.tracer.op_id = str(op_id)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:
            result = exc
        return time.perf_counter() - start, outcome_of(op, result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliProcesses:
    """Runs each op as a fresh CLI process, one at a time, stdin fed and closed."""

    def __init__(self, spans_dir: Path):
        self.spans_dir = spans_dir
        self.traced = False
        self.states = []
        self.child_import_s = []
        self.child_main_s = []
        self.stdout = {}

    def run(self, op, op_id):
        if self.traced:
            spans = self.spans_dir / f"child-{os.getpid()}-{op_id}.json"
            argv = [sys.executable, str(LAUNCHER), str(spans), str(op_id), *op.argv]
        else:
            argv = [sys.executable, "-m", "ncprism.cli", *op.argv]
        stdin = op.stdin if op.pipe_from is None else op.stdin(self.stdout[(op_id[0], op.pipe_from)])
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, input=stdin, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, failed(f"{op.kind}: timed out")
        seconds = time.perf_counter() - start
        if self.traced:
            state = json.loads(spans.read_text())
            spans.unlink()
            self.child_import_s.append(state.pop("import_s"))
            self.child_main_s.append(state.pop("main_s"))
            self.states.append(state)
        key = (op_id[0], op.same_as)
        self.stdout[(op_id[0], op_id[1])] = proc.stdout
        if proc.returncode != op.exit_code:
            return seconds, failed(f"{op.kind}: exit {proc.returncode}, expected {op.exit_code}: {proc.stderr.strip()[-300:]}")
        if op.same_as is not None and proc.stdout != self.stdout.get(key):
            return seconds, failed(f"{op.kind}: output differs from the same invocation")
        try:
            artifact = json.loads(proc.stdout)["result"]
        except (ValueError, KeyError) as exc:
            return seconds, failed(f"{op.kind}: unparsable artifact: {exc}")
        return seconds, outcome_of(op, artifact)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class HostSpeed:
    """Tracks the host's speed with a fixed reference kernel timed between ops.

    On a shared host the whole machine speeds up and slows down by a quarter
    within seconds, and a fixed reference kernel slows down with it. The
    kernel has two parts, timed apart: interpreter-bound numpy (many 4 x 4
    eigensolves and a loop) and one LAPACK SVD of a 320 x 80 matrix. The
    library's operations load on both, so a sample is their geometric mean.
    Each op's wall time is rescaled by ``REFERENCE_S`` over the median sample
    within ``WINDOW_S`` of the op; adjusted times read as seconds on the host
    at ``REFERENCE_S`` speed and compare across runs. Raw times are kept.
    """

    REFERENCE_S = 0.0045  # the kernel's time at full speed on a 2-vCPU Xeon host
    WINDOW_S = 1.0
    EVERY_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.small = small + small.conj().T
        self.tall = rng.standard_normal((320, 80)) + 1j * rng.standard_normal((320, 80))
        self.at: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        for _ in range(60):
            w, u = np.linalg.eigh(self.small)
            (u * np.clip(w, 0.0, None)) @ u.conj().T
        acc = 0
        for i in range(5000):
            acc += i * i
        middle = time.perf_counter()
        np.linalg.svd(self.tall)
        end = time.perf_counter()
        self.at.append(end)
        self.samples.append(((middle - start) * (end - middle)) ** 0.5)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Speed correction for an interval: samples within the window, at least four."""
        near = sorted(range(len(self.at)), key=lambda i: max(start - self.at[i], self.at[i] - end, 0.0))
        inside = [i for i in near if start - self.WINDOW_S <= self.at[i] <= end + self.WINDOW_S]
        chosen = inside if len(inside) >= 4 else near[:4]
        return self.REFERENCE_S / float(np.median([self.samples[i] for i in chosen]))

    def adjust(self, records: list) -> None:
        for r in records:
            r["adjusted"] = r["seconds"] * self.factor(r["start"], r["start"] + r["seconds"])


def run_cycle(runner, speed: HostSpeed, ops, cycle: int, records: list) -> None:
    for i, op in enumerate(ops):
        speed.maybe_sample()
        start = time.perf_counter()
        seconds, outcome = runner.run(op, (cycle, i))
        records.append({"cycle": cycle, "op": i, "kind": op.kind, "seconds": seconds, "start": start, **outcome})
    speed.sample()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="exit after set-up")
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    pool = workload.pool()
    cycle_ops = [workload.cycle(ncprism, np.random.default_rng([args.seed, 0]), pool)]
    warmup = workload.warmup(ncprism, np.random.default_rng([args.seed, 1 << 20]), pool)
    is_cli = args.workload == "cli"
    runner = CliProcesses(args.spans.parent if args.spans else HERE) if is_cli else InProcess()
    first_op_s, warm = runner.run(warmup, (-1, 0))
    print("READY", flush=True)
    speed = HostSpeed()
    for _ in range(5):
        speed.sample()
    print(f"SPEED {speed.factor(speed.at[0], speed.at[-1])}", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        if is_cli:
            runner.traced = True
        else:
            tracer = runner.tracer = Tracer()
            tracer.install()

    # A run is a fixed number of whole cycles, so every run measures the same
    # input mix; on a host far slower than the nominal cycle time it stops
    # starting new cycles, to stay bounded.
    cycles = max(1, int(args.seconds // workload.cycle_seconds))
    records: list[dict] = []
    start = time.perf_counter()
    for cycle in range(cycles):
        if cycle and time.perf_counter() - start > 1.25 * args.seconds:
            break
        if cycle >= len(cycle_ops):
            cycle_ops.append(workload.cycle(ncprism, np.random.default_rng([args.seed, cycle]), pool))
        run_cycle(runner, speed, cycle_ops[cycle], cycle, records)
    done = 1 + max(r["cycle"] for r in records)
    speed.adjust(records)

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result = {
        "records": records,
        "cycles": done,
        "warmup": warm,
        "environment": {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"},
    }
    if args.trace:
        mean_factor = float(np.mean([r["adjusted"] / r["seconds"] for r in records]))
        if is_cli:
            runner.traced = False
            states = runner.states
            import_s = mean_factor * float(np.mean(runner.child_import_s))
            first_s = mean_factor * float(np.mean(runner.child_main_s))
        else:
            tracer.uninstall()
            states = [tracer.state()]
            import_s, first_s = mean_factor * IMPORT_S, mean_factor * first_op_s
        # Replay the first cycle untraced on the same inputs: the time
        # difference is the tracing overhead, and every op must land in the
        # same outcome class either way.
        replay: list[dict] = []
        run_cycle(runner, speed, cycle_ops[0], 0, replay)
        speed.adjust(replay)
        traced_first = [r for r in records if r["cycle"] == 0]
        result["replay"] = replay
        overhead_ms = 1000.0 * (sum(r["adjusted"] for r in traced_first) - sum(r["adjusted"] for r in replay)) / len(replay)
        result["per_layer"] = per_layer_metrics(
            states,
            done,
            {str((r["cycle"], r["op"])): r["adjusted"] / r["seconds"] for r in records},
            {
                "trace.overhead_ms": (overhead_ms, "ms/op"),
                "cli.import_s": (import_s, "s"),
                "process.first_op_s": (first_s, "s"),
            },
        )
        if args.spans:
            write_spans(args.spans, states)
    else:
        result["peak_rss_mb"] = runner.peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
