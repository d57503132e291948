"""bfvlab benchmark: one workload per run, closed loop, one client, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; bfvlab is imported from its ``src/``.
Every op is checked against ground truth.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The exit code is 0 only when
every check passed.  Spans and a record of the machine are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Fix BLAS and OpenMP at one thread before numpy is first imported, so
# that no library call can use more threads than the benchmark states.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from calibration import Calibrator  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh processes timed from spawn to ready; setup_s is their median.
SETUP_RUNS = 7
SETUP_CALIBRATION_UNITS = 3
# The tail percentile is p99, or lower when fewer than this many
# samples would lie beyond p99.
TAIL_SAMPLES = 10


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Internal: one set-up sample, run in a child process.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(args) -> tuple[float, float]:
    """Median time from spawning a fresh process to its first op being ready,
    at reference speed and raw."""
    samples = []
    calibrator = Calibrator()
    for _ in range(SETUP_RUNS):
        for _ in range(SETUP_CALIBRATION_UNITS):
            calibrator.sample()
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", "0", "--trace", "0"]
        start = time.monotonic()
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        samples.append(float(child.stdout.split()[-1]) - start)
    raw = statistics.median(samples)
    return raw * calibrator.scale(), raw


def timed(fn, *args):
    """(result, nanoseconds), or (exception, None) when fn raised."""
    start = time.perf_counter_ns()
    try:
        result = fn(*args)
    except Exception as exc:  # counted as a failed op, the run goes on
        traceback.print_exc(file=sys.stderr)
        return exc, None
    return result, time.perf_counter_ns() - start


class Tally:
    """Attempted and failed ops, and the latency and midpoint of each completed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies_ns: list[int] = []
        self.midpoints_ns: list[int] = []

    def run(self, workload, k: int, fn, *args):
        start = time.perf_counter_ns()
        result, elapsed = timed(fn, *args)
        self.attempted += 1
        if elapsed is None:
            self.failed += 1
            return None
        self.latencies_ns.append(elapsed)
        self.midpoints_ns.append(start + elapsed // 2)
        if not workload.check(k, result):
            self.failed += 1
        return elapsed


def run_plain(workload, seconds: float, tally: Tally | None = None) -> tuple[Tally, Calibrator]:
    """Untraced ops for ``seconds``, with calibration units between them."""
    tally = Tally() if tally is None else tally
    calibrator = Calibrator()
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        elapsed = tally.run(workload, k, workload.op, k)
        if elapsed is not None:
            calibrator.keep_up(elapsed)
        k += 1
    return tally, calibrator


def end_to_end(tally: Tally, calibrator, setup: tuple) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed, and the raw times beside them."""
    raw_ms = [ns / 1e6 for ns in tally.latencies_ns]
    lat_ms = [
        ns / 1e6 * calibrator.scale(mid)
        for ns, mid in zip(tally.latencies_ns, tally.midpoints_ns)
    ]
    n = len(lat_ms)
    tail = max(0.5, min(0.99, 1 - TAIL_SAMPLES / n)) if n else 0.99

    def times(values):
        if not n:
            return 0.0, 0.0, 0.0
        p50, p99 = np.quantile(values, [0.5, tail])
        return n / (sum(values) / 1e3), float(p50), float(p99)

    ops_per_s, p50, p99 = times(lat_ms)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p99_ms": (p99, "ms"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_ops_per_s, raw_p50, raw_p99 = times(raw_ms)
    info = {
        "latency_samples": n,
        "latency_p99_ms_percentile": round(100 * tail, 2),
        "speed_scale": calibrator.scale() if n else None,
        "raw": {"ops_per_s": raw_ops_per_s, "latency_p50_ms": raw_p50,
                "latency_p99_ms": raw_p99, "setup_s": setup[1]},
    }
    return metrics, info


def run_traced(workload, seconds: float, tracer) -> tuple[Tally, float, int]:
    """Traced ops plus an untraced baseline on the same inputs.

    Returns the tally, traced over untraced wall time, and how many ops
    the trace covers.
    """
    if hasattr(workload, "sweep"):
        # The traced op is a whole key recovery through the library's own
        # query loop, so oracle queries per key are the library's count.
        # It is reported per query, against untraced single queries timed
        # half before and half after it, so that drift cancels.
        tally = Tally()
        run_plain(workload, seconds / 2, tally)
        result, elapsed = timed(tracer.op, workload.sweep)
        run_plain(workload, seconds / 2, tally)
        baseline_ns = sum(tally.latencies_ns) / len(tally.latencies_ns)
        queries = workload.params.d
        tally.attempted += queries
        if elapsed is None:
            tally.failed += queries
            return tally, 0.0, queries
        tally.failed += workload.sweep_failures(result)
        return tally, elapsed / queries / baseline_ns, queries

    tally = Tally()
    plain_ns = traced_ns = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline:
        # Alternate which side goes first so neither always runs warm.
        for traced in (k % 2 == 0, k % 2 == 1):
            if traced:
                elapsed = tally.run(workload, k, tracer.op, workload.op, k)
                traced_ns += elapsed or 0
            else:
                elapsed = tally.run(workload, k, workload.op, k)
                plain_ns += elapsed or 0
        k += 1
    return tally, (traced_ns / plain_ns if plain_ns else 0.0), k


def per_layer(tally: Tally, overhead: float, ops: int, tracer, workload) -> dict:
    from tracer import LAYERS

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / ops, "calls/op")
        metrics[f"{layer}.self_ms"] = (tracer.self_ns[layer] / ops / 1e6, "ms/op")
    facts = workload.facts() if hasattr(workload, "facts") else {}
    metrics.update(
        {
            "op.self_ms": (tracer.self_ns["op"] / ops / 1e6, "ms/op"),
            "ring.round.calls": (tracer.counts["ring.round.calls"] / ops, "calls/op"),
            "attacks.oracle.calls_per_key": (tracer.oracle_calls_per_key(), "calls/key"),
            "attacks.recover.success_ratio": (facts.get("success_ratio", 0.0), "ratio"),
            "attacks.flood.blocked_ratio": (facts.get("blocked_ratio", 0.0), "ratio"),
            "psi.frame.bytes": (tracer.counts["psi.frame.bytes"] / ops, "B/op"),
            "cli.file.bytes": (facts.get("file_bytes", 0.0), "B/op"),
            "trace.overhead_ratio": (overhead, "ratio"),
            "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        }
    )
    return metrics


def main(argv=None) -> int:
    if not (SRC / "bfvlab" / "__init__.py").is_file():
        print(f"error: no bfvlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bfvlab

    if Path(bfvlab.__file__).resolve().parent != SRC / "bfvlab":
        print(f"error: bfvlab was not imported from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    scratch = OUT / f"scratch-{os.getpid()}"
    try:
        if args.setup_probe:
            WORKLOADS[args.workload](args.seed, scratch)
            print(time.monotonic(), flush=True)
            return 0
        return measure(args, WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload_cls, scratch: Path) -> int:
    OUT.mkdir(exist_ok=True)
    setup = None if args.trace else setup_seconds(args)
    workload = workload_cls(args.seed, scratch)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tally, overhead, ops = run_traced(workload, args.seconds, tracer)
        metrics = per_layer(tally, overhead, ops, tracer, workload)
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
        info = {"traced_ops": ops, "spans": len(tracer.spans), "unpatched": tracer.unpatched}
    else:
        tally, calibrator = run_plain(workload, args.seconds)
        metrics, info = end_to_end(tally, calibrator, setup)

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "info": info, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{args.workload}: {json.dumps(info)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
