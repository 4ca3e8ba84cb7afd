"""lambdafact benchmark.

    python3 perfbench/run.py --workload catalogue|census|families \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs closed-loop in fresh
single-threaded worker processes, one after another, so one caller waits
for each result.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics when
--trace 0, the per-layer metrics when --trace 1.  A fuller record with run
metadata goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# Every invocation must end within 180 s; leave room for the last worker.
BUDGET_S = 170.0
# Fresh processes that only import the package, for the set-up median.
SETUP_SAMPLES = 5
# Warm passes repeat in the same process until they add up to this long;
# a cached families pass takes milliseconds and the machine's speed drifts
# within a second.
WARM_MIN_S = 3.0

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p98": "ms",
    "objects_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time budget spent before the run finished")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=remaining, cwd=ROOT, env=env,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the time budget: {spec}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile: p98 of n samples has at least n // 50 above it."""
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(args, deadline: float) -> tuple[dict, list[dict], list[float]]:
    base = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": False}
    setups = [spawn(dict(base, setup_only=True), deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    children: list[dict] = []
    started, longest = perf_counter(), 0.0
    while True:
        t0 = perf_counter()
        children.append(spawn(dict(base, warm_s_min=WARM_MIN_S), deadline))
        longest = max(longest, perf_counter() - t0)
        # Closed loop: start another worker only if it should end in time.
        if perf_counter() - started + longest > args.seconds:
            break
    setups += [c["setup_s"] for c in children]
    med = statistics.median
    ops_ms = [x for c in children for x in c["ops_ms"]]
    metrics = {
        "setup_s": med(setups),
        "cold_s": med(c["cold_s"] for c in children),
        "warm_s": med(c["warm_s"] for c in children),
        "op_ms_p50": percentile(ops_ms, 50),
        "op_ms_p98": percentile(ops_ms, 98),
        "objects_per_s": med(c["objects"] / c["cold_s"] for c in children),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in children),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, children, setups


def per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    base = {"workload": args.workload, "seed": args.seed, "size": args.size}
    ref = spawn(dict(base, trace=False, warm_s_min=None), deadline)
    traced = spawn(dict(base, trace=True, warm_s_min=0.0,
                        spans_out=str(OUT / f"spans-{args.workload}.bin")), deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["cold_s"] / ref["cold_s"]
    return {k: (layers[k], spans.metric_unit(k)) for k in spans.PER_LAYER}, [ref, traced]


def gate_totals(children: list[dict]) -> tuple[int, int, float]:
    """Checks attempted and failed over all workers, and failed ÷ attempted."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    return attempted, failed, failed / attempted if attempted else 1.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Item sizes; "tiny" is for the benchmark's self-test.
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lambdafact" / "__init__.py").is_file():
        print(f"error: no lambdafact sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + BUDGET_S
    try:
        if args.trace:
            metrics, children = per_layer(args, deadline)
            setups: list[float] = []
        else:
            metrics, children, setups = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, failed_ratio = gate_totals(children)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "time": time(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed_ratio,
        "failures": [f for c in children for f in c["failures"]][:20],
        "setup_samples": setups,
        "workers": [{k: v for k, v in c.items() if k != "layers"}
                    | {"op_samples": len(c["ops_ms"])} for c in children],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    summary = {k: record[k] for k in ("workload", "seed", "python", "nproc", "cpu_model",
                                      "git_commit", "failed_ratio", "failures")}
    summary["workers"] = [
        {"passes": [p["label"] for p in c["passes"]], "op_samples": len(c["ops_ms"]),
         "absent": c["absent"]} for c in children]
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
