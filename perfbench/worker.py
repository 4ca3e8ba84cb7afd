"""One fresh process running one workload: set-up, a cold pass, warm passes,
the exact checks, and one JSON line with what was measured.

run.py starts it as `python3 perfbench/worker.py '<spec json>'`.  The spec
keys are workload, seed, size, trace (bool), warm_s_min (null for no warm
pass; otherwise warm passes repeat until they add up to this many seconds,
at least one), spans_out (where a traced run writes its spans) and
setup_only (stop after set-up).
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def load_program() -> tuple[SimpleNamespace, float]:
    """Import the package from this checkout; set-up time includes the
    catalogue registry, which is built at import."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import lambdafact
    import lambdafact.cli
    import lambdafact.identities
    setup_s = perf_counter() - t0
    if not Path(lambdafact.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"lambdafact imported from {lambdafact.__file__}, not from {src}")
    from lambdafact import enumeration, identities, polynomial, sequences, series, symbols
    lf = SimpleNamespace(
        identities=identities, enumeration=enumeration, sequences=sequences,
        symbols=symbols, polynomial=polynomial, series=series,
    )
    return lf, setup_s


def find_caches(sequences) -> dict:
    """The lru caches in `sequences`, keyed like their spans."""
    return {f"sequences.{name}": fn for name, fn in vars(sequences).items()
            if hasattr(fn, "cache_info")}


def timed_pass(wl, caches: dict, tr, label: str) -> tuple[list, dict, list[float]]:
    before = spans.cache_counts(caches)
    stamps: list[float] = []
    stamp = stamps.append
    root = None
    if tr is not None:
        tr.active = True
        root = tr.open(tr.name_id(f"pass.{label}"))
    t0 = perf_counter()
    try:
        out = wl.run_pass(lambda: stamp(perf_counter()))
    finally:
        t1 = perf_counter()
        if tr is not None:
            tr.close(root)
            tr.active = False
    after = spans.cache_counts(caches)
    hits = sum(after[k][0] - before[k][0] for k in caches)
    misses = sum(after[k][1] - before[k][1] for k in caches)
    # The label rests on the cache counts, not on the pass's position.
    measured = "cold" if misses else ("warm" if hits else "uncached")
    info = {"s": t1 - t0, "label": measured, "cache_hits": hits, "cache_misses": misses}
    ops_ms = [(b - a) * 1000.0 for a, b in zip([t0] + stamps, stamps)]
    return out, info, ops_ms


def main(spec: dict) -> dict:
    lf, setup_s = load_program()
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    wl = workloads.KINDS[spec["workload"]](lf, spec["seed"], spec["size"])
    caches = find_caches(lf.sequences)
    tr = None
    installed = {"wrapped": {}, "absent": []}
    if spec["trace"]:
        tr = spans.Tracer()
        installed = spans.install(tr)
        workloads.render_report = spans.wrap_call(tr, spans.CLI_RENDER, workloads.render_report)
    cache_start = spans.cache_counts(caches)

    gate = workloads.Gate()
    cold, cold_info, ops_ms = timed_pass(wl, caches, tr, "cold")
    passes = [cold_info]
    warm_times: list[float] = []
    if spec["warm_s_min"] is not None:
        while not warm_times or sum(warm_times) < spec["warm_s_min"]:
            warm, info, _ = timed_pass(wl, caches, tr, "warm")
            warm_times.append(info["s"])
            if len(passes) == 1:
                passes.append(info)
            gate.check(warm == cold, f"{spec['workload']}: warm pass output differs from cold")
            del warm

    cache_end = spans.cache_counts(caches)
    wl.check(cold, gate)
    result = {
        "setup_s": setup_s,
        "cold_s": cold_info["s"],
        # The mean, not the median: the machine's speed switches between
        # states that last seconds, and a median snaps to one of them.
        "warm_s": sum(warm_times) / len(warm_times) if warm_times else None,
        "warm_passes": len(warm_times),
        "passes": passes,
        "ops_ms": ops_ms,
        "objects": wl.objects(cold),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": installed["absent"],
        "wrapped": installed["wrapped"],
    }
    if tr is not None:
        delta = {k: (cache_end[k][0] - cache_start[k][0], cache_end[k][1] - cache_start[k][1])
                 for k in caches}
        agg = tr.aggregate()
        layers = spans.layer_metrics(tr, agg, delta)
        for layer in workloads.EXPECTED_LAYERS[spec["workload"]]:
            calls = sum(v for k, v in layers.items()
                        if k.startswith(layer + ".") and k.endswith(".calls"))
            gate.check(calls > 0, f"trace: layer {layer} recorded no call")
        result["layers"] = layers
        result["spans"] = len(tr.end)
        result["trace_overhead_s"] = agg.get(spans.OVERHEAD, {}).get("self_s", 0.0)
        result["unattributed_s"] = sum(agg[k]["self_s"] for k in agg if k.startswith("pass."))
        if spec.get("spans_out"):
            tr.write(Path(spec["spans_out"]))
    result.update(attempted=gate.attempted, failed=gate.failed, failures=gate.failures)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
