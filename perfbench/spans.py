"""In-memory spans around calls into lambdafact's layers, for the traced run.

A span is (name, start, end, parent).  Spans live in four flat arrays while
the workload runs and are written to one file when it ends.  A layer's self
time is the summed duration of its spans minus the part covered by their
child spans.

Wrappers are installed from outside the package: no file under src/ is
touched.  Several modules import layer functions by name, module-level
dicts hold them as values, and classes alias methods (`__rmul__ =
__mul__`), so `install` replaces every binding of each entry point, not
just the defining one.  An entry point that no longer exists is reported as
absent and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

OVERHEAD = "trace.overhead"


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = False
        self.counts: dict[str, float] = {}
        # Terms in all Polynomial products so far; mul_truncated reads the
        # difference across its call to learn how many terms it produced.
        self.mul_terms_out = 0

    def name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, nid: int) -> int:
        i = len(self.end)
        self.name_ix.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def peak(self, key: str, value: float) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.end)
        start, end, parent, name_ix = self.start, self.end, self.parent, self.name_ix
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            dur = end[i] - start[i]
            row = out[self.names[name_ix[i]]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[i]
        return out

    def write(self, path: Path) -> None:
        """One JSON header line, then the raw name, parent, start and end arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.end),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ix, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], list[tuple[int, int, float, float]]]:
    """Inverse of Tracer.write: names and (name, parent, start, end) rows."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    return header["names"], list(zip(*cols))


# ---- wrappers ----


def wrap_call(tr: Tracer, name: str, fn, after=None):
    nid = tr.name_id(name)
    oid = tr.name_id(OVERHEAD)

    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        snap = tr.mul_terms_out
        i = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(i)
        if after is not None:
            j = tr.open(oid)
            after(tr, i, args, result, snap)
            tr.close(j)
        return result

    return functools.update_wrapper(traced, fn)


def _wrap_generator(tr: Tracer, name: str, fn, count_key: str | None):
    """Each resumption of the generator is one span; items are counted."""
    nid = tr.name_id(name)

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            if not tr.active:
                try:
                    item = next(it)
                except StopIteration:
                    return
                yield item
                continue
            i = tr.open(nid)
            try:
                item = next(it)
            except StopIteration:
                tr.close(i)
                return
            except BaseException:
                tr.close(i)
                raise
            tr.close(i)
            if count_key is not None:
                tr.bump(count_key)
            yield item

    return functools.update_wrapper(traced, fn)


# ---- counters taken after a call, inside a trace.overhead span ----


def _size_and_bits(p) -> tuple[int, int]:
    terms = bits = 0
    for _, c in p.terms():
        terms += 1
        b = max(c.numerator.bit_length(), c.denominator.bit_length())
        if b > bits:
            bits = b
    return terms, bits


def _term_count(x) -> int:
    terms = getattr(x, "terms", None)
    return sum(1 for _ in terms()) if terms is not None else 1


def _after_poly_mul(tr, i, args, result, snap):
    if result is NotImplemented:
        return
    terms, bits = _size_and_bits(result)
    tr.bump("polynomial.mul.term_pairs", _term_count(args[0]) * _term_count(args[1]))
    tr.peak("polynomial.mul.peak_terms", terms)
    tr.peak("polynomial.coeff.peak_bits", bits)
    tr.mul_terms_out += terms


def _after_poly_add(tr, i, args, result, snap):
    if result is not NotImplemented:
        tr.peak("polynomial.coeff.peak_bits", _size_and_bits(result)[1])


def _after_mul_truncated(tr, i, args, result, snap):
    kept = _term_count(result)
    # A kernel that truncates inside the multiply produces only what it keeps.
    tr.bump("series.mul_truncated.kept", kept)
    tr.bump("series.mul_truncated.produced", max(kept, tr.mul_terms_out - snap))


def _after_verify(tr, i, args, result, snap):
    tr.bump(f"identities.{args[0]}.s", tr.end[i] - tr.start[i])


# ---- the entry points of each layer ----

# (span name, module, attribute path, after-hook)
ENTRY_POINTS = (
    ("polynomial.mul", "lambdafact.polynomial", "Polynomial.__mul__", _after_poly_mul),
    ("polynomial.add", "lambdafact.polynomial", "Polynomial.__add__", _after_poly_add),
    ("polynomial.substitute", "lambdafact.polynomial", "Polynomial.substitute", None),
    ("polynomial.derivative", "lambdafact.polynomial", "Polynomial.derivative", None),
    ("polynomial.evaluate", "lambdafact.polynomial", "Polynomial.evaluate", None),
    ("series.mul", "lambdafact.series", "TruncatedSeries.__mul__", None),
    ("series.exp", "lambdafact.series", "TruncatedSeries.exp", None),
    ("series.reciprocal", "lambdafact.series", "TruncatedSeries.reciprocal", None),
    ("series.compose", "lambdafact.series", "TruncatedSeries.compose", None),
    ("series.substitute_series", "lambdafact.series", "substitute_series", None),
    ("series.binomial_power", "lambdafact.series", "binomial_power", None),
    ("series.abel_rhs", "lambdafact.series", "abel_rhs", None),
    ("series.mul_truncated", "lambdafact.series", "mul_truncated", _after_mul_truncated),
    ("series.exp_truncated", "lambdafact.series", "exp_truncated", None),
    ("sequences.derangement", "lambdafact.sequences", "derangement", None),
    ("sequences._lambda_factorial_recurrence", "lambdafact.sequences",
     "_lambda_factorial_recurrence", None),
    ("sequences.charlier", "lambdafact.sequences", "charlier", None),
    ("sequences.bell_poly", "lambdafact.sequences", "bell_poly", None),
    ("sequences.hermite_poly", "lambdafact.sequences", "hermite_poly", None),
    ("sequences.stirling2", "lambdafact.sequences", "stirling2", None),
    ("sequences._q_recurrence", "lambdafact.sequences", "_q_recurrence", None),
    ("enumeration.enumerate_m_star", "lambdafact.enumeration", "enumerate_m_star", None),
    ("enumeration.sigma_to_pair", "lambdafact.enumeration", "sigma_to_pair", None),
    ("enumeration.pair_to_sigma", "lambdafact.enumeration", "pair_to_sigma", None),
    ("identities.verify", "lambdafact.identities.catalogue", "verify", _after_verify),
    ("identities.umbral_eval", "lambdafact.identities.umbral", "umbral_eval", None),
)

# The sequences entry points that are lru caches; their cache_info() gives
# the hit and miss counts.
CACHED = tuple(name for name, mod, _, _ in ENTRY_POINTS if mod == "lambdafact.sequences")

# The catalogue ids when the benchmark was defined.  An id that a later
# change removes reads zero.
CATALOGUE_IDS = (
    "1.0a", "1.0b", "1.0c", "1.0d", "1.0e", "charlier-spec",
    "charlier-recurrence", "riordan", "sunxu", "thm1.1", "2.1", "2.2", "2.3",
    "2.3a", "2.4", "3.1", "3.2", "3.3", "thm1.2", "charlier-deriv", "3.4",
    "3.5", "3.6", "3.7", "3.7.1", "gessel", "chz", "bell-transform", "3.8",
    "3.9", "4.1", "4.2", "cor-selfdual", "4.3", "difference", "4.3a", "4.4",
    "4.5", "remark-mu", "stirling-difference", "cor-n-factorial", "5.1", "5.2",
    "q-second", "q-diag", "q-explicit", "5.3", "5.4", "thm5.2",
)

# The benchmark's own span around rendering a report as `verify` prints it.
CLI_RENDER = "cli.render"


def _metric_names() -> tuple[str, ...]:
    names: list[str] = []
    for span, _, _, _ in ENTRY_POINTS:
        names += [f"{span}.calls", f"{span}.self_s"]
        if span in CACHED:
            names += [f"{span}.cache_hits", f"{span}.cache_misses"]
    names += [
        "polynomial.mul.term_pairs",
        "polynomial.mul.peak_terms",
        "polynomial.coeff.peak_bits",
        "series.mul_truncated.kept_ratio",
        "enumeration.objects",
        f"{CLI_RENDER}.calls",
        f"{CLI_RENDER}.self_s",
        "trace.overhead_ratio",
    ]
    names += [f"identities.{i}.s" for i in CATALOGUE_IDS]
    return tuple(names)


PER_LAYER = _metric_names()


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    owner = None
    for part in path.split("."):
        owner = obj
        obj = getattr(obj, part)
    return owner, obj


def install(tr: Tracer) -> dict:
    """Wrap every binding of every entry point; returns what was done."""
    wrapped: dict[str, int] = {}
    absent: list[str] = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "lambdafact" or name.startswith("lambdafact."))]
    for span, module, path, after in ENTRY_POINTS:
        try:
            owner, original = _resolve(module, path)
        except (ImportError, AttributeError):
            absent.append(span)
            continue
        if inspect.isgeneratorfunction(original):
            wrapper = _wrap_generator(tr, span, original, "enumeration.objects")
        else:
            wrapper = wrap_call(tr, span, original, after)
        # Class attributes, including aliases such as __rmul__ = __mul__.
        targets = [owner] if inspect.isclass(owner) else []
        targets += modules
        hits = 0
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    hits += 1
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            hits += 1
        wrapped[span] = hits
    return {"wrapped": wrapped, "absent": absent}


def cache_counts(caches: dict) -> dict[str, tuple[int, int]]:
    return {span: (fn.cache_info().hits, fn.cache_info().misses) for span, fn in caches.items()}


def layer_metrics(tr: Tracer, agg: dict, cache_delta: dict[str, tuple[int, int]]) -> dict[str, float]:
    """Every name in PER_LAYER except trace.overhead_ratio, from the spans
    aggregated by Tracer.aggregate and the cache counts of the passes."""
    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and base in agg:
            out[name] = agg[base][field]
        elif field in ("cache_hits", "cache_misses") and base in cache_delta:
            out[name] = cache_delta[base][0 if field == "cache_hits" else 1]
        else:
            out[name] = tr.counts.get(name, 0)
    produced = tr.counts.get("series.mul_truncated.produced", 0)
    out["series.mul_truncated.kept_ratio"] = (
        tr.counts.get("series.mul_truncated.kept", 0) / produced if produced else 0.0
    )
    out.pop("trace.overhead_ratio")
    return out
