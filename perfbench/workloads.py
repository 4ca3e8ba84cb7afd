"""The three workloads: what one pass runs, in an order drawn from the seed,
and the exact checks on what the pass returned.

The seed permutes only the order of a workload's items, never the item set.
Checks run after the timed passes, so their own calls into the program
neither count in the timings nor warm the caches a pass relies on.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("catalogue", "census", "families")
SIZES = ("full", "tiny")

# verify_many overrides (n_max, m_max, order); None keeps each identity's
# default points, which is what `lambdafact verify all` runs.
CATALOGUE_LIMITS = {"full": (None, None, None), "tiny": (2, 1, 3)}

# Tail-heavy shapes (small n, large λ: long fixed tails, few trees) and
# tree-heavy shapes (larger n, small λ).  106,393 objects, about 5 s a pass.
# The shapes' times are well apart, so the median shape is always (4, 3).
CENSUS_SHAPES = {
    "full": ((1, 60), (2, 20), (3, 10), (4, 3), (5, 1)),
    "tiny": ((1, 2), (2, 1)),
}

# Top index of each large-index table.  The recursive lru_cache routes stay
# far below the depth where they raise RecursionError, and each table runs
# in ascending index order so one call recurses at most one level.
FAMILY_TOPS = {
    "full": {"lambda_factorial": 150, "q_poly": 24, "charlier": 30,
             "bell_poly": 120, "hermite_poly": 120},
    "tiny": {"lambda_factorial": 6, "q_poly": 4, "charlier": 4,
             "bell_poly": 6, "hermite_poly": 6},
}


class Gate:
    """Counts exact checks attempted and failed; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def render_report(report) -> dict:
    """Render one report the way `lambdafact verify` prints it."""
    record = report.to_json()
    json.dumps(record, ensure_ascii=False)
    del record["elapsed_ms"]
    return record


def _shuffled(xs, seed: int) -> list:
    xs = list(xs)
    random.Random(seed).shuffle(xs)
    return xs


class Catalogue:
    """Every catalogue identity at its default points, as `verify all` runs."""

    def __init__(self, lf, seed: int, size: str):
        self.lf = lf
        self.limits = CATALOGUE_LIMITS[size]
        self.items = _shuffled(lf.identities.catalogue_ids(), seed)

    def run_pass(self, stamp) -> list:
        out = []
        for report in self.lf.identities.verify_many(self.items, *self.limits):
            out.append(render_report(report))
            stamp()
        return out

    def objects(self, out: list) -> int:
        return len(out)

    def declared_points(self) -> int:
        n_max, m_max, order = self.limits
        registry = self.lf.identities.CATALOGUE
        return sum(len(registry[i].points(n_max, m_max, order)) for i in self.items)

    def check(self, out: list, gate: Gate) -> None:
        declared = self.declared_points()
        gate.check(len(out) == declared,
                   f"catalogue: {len(out)} reports, registry declares {declared}")
        for record in out:
            gate.check(record["verdict"] == "pass" and record["residual"] == "0",
                       f"catalogue: {record['id']} {record['params']} "
                       f"residual {record['residual']}")


class Census:
    """The exhaustive bijection round trip over a fixed list of shapes."""

    def __init__(self, lf, seed: int, size: str):
        self.lf = lf
        self.items = _shuffled(CENSUS_SHAPES[size], seed)

    def run_pass(self, stamp) -> list:
        out = []
        for n, lam in self.items:
            try:
                strata = self.lf.enumeration.exhaustive_roundtrip(n, lam)
            except RuntimeError:  # a failed round trip; the check counts it
                strata = None
            out.append(((n, lam), strata))
            stamp()
        return out

    def objects(self, out: list) -> int:
        return sum(sum(strata.values()) for _, strata in out if strata)

    def check(self, out: list, gate: Gate) -> None:
        f = self.lf.sequences.lambda_factorial
        lam_sym = self.lf.symbols.LAM
        for (n, lam), strata in out:
            gate.check(strata is not None, f"census ({n},{lam}): round trip failed")
            strata = strata or {}
            total = (n + lam) ** (n + 1)
            gate.check(sum(strata.values()) == total,
                       f"census ({n},{lam}): total {sum(strata.values())} != {total}")
            gate.check(set(strata) <= set(range(n + 1)),
                       f"census ({n},{lam}): strata keys {sorted(strata)}")
            for k in range(n + 1):
                expected = (math.comb(n, k) * (n + 1) ** (n - k)
                            * f(k + 1).evaluate({lam_sym: lam}))
                gate.check(strata.get(k, 0) == expected,
                           f"census ({n},{lam}) k={k}: {strata.get(k, 0)} != {expected}")


def _derangements(top: int) -> list[int]:
    d = [1]
    for n in range(1, top + 1):
        d.append(n * d[-1] + (-1) ** n)
    return d


def _bell_numbers(top: int) -> list[int]:
    out, row = [1], [1]
    for _ in range(top):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        out.append(row[0])
    return out


def _involutions(top: int) -> list[int]:
    out = [1, 1]
    for n in range(2, top + 1):
        out.append(out[-1] + (n - 1) * out[-2])
    return out[: top + 1]


class Families:
    """Large-index tables of the named families through their public routes."""

    def __init__(self, lf, seed: int, size: str):
        self.lf = lf
        self.tops = FAMILY_TOPS[size]
        self.items = _shuffled(self.tops, seed)

    def entries(self, table: str) -> list[tuple]:
        top = self.tops[table]
        if table == "q_poly":
            # Ascending n+m, so both recurrence predecessors are cached.
            return [(n, s - n, "recurrence-5.1") for s in range(top + 1) for n in range(s + 1)]
        return [(n,) for n in range(top + 1)]

    def run_pass(self, stamp) -> list:
        out = []
        for table in self.items:
            fn = getattr(self.lf.sequences, table)
            for args in self.entries(table):
                out.append((table, args, fn(*args)))
                stamp()
        return out

    def objects(self, out: list) -> int:
        return len(out)

    def check(self, out: list, gate: Gate) -> None:
        sym = self.lf.symbols
        f = self.lf.sequences.lambda_factorial
        top = max(self.tops.values())
        der, bell, inv = _derangements(top), _bell_numbers(top), _involutions(top)
        for table, args, p in out:
            n = args[0]
            where = f"families {table}{args[:2]}"
            if table == "lambda_factorial":
                gate.check(p.evaluate({sym.LAM: 0}) == der[n], f"{where}: f_n(0) != D_n")
                gate.check(p.evaluate({sym.LAM: 1}) == math.factorial(n), f"{where}: f_n(1) != n!")
            elif table == "q_poly":
                gate.check(p.substitute(sym.MU, 0) == f(n + args[1]),
                           f"{where}: Q(λ, 0) != f_(n+m)")
            elif table == "charlier":
                # At α=1, u=λ-1 the Charlier polynomial is f_n; λ=0 gives D_n.
                gate.check(p.evaluate({sym.ALPHA: 1, sym.U: -1}) == der[n], f"{where}: != D_n")
            elif table == "bell_poly":
                gate.check(p.evaluate({sym.U: 1}) == bell[n], f"{where}: != Bell number")
            elif table == "hermite_poly":
                gate.check(p.evaluate({sym.U: 1}) == inv[n], f"{where}: != involution count")
            else:
                gate.check(False, f"{where}: no check for this table")


KINDS = {"catalogue": Catalogue, "census": Census, "families": Families}

# Layers each workload must reach in a traced run.
EXPECTED_LAYERS = {
    "catalogue": ("polynomial", "series", "sequences", "identities", "cli"),
    "census": ("enumeration",),
    "families": ("polynomial", "sequences"),
}
