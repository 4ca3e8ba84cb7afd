"""Acceptance suite: every exit criterion, each printing one PASS/FAIL line.

Arithmetic is exact throughout, so every comparison is equality with zero
tolerance.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import random
import time
from collections import Counter
from functools import cache

from lambdafact import enumeration as en
from lambdafact import identities as ids
from lambdafact import sequences as seq
from lambdafact.polynomial import Polynomial
from lambdafact.series import tree_function
from lambdafact.symbols import ALPHA, LAM, MU, U

_SUITE_START = time.perf_counter()

lam, mu, alpha, u = map(Polynomial.variable, (LAM, MU, ALPHA, U))


def _report(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {description}")
    assert not failures, f"criterion {num} failures: {failures[:5]}"


def _run_ids(identity_ids, **overrides):
    failures = []
    for identity in identity_ids:
        for report in ids.verify_many([identity], **overrides):
            if not report.verdict:
                failures.append((identity, dict(report.params)))
    return failures


def test_criterion_01_route_agreement():
    start = time.perf_counter()
    failures = []
    for n in range(21):
        base = seq.lambda_factorial(n, "recurrence-1.0c")
        for route in seq.LAMBDA_FACTORIAL_ROUTES:
            if seq.lambda_factorial(n, route) != base:
                failures.append(("lambda_factorial", n, route))
        # Up to the enumeration cutoff, the oracle sums λ^fix over S_n.
        if n <= 8 and en.oracle_polynomials(n).lambda_factorial != base:
            failures.append(("lambda_factorial", n, "enumeration"))
    for n in range(11):
        for m in range(11 - n):
            base = seq.q_poly(n, m, "definition-sum")
            for route in seq.Q_POLY_ROUTES:
                if seq.q_poly(n, m, route) != base:
                    failures.append(("q_poly", n, m, route))
    elapsed = time.perf_counter() - start
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    _report(1, f"route agreement (f: n<=20, Q: n+m<=10) in {elapsed:.1f}s", failures)


def _cycles(p):
    """The number of cycles of a permutation given as a 1-based image tuple."""
    seen, count = set(), 0
    for i in p:
        if i not in seen:
            count += 1
            while i not in seen:
                seen.add(i)
                i = p[i - 1]
    return count


@cache
def permutation_statistics(size):
    """One pass over S_size: the number of permutations with each (fixed
    points, cycles), and with each set of fixed points as a bit mask."""
    by_cycles, by_fixed_set = Counter(), Counter()
    for p, fix in en.permutations_with_fix(size):
        by_cycles[fix, _cycles(p)] += 1
        by_fixed_set[sum(1 << i for i, v in enumerate(p) if v == i + 1)] += 1
    return by_cycles, by_fixed_set


def charlier_oracle(n):
    """The sum over S_n of (α+u)^fix α^(cycles - fix)."""
    by_cycles, _ = permutation_statistics(n)
    return sum(((alpha + u) ** fix * alpha ** (cyc - fix) * count
                for (fix, cyc), count in by_cycles.items()), Polynomial.zero())


def q_oracle(n, m):
    """The sum over S_(n+m) of (λ+μ)^(fixed points in [1..n]) times
    λ^(fixed points in [n+1..n+m])."""
    _, by_fixed_set = permutation_statistics(n + m)
    low = (1 << n) - 1
    return sum(((lam + mu) ** (mask & low).bit_count() * lam ** (mask >> n).bit_count()
                * count for mask, count in by_fixed_set.items()), Polynomial.zero())


def family_oracle_failures():
    """Charlier for n <= 8 and every Q route for n + m <= 8 against the
    permutation oracles."""
    failures = []
    for n in range(9):
        if seq.charlier(n) != charlier_oracle(n):
            failures.append(("charlier", n))
        for m in range(9 - n):
            oracle = q_oracle(n, m)
            failures += [("q_poly", n, m, route) for route in seq.Q_POLY_ROUTES
                         if seq.q_poly(n, m, route) != oracle]
    return failures


def test_criterion_02_oracle_agreement():
    failures = []
    for n in range(9):
        oracle = en.oracle_polynomials(n)
        if oracle.lambda_factorial != seq.lambda_factorial(n):
            failures.append(("f", n))
        if oracle.bell != seq.bell_poly(n):
            failures.append(("bell", n))
        if oracle.hermite != seq.hermite_poly(n):
            failures.append(("hermite", n))
        if oracle.derangements != seq.derangement(n):
            failures.append(("derangement", n))
    for n in range(11):
        if en.permanent_check(n) != seq.derangement(n):
            failures.append(("permanent", n))
    failures += family_oracle_failures()
    _report(2, "enumeration oracles equal formula routes, Charlier and every Q route "
               "included; permanent counts derangements", failures)


def test_criterion_03_unified_convolution_identity():
    failures = _run_ids(["thm1.1"], n_max=15)
    failures += _run_ids(["riordan", "sunxu"], n_max=12)
    lhs = sum(
        seq.binomial(3, k) * seq.factorial(k + 1) * 4 ** (3 - k) for k in range(4)
    )
    if lhs != 256 or 4 ** 4 != 256:
        failures.append(("riordan spot value", lhs))
    _report(3, "convolution identity (n<=15) and its two integer specializations (n<=12)", failures)


def test_criterion_04_bijection_roundtrip():
    # Every (n, lam) with (n+lam)^(n+1) <= 1e5.  For n <= 1 that bound leaves
    # lam unbounded, so lam is additionally capped at 20; the bijection is
    # structurally identical for every larger lam.
    start = time.perf_counter()
    failures = []
    checked = 0
    n = 0
    while (n + 0) ** (n + 1) <= 10 ** 5 or n == 0:
        lams = [l for l in range(0, 21) if (n + l) ** (n + 1) <= 10 ** 5]
        if not lams:
            break
        for lam_val in lams:
            strata = en.exhaustive_roundtrip(n, lam_val)
            total = sum(strata.values())
            if total != (n + lam_val) ** (n + 1):
                failures.append(("total", n, lam_val, total))
            for k in range(n + 1):
                expected = (
                    seq.binomial(n, k)
                    * (n + 1) ** (n - k)
                    * int(seq.lambda_factorial(k + 1).evaluate({LAM: lam_val}))
                )
                if strata.get(k, 0) != expected:
                    failures.append(("stratum", n, lam_val, k))
            checked += total
        n += 1
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _report(4, f"bijection round trip and strata for {checked} objects in {elapsed:.1f}s", failures)


def test_criterion_05_forest_counts():
    failures = []
    for n in range(6):
        counts = {}
        total = 0
        for forest in en.forests(n + 1):
            total += 1
            k = forest.count(0) - 1
            counts[k] = counts.get(k, 0) + 1
        if total != (n + 2) ** n:
            failures.append(("total", n, total))
        for k in range(n + 1):
            expected = seq.binomial(n, k) * (n + 1) ** (n - k)
            if counts.get(k, 0) != expected:
                failures.append(("stratum", n, k))
    _report(5, "forest totals (n+2)^n and per-component strata for n<=5", failures)


def test_criterion_06_series_layer():
    failures = []
    y = tree_function(10)
    if not (y - y.exp().shift(1)).is_zero:
        failures.append("fixed-point equation")
    import math
    from fractions import Fraction

    for n in range(1, 11):
        if y.coefficient(n) != Polynomial.constant(
            Fraction(n ** (n - 1), math.factorial(n))
        ):
            failures.append(("coefficient", n))
    failures += _run_ids(["2.1", "2.2", "2.3", "2.3a"], n_max=8)
    _report(6, "tree series to order 10 and its coefficient identities for n<=8", failures)


def test_criterion_07_series_transform():
    failures = _run_ids(["thm1.2"])
    _report(7, "series transform for six coefficient families (order 8) and its OGF case (order 10)", failures)


def test_criterion_08_transform_applications():
    failures = _run_ids(
        [
            "charlier-deriv",
            "3.4",
            "3.5",
            "3.6",
            "3.7",
            "3.7.1",
            "gessel",
            "chz",
            "bell-transform",
            "3.8",
            "3.9",
        ]
    )
    _report(8, "Charlier/Bell/Hermite transforms, OGF corollaries, bilinear formulas", failures)


def test_criterion_09_convolution_properties():
    failures = _run_ids(
        [
            "4.1",
            "4.2",
            "cor-selfdual",
            "4.3",
            "difference",
            "4.3a",
            "4.4",
            "4.5",
            "remark-mu",
            "stirling-difference",
            "cor-n-factorial",
        ]
    )
    rng = random.Random(20260809)
    for _ in range(50):
        a = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(10)]
        if ids.inverse_relation_roundtrip("derangement-4.1", a) != a:
            failures.append(("derangement roundtrip", a))
        if ids.inverse_relation_roundtrip("tree-4.4", a) != a:
            failures.append(("tree roundtrip", a))
    _report(9, "two-parameter convolution identities and both inverse relations", failures)


def test_criterion_10_bivariate_family():
    failures = _run_ids(
        ["5.1", "5.2", "q-second", "q-diag", "q-explicit", "5.3", "5.4", "thm5.2"]
    )
    _report(10, "bivariate family: recurrences, EGF (degree 10), diagonal and reductions", failures)


def test_total_runtime_budget():
    elapsed = time.perf_counter() - _SUITE_START
    print(f"ACCEPTANCE total runtime {elapsed:.1f}s (budget 300s)")
    assert elapsed < 300
