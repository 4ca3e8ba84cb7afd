"""Route-agreement and value tests for the named families."""

import inspect
import sys

import pytest

from lambdafact import enumeration, sequences as seq
from lambdafact.polynomial import Polynomial, variables
from lambdafact.symbols import ALPHA, LAM, MU, U

lam, mu, alpha, u = variables(LAM, MU, ALPHA, U)


def test_factorial_and_binomial():
    assert seq.factorial(0) == 1
    assert seq.factorial(5) == 120
    assert seq.binomial(5, 2) == 10
    assert seq.binomial(5, -1) == 0
    assert seq.binomial(3, 7) == 0
    with pytest.raises(ValueError):
        seq.factorial(-1)


def test_derangement_values():
    assert [seq.derangement(n) for n in range(6)] == [1, 0, 1, 2, 9, 44]


def test_cached_routes_build_no_variable(monkeypatch):
    seq.lambda_factorial(6)
    seq.q_poly(3, 2, route="recurrence-5.1")
    built = []
    real = Polynomial.variable
    monkeypatch.setattr(
        Polynomial, "variable", classmethod(lambda cls, name: built.append(name) or real(name))
    )
    seq.lambda_factorial(6)
    seq.q_poly(3, 2, route="recurrence-5.1")
    assert built == []


def test_derangement_range_computes_each_term_once(monkeypatch):
    class CountingTable(list):
        appends = 0

        def append(self, value):
            CountingTable.appends += 1
            super().append(value)

    monkeypatch.setattr(seq, "_DERANGEMENTS", CountingTable([1]))
    seq.derangement.cache_clear()
    try:
        assert [seq.derangement(n) for n in range(200)][:6] == [1, 0, 1, 2, 9, 44]
        assert CountingTable.appends == 199
        # Past the lru cache, the table answers without computing again.
        assert seq.derangement.__wrapped__(150) == 150 * seq.derangement(149) + 1
        assert CountingTable.appends == 199
    finally:
        seq.derangement.cache_clear()


# (entry point, its grow-only table, a fresh table, an index whose recursive
# route would need more frames than the lowered limit allows)
RECURRENCES = [
    ("stirling2", "_STIRLING2_COLUMNS", list, (300, 3)),
    ("bell_poly", "_BELL_POLYS", lambda: [Polynomial.one()], (80,)),
    ("hermite_poly", "_HERMITE_POLYS", lambda: [Polynomial.one()], (80,)),
    ("_lambda_factorial_recurrence", "_LAMBDA_FACTORIALS", lambda: [Polynomial.one()], (80,)),
    ("_q_recurrence", "_Q_COLUMNS", list, (60, 2)),
]


@pytest.mark.parametrize("name,table,fresh,args", RECURRENCES, ids=[r[0] for r in RECURRENCES])
def test_recurrence_grows_without_recursing(name, table, fresh, args, monkeypatch):
    fn = getattr(seq, name)
    expected = fn(*args)
    monkeypatch.setattr(seq, table, fresh())
    fn.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = fn(*args)
    finally:
        sys.setrecursionlimit(limit)
        fn.cache_clear()
    assert got == expected


# (entry point, its table, its seed length, the arguments that grow it)
GROW_ONLY = [
    ("derangement", "_DERANGEMENTS", 1, (200,)),
    ("_lambda_factorial_recurrence", "_LAMBDA_FACTORIALS", 1, (200,)),
    ("bell_poly", "_BELL_POLYS", 1, (200,)),
    ("hermite_poly", "_HERMITE_POLYS", 1, (200,)),
    ("stirling2", "_STIRLING2_COLUMNS", 0, (200, 3)),
    ("_q_recurrence", "_Q_COLUMNS", 0, (20, 2)),
]


@pytest.mark.parametrize(
    "name,table,seed,args", GROW_ONLY, ids=[g[0] for g in GROW_ONLY]
)
def test_cache_clear_leaves_a_cold_table(name, table, seed, args):
    fn = getattr(seq, name)
    expected = fn(*args)
    assert len(getattr(seq, table)) > seed
    assert type(fn).__name__ == "_lru_cache_wrapper" and fn.cache_info().currsize
    fn.cache_clear()
    assert len(getattr(seq, table)) == seed
    assert fn.cache_info().currsize == 0
    assert fn(*args) == expected
    fn.cache_clear()


def test_stirling2_matches_its_closed_forms():
    for n in range(1, 60):
        assert seq.stirling2(n, 2) == 2 ** (n - 1) - 1
        assert seq.stirling2(n, 3) == (3 ** n - 3 * 2 ** n + 3) // 6
    assert [seq.stirling2(4, k) for k in range(-1, 6)] == [0, 0, 1, 7, 6, 1, 0]


def test_derangement_matches_enumeration():
    for n in range(7):
        assert seq.derangement(n) == enumeration.oracle_polynomials(n).derangements


def test_lambda_factorial_small_values():
    assert seq.lambda_factorial(0) == Polynomial.one()
    assert seq.lambda_factorial(2) == lam ** 2 + 1
    assert seq.lambda_factorial(3) == lam ** 3 + 3 * lam + 2


def test_lambda_factorial_routes_agree():
    for n in range(9):
        results = {
            route: seq.lambda_factorial(n, route)
            for route in seq.LAMBDA_FACTORIAL_ROUTES
        }
        first = next(iter(results.values()))
        assert all(p == first for p in results.values()), (n, results)
    for n in range(9, 21):
        formula_routes = [r for r in seq.LAMBDA_FACTORIAL_ROUTES if r != "definition-enumeration"]
        results = [seq.lambda_factorial(n, r) for r in formula_routes]
        assert all(p == results[0] for p in results), n


def test_lambda_factorial_specializations():
    for n in range(21):
        f = seq.lambda_factorial(n)
        assert f.evaluate({LAM: 0}) == seq.derangement(n)
        assert f.evaluate({LAM: 1}) == seq.factorial(n)


def test_lambda_factorial_enumeration_cutoff():
    with pytest.raises(ValueError, match="enumeration"):
        seq.lambda_factorial(9, "definition-enumeration")
    with pytest.raises(ValueError, match="route"):
        seq.lambda_factorial(3, "nonsense")


def test_charlier():
    assert seq.charlier(0) == Polynomial.one()
    assert seq.charlier(2) == alpha * (alpha + 1) + 2 * alpha * u + u ** 2
    for n in range(9):
        specialized = seq.charlier(n).substitute(ALPHA, 1).substitute(U, lam - 1)
        assert specialized == seq.lambda_factorial(n), n


def test_charlier_recurrence():
    for n in range(10):
        lhs = seq.charlier(n + 1)
        rhs = alpha * seq.charlier(n).substitute(ALPHA, alpha + 1) + u * seq.charlier(n)
        assert lhs == rhs, n


def test_rising_factorial():
    assert seq.rising_factorial(alpha, 0) == Polynomial.one()
    assert seq.rising_factorial(alpha, 3) == alpha * (alpha + 1) * (alpha + 2)
    assert seq.rising_factorial(-2, 2) == Polynomial.constant(2)
    with pytest.raises(ValueError):
        seq.rising_factorial(alpha, -1)


def test_bell_poly():
    assert seq.bell_poly(0) == Polynomial.one()
    assert seq.bell_poly(3) == u ** 3 + 3 * u ** 2 + u
    assert seq.bell_number(4) == 15
    for n in range(8):
        assert seq.bell_poly(n) == enumeration.oracle_polynomials(n).bell, n


def test_hermite_poly():
    assert seq.hermite_poly(3) == u ** 3 + 3 * u
    assert seq.involution_number(4) == 10
    assert seq.matching_number(4) == 3
    for n in range(8):
        assert seq.hermite_poly(n) == enumeration.oracle_polynomials(n).hermite, n


def test_stirling2():
    assert seq.stirling2(4, 2) == 7
    assert seq.stirling2(0, 0) == 1
    assert seq.stirling2(3, 5) == 0
    assert seq.stirling2(5, 0) == 0
    for n in range(1, 11):
        assert seq.stirling2(n, n) == 1
        assert seq.stirling2(n + 1, n) == seq.binomial(n + 1, 2)


def test_stirling2_matches_partition_enumeration():
    for n in range(1, 8):
        counts = {}
        for rgs in enumeration.set_partitions(n):
            blocks = max(rgs) + 1
            counts[blocks] = counts.get(blocks, 0) + 1
        for k, c in counts.items():
            assert seq.stirling2(n, k) == c, (n, k)


def test_q_poly_boundaries():
    assert seq.q_poly(1, 1) == lam * mu + lam ** 2 + 1
    for m in range(7):
        assert seq.q_poly(0, m) == seq.lambda_factorial(m), m
    for n in range(7):
        expected = seq.lambda_factorial(n).substitute(LAM, lam + mu)
        assert seq.q_poly(n, 0) == expected, n


def test_q_poly_routes_agree():
    for n in range(5):
        for m in range(5):
            base = seq.q_poly(n, m, "definition-sum")
            for route in seq.Q_POLY_ROUTES:
                assert seq.q_poly(n, m, route) == base, (n, m, route)
    with pytest.raises(ValueError, match="route"):
        seq.q_poly(1, 1, "nope")
    with pytest.raises(ValueError):
        seq.q_poly(-1, 0)


def test_q_second_recurrence_small():
    for n in range(4):
        for m in range(4):
            lhs = seq.q_poly(n + 1, m)
            rhs = seq.q_poly(n, m + 1) + mu * seq.q_poly(n, m)
            assert lhs == rhs, (n, m)
