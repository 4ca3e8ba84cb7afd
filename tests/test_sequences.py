"""Route-agreement and value tests for the named families."""

import inspect
import itertools
import sys
from functools import cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_acceptance
from lambdafact import enumeration, sequences as seq
from lambdafact.cli import main
from lambdafact.polynomial import Polynomial
from lambdafact.symbols import ALPHA, LAM, MU, U

lam, mu, alpha, u = map(Polynomial.variable, (LAM, MU, ALPHA, U))


def test_factorial_and_binomial():
    assert seq.factorial(0) == 1
    assert seq.factorial(5) == 120
    assert seq.binomial(5, 2) == 10
    assert seq.binomial(5, -1) == 0
    assert seq.binomial(3, 7) == 0
    for bad in (-1, True, 2.0):
        with pytest.raises(ValueError, match="factorial index n must be"):
            seq.factorial(bad)
    with pytest.raises(ValueError, match="rising_factorial length k must be an int"):
        seq.rising_factorial(lam, 2.0)


def test_derangement_values():
    assert [seq.derangement(n) for n in range(6)] == [1, 0, 1, 2, 9, 44]


@pytest.mark.parametrize(
    "family,index,value",
    [
        (seq.derangement, (3,), 2),
        (seq.lambda_factorial, (3,), lam ** 3 + 3 * lam + 2),
        (seq.charlier, (3,), u ** 3 + 3 * alpha * u ** 2 + 3 * alpha * (alpha + 1) * u
         + alpha * (alpha + 1) * (alpha + 2)),
        (seq.bell_poly, (3,), u ** 3 + 3 * u ** 2 + u),
        (seq.hermite_poly, (3,), u ** 3 + 3 * u),
        (seq.q_poly, (3, 0), (lam + mu) ** 3 + 3 * (lam + mu) + 2),
        pytest.param(partial(seq.q_poly, route="recurrence-5.1"), (3, 0),
                     (lam + mu) ** 3 + 3 * (lam + mu) + 2, id="q_poly-recurrence"),
        (seq.stirling2, (3, 2), 3),
    ],
)
def test_negative_index_is_rejected(family, index, value):
    # Each index in turn is -1, True or 2.0, cold and then with the int
    # entries cached.  A one-index lru_cache never matches True or 2.0 to
    # the entry of 1 or 2, so its body checks on the miss; the two-index
    # caches would match, so q_poly checks in front of them and stirling2's
    # cache is typed.  stirling2 is zero at a negative index, not an error.
    bads = (True, 2.0) if family is seq.stirling2 else (-1, True, 2.0)
    bad_calls = [index[:i] + (bad,) + index[i + 1:]
                 for i in range(len(index)) for bad in bads]

    def assert_rejected():
        for args in bad_calls:
            with pytest.raises(ValueError, match=r"index [nmk] must be (>= 0|an int), got "):
                family(*args)

    for fn in vars(seq).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    assert_rejected()
    for args in itertools.product(range(4), repeat=len(index)):
        family(*args)
    assert_rejected()
    assert family(*index) == value


def test_no_route_builds_a_variable(monkeypatch, capsys):
    # symbols builds the package's variables once, at import: no family
    # route, cold or cached, nor the oracle or the CLI builds one per call.
    def refuse(cls, name):
        raise AssertionError(f"built the variable {name!r}")

    monkeypatch.setattr(Polynomial, "variable", classmethod(refuse))
    for fn in vars(seq).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    for route in seq.LAMBDA_FACTORIAL_ROUTES:
        seq.lambda_factorial(6, route)
    for route in seq.Q_POLY_ROUTES:
        seq.q_poly(3, 2, route)
    for family in (seq.charlier, seq.bell_poly, seq.hermite_poly):
        family(5)
    enumeration.oracle_polynomials(3)
    assert main(["series", "abel-rhs"]) == 0
    assert capsys.readouterr().out.endswith("+ O(x^9)\n")


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


# (entry point, each table it owns with its seed contents, the arguments
# that grow them)
GROW_ONLY = [
    ("derangement", {"_DERANGEMENTS": [1]}, (200,)),
    ("_lambda_factorial_recurrence",
     {"_LAMBDA_FACTORIALS": [Polynomial.one()], "_LAMBDA_POWER": [Polynomial.one()]},
     (200,)),
    ("bell_poly", {"_BELL_POLYS": [Polynomial.one()]}, (200,)),
    ("hermite_poly", {"_HERMITE_POLYS": [Polynomial.one()]}, (200,)),
    ("stirling2", {"_STIRLING2_COLUMNS": []}, (200, 3)),
    ("_q_recurrence", {"_Q_COLUMNS": [], "_Q_POWERS": []}, (20, 2)),
]


@pytest.mark.parametrize(
    "name,tables,args", GROW_ONLY, ids=[g[0] for g in GROW_ONLY]
)
def test_cache_clear_leaves_a_cold_table(name, tables, args):
    fn = getattr(seq, name)
    expected = fn(*args)
    first, first_seed = next(iter(tables.items()))
    assert len(getattr(seq, first)) > len(first_seed)
    for table, seed in tables.items():
        assert getattr(seq, table) != seed, table
    assert type(fn).__name__ == "_lru_cache_wrapper" and fn.cache_info().currsize
    fn.cache_clear()
    for table, seed in tables.items():
        assert getattr(seq, table) == seed, table
    assert fn.cache_info().currsize == 0
    assert fn(*args) == expected
    fn.cache_clear()


# ---- the carried powers against a slow path that raises each power by ** ----

F_TOP, Q_TOP = 200, 30


@cache
def f_reference() -> tuple:
    """f_0..f_F_TOP by recurrence 1.0c, with (λ-1)^k raised by ** per index."""
    f = [Polynomial.one()]
    for k in range(1, F_TOP + 1):
        f.append(f[-1] * k + (lam - 1) ** k)
    return tuple(f)


@cache
def q_reference() -> dict:
    """Q_{n,m} for n+m <= Q_TOP by recurrence 5.1, with ** per cell."""
    q = {}
    for s in range(Q_TOP + 1):
        for n in range(s + 1):
            m = s - n
            acc = (lam - 1) ** m * (lam + mu - 1) ** n
            if n:
                acc = acc + q[n - 1, m] * n
            if m:
                acc = acc + q[n, m - 1] * m
            q[n, m] = acc
    return q


# A call names an index by its offset from the last row its table holds:
# small offsets walk the table a few rows at a time, as an ascending range of
# calls does; large ones extend it by many rows at once.
OFFSETS = st.integers(-3, 3) | st.integers(-Q_TOP, F_TOP)
CALLS = st.one_of(
    st.tuples(st.just("f"), OFFSETS),
    st.tuples(st.just("q"), OFFSETS, st.integers(0, 3) | st.integers(0, Q_TOP)),
    st.tuples(st.just("clear"), st.sampled_from(["f", "q"])),
)


def _clamp(value, top):
    return max(0, min(top, value))


@settings(max_examples=40, deadline=None)
@given(st.lists(CALLS, min_size=1, max_size=10))
def test_carried_powers_match_a_power_per_cell(calls):
    tables = {"f": seq._lambda_factorial_recurrence, "q": seq._q_recurrence}
    for fn in tables.values():
        fn.cache_clear()
    for kind, *args in calls:
        if kind == "clear":
            tables[args[0]].cache_clear()
        elif kind == "f":
            n = _clamp(len(seq._LAMBDA_FACTORIALS) - 1 + args[0], F_TOP)
            assert seq.lambda_factorial(n) == f_reference()[n], calls
        else:
            offset, m = args
            rows = len(seq._Q_COLUMNS[m]) if m < len(seq._Q_COLUMNS) else 0
            n = _clamp(rows - 1 + offset, Q_TOP - m)
            assert seq.q_poly(n, m, "recurrence-5.1") == q_reference()[n, m], calls


# Each row of f and each cell of Q is built by a one-row extension, so a
# defect tied to the extension that starts at one row cannot hide.
def test_carried_powers_match_on_an_ascending_walk():
    seq._lambda_factorial_recurrence.cache_clear()
    seq._q_recurrence.cache_clear()
    assert [seq.lambda_factorial(n) for n in range(F_TOP + 1)] == list(f_reference())
    for s in range(Q_TOP + 1):
        for n in range(s + 1):
            got = seq.q_poly(n, s - n, "recurrence-5.1")
            assert got == q_reference()[n, s - n], (n, s - n)


def test_charlier_matches_the_definition_sum():
    rising = [seq.rising_factorial(alpha, k) for k in range(41)]
    for n in range(41):
        expected = sum(
            (rising[k] * u ** (n - k) * seq.binomial(n, k) for k in range(n + 1)),
            Polynomial.zero(),
        )
        assert seq.charlier(n) == expected, n


# ---- mutation tests: a unit term in a carried power must fail route agreement ----


def q_power_with_a_unit_term(monkeypatch):
    # Q_{0,0} is right; its carried power (λ-1)^0 (λ+μ-1)^0 has a unit term
    # added, so column 0 goes wrong from row 1.  A row of the mutation
    # matrix in test_identities installs it too.
    seq._q_recurrence.cache_clear()
    monkeypatch.setattr(seq, "_Q_COLUMNS", [[Polynomial.one()]])
    monkeypatch.setattr(seq, "_Q_POWERS", [Polynomial.one() + 1])


def test_unit_term_in_the_carried_q_power_fails_route_agreement(monkeypatch):
    q_power_with_a_unit_term(monkeypatch)
    try:
        with pytest.raises(AssertionError) as failed:
            test_acceptance.test_criterion_01_route_agreement()
    finally:
        seq._q_recurrence.cache_clear()
    message = str(failed.value)
    assert "('q_poly', 1, 0, 'recurrence-5.1')" in message
    assert "lambda_factorial" not in message


# ---- mutation tests: a unit term in a family must fail its permutation oracle ----


def test_a_unit_term_in_charlier_fails_the_permutation_oracle(monkeypatch):
    real = seq.charlier
    monkeypatch.setattr(seq, "charlier", lambda n: real(n) + 1)
    assert test_acceptance.family_oracle_failures() == [("charlier", n) for n in range(9)]


def test_a_unit_term_in_the_definition_of_q_fails_the_permutation_oracle(monkeypatch):
    # q_poly reads the module's _q_definition at each call, so the wrapper
    # adds the term to every definition-sum value, cached or not.
    real = seq._q_definition
    monkeypatch.setattr(seq, "_q_definition", lambda n, m: real(n, m) + 1)
    assert test_acceptance.family_oracle_failures() == [
        ("q_poly", n, m, "definition-sum") for n in range(9) for m in range(9 - n)]


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
    for n in range(21):
        results = {
            route: seq.lambda_factorial(n, route)
            for route in seq.LAMBDA_FACTORIAL_ROUTES
        }
        if n <= 8:  # the enumeration cutoff
            results["enumeration"] = enumeration.oracle_polynomials(n).lambda_factorial
        first = next(iter(results.values()))
        assert all(p == first for p in results.values()), (n, results)


def test_lambda_factorial_specializations():
    for n in range(21):
        f = seq.lambda_factorial(n)
        assert f.evaluate({LAM: 0}) == seq.derangement(n)
        assert f.evaluate({LAM: 1}) == seq.factorial(n)


def test_lambda_factorial_enumeration_cutoff():
    with pytest.raises(ValueError, match="enumeration"):
        enumeration.oracle_polynomials(9)
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
    assert seq.stirling2(-1, 0) == seq.stirling2(-1, -1) == 0
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
