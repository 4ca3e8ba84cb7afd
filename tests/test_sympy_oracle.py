"""Differential tests of the sequence families, the polynomial ring and the
truncated series against sympy, an independent implementation; skipped where
sympy is not installed."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from lambdafact import sequences as seq  # noqa: E402
from lambdafact.polynomial import Polynomial  # noqa: E402
from lambdafact.series import TruncatedSeries, substitute_series  # noqa: E402
from lambdafact.symbols import LAM, MU, T, U, X  # noqa: E402


def test_derangement_matches_sympy_subfactorial():
    for n in range(60):
        assert seq.derangement(n) == int(sympy.subfactorial(n))


def test_stirling2_matches_sympy():
    for n in range(30):
        for k in range(n + 2):
            assert seq.stirling2(n, k) == int(stirling(n, k, kind=2)), (n, k)


def test_bell_number_matches_sympy():
    for n in range(40):
        assert seq.bell_number(n) == int(sympy.bell(n))


def test_lambda_factorial_matches_sympy_expansion():
    lam = sympy.Symbol("lam")
    for n in range(31):
        expr = sum(
            sympy.binomial(n, k) * (lam - 1) ** k * sympy.factorial(n - k)
            for k in range(n + 1)
        )
        expected = reversed(sympy.Poly(sympy.expand(expr), lam).all_coeffs())
        got = seq.lambda_factorial(n).coefficients_in(LAM)
        assert [c.as_fraction() for c in got] == [int(c) for c in expected], n


# ---- Polynomial and TruncatedSeries against sympy.Poly and sympy.series ----

SYMPY = {name: sympy.Symbol(name) for name in (LAM, MU, U, T, X)}
GENS = [SYMPY[s] for s in (LAM, MU, U)]


def to_sympy(p):
    return sum(
        (sympy.Rational(c.numerator, c.denominator)
         * sympy.Mul(*(SYMPY[s] ** e for s, e in mono)) for mono, c in p.terms()),
        sympy.Integer(0),
    )


def as_poly(p):
    return sympy.Poly(to_sympy(p), *GENS, domain=sympy.QQ)


def series_to_sympy(s):
    return sum((to_sympy(c) * SYMPY[s.var] ** i for i, c in enumerate(s.coeffs)),
               sympy.Integer(0))


def random_poly(rng, syms, terms=4, top=3):
    coeffs = (lambda: rng.randint(-4, 4), lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return Polynomial({
        tuple(sorted((s, rng.randint(1, top)) for s in rng.sample(syms, rng.randint(0, len(syms))))):
        rng.choice(coeffs)()
        for _ in range(rng.randint(0, terms))
    })


def test_polynomial_operations_match_sympy_poly():
    rng = random.Random(11)
    lam_, u_ = SYMPY[LAM], SYMPY[U]
    for _ in range(40):
        p, q = random_poly(rng, [LAM, MU, U]), random_poly(rng, [LAM, MU, U])
        k = rng.randint(0, 3)
        assert as_poly(p + q) == as_poly(p) + as_poly(q)
        assert as_poly(p - q) == as_poly(p) - as_poly(q)
        assert as_poly(p * q) == as_poly(p) * as_poly(q)
        assert as_poly(p ** k) == as_poly(p) ** k
        assert as_poly(p.derivative(LAM)) == as_poly(p).diff(lam_)
        expected = as_poly(p).as_expr().subs(u_, as_poly(q).as_expr())
        assert as_poly(p.substitute(U, q)) == sympy.Poly(expected, *GENS, domain=sympy.QQ)


def _sympy_series(expr, var, order):
    return sympy.series(expr, SYMPY[var], 0, order + 1).removeO()


def _assert_series_equal(ours, expected):
    # sympy.series may leave rational functions of λ that cancel.
    assert sympy.cancel(series_to_sympy(ours) - expected) == 0, (str(ours), expected)


def random_series(rng, var, order, head=None):
    coeffs = [random_poly(rng, [LAM], terms=2, top=2) for _ in range(order + 1)]
    if head is not None:
        coeffs[0] = Polynomial.constant(head)
    return TruncatedSeries(var, coeffs, order)


def test_series_operations_match_sympy_series():
    rng = random.Random(12)
    for order in range(5):
        for _ in range(3):
            a, b = random_series(rng, X, order), random_series(rng, X, order)
            _assert_series_equal(a * b, _sympy_series(
                series_to_sympy(a) * series_to_sympy(b), X, order))
            g = random_series(rng, X, order, head=0)
            _assert_series_equal(g.exp(), _sympy_series(sympy.exp(series_to_sympy(g)), X, order))
            f = random_series(rng, X, order, head=rng.choice([1, -2, Fraction(3, 2)]))
            _assert_series_equal(f.reciprocal(), _sympy_series(1 / series_to_sympy(f), X, order))


def test_composition_and_substitution_match_sympy_series():
    rng = random.Random(13)
    for order in range(5):
        for _ in range(3):
            inner = random_series(rng, X, order, head=0)
            for outer in (random_series(rng, T, order), random_series(rng, X, order)):
                expected = series_to_sympy(outer).subs(SYMPY[outer.var], series_to_sympy(inner))
                _assert_series_equal(outer.compose(inner), _sympy_series(expected, X, order))
            p = random_poly(rng, [LAM, U], terms=4, top=3)
            value = random_series(rng, X, order)
            expected = to_sympy(p).subs(SYMPY[U], series_to_sympy(value))
            _assert_series_equal(substitute_series(p, U, value), _sympy_series(expected, X, order))
