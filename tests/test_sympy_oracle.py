"""Differential tests of the sequence families against sympy, an independent
implementation; skipped where sympy is not installed."""

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from lambdafact import sequences as seq  # noqa: E402
from lambdafact.symbols import LAM  # noqa: E402


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
