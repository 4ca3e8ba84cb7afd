"""Closed-form and recurrence routes for the named number and polynomial
families: factorials, derangement numbers, the fixed-point generating
polynomials f_n, Charlier/Bell/Hermite polynomials, Stirling numbers of the
second kind, and the bivariate family Q_{n,m}.

Each family that matters has at least two independent computation routes;
route agreement is part of the test suite, with the exhaustive generators
in `enumeration` as the final arbiter at small n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import enumeration
from .polynomial import Polynomial, Scalar
from .symbols import ALPHA, LAM, MU, U


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial needs n >= 0")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient, 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


# D_0, D_1, ...: grown, never recomputed, so a cold call at any n and an
# ascending range of calls both cost O(n) steps in total.
_DERANGEMENTS = [1]


@lru_cache(maxsize=None)
def derangement(n: int) -> int:
    """Number of permutations of [n] without fixed points."""
    if n < 0:
        raise ValueError("derangement needs n >= 0")
    d = _DERANGEMENTS
    while len(d) <= n:
        k = len(d)
        d.append(k * d[-1] + (-1) ** k)
    return d[n]


LAMBDA_FACTORIAL_ROUTES = (
    "definition-enumeration",
    "binomial-1.0b",
    "derangement-1.0e",
    "recurrence-1.0c",
)

ENUMERATION_CUTOFF = 8


@lru_cache(maxsize=None)
def _lambda_factorial_recurrence(n: int) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    lam = Polynomial.variable(LAM)
    return _lambda_factorial_recurrence(n - 1) * n + (lam - 1) ** n


def lambda_factorial(n: int, route: str = "recurrence-1.0c") -> Polynomial:
    """The polynomial f_n = sum over permutations of [n] of λ^(fixed points).

    Routes: direct enumeration (n <= 8), the k!-binomial expansion, the
    derangement-number expansion, and the first-order recurrence.  All
    routes agree; tests enforce it.
    """
    if n < 0:
        raise ValueError("lambda_factorial needs n >= 0")
    if route == "recurrence-1.0c":
        return _lambda_factorial_recurrence(n)
    lam = Polynomial.variable(LAM)
    if route == "binomial-1.0b":
        return sum(
            ((lam - 1) ** (n - k) * (binomial(n, k) * factorial(k)) for k in range(n + 1)),
            Polynomial.zero(),
        )
    if route == "derangement-1.0e":
        return sum(
            (lam ** (n - k) * (binomial(n, k) * derangement(k)) for k in range(n + 1)),
            Polynomial.zero(),
        )
    if route == "definition-enumeration":
        if n > ENUMERATION_CUTOFF:
            raise ValueError(
                f"enumeration route supports n <= {ENUMERATION_CUTOFF}, got {n}"
            )
        acc = Polynomial.zero()
        for _, fix in enumeration.permutations_with_fix(n):
            acc = acc + lam ** fix
        return acc
    raise ValueError(f"unknown route {route!r}; expected one of {LAMBDA_FACTORIAL_ROUTES}")


def lambda_factorial_at(n: int, value: Scalar) -> Fraction:
    """f_n evaluated at a concrete point."""
    return lambda_factorial(n).evaluate({LAM: value})


def rising_factorial(base: Polynomial | Scalar, k: int) -> Polynomial:
    """base * (base+1) * ... * (base+k-1); the empty product is 1."""
    if k < 0:
        raise ValueError("rising_factorial needs k >= 0")
    base = base if isinstance(base, Polynomial) else Polynomial.constant(base)
    out = Polynomial.one()
    for j in range(k):
        out = out * (base + j)
    return out


@lru_cache(maxsize=None)
def charlier(n: int) -> Polynomial:
    """Charlier polynomial in α and u: sum C(n,k) (α)_k u^(n-k)."""
    if n < 0:
        raise ValueError("charlier needs n >= 0")
    alpha = Polynomial.variable(ALPHA)
    u = Polynomial.variable(U)
    acc = Polynomial.zero()
    for k in range(n + 1):
        acc = acc + rising_factorial(alpha, k) * u ** (n - k) * binomial(n, k)
    return acc


@lru_cache(maxsize=None)
def bell_poly(n: int) -> Polynomial:
    """Set-partition block-count polynomial in u, via B' recurrence."""
    if n < 0:
        raise ValueError("bell_poly needs n >= 0")
    if n == 0:
        return Polynomial.one()
    u = Polynomial.variable(U)
    prev = bell_poly(n - 1)
    return u * prev + u * prev.derivative(U)


def bell_number(n: int) -> int:
    return int(bell_poly(n).evaluate({U: 1}))


@lru_cache(maxsize=None)
def hermite_poly(n: int) -> Polynomial:
    """Involution fixed-point polynomial in u, via H' recurrence."""
    if n < 0:
        raise ValueError("hermite_poly needs n >= 0")
    if n == 0:
        return Polynomial.one()
    u = Polynomial.variable(U)
    prev = hermite_poly(n - 1)
    return u * prev + prev.derivative(U)


def involution_number(n: int) -> int:
    return int(hermite_poly(n).evaluate({U: 1}))


def matching_number(n: int) -> int:
    return int(hermite_poly(n).evaluate({U: 0}))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind; zero outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1  # k == 0 here
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


Q_POLY_ROUTES = (
    "definition-sum",
    "recurrence-5.1",
    "explicit-double-sum",
    "lemma-5.4",
)


@lru_cache(maxsize=None)
def _q_recurrence(n: int, m: int) -> Polynomial:
    if n < 0 or m < 0:
        return Polynomial.zero()
    lam = Polynomial.variable(LAM)
    mu = Polynomial.variable(MU)
    acc = (lam - 1) ** m * (lam + mu - 1) ** n
    if n:
        acc = acc + _q_recurrence(n - 1, m) * n
    if m:
        acc = acc + _q_recurrence(n, m - 1) * m
    return acc


def q_poly(n: int, m: int, route: str = "definition-sum") -> Polynomial:
    """The bivariate family Q_{n,m} in λ and μ.

    Definition route: sum C(n,k) f_{k+m}(λ) μ^(n-k).  The other routes are
    the two-index recurrence, the explicit double sum, and the reduction to
    a convolution of f values; all four agree.
    """
    if n < 0 or m < 0:
        raise ValueError("q_poly needs n, m >= 0")
    if route == "recurrence-5.1":
        return _q_recurrence(n, m)
    mu = Polynomial.variable(MU)
    if route == "definition-sum":
        acc = Polynomial.zero()
        for k in range(n + 1):
            acc = acc + lambda_factorial(k + m) * mu ** (n - k) * binomial(n, k)
        return acc
    lam = Polynomial.variable(LAM)
    if route == "explicit-double-sum":
        acc = Polynomial.zero()
        lm1 = lam + mu - 1
        l1 = lam - 1
        for k in range(n + 1):
            for j in range(m + 1):
                c = binomial(n, k) * binomial(m, j) * factorial(k + j)
                acc = acc + lm1 ** (n - k) * l1 ** (m - j) * c
        return acc
    if route == "lemma-5.4":
        acc = lambda_factorial(n).substitute(LAM, lam + mu) * (lam - 1) ** m
        if m:
            conv = Polynomial.zero()
            for k in range(n + 1):
                fk = lambda_factorial(k + m - 1)
                fn_k = lambda_factorial(n - k).substitute(LAM, mu + 1)
                conv = conv + fk * fn_k * binomial(n, k)
            acc = acc + conv * m
        return acc
    raise ValueError(f"unknown route {route!r}; expected one of {Q_POLY_ROUTES}")
