"""Closed-form and recurrence routes for the named number and polynomial
families: factorials, derangement numbers, the fixed-point generating
polynomials f_n, Charlier/Bell/Hermite polynomials, Stirling numbers of the
second kind, and the bivariate family Q_{n,m}.

Each family that matters has at least two independent computation routes;
route agreement is part of the test suite, with the exhaustive generators
in `enumeration` as the final arbiter at small n.

Every index is an int (not a bool) >= 0, checked by `polynomial.check_index`
on the path that computes.  A cached entry point checks in its body, so only
a miss pays: lru_cache keys a lone int by itself and 2.0 or True by a
1-tuple, and stirling2, zero at a negative index, has a typed cache.  The
two-index caches of q_poly match (1.0, 1) to (1, 1), so it checks in front.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

from .polynomial import Polynomial, Scalar, as_poly, check_index, powers
from .symbols import LAM, U, alpha, lam, mu, u


def factorial(n: int) -> int:
    check_index(n, "factorial index n")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient of two ints, 0 outside 0 <= k <= n."""
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"binomial indices must be ints, got ({n!r}, {k!r})")
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


# Each recurrence grows a table (D_0, D_1, ... here) one step per new index
# and never recomputes it, with no recursion.  Where the recurrence adds a
# power of a linear form, a second table carries that power for the last
# row, so a step costs one product by the linear form rather than a `**`:
# a cold call at any n and an ascending range of calls both cost O(n) such
# steps in total.  The lru_cache entry points in front of the tables answer
# repeated calls.
def _grow_only(*tables: list, typed: bool = False):
    """Put an lru_cache entry point, typed or not, in front of the grow-only
    `tables` it owns.  Its cache_clear() also puts each table back to its seed
    entries, so a cleared cache is cold all the way down and gives back the
    tables' memory."""
    seeds = [list(table) for table in tables]

    def wrap(fn):
        cached = lru_cache(maxsize=None, typed=typed)(fn)
        clear_lru = cached.cache_clear

        def cache_clear() -> None:
            clear_lru()
            for table, seed in zip(tables, seeds):
                table[:] = seed

        cached.cache_clear = cache_clear
        return cached

    return wrap


_DERANGEMENTS = [1]


@_grow_only(_DERANGEMENTS)
def derangement(n: int) -> int:
    """Number of permutations of [n] without fixed points."""
    check_index(n, "derangement index n")
    d = _DERANGEMENTS
    while len(d) <= n:
        k = len(d)
        d.append(k * d[-1] + (-1) ** k)
    return d[n]


LAMBDA_FACTORIAL_ROUTES = (
    "binomial-1.0b",
    "derangement-1.0e",
    "recurrence-1.0c",
)

# f_0, f_1, ...; _LAMBDA_POWER[0] is (λ-1)^k for the last index k.
_LAMBDA_FACTORIALS = [Polynomial.one()]
_LAMBDA_POWER = [Polynomial.one()]


@_grow_only(_LAMBDA_FACTORIALS, _LAMBDA_POWER)
def _lambda_factorial_recurrence(n: int) -> Polynomial:
    check_index(n, "lambda_factorial index n")
    f = _LAMBDA_FACTORIALS
    if len(f) <= n:
        l1 = lam - 1
        power = _LAMBDA_POWER[0]
        while len(f) <= n:
            k = len(f)
            power = power * l1
            f.append(f[-1] * k + power)
            _LAMBDA_POWER[0] = power
    return f[n]


def lambda_factorial(n: int, route: str = "recurrence-1.0c") -> Polynomial:
    """The polynomial f_n = sum over permutations of [n] of λ^(fixed points).

    Routes: the k!-binomial expansion, the derangement-number expansion,
    and the first-order recurrence.  All routes agree with each other and,
    for n <= 8, with enumeration.oracle_polynomials; tests enforce it.
    """
    if route == "recurrence-1.0c":
        return _lambda_factorial_recurrence(n)
    check_index(n, "lambda_factorial index n")
    if route == "binomial-1.0b":
        return sum(
            (power * (binomial(n, k) * factorial(k))
             for k, power in zip(range(n, -1, -1), powers(lam - 1))),
            Polynomial.zero(),
        )
    if route == "derangement-1.0e":
        return sum(
            (lam ** (n - k) * (binomial(n, k) * derangement(k)) for k in range(n + 1)),
            Polynomial.zero(),
        )
    raise ValueError(f"unknown route {route!r}; expected one of {LAMBDA_FACTORIAL_ROUTES}")


def rising_factorial(base: Polynomial | Scalar, k: int) -> Polynomial:
    """base * (base+1) * ... * (base+k-1); the empty product is 1."""
    check_index(k, "rising_factorial length k")
    base = as_poly(base)
    out = Polynomial.one()
    for j in range(k):
        out = out * (base + j)
    return out


@lru_cache(maxsize=None)
def charlier(n: int) -> Polynomial:
    """Charlier polynomial in α and u: sum C(n,k) (α)_k u^(n-k)."""
    check_index(n, "charlier index n")
    acc = Polynomial.zero()
    rising = Polynomial.one()  # (α)_k, one product from (α)_(k-1)
    for k in range(n + 1):
        if k:
            rising = rising * (alpha + (k - 1))
        acc = acc + rising * u ** (n - k) * binomial(n, k)
    return acc


_BELL_POLYS = [Polynomial.one()]


@_grow_only(_BELL_POLYS)
def bell_poly(n: int) -> Polynomial:
    """Set-partition block-count polynomial in u, via B' recurrence."""
    check_index(n, "bell_poly index n")
    b = _BELL_POLYS
    while len(b) <= n:
        b.append(u * b[-1] + u * b[-1].derivative(U))
    return b[n]


def bell_number(n: int) -> int:
    return int(bell_poly(n).evaluate({U: 1}))


_HERMITE_POLYS = [Polynomial.one()]


@_grow_only(_HERMITE_POLYS)
def hermite_poly(n: int) -> Polynomial:
    """Involution fixed-point polynomial in u, via H' recurrence."""
    check_index(n, "hermite_poly index n")
    h = _HERMITE_POLYS
    while len(h) <= n:
        h.append(u * h[-1] + h[-1].derivative(U))
    return h[n]


def involution_number(n: int) -> int:
    return int(hermite_poly(n).evaluate({U: 1}))


def matching_number(n: int) -> int:
    return int(hermite_poly(n).evaluate({U: 0}))


# The sequences a_n offered to the Theorem 1.2 transform, by name.
ABEL_FAMILIES: dict[str, Callable[[int], Polynomial]] = {
    "ones": lambda n: Polynomial.one(),
    "factorial": lambda n: Polynomial.constant(factorial(n)),
    "derangement": lambda n: Polynomial.constant(derangement(n)),
    "bell": bell_poly,
    "hermite": hermite_poly,
    "charlier": charlier,
}


# Column j holds S(0, j), S(1, j), ...; a call extends columns 0..k to row n.
_STIRLING2_COLUMNS: list[list[int]] = []


@_grow_only(_STIRLING2_COLUMNS, typed=True)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind; zero outside 0 <= k <= n."""
    for index, name in ((n, "n"), (k, "k")):  # ints only; a negative one gives 0
        if type(index) is not int:
            check_index(index, f"stirling2 index {name}")
    if n < 0 or k < 0 or k > n:
        return 0
    cols = _STIRLING2_COLUMNS
    while len(cols) <= k:
        cols.append([int(not cols)])  # S(0, 0) = 1, S(0, j) = 0 for j > 0
    for j in range(k + 1):
        col = cols[j]
        while len(col) <= n:
            i = len(col)
            col.append(j * col[i - 1] + (cols[j - 1][i - 1] if j else 0))
    return cols[k][n]


Q_POLY_ROUTES = (
    "definition-sum",
    "recurrence-5.1",
    "explicit-double-sum",
    "lemma-5.4",
)


# Column j holds Q_{0,j}, Q_{1,j}, ...; _Q_POWERS[j] is (λ-1)^j (λ+μ-1)^i
# for the last row i of column j.  A call extends columns 0..m to row n.
_Q_COLUMNS: list[list[Polynomial]] = []
_Q_POWERS: list[Polynomial] = []


@_grow_only(_Q_COLUMNS, _Q_POWERS)
def _q_recurrence(n: int, m: int) -> Polynomial:
    cols, powers = _Q_COLUMNS, _Q_POWERS
    if len(cols) <= m or len(cols[m]) <= n:
        lm1 = lam + mu - 1
        for j in range(m + 1):
            if j == len(cols):
                power = (lam - 1) ** j
                cols.append([power + cols[j - 1][0] * j if j else power])
                powers.append(power)
            col, power = cols[j], powers[j]
            while len(col) <= n:
                i = len(col)
                power = power * lm1
                acc = power + col[i - 1] * i
                if j:
                    acc = acc + cols[j - 1][i] * j
                col.append(acc)
                powers[j] = power
    return cols[m][n]


@lru_cache(maxsize=None)
def _q_definition(n: int, m: int) -> Polynomial:
    """The definition route of q_poly, cached: the catalogue asks for most
    (n, m) many times over, and the other routes once per point."""
    return sum((lambda_factorial(k + m) * mu ** (n - k) * binomial(n, k)
                for k in range(n + 1)), Polynomial.zero())


def q_poly(n: int, m: int, route: str = "definition-sum") -> Polynomial:
    """The bivariate family Q_{n,m} in λ and μ.

    Definition route: sum C(n,k) f_{k+m}(λ) μ^(n-k).  The other routes are
    the two-index recurrence, the explicit double sum, and the reduction to
    a convolution of f values; all four agree.
    """
    if type(n) is not int or type(m) is not int or n < 0 or m < 0:
        check_index(n, "q_poly index n")
        check_index(m, "q_poly index m")
    if route == "recurrence-5.1":
        return _q_recurrence(n, m)
    if route == "definition-sum":
        return _q_definition(n, m)
    if route == "explicit-double-sum":
        acc = Polynomial.zero()
        l1_powers = list(zip(range(m, -1, -1), powers(lam - 1)))
        for k, lm1_power in zip(range(n, -1, -1), powers(lam + mu - 1)):
            for j, l1_power in l1_powers:
                c = binomial(n, k) * binomial(m, j) * factorial(k + j)
                acc = acc + lm1_power * l1_power * c
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
