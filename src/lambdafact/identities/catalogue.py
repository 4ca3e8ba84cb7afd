"""The catalogue of verifiable identities.

Every entry computes both sides of one identity exactly, at one parameter
point, and returns the residual (left minus right).  Identities polynomial
in the parameters are checked with those parameters as genuine
indeterminates, never by sampling, so one check per n covers all values.
Series identities are checked to an explicit truncation order.

Most checks are rows of one of three kinds:

- transform rows (λ, left side, closed form of A^(k)(-kx)) behind the
  Theorem 1.2 kernel `series.abel_sum`;
- convolution rows (term, closed form) behind `binomial_convolution`, the
  sum over k of C(n-lo, k-lo) term(n, k) against a closed form in n;
- sweeps, which report the first nonzero residual over a range of a second
  index; a sweep over an empty range is an error, never a pass.

Only one side of a row goes through its kernel.  Were both sides to use it,
a defect in the kernel could cancel in the residual and the row would still
pass.  Sums over k on the right of a series identity are truncated at the
series order; this is exact because term k is x^k times a series, so term
k is built only to order N-k and `shifted_sum` (behind `abel_sum`) applies
the shift itself.  The registry is one table of (id, summary, check, point
spec) rows.  A check does no validation of its own: `verify` admits only
points of the row's spec.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple

from ..polynomial import Polynomial, dot, powers
from ..series import (
    TruncatedSeries,
    abel_rhs,
    abel_sum,
    binomial_power,
    exp_series,
    exp_truncated,
    geometric,
    mul_truncated,
    shifted_sum,
    substitute_series,
    tree_function,
)
from ..sequences import (
    ABEL_FAMILIES as _A_FAMILIES,
    bell_number,
    bell_poly,
    binomial,
    charlier,
    derangement,
    factorial,
    hermite_poly,
    involution_number,
    lambda_factorial,
    matching_number,
    q_poly,
    rising_factorial,
    stirling2,
)
from ..symbols import ALPHA, LAM, MU, T, U, X
from ..symbols import D as _D, a as _a, alpha as _alpha, b as _b, beta as _beta
from ..symbols import lam as _lam, mu as _mu, t as _t, u as _u, v as _v, x as _x
from .report import IdentityReport, Residual
from .umbral import umbral_eval

_ZERO = Polynomial.zero()


def _f_at(n: int, value: Polynomial | int) -> Polynomial:
    return lambda_factorial(n).substitute(LAM, value)


def _sum_to(n: int, term: Callable[[int], Polynomial]) -> Polynomial:
    """term(0) + ... + term(n)."""
    return sum((term(k) for k in range(n + 1)), _ZERO)


def binomial_convolution(n: int, term: Callable[[int], Polynomial | int],
                         lo: int = 0) -> Polynomial:
    """The convolution kernel: the sum of C(n-lo, k-lo) term(k), k = lo..n."""
    return sum((term(k) * binomial(n - lo, k - lo) for k in range(lo, n + 1)), _ZERO)


def _convolution(term: Callable[[int, int], Polynomial | int],
                 closed: Callable[[int], Polynomial | int], lo: int = 0):
    """The check of a convolution row: n -> the kernel over term(n, k), minus
    closed(n).  The closed side never goes through the kernel."""
    return lambda n: binomial_convolution(n, lambda k: term(n, k), lo) - closed(n)


_EMPTY_SWEEP = "empty sweep: no residual to check"


def _first_nonzero(residuals: Iterable[Polynomial]) -> Polynomial:
    """The first nonzero residual, else zero; no residual at all is an error."""
    r = None
    for r in residuals:
        if not r.is_zero:
            return r
    if r is None:
        raise ValueError(_EMPTY_SWEEP)
    return _ZERO


def _sweep(residual: Callable[[int, int], Polynomial]):
    """The check (n, m_hi) -> the first nonzero residual(n, m), m = 0..m_hi."""
    return lambda n, m_hi: _first_nonzero(residual(n, m) for m in range(m_hi + 1))


# ---------------------------------------------------------------------------
# fixed-point polynomial basics
# ---------------------------------------------------------------------------


_check_1_0a = _convolution(lambda n, k: lambda_factorial(k) * _mu ** (n - k),
                           lambda n: _f_at(n, _lam + _mu))


def _check_1_0b(n: int) -> Polynomial:
    return lambda_factorial(n, "recurrence-1.0c") - lambda_factorial(n, "binomial-1.0b")


def _check_1_0c(n: int) -> Polynomial:
    return lambda_factorial(n) - (lambda_factorial(n - 1) * n + (_lam - 1) ** n)


def _check_1_0d(n: int) -> Polynomial:
    return lambda_factorial(n).derivative(LAM) - lambda_factorial(n - 1) * n


def _check_1_0e(n: int) -> Polynomial:
    return lambda_factorial(n, "recurrence-1.0c") - lambda_factorial(n, "derangement-1.0e")


def _check_charlier_spec(n: int) -> Polynomial:
    rhs = charlier(n).substitute(ALPHA, 1).substitute(U, _lam - 1)
    return lambda_factorial(n) - rhs


def _check_charlier_recurrence(n: int) -> Polynomial:
    lhs = charlier(n + 1)
    rhs = _alpha * charlier(n).substitute(ALPHA, _alpha + 1) + _u * charlier(n)
    return lhs - rhs


_check_riordan = _convolution(lambda n, k: factorial(k + 1) * (n + 1) ** (n - k),
                              lambda n: (n + 1) ** (n + 1))
_check_sunxu = _convolution(lambda n, k: derangement(k + 1) * (n + 1) ** (n - k),
                            lambda n: n ** (n + 1))
_check_thm11 = _convolution(lambda n, k: lambda_factorial(k + 1) * (n + 1) ** (n - k),
                            lambda n: (_lam + n) ** (n + 1))


# ---------------------------------------------------------------------------
# tree series and the exponential generating function of f
# ---------------------------------------------------------------------------


def _check_2_1(n: int) -> Polynomial:
    y = tree_function(n)
    return _first_nonzero(
        power.coefficient(n) * Fraction(factorial(n), factorial(k))
        - binomial(n - 1, k - 1) * n ** (n - k)
        for k, power in zip(range(1, n + 1), islice(powers(y), 1, None))
    )


def _check_2_2(n: int) -> Polynomial:
    y = tree_function(n)
    ser = (y * _lam).exp() * (1 - y).reciprocal()
    return ser.egf_coefficient(n) - (_lam + n) ** n


def _check_2_3(n: int) -> Polynomial:
    ser = exp_series(_lam - 1, T, n) * geometric(T, n)
    return ser.egf_coefficient(n) - lambda_factorial(n, "binomial-1.0b")


_check_2_3a = _convolution(lambda n, k: lambda_factorial(k) * n ** (n - k),
                           lambda n: (_lam + (n - 1)) ** n, lo=1)


def _check_2_4(n: int) -> Polynomial:
    return umbral_eval((_D + _lam) ** n) - lambda_factorial(n)


# ---------------------------------------------------------------------------
# the one-parameter binomial extension and the shifted-derivative transform
# ---------------------------------------------------------------------------


# Abel's binomial identity; the k = 0 factor a(a - k t)^(k-1) is 1 by convention.
_check_3_1 = _convolution(
    lambda n, k: (_a * (_a - _t * k) ** (k - 1) if k else 1) * (_b + _t * k) ** (n - k),
    lambda n: (_a + _b) ** n)


def _check_3_2(a_kind: str, order: int) -> TruncatedSeries:
    """A(a) = sum over k of a(a - kt)^(k-1)/k! A^(k)(kt), with a and t each
    carrying one power of the series variable x: the order is the total
    degree in a and t, and summand k is x^k times A^(k)(ktx) to order N-k."""
    if a_kind == "exp":  # A^(k)(y) = exp(y)
        lhs = exp_series(_a, X, order)
        derivative = lambda k: exp_series(_t * k, X, order - k)
    else:  # "geometric": A^(k)(y) = k!/(1 - y)^(k+1)
        lhs = geometric(X, order).rescale(_a)
        derivative = lambda k: binomial_power(-_t * k, -(k + 1), order - k) * factorial(k)
    return lhs - shifted_sum(lambda k: derivative(k) * (
        _a * (_a - _t * k) ** (k - 1) / math.factorial(k) if k else 1), order)


def _check_3_3(n: int) -> Polynomial:
    lhs = umbral_eval((_D + _lam) * (_D + _lam + (n + 1)) ** n)
    return lhs - (_lam + n) ** (n + 1)


def _check_thm12(family: str, order: int, variant: str = "egf") -> TruncatedSeries:
    a = _A_FAMILIES[family]
    if variant == "egf":
        lhs = TruncatedSeries.egf(lambda n: a(n) * lambda_factorial(n), X, order)
        return lhs - abel_rhs(a, _lam, order)
    lhs = TruncatedSeries.ogf(a, X, order)  # "ogf-lambda-1"
    return lhs - abel_rhs(a, 1, order)


def _charlier_egf(order: int, extra_exponent: Polynomial | int = 0) -> TruncatedSeries:
    return exp_series(_u, X, order) * binomial_power(-1, -(_alpha + extra_exponent), order)


def _check_charlier_deriv(k: int, order: int) -> TruncatedSeries:
    route1 = _charlier_egf(order + k)
    for _ in range(k):
        route1 = route1.derivative()
    shrunk = substitute_series(
        charlier(k), U, TruncatedSeries(X, [_u, -_u], order)
    )  # second argument u(1-x)
    route2 = shrunk * _charlier_egf(order, extra_exponent=k)
    return route1 - route2


# Closed forms of A^(k)(-kx), the k-th derivative of the EGF A of n -> a(m+n)
# taken at -kx, as functions of (k, m, order).  Theorem 1.2 turns each into
# the right side of a transform row.


def _charlier_closed(k: int, m: int, order: int) -> TruncatedSeries:
    # C_{m+k}(α, u(1+kx)) e^{-ukx} (1+kx)^{-(α+m+k)}
    inner = TruncatedSeries(X, [_u, _u * k], order)
    csub = substitute_series(charlier(m + k), U, inner)
    tail = binomial_power(k, -(_alpha + (m + k)), order)
    return csub * exp_series(-_u * k, X, order) * tail


def _f_closed(mu):
    # f_{m+k}(1+(μ-1)(1+kx)) e^{-(μ-1)kx} (1+kx)^{-(m+k+1)}
    def closed(k: int, m: int, order: int) -> TruncatedSeries:
        inner = TruncatedSeries(X, [mu, (mu - 1) * k], order)
        fsub = substitute_series(lambda_factorial(m + k), LAM, inner)
        tail = binomial_power(k, -(m + k + 1), order)
        return fsub * exp_series(-(mu - 1) * k, X, order) * tail

    return closed


def _factorial_closed(k: int, m: int, order: int) -> TruncatedSeries:
    # (m+k)! (1+kx)^{-(m+k+1)}
    return binomial_power(k, -(m + k + 1), order) * factorial(m + k)


def _bell_closed(u):
    # B_{m+k}(u e^{-kx}) exp(u(e^{-kx} - 1))
    def closed(k: int, m: int, order: int) -> TruncatedSeries:
        decay = exp_series(-k, X, order)
        bsub = substitute_series(bell_poly(m + k), U, decay * u)
        return bsub * ((decay - 1) * u).exp()

    return closed


def _hermite_closed(u):
    # H_{m+k}(u - kx) exp(-ukx + k^2 x^2/2)
    def closed(k: int, m: int, order: int) -> TruncatedSeries:
        inner = TruncatedSeries(X, [u, -k], order)
        hsub = substitute_series(hermite_poly(m + k), U, inner)
        gauss = TruncatedSeries(X, [0, -u * k, Fraction(k * k, 2)], order).exp()
        return hsub * gauss

    return closed


def _egf_f(a: Callable[[int], Polynomial]):
    # The left side a(m+n) f_n(λ)/n! of a row at symbolic λ.
    return lambda n, m: a(m + n) * lambda_factorial(n) / factorial(n)


def _transform(rows: dict) -> Callable[..., TruncatedSeries]:
    """The check for transform rows {variant: (λ, lhs, closed)}: the series
    with coefficients lhs(n, m), minus Theorem 1.2 at λ applied to the closed
    form closed(k, m, order) of A^(k)(-kx).  The left side comes from its own
    sequence route, never from the closed form's family."""

    def check(order: int, m: int = 0, variant: str | None = None) -> TruncatedSeries:
        lam, lhs, closed = rows[variant]
        left = TruncatedSeries.ogf(lambda n: lhs(n, m), X, order)
        return left - abel_sum(lam, lambda k: closed(k, m, order - k), order)

    return check


_check_3_4 = _transform({None: (_lam, _egf_f(charlier), _charlier_closed)})
_check_3_6 = _transform({
    None: (0, lambda n, m: Fraction(derangement(m + n) * derangement(n), factorial(n)),
           _f_closed(0)),
})
_check_3_7 = _transform({
    "f-ogf": (1, lambda n, m: _f_at(m + n, _mu), _f_closed(_mu)),
    "derangement-ogf": (1, lambda n, m: derangement(m + n), _f_closed(0)),
})
_check_3_7_1 = _transform({
    "shifted-factorial": (1, lambda n, m: factorial(m + n), _factorial_closed),
    "f-ogf": (_lam, lambda n, m: lambda_factorial(n) * math.perm(m + n, m),
              _factorial_closed),
})
_check_bell_transform = _transform({None: (_lam, _egf_f(bell_poly), _bell_closed(_u))})
_check_3_8 = _transform({None: (1, lambda n, m: bell_number(m + n), _bell_closed(1))})
_check_3_9 = _transform({
    "bilinear": (_lam, _egf_f(hermite_poly), _hermite_closed(_u)),
    "involution-ogf": (1, lambda n, m: involution_number(m + n), _hermite_closed(1)),
    "matching-ogf": (1, lambda n, m: matching_number(m + n), _hermite_closed(0)),
})


def _check_gessel(variant: str, order: int) -> TruncatedSeries:
    if variant == "bilinear":
        def pair(n: int) -> Polynomial:
            second = charlier(n).substitute(ALPHA, _beta).substitute(U, _v)
            return charlier(n) * second

        lhs = TruncatedSeries.egf(pair, X, order)

        def term(k: int) -> TruncatedSeries:
            pre = rising_factorial(_alpha, k) * rising_factorial(_beta, k) / math.factorial(k)
            left = binomial_power(-_v, -(_alpha + k), order - k)
            return left * binomial_power(-_u, -(_beta + k), order - k) * pre

        rhs = exp_series(_u * _v, X, order) * shifted_sum(term, order)
        return lhs - rhs

    lhs = TruncatedSeries.egf(  # variant "derangement"
        lambda n: Polynomial.constant(derangement(n) ** 2), X, order)
    rhs = exp_series(1, X, order) * shifted_sum(
        lambda k: binomial_power(1, -(2 * k + 2), order - k) * factorial(k), order)
    return lhs - rhs


def _check_chz(order: int) -> TruncatedSeries:
    lhs = TruncatedSeries.ogf(lambda n: _f_at(n, _mu), X, order)
    return lhs - shifted_sum(
        lambda k: binomial_power(-(_mu - 1), -(k + 1), order - k) * factorial(k), order)


# ---------------------------------------------------------------------------
# two-parameter convolution identities
# ---------------------------------------------------------------------------


_check_4_1 = _convolution(
    lambda n, k: lambda_factorial(k) * (_mu + (k - n)) * _mu ** (n - k),
    lambda n: _mu * (_lam + _mu - 1) ** n)
_check_4_2 = _convolution(
    lambda n, k: lambda_factorial(k) * _f_at(n - k, _mu + 1),
    lambda n: (_lam + _mu - 1) ** (n + 1)
    + (n + 2 - _lam - _mu) * _f_at(n, _lam + _mu))
_check_cor_selfdual = _convolution(
    lambda n, k: lambda_factorial(k) * _f_at(n - k, n + 3 - _lam),
    lambda n: (n + 1) ** (n + 1))
# The Abel-type sums of 4.3, difference and 4.3a are their kernel side.
_check_4_3 = _convolution(lambda n, k: (_lam + k) ** k * (_mu - (k + 1)) ** (n - k),
                          lambda n: _f_at(n, _lam + _mu))
_check_difference = _convolution(lambda n, k: (_lam + k) ** n * (-1) ** (n - k),
                                 factorial)
_alternating_derangement = _convolution(
    lambda n, k: (_lam + k) ** k * (_lam + (k + 1)) ** (n - k) * (-1) ** (n - k),
    derangement)


def _check_4_3a(n: int, at: int | None = None) -> Polynomial:
    residual = _alternating_derangement(n)
    return residual if at is None else residual.substitute(LAM, at)


def _rhs_4_4(n: int) -> Polynomial:
    # The k = n factor (μ-(n+1))(μ-k-1)^(n-k-1) is 1 by convention.
    return (_lam + n) ** (n + 1) + _sum_to(
        n - 1, lambda k: (_lam + k) ** (k + 1) * (_mu - (n + 1))
        * (_mu - (k + 1)) ** (n - k - 1) * binomial(n, k))


_check_4_4 = _convolution(lambda n, k: lambda_factorial(k + 1) * _mu ** (n - k),
                          _rhs_4_4)
_check_4_5 = _convolution(
    lambda n, k: lambda_factorial(k + 1) * _f_at(n - k, _mu + 1),
    lambda n: _sum_to(n, lambda k: (_lam + k) ** (k + 1) * (_mu - (k + 1)) ** (n - k)
                      * binomial(n, k)))


def _check_remark_mu(n: int) -> Polynomial:
    # At μ = n+1 the right side collapses to the tree-count convolution value.
    return _rhs_4_4(n).substitute(MU, n + 1) - (_lam + n) ** (n + 1)


@_sweep
def _check_stirling_difference(n: int, m: int) -> Polynomial:
    lhs = binomial_convolution(n, lambda k: (_lam + k) ** m * (-1) ** (n - k))
    rhs = _ZERO
    for k in range(n, m + 1):
        coeff = (-1) ** k * stirling2(m, k)
        rhs = rhs + rising_factorial(-k, n) * rising_factorial(-_lam, k - n) * coeff
    return lhs - rhs


_COR_N_FACTORIAL = {
    "plain": _convolution(
        lambda n, k: lambda_factorial(k + 1) * (1 - _lam) ** (n - k),
        lambda n: (_lam + n) * factorial(n)),
    "convolved": _convolution(
        lambda n, k: lambda_factorial(k + 1) * _f_at(n - k, 2 - _lam),
        lambda n: (_lam + Fraction(n, 2)) * factorial(n + 1)),
}
_check_cor_n_factorial = lambda n, variant: _COR_N_FACTORIAL[variant](n)


# ---------------------------------------------------------------------------
# the bivariate family
# ---------------------------------------------------------------------------


@_sweep
def _check_5_1(n: int, m: int) -> Polynomial:
    rhs = (_lam - 1) ** m * (_lam + _mu - 1) ** n
    if n:
        rhs = rhs + q_poly(n - 1, m) * n
    if m:
        rhs = rhs + q_poly(n, m - 1) * m
    return q_poly(n, m, "recurrence-5.1") - rhs


def _check_5_2(order: int) -> Polynomial:
    """The generating function to the total degree order in t and x."""
    syms = (T, X)
    lhs = dot(
        (q_poly(n, m) / (factorial(n) * factorial(m)), _t ** n * _x ** m)
        for n in range(order + 1)
        for m in range(order + 1 - n)
    )
    # exp((λ+μ-1)t + (λ-1)x) / (1 - t - x), the geometric factor to the cap.
    growth = exp_truncated((_lam + _mu - 1) * _t + (_lam - 1) * _x, syms, order)
    geometric = _sum_to(order, lambda j: (_t + _x) ** j)
    return lhs - mul_truncated(growth, geometric, syms, order)


_check_q_second = _sweep(
    lambda n, m: q_poly(n + 1, m) - q_poly(n, m + 1) - _mu * q_poly(n, m))


def _check_q_diag(n: int) -> Polynomial:
    lhs = binomial_convolution(n, lambda k: q_poly(n - k, k) * _t ** (n - k))
    # (t+1)^n f_n(λ + μt/(t+1)) via homogenization: f_n(a/b) b^n.
    a = _lam * (_t + 1) + _mu * _t
    b = _t + 1
    coeffs = lambda_factorial(n).coefficients_in(LAM)
    rhs = _ZERO
    for i, c in enumerate(coeffs):
        rhs = rhs + c * a ** i * b ** (n - i)
    return lhs - rhs


_check_q_explicit = _sweep(
    lambda n, m: q_poly(n, m, "definition-sum") - q_poly(n, m, "explicit-double-sum"))


@_sweep
def _check_5_3(n: int, m: int) -> Polynomial:
    rhs = (_lam - 1) ** m * _f_at(n, _lam + _mu)
    if m:
        shifted = q_poly(n, m - 1).substitute(MU, _D + _mu + 1)
        rhs = rhs + umbral_eval(shifted) * m
    return q_poly(n, m) - rhs


_check_5_4 = _sweep(
    lambda n, m: q_poly(n, m, "definition-sum") - q_poly(n, m, "lemma-5.4"))
_check_thm_5_2 = _convolution(
    lambda n, k: lambda_factorial(k + 2) * _mu ** (n - k),
    lambda n: _sum_to(n, lambda k: (_lam ** 2 + (2 * k + 1)) * (_lam + k) ** k
                      * (_mu - (k + 1)) ** (n - k) * binomial(n, k)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# A point spec is a tuple of groups.  Each group maps parameter -> axis, in
# the key order of the points it makes, and contributes the product of its
# axes with the first axis varying slowest.  A tuple axis is literal.  A
# range, an int or a function of the point so far is a default, which the
# override knob of its parameter replaces, within the parameter's cap: the
# top of a range, or the value.
_KNOB = {"n": "n_max", "m": "m_max", "m_hi": "m_max", "order": "order"}
_PARAM_CAPS = {"n": 40, "m": 12, "m_hi": 12, "order": 20, "k": 12}


def _values(param: str, axis, knobs: dict, point: dict) -> Iterable:
    if isinstance(axis, tuple):
        return axis
    value = knobs[_KNOB[param]]
    if value is None:
        return axis if isinstance(axis, range) else (axis(point) if callable(axis) else axis,)
    if value > _PARAM_CAPS[param]:  # before a range to the override is built
        raise ValueError(f"{param}={value} beyond the supported cap {_PARAM_CAPS[param]}")
    return range(axis.start, value + 1) if isinstance(axis, range) else (value,)


class Identity(NamedTuple):
    id: str
    summary: str
    check: Callable[..., Residual]
    spec: tuple[dict, ...]

    def points(
        self, n_max: int | None, m_max: int | None, order: int | None
    ) -> list[dict]:
        """The parameter points of the spec under the override knobs, each
        None or an int (not a bool) within the caps; any other is a ValueError."""
        knobs = {"n_max": n_max, "m_max": m_max, "order": order}
        for knob, value in knobs.items():
            if value is not None and type(value) is not int:
                raise ValueError(f"{knob}={value!r} is not an int")
        out: list[dict] = []
        for group in self.spec:
            points: list[dict] = [{}]
            for param, axis in group.items():
                points = [{**p, param: v} for p in points
                          for v in _values(param, axis, knobs, p)]
            out += points
        return out


# Specs shared by several rows: m = 0..3 at order 6, and the Q triangle
# n + m <= 10.
_M_ORDER = ({"m": range(4), "order": 6},)
_Q10 = ({"n": range(11), "m_hi": lambda p: 10 - p["n"]},)

_ROWS = (
    ("1.0a", "binomial shift of the argument of f",
     _check_1_0a, ({"n": range(16)},)),
    ("1.0b", "f as a factorial-kernel binomial sum",
     _check_1_0b, ({"n": range(21)},)),
    ("1.0c", "first-order recurrence for f",
     _check_1_0c, ({"n": range(1, 21)},)),
    ("1.0d", "derivative of f lowers the index",
     _check_1_0d, ({"n": range(1, 13)},)),
    ("1.0e", "f as a derangement-kernel binomial sum",
     _check_1_0e, ({"n": range(16)},)),
    ("charlier-spec", "f is a Charlier polynomial at unit first argument",
     _check_charlier_spec, ({"n": range(11)},)),
    ("charlier-recurrence", "three-term contiguous recurrence for Charlier polynomials",
     _check_charlier_recurrence, ({"n": range(11)},)),
    ("riordan", "factorial convolution with tree counts",
     _check_riordan, ({"n": range(13)},)),
    ("sunxu", "derangement convolution with tree counts",
     _check_sunxu, ({"n": range(13)},)),
    ("thm1.1", "unified convolution of shifted f with tree counts",
     _check_thm11, ({"n": range(16)},)),
    ("2.1", "coefficients of powers of the tree series",
     _check_2_1, ({"n": range(1, 9)},)),
    ("2.2", "exponential of the tree series over its complement",
     _check_2_2, ({"n": range(9)},)),
    ("2.3", "exponential generating function of f",
     _check_2_3, ({"n": range(11)},)),
    ("2.3a", "tree-count convolution equivalent to thm1.1",
     _check_2_3a, ({"n": range(1, 13)},)),
    ("2.4", "umbral closed form of f",
     _check_2_4, ({"n": range(11)},)),
    ("3.1", "one-parameter extension of the binomial theorem",
     _check_3_1, ({"n": range(9)},)),
    ("3.2", "resummation of a generating function by shifted derivatives",
     _check_3_2, ({"a_kind": ("exp", "geometric"), "order": 8},)),
    ("3.3", "umbral form of the tree-count convolution",
     _check_3_3, ({"n": range(11)},)),
    ("thm1.2", "series transform pairing f with shifted derivatives",
     _check_thm12, ({"family": tuple(_A_FAMILIES), "order": 8},
                    {"family": ("factorial",), "variant": ("ogf-lambda-1",), "order": 10})),
    ("charlier-deriv",
     "closed form for derivatives of the Charlier generating function",
     _check_charlier_deriv, ({"k": tuple(range(6)), "order": 6},)),
    ("3.4", "Charlier transform of f",
     _check_3_4, ({"order": 6},)),
    ("3.5", "shifted Charlier transform of f",
     _check_3_4, _M_ORDER),
    ("3.6", "bilinear derangement series",
     _check_3_6, _M_ORDER),
    ("3.7", "ordinary generating functions for shifted f and derangements",
     _check_3_7, ({"m": range(4), "variant": ("f-ogf", "derangement-ogf"), "order": 6},)),
    ("3.7.1", "ordinary generating functions for shifted factorials and for f",
     _check_3_7_1, ({"variant": ("shifted-factorial",), "m": range(4), "order": 8},
                    {"variant": ("f-ogf",), "m": (0,), "order": 8})),
    ("gessel", "bilinear Charlier generating function and its derangement case",
     _check_gessel, ({"variant": ("bilinear",), "order": 5},
                     {"variant": ("derangement",), "order": 8})),
    ("chz", "ordinary generating function of f by a rational kernel",
     _check_chz, ({"order": 8},)),
    ("bell-transform", "Bell-polynomial transform of f",
     _check_bell_transform, _M_ORDER),
    ("3.8", "ordinary generating function for shifted Bell numbers",
     _check_3_8, _M_ORDER),
    ("3.9", "Hermite transform of f and involution/matching generating functions",
     _check_3_9, ({"m": range(4), "variant": ("bilinear", "involution-ogf", "matching-ogf"),
                   "order": 6},)),
    ("4.1", "weighted binomial convolution of f collapses",
     _check_4_1, ({"n": range(13)},)),
    ("4.2", "convolution of f with shifted f",
     _check_4_2, ({"n": range(13)},)),
    ("cor-selfdual", "self-dual convolution of f summing to (n+1)^(n+1)",
     _check_cor_selfdual, ({"n": range(11)},)),
    ("4.3", "explicit two-parameter expansion of f",
     _check_4_3, ({"n": range(13)},)),
    ("difference", "n-th finite difference of the n-th power",
     _check_difference, ({"n": range(13)},)),
    ("4.3a", "alternating closed form for derangement numbers",
     _check_4_3a, ({"n": range(13)}, {"n": range(13), "at": (-1,)})),
    ("4.4", "shifted convolution against a free parameter",
     _check_4_4, ({"n": range(11)},)),
    ("4.5", "doubly shifted convolution of f",
     _check_4_5, ({"n": range(11)},)),
    ("remark-mu", "specialization of the free parameter recovers thm1.1",
     _check_remark_mu, ({"n": range(11)},)),
    ("stirling-difference", "general finite difference via Stirling numbers",
     _check_stirling_difference, ({"n": range(7), "m_hi": 8},)),
    ("cor-n-factorial", "convolutions of shifted f collapsing to factorials",
     _check_cor_n_factorial,
     ({"n": range(13), "variant": ("plain", "convolved")},)),
    ("5.1", "two-index recurrence for Q",
     _check_5_1, _Q10),
    ("5.2", "bivariate exponential generating function of Q",
     _check_5_2, ({"order": 10},)),
    ("q-second", "index-trading recurrence for Q",
     _check_q_second, ({"n": range(10), "m_hi": lambda p: 9 - p["n"]},)),
    ("q-diag", "diagonal substitution identity for Q",
     _check_q_diag, ({"n": range(9)},)),
    ("q-explicit", "explicit double-sum formula for Q",
     _check_q_explicit, _Q10),
    ("5.3", "umbral reduction of Q in its second index",
     _check_5_3, _Q10),
    ("5.4", "convolution reduction of Q in its second index",
     _check_5_4, _Q10),
    ("thm5.2", "doubly shifted convolution expanded explicitly",
     _check_thm_5_2, ({"n": range(11)},)),
)

CATALOGUE: dict[str, Identity] = {row[0]: Identity(*row) for row in _ROWS}


_BELOW_ZERO = {"m_hi": _EMPTY_SWEEP, "order": "truncation order must be >= 0"}


def catalogue_ids() -> tuple[str, ...]:
    return tuple(CATALOGUE)


def _admit(entry: Identity, params: dict) -> None:
    """Raise ValueError unless params names each parameter all groups of the spec
    share and none that no group names, each capped value is an int (not a bool)
    in 0..cap, so no check sums over nothing, and a group lists each other value."""
    names = [set(group) for group in entry.spec]
    for problem, keys in (("missing", set.intersection(*names) - params.keys()),
                          ("unknown", params.keys() - set.union(*names))):
        if keys:
            raise ValueError(f"{entry.id}: {problem} parameters {sorted(keys)}")
    for key, value in params.items():
        cap = _PARAM_CAPS.get(key)
        if cap is None:
            if not any(type(v) is type(value) and v == value
                       for group in entry.spec for v in group.get(key, ())):
                raise ValueError(f"unknown {key} {value!r}")
        elif type(value) is not int:
            raise ValueError(f"{key}={value!r} is not an int")
        elif value > cap:
            raise ValueError(f"{key}={value} beyond the supported cap {cap}")
        elif value < 0:
            raise ValueError(_BELOW_ZERO.get(key, f"{key}={value} below 0"))


def verify(identity_id: str, **params) -> IdentityReport:
    """Check one identity at one parameter point; exact, zero tolerance."""
    entry = CATALOGUE.get(identity_id)
    if entry is None:
        raise KeyError(f"unknown identity {identity_id!r}")
    _admit(entry, params)
    start = time.perf_counter()
    residual = entry.check(**params)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return IdentityReport(
        identity=identity_id,
        params=params,
        order=params.get("order"),
        residual=residual,
        elapsed_ms=elapsed_ms,
    )


def verify_many(
    ids: Iterable[str] | None = None,
    n_max: int | None = None,
    m_max: int | None = None,
    order: int | None = None,
) -> Iterator[IdentityReport]:
    """Run identities over their default (or overridden) parameter points;
    by default the whole catalogue, in id order.

    The whole request is checked before anything runs: no ids, an unknown
    id, an override that is not an int, beyond a cap or read by no requested
    identity, an identity with no points, or a point that `_admit` refuses
    raises ValueError, so a rejected request yields nothing.
    """
    ids = catalogue_ids() if ids is None else tuple(ids)
    if not ids:
        raise ValueError("no identity ids to verify")
    unknown = [i for i in ids if i not in CATALOGUE]
    if unknown:
        raise ValueError(f"unknown identity ids: {', '.join(unknown)}")
    knobs = {"n_max": n_max, "m_max": m_max, "order": order}
    points = {i: CATALOGUE[i].points(**knobs) for i in ids}
    read = {_KNOB[param] for i in ids for group in CATALOGUE[i].spec
            for param, axis in group.items() if not isinstance(axis, tuple)}
    unread = [f"{k}={v}" for k, v in knobs.items() if v is not None and k not in read]
    if unread:
        raise ValueError(f"no point of {', '.join(ids)} reads {', '.join(unread)}")
    empty = [i for i in ids if not points[i]]
    if empty:
        raise ValueError(f"no parameter points to check for: {', '.join(empty)}")
    request = [(i, point) for i in ids for point in points[i]]
    for i, point in request:
        _admit(CATALOGUE[i], point)
    return (verify(identity_id, **point) for identity_id, point in request)
