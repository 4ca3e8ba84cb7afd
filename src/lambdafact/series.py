"""Truncated formal power series with polynomial coefficients.

A TruncatedSeries holds the coefficients c_0..c_N of a series in one
distinguished variable, meaning sum(c_i * var**i) + O(var**(N+1)).  The
coefficients are Polynomials that must not mention the series variable.
Coefficients are stored plain (c_n itself, not c_n * n!), so the same type
carries both exponential and ordinary generating functions; the egf/ogf
constructors divide or not at the boundary.

All operations are exact; order bookkeeping follows the rule that a binary
operation is valid to the smaller of the two truncation orders.  shift(k),
times var**k, raises the order by k, so a sum of var**k times term k to order
N forms term k only to order N-k and no coefficient that it would discard.
A series has no division: multiply by Fraction(1, k), or by a reciprocal.

Also here: the rooted-tree series y = x*exp(y) by fixed-point iteration,
symbolic-exponent binomial series and the shifted-derivative transform used
by the Abel-type expansion, all in the series variable x; and the two
total-degree-truncated kernels on bivariate polynomials, mul_truncated and
exp_truncated, which only the check 5.2 calls.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Callable, Sequence, Union

from .polynomial import Polynomial, as_poly, check_index, dot, evaluate_at, join_signed, powers
from .symbols import X

PolyLike = Union[Polynomial, int, Fraction]


# ---- kernels on coefficient sequences ----
# c_0, c_1, ... grade a value by powers of the series variable or by total
# degree in some symbols; each output coefficient is one dot.


def _convolve(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> list[Polynomial]:
    """The product: c_k = sum of a_i b_(k-i), up to the shorter length."""
    n = min(len(a), len(b))
    return [dot((a[i], b[k - i]) for i in range(k + 1)) for k in range(n)]


def _exp_recurrence(g: Sequence[Polynomial]) -> list[Polynomial]:
    """h = exp(g) for g_0 = 0; from h' = g'h, k h_k = sum of j g_j h_(k-j)."""
    jg = [c * j for j, c in enumerate(g)]
    h = [Polynomial.one()]
    for k in range(1, len(g)):
        h.append(dot((jg[j], h[k - j]) for j in range(1, k + 1)) / k)
    return h


class TruncatedSeries:
    """Immutable series truncated at a fixed order in one variable."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, coeffs: Sequence[PolyLike], order: int):
        if not isinstance(var, str) or not var:
            raise ValueError(f"series variable must be a nonempty string, got {var!r}")
        check_index(order, "truncation order")
        cs = [as_poly(c) for c in coeffs[: order + 1]]
        cs.extend([Polynomial.zero()] * (order + 1 - len(cs)))
        for i, c in enumerate(cs):
            if c.mentions(var):
                raise ValueError(
                    f"coefficient of {var}^{i} mentions the series variable: {c}"
                )
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def _raw(cls, var: str, coeffs: tuple[Polynomial, ...]) -> TruncatedSeries:
        s = object.__new__(cls)
        object.__setattr__(s, "var", var)
        object.__setattr__(s, "order", len(coeffs) - 1)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    # ---- constructors ----

    @classmethod
    def zero(cls, var: str, order: int) -> TruncatedSeries:
        return cls(var, [], order)

    @classmethod
    def constant(cls, c: PolyLike, var: str, order: int) -> TruncatedSeries:
        return cls(var, [c], order)

    @classmethod
    def egf(
        cls, a: Callable[[int], PolyLike], var: str, order: int
    ) -> TruncatedSeries:
        """Series with c_n = a(n)/n!."""
        return cls.ogf(lambda n: as_poly(a(n)) / math.factorial(n), var, order)

    @classmethod
    def ogf(
        cls, a: Callable[[int], PolyLike], var: str, order: int
    ) -> TruncatedSeries:
        """Series with c_n = a(n)."""
        check_index(order, "truncation order")
        return cls(var, [a(n) for n in range(order + 1)], order)

    # ---- inspection ----

    def coefficient(self, n: int) -> Polynomial:
        if type(n) is not int or not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf_coefficient(self, n: int) -> Polynomial:
        """n! * c_n, the sequence entry when the series is an EGF."""
        return self.coefficient(n) * math.factorial(n)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coeffs)

    # ---- order management ----

    def truncate(self, order: int) -> TruncatedSeries:
        check_index(order, "truncation order")
        if order >= self.order:
            return self
        return TruncatedSeries._raw(self.var, self.coeffs[: order + 1])

    def _common(self, other: TruncatedSeries) -> int:
        if self.var != other.var:
            raise ValueError(
                f"series variable mismatch: {self.var!r} vs {other.var!r}"
            )
        return min(self.order, other.order)

    # ---- arithmetic ----

    def __add__(self, other: TruncatedSeries | PolyLike) -> TruncatedSeries:
        if isinstance(other, (Polynomial, int, Fraction)):
            other = TruncatedSeries.constant(other, self.var, self.order)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common(other)
        return TruncatedSeries._raw(
            self.var, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))[: n + 1]
        )

    __radd__ = __add__

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries._raw(self.var, tuple(-c for c in self.coeffs))

    def __sub__(self, other: TruncatedSeries | PolyLike) -> TruncatedSeries:
        if not isinstance(other, (TruncatedSeries, Polynomial, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: PolyLike) -> TruncatedSeries:
        return TruncatedSeries.constant(other, self.var, self.order) - self

    def __mul__(self, other: TruncatedSeries | PolyLike) -> TruncatedSeries:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        if isinstance(other, Polynomial):
            if other.mentions(self.var):
                raise ValueError(
                    f"a polynomial factor mentions the series variable {self.var!r}: {other}"
                )
            return TruncatedSeries._raw(self.var, tuple(a * other for a in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._common(other)  # raises unless the variables agree
        return TruncatedSeries._raw(self.var, tuple(_convolve(self.coeffs, other.coeffs)))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        # Compares up to the smaller truncation order.
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.var != other.var:
            return False
        n = min(self.order, other.order)
        return self.coeffs[: n + 1] == other.coeffs[: n + 1]

    __hash__ = None  # type: ignore[assignment]

    # ---- structural operations ----

    def shift(self, k: int) -> TruncatedSeries:
        """Multiply by var**k exactly: the truncation order rises by k."""
        check_index(k, "shift")
        if k == 0:
            return self
        return TruncatedSeries._raw(self.var, (Polynomial.zero(),) * k + self.coeffs)

    def rescale(self, c: PolyLike) -> TruncatedSeries:
        """Substitute var := c*var for a coefficient-like c."""
        c = as_poly(c)
        if c.mentions(self.var):
            raise ValueError("rescale factor must not contain the series variable")
        return TruncatedSeries._raw(
            self.var, tuple(a * power for a, power in zip(self.coeffs, powers(c)))
        )

    def derivative(self) -> TruncatedSeries:
        """Termwise d/dvar; exact one order lower, so order 0 has none."""
        if not self.order:
            raise ValueError("a series to order 0 has no known derivative term")
        return TruncatedSeries._raw(
            self.var,
            tuple(self.coeffs[i] * i for i in range(1, self.order + 1)),
        )

    def exp(self) -> TruncatedSeries:
        """exp of a series with zero constant term."""
        if not self.coeffs[0].is_zero:
            raise ValueError("series exp needs a zero constant term")
        return TruncatedSeries._raw(self.var, tuple(_exp_recurrence(self.coeffs)))

    def reciprocal(self) -> TruncatedSeries:
        """Multiplicative inverse 1/c0 * 1/(1 - g), g = -(self - c0)/c0, for a
        nonzero rational constant term c0; a zero c0 has no inverse and raises."""
        c0 = self.coeffs[0]
        if c0.is_zero:
            raise ValueError("cannot invert a series with zero constant term")
        inv = 1 / c0.as_fraction()  # raises if the constant term is not scalar
        g = [c * -inv for c in self.coeffs]
        h = [Polynomial.one()]  # 1/(1 - g): h_k = sum of g_j h_(k-j) over j >= 1
        for k in range(1, len(g)):
            h.append(dot((g[j], h[k - j]) for j in range(1, k + 1)))
        return TruncatedSeries._raw(self.var, tuple(c * inv for c in h))

    def compose(self, inner: TruncatedSeries) -> TruncatedSeries:
        """self(inner); inner must have zero constant term.

        The inner series may live in a different variable, in which case the
        result is a series in that variable (the outer variable is
        substituted away entirely).
        """
        if not inner.coeffs[0].is_zero:
            raise ValueError("series composition needs a zero inner constant term")
        n = min(self.order, inner.order)
        # An outer coefficient that mentions the inner variable raises a
        # ValueError, in the constant series or in its product with a power.
        constant = TruncatedSeries.constant(self.coeffs[0], inner.var, n)
        return evaluate_at(self.coeffs[: n + 1], inner.truncate(n), constant)

    # ---- rendering ----

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            body = self.var if i == 1 else f"{self.var}^{i}"
            if i == 0:
                # Always the first term, so its own leading sign stands.
                terms.append((1, str(c)))
            elif c.symbols():
                terms.append((1, f"({c}) {body}"))
            else:
                terms.append((c.as_fraction(), body))
        return f"{join_signed(terms)} + O({self.var}^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncatedSeries({str(self)})"


# ---- named series and transforms ----


def geometric(var: str, order: int) -> TruncatedSeries:
    """1/(1 - var)."""
    return TruncatedSeries.ogf(lambda n: 1, var, order)


def exp_series(coefficient: PolyLike, var: str, order: int) -> TruncatedSeries:
    """exp(coefficient * var)."""
    return TruncatedSeries(var, [0, coefficient], order).exp()


def binomial_power(c: PolyLike, e: PolyLike, order: int) -> TruncatedSeries:
    """(1 + c*x)**e for a symbolic exponent e.

    Coefficient of x**j is e(e-1)...(e-j+1)/j! * c**j.  Both c and e may
    be polynomials in parameters, but neither may contain x.
    """
    check_index(order, "truncation order")
    c = as_poly(c)
    e = as_poly(e)
    for p in (c, e):
        if p.mentions(X):
            raise ValueError("binomial_power arguments must not contain the series variable")
    coeffs = [Polynomial.one()]
    falling = Polynomial.one()
    for j, cpow in zip(range(1, order + 1), islice(powers(c), 1, None)):
        falling = falling * (e - (j - 1))
        coeffs.append(falling * cpow / math.factorial(j))
    return TruncatedSeries(X, coeffs, order)


def tree_function(order: int) -> TruncatedSeries:
    """The rooted-labeled-tree series y with y = x*exp(y), whose coefficient n
    is n^(n-1)/n!; pass i lifts y to order i-1 to x*exp(y) to order i."""
    check_index(order, "order")
    y = TruncatedSeries.zero(X, 0)
    for _ in range(order):
        y = y.exp().shift(1)
    return y


def shifted_sum(term: Callable, order: int) -> TruncatedSeries:
    """The sum over k = 0..order of x**k * term(k), exact to the order since
    no term k reaches below x**k.  Term k is needed only to order - k; one
    that falls short raises, as the sum would keep its smaller order and
    leave the top coefficients unchecked."""
    total = TruncatedSeries.zero(X, order)
    for k in range(order + 1):
        t = term(k)
        if t.order < order - k:
            raise ValueError(f"term {k} has order {t.order}, below {order - k}")
        total = total + t.shift(k)
    return total


def abel_sum(
    lam: PolyLike, shifted_derivative: Callable[[int], TruncatedSeries], order: int
) -> TruncatedSeries:
    """The right side of Theorem 1.2: sum over k of (lam+k-1)**k/k! * x**k * D_k.

    D_k = shifted_derivative(k) stands for A^(k)(-k*x), the k-th derivative
    of an EGF A taken at -k*x, and is needed only to order - k (see
    shifted_sum, which raises on a D_k that falls short).
    """
    lam = as_poly(lam)
    return shifted_sum(lambda k: shifted_derivative(k) * (
        (lam + (k - 1)) ** k / math.factorial(k)), order)


def abel_rhs(a: Callable[[int], PolyLike], lam: PolyLike, order: int) -> TruncatedSeries:
    """abel_sum with D_k = A_k(-k*x), A_k the k-th derivative of the EGF of
    the sequence a: the sum over k of (k+lam-1)**k * x**k * A_k(-k*x) / k!.
    A_k is the EGF of the shifted sequence n -> a(n+k)."""
    return abel_sum(lam, lambda k: TruncatedSeries.egf(
        lambda n: a(n + k), X, order - k).rescale(-k), order)


def substitute_series(
    p: Polynomial, sym: str, value: TruncatedSeries
) -> TruncatedSeries:
    """Evaluate p with sym replaced by a series; other symbols ride along.

    Every coefficient of p in sym must be free of the series variable; one
    that is not is a ValueError.
    """
    coeffs = p.coefficients_in(sym)
    constant = TruncatedSeries.constant(coeffs[0], value.var, value.order)
    return evaluate_at(coeffs, value, constant)


# ---- total-degree-truncated polynomial arithmetic (bivariate layer) ----
# Two kernels, the product and exp, on the parts by total degree in syms,
# summed; no part above the cap is formed.  5.2 is their one caller (3.2
# grades its two symbols by the series variable instead).  graded refuses a
# negative cap: below degree 0 a check would compare two empty polynomials
# and pass without testing anything.


def mul_truncated(
    p: Polynomial, q: Polynomial, syms: tuple[str, ...], total_degree: int
) -> Polynomial:
    """p*q with every monomial of combined syms-degree > total_degree dropped;
    part k pairs only the parts of p and q whose degrees add up to k."""
    parts = _convolve(p.graded(syms, total_degree), q.graded(syms, total_degree))
    return sum(parts, Polynomial.zero())


def exp_truncated(
    p: Polynomial, syms: tuple[str, ...], total_degree: int
) -> Polynomial:
    """exp(p) = sum p**j/j! to a total degree, for p with no syms-free part."""
    parts = p.graded(syms, total_degree)
    if parts[0]:
        raise ValueError("exp_truncated needs every term to involve the truncation symbols")
    return sum(_exp_recurrence(parts), Polynomial.zero())
