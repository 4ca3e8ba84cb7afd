"""Tests for truncated series arithmetic and the named transforms."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdafact.cli import SERIES_ORDER_CAP
from lambdafact.enumeration import set_partitions
from lambdafact.identities import catalogue
from lambdafact.polynomial import Polynomial
from lambdafact.sequences import ABEL_FAMILIES, factorial, lambda_factorial, rising_factorial
from lambdafact.series import (
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
from lambdafact.symbols import ALPHA, BETA, LAM, MU, T, U, V, X

lam, alpha, u = map(Polynomial.variable, (LAM, ALPHA, U))


def test_mul_telescopes():
    a = TruncatedSeries(X, [1, 1, 1], 2)
    b = TruncatedSeries(X, [1, -1], 2)
    assert (a * b).coeffs == (Polynomial.one(), Polynomial.zero(), Polynomial.zero())


def test_additive_identity():
    a = TruncatedSeries(X, [1, 2, 3], 4)
    assert a + TruncatedSeries.zero(X, 4) == a
    assert a + 0 == a


def test_exp_square_doubles():
    e = exp_series(1, X, 3)
    sq = e * e
    assert [c.as_fraction() for c in sq.coeffs] == [1, 2, 2, Fraction(4, 3)]


def test_variable_mismatch_raises():
    with pytest.raises(ValueError, match="variable"):
        TruncatedSeries(X, [1], 2) + TruncatedSeries(T, [1], 2)


@pytest.mark.parametrize("bad", ["", 5, None])
def test_the_series_variable_is_a_nonempty_string(bad):
    with pytest.raises(ValueError, match="series variable must be a nonempty string"):
        TruncatedSeries(bad, [1, 2], 2)
    with pytest.raises(ValueError, match="series variable must be a nonempty string"):
        TruncatedSeries.zero(bad, 2)


@pytest.mark.parametrize("bad", [True, 1.5])
def test_the_truncation_order_is_an_int(bad):
    # True would act as 1, and 1.5 would fail inside a slice, a tuple product
    # or an index.
    with pytest.raises(ValueError, match=f"truncation order must be an int, got {bad}"):
        TruncatedSeries(X, [1, 2], bad)
    with pytest.raises(ValueError, match=f"truncation order must be an int, got {bad}"):
        TruncatedSeries.zero(X, bad)
    # The constructors that build their coefficients first check the order first.
    for build in (lambda: TruncatedSeries.egf(lambda n: 1, X, bad),
                  lambda: TruncatedSeries.ogf(lambda n: 1, X, bad),
                  lambda: geometric(X, bad), lambda: binomial_power(1, 2, bad)):
        with pytest.raises(ValueError, match=f"truncation order must be an int, got {bad}"):
            build()
    e = geometric(X, 3)
    with pytest.raises(ValueError, match=f"truncation order must be an int, got {bad}"):
        e.truncate(bad)
    with pytest.raises(ValueError, match=f"shift must be an int, got {bad}"):
        e.shift(bad)
    with pytest.raises(IndexError, match=f"coefficient {bad} beyond truncation order 3"):
        e.coefficient(bad)


def test_coefficients_must_not_mention_var():
    with pytest.raises(ValueError):
        TruncatedSeries(X, [Polynomial.variable(X)], 1)


def test_equality_compares_to_min_order():
    a = TruncatedSeries(X, [1, 1], 1)
    b = geometric(X, 6)
    assert a == b  # agrees through order 1
    assert TruncatedSeries(X, [1, 2], 1) != b


def test_series_in_different_variables_are_unequal():
    a, b = TruncatedSeries(X, [1], 2), TruncatedSeries(T, [1], 2)
    assert not a == b
    assert a != b
    assert a not in [b]


def test_compose_identity_substitution():
    outer = geometric(T, 5)
    inner = TruncatedSeries(T, [0, 1], 5)
    assert outer.compose(inner) == outer
    # Renaming substitution across variables: 1/(1-t) at t := x.
    relabeled = outer.compose(TruncatedSeries(X, [0, 1], 5))
    assert relabeled == geometric(X, 5)


def test_compose_scaling():
    outer = exp_series(1, X, 4)
    inner = TruncatedSeries(X, [0, 2], 4)
    composed = outer.compose(inner)
    assert [c.as_fraction() for c in composed.coeffs] == [
        Fraction(2 ** n, math.factorial(n)) for n in range(5)
    ]


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError, match="constant"):
        geometric(X, 3).compose(TruncatedSeries(X, [1, 1], 3))


def test_egf_of_f_composed_with_tree():
    # Substituting the tree series (in x) into the generating function of f
    # (in t) gives the tree-count convolution; the hand value at n = 3 from
    # enumeration is (λ+2)^3.
    order = 3
    f_egf = TruncatedSeries.egf(lambda n: lambda_factorial(n), T, order)
    y = tree_function(order)
    composed = f_egf.compose(y)
    assert composed.var == X
    assert composed.egf_coefficient(3) == (lam + 2) ** 3


def test_exp_basics():
    assert TruncatedSeries.zero(X, 5).exp() == TruncatedSeries.constant(1, X, 5)
    e = TruncatedSeries(X, [0, 1], 6).exp()
    assert [c.as_fraction() for c in e.coeffs] == [
        Fraction(1, math.factorial(n)) for n in range(7)
    ]
    with pytest.raises(ValueError, match="constant"):
        TruncatedSeries(X, [1, 1], 3).exp()


def test_exp_block_statistic():
    # exp(u(e^x - 1)) enumerates set partitions by block count.
    inner = (exp_series(1, X, 3) - 1) * u
    series = inner.exp()
    expected = Polynomial.zero()
    for rgs in set_partitions(3):
        blocks = max(rgs) + 1
        expected = expected + u ** blocks
    assert series.egf_coefficient(3) == expected


def test_binomial_power_integer_case():
    # (1+2x)^(-3): coefficient of x^j is C(-3, j) 2^j = (-1)^j C(j+2, 2) 2^j.
    s = binomial_power(2, -3, 5)
    for j in range(6):
        expected = Fraction((-1) ** j * math.comb(j + 2, 2) * 2 ** j)
        assert s.coeffs[j].as_fraction() == expected


def test_binomial_power_trivial_and_symbolic():
    assert binomial_power(1, 1, 4) == TruncatedSeries(X, [1, 1], 4)
    s = binomial_power(1, -alpha, 2)
    assert s.coeffs[1] == -alpha
    assert s.coeffs[2] == alpha * (alpha + 1) / 2


def test_rescale():
    e = exp_series(1, X, 5)
    r = e.rescale(-2)
    assert [c.as_fraction() for c in r.coeffs] == [
        Fraction((-2) ** n, math.factorial(n)) for n in range(6)
    ]
    assert e.rescale(1) == e
    g = geometric(X, 5).rescale(3)
    assert [c.as_fraction() for c in g.coeffs] == [3 ** n for n in range(6)]


def test_egf_shift():
    # The EGF of the shifted sequence n -> a(n+k) is the k-th derivative of
    # the EGF of a: the A_k that abel_rhs takes at -k*x.
    s = TruncatedSeries.egf(lambda n: factorial(n + 1), X, 6)
    assert [c.as_fraction() for c in s.coeffs] == list(range(1, 8))
    assert TruncatedSeries.egf(lambda n: 1, X, 6) == exp_series(1, X, 6)
    for a in (lambda n: 1, factorial, lambda_factorial):
        for k in range(4):
            shifted = TruncatedSeries.egf(lambda n: a(n + k), X, 6)
            derived = TruncatedSeries.egf(a, X, 6 + k)
            for _ in range(k):
                derived = derived.derivative()
            assert shifted.order == derived.order == 6
            assert shifted.coeffs == derived.coeffs


def test_tree_function_values():
    y = tree_function(4)
    assert [c.as_fraction() for c in y.coeffs] == [0, 1, 1, Fraction(3, 2), Fraction(8, 3)]


def test_tree_function_fixed_point_equation():
    # The closed form n^(n-1)/n! and y = x*exp(y) at every order the CLI allows.
    for order in range(SERIES_ORDER_CAP + 1):
        y = tree_function(order)
        assert y.order == order
        assert [c.as_fraction() for c in y.coeffs[1:]] == [
            Fraction(n ** (n - 1), math.factorial(n)) for n in range(1, order + 1)]
        assert y.coeffs[0].is_zero
        assert (y - y.exp().shift(1)).is_zero


def test_tree_power_coefficient():
    # n = 4, k = 2: 4! [x^4] y^2/2! = C(3,1) * 4^2 = 48.
    y = tree_function(4)
    sq = y * y
    assert sq.coefficient(4).as_fraction() * Fraction(factorial(4), 2) == 48


def test_abel_rhs_symbolic_lambda():
    s = abel_rhs(lambda n: 1, lam, 2)
    assert s.coefficient(2) == lambda_factorial(2) / 2


def test_abel_rhs_factorials_at_one():
    s = abel_rhs(lambda n: factorial(n), 1, 3)
    assert [c.as_fraction() for c in s.coeffs] == [1, 1, 2, 6]


def test_abel_rhs_zero_sequence():
    assert abel_rhs(lambda n: 0, lam, 5).is_zero


def test_abel_sum_of_a_closed_form_matches_the_egf_of_f():
    # A = e^x has A^(k)(-kx) = e^(-kx), and the left side of Theorem 1.2 is
    # then the EGF of f_n(λ), e^((λ-1)x)/(1-x).
    order = 6
    s = abel_sum(lam, lambda k: exp_series(-k, X, order), order)
    assert s == exp_series(lam - 1, X, order) * geometric(X, order)
    assert s == abel_rhs(lambda n: 1, lam, order)


def test_abel_sum_shifts_term_k_by_x_to_the_k():
    # Term k alone is x^k (k-1)^k/k! at λ = 0; truncation keeps k <= order.
    order = 4
    s = abel_sum(0, lambda k: TruncatedSeries.constant(1, X, order), order)
    assert [c.as_fraction() for c in s.coeffs] == [
        Fraction((k - 1) ** k, math.factorial(k)) for k in range(order + 1)
    ]


def _assert_matches_the_full_order_route(got_at, term):
    # got_at(N) forms term k only to order N-k; the route it replaces forms
    # term(k, N) at the full order, shifts it and cuts it back to order N.
    for order in range(7):
        want = sum((term(k, order).shift(k).truncate(order) for k in range(order + 1)),
                   TruncatedSeries.zero(X, order))
        got = got_at(order)
        assert got.order == want.order == order
        assert got.coeffs == want.coeffs


def _abel_term(lam_value, d):
    # Term k of Theorem 1.2, (λ+k-1)^k/k! D_k, for D_k = d(k, order).
    lam_value = Polynomial.constant(lam_value) if isinstance(lam_value, int) else lam_value
    return lambda k, o: d(k, o) * ((lam_value + (k - 1)) ** k / math.factorial(k))


@pytest.mark.parametrize("family", sorted(ABEL_FAMILIES))
@pytest.mark.parametrize("lam_value", [lam, 1, 0])
def test_abel_rhs_at_order_n_minus_k_matches_the_full_order_route(family, lam_value):
    a = ABEL_FAMILIES[family]
    _assert_matches_the_full_order_route(
        lambda o: abel_rhs(a, lam_value, o),
        _abel_term(lam_value, lambda k, o: TruncatedSeries.egf(
            lambda n: a(n + k), X, o).rescale(-k)))


# Each transform closed form closed(k, m, order) of A^(k)(-kx) with its λ.
CLOSED_FORMS = {
    "charlier": (lam, catalogue._charlier_closed),
    "f-0": (0, catalogue._f_closed(0)),
    "f-mu": (1, catalogue._f_closed(catalogue._mu)),
    "factorial": (lam, catalogue._factorial_closed),
    "bell-u": (lam, catalogue._bell_closed(u)),
    "bell-1": (1, catalogue._bell_closed(1)),
    "hermite-u": (lam, catalogue._hermite_closed(u)),
    "hermite-1": (1, catalogue._hermite_closed(1)),
    "hermite-0": (1, catalogue._hermite_closed(0)),
}


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_forms_at_order_n_minus_k_match_the_full_order_route(name, m):
    lam_value, closed = CLOSED_FORMS[name]
    _assert_matches_the_full_order_route(
        lambda o: abel_sum(lam_value, lambda k: closed(k, m, o - k), o),
        _abel_term(lam_value, lambda k, o: closed(k, m, o)))


@pytest.mark.parametrize("name", ["gessel-bilinear", "gessel-derangement", "chz"])
def test_gessel_and_chz_terms_at_order_n_minus_k_match_the_full_order_route(name):
    beta, v, mu = map(Polynomial.variable, (BETA, V, MU))
    term = {
        "gessel-bilinear": lambda k, o: (
            binomial_power(-v, -(alpha + k), o) * binomial_power(-u, -(beta + k), o)
            * (rising_factorial(alpha, k) * rising_factorial(beta, k) / math.factorial(k))),
        "gessel-derangement": lambda k, o: binomial_power(1, -(2 * k + 2), o) * factorial(k),
        "chz": lambda k, o: binomial_power(-(mu - 1), -(k + 1), o) * factorial(k),
    }[name]
    _assert_matches_the_full_order_route(
        lambda o: shifted_sum(lambda k: term(k, o - k), o), term)


@pytest.mark.parametrize("short", [0, 1, 3])
def test_a_term_short_of_order_n_minus_k_is_an_error(short):
    # The sum keeps the smaller order, so a short term would silently cut the
    # coefficients that get checked; it names the term instead.
    order = 4

    def term(k):
        return TruncatedSeries.constant(1, X, order - k - (k == short))

    with pytest.raises(ValueError, match=f"term {short} has order"):
        shifted_sum(term, order)
    with pytest.raises(ValueError, match=f"term {short} has order"):
        abel_sum(lam, term, order)


def test_tree_fixed_point_lifts_to_exactly_the_order():
    for n in range(13):
        want = TruncatedSeries.zero(X, n)
        for _ in range(n + 1):  # the full-order iteration it replaces
            want = want.exp().shift(1).truncate(n)
        got = tree_function(n)
        assert got.order == n
        assert got.coeffs == want.coeffs
    with pytest.raises(ValueError, match="order must be >= 0"):
        tree_function(-1)


def test_reciprocal():
    g = geometric(X, 6)
    assert (1 - TruncatedSeries(X, [0, 1], 6)).reciprocal() == g
    assert (g * g.reciprocal()) == TruncatedSeries.constant(1, X, 6)
    with pytest.raises(ValueError, match="constant"):
        TruncatedSeries(X, [0, 1], 3).reciprocal()
    # A constant term with symbols has no inverse in the coefficient ring.
    with pytest.raises(ValueError, match="polynomial is not constant: λ"):
        TruncatedSeries(X, [lam, 1], 3).reciprocal()


def test_division():
    one = TruncatedSeries.constant(1, X, 5)
    e = exp_series(1, X, 5)
    assert one * e.reciprocal() == e.reciprocal() == exp_series(-1, X, 5)
    # A series has no division: a divisor goes through reciprocal.
    with pytest.raises(TypeError):
        one / e


@pytest.mark.parametrize("value", [lam, geometric(X, 2)], ids=["polynomial", "series"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                operator.pow], ids=["+", "-", "*", "/", "**"])
def test_a_str_operand_is_a_type_error(value, op):
    # Each operator declines a str (NotImplemented), so Python raises.
    with pytest.raises(TypeError):
        op(value, "2")
    assert (value == "2") is False


def test_a_series_is_immutable_and_renders_its_repr():
    s = geometric(X, 2)
    with pytest.raises(AttributeError, match="TruncatedSeries is immutable"):
        s.order = 3
    assert repr(s) == "TruncatedSeries(1 + x + x^2 + O(x^3))"


def test_substitute_series():
    # Evaluate u^2+3u at u := 1 - x.
    p = u ** 2 + u * 3
    s = substitute_series(p, U, TruncatedSeries(X, [1, -1], 3))
    assert s.coeffs[0].as_fraction() == 4
    assert s.coeffs[1].as_fraction() == -5
    assert s.coeffs[2].as_fraction() == 1


def test_shift():
    e = exp_series(1, X, 4)
    shifted = e.shift(2)
    assert shifted.coeffs[:3] == (Polynomial.zero(), Polynomial.zero(), Polynomial.one())
    assert e.shift(0) is e
    # Multiplying by x^9 is exact: the order rises by 9, and nothing of e is
    # lost; truncated back to e's order, all of it lies past the truncation.
    far = e.shift(9)
    assert far.order == 13
    assert far.coeffs[:9] == (Polynomial.zero(),) * 9
    assert far.coeffs[9:] == e.coeffs
    assert far.truncate(4).is_zero
    with pytest.raises(ValueError):
        e.shift(-1)


def test_derivative():
    e = exp_series(1, X, 6)
    assert e.derivative() == e.truncate(5)
    assert str(TruncatedSeries(X, [0, 1], 1).derivative()) == "1 + O(x^1)"
    # At order 0 no term of the derivative is known: none is made up.
    for s in (TruncatedSeries.constant(lam, X, 0), TruncatedSeries(X, [0, 1], 1).truncate(0)):
        with pytest.raises(ValueError, match="order 0 has no known derivative term"):
            s.derivative()


def test_truncate_rejects_a_negative_order():
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        geometric(X, 2).truncate(-1)


@pytest.mark.parametrize("n", [-1, 3, 5])
def test_egf_coefficient_outside_the_order_is_an_index_error(n):
    with pytest.raises(IndexError, match=f"coefficient {n} beyond truncation order 2"):
        geometric(X, 2).egf_coefficient(n)


def test_series_rendering():
    y = tree_function(4)
    assert str(y) == "x + x^2 + 3/2 x^3 + 8/3 x^4 + O(x^5)"
    # A coefficient with symbols, a negative coefficient after the first
    # term, and the zero series.
    assert str(TruncatedSeries(X, [0, lam + 1], 2)) == "(λ + 1) x + O(x^3)"
    assert str(TruncatedSeries(X, [1, 0, Fraction(-3, 2)], 2)) == "1 - 3/2 x^2 + O(x^3)"
    assert str(TruncatedSeries.zero(X, 3)) == "0 + O(x^4)"
    mixed = TruncatedSeries(X, [1 - lam, -1, 1 - 2 * u, Fraction(5, 2), -7], 4)
    assert str(mixed) == "-λ + 1 - x + (-2u + 1) x^2 + 5/2 x^3 - 7x^4 + O(x^5)"
    assert str(TruncatedSeries(X, [0, -1, 3], 2)) == "-x + 3x^2 + O(x^3)"


def test_a_polynomial_factor_in_the_series_variable_is_an_error():
    s = TruncatedSeries(X, [1, 1], 3)
    x = Polynomial.variable(X)
    for bad in (x, x + 1, lam * x):
        with pytest.raises(ValueError, match="series variable"):
            s * bad
        with pytest.raises(ValueError, match="series variable"):
            s.rescale(bad)
        with pytest.raises(ValueError, match="series variable"):
            binomial_power(bad, 2, 3)
        with pytest.raises(ValueError, match="series variable"):
            binomial_power(2, bad, 3)
    # An outer coefficient in the inner variable, at index 0 and above, and
    # a polynomial whose coefficients in the substituted symbol mention it.
    for coeffs in ([x], [0, lam, x]):
        with pytest.raises(ValueError, match="series variable"):
            TruncatedSeries(T, coeffs, 3).compose(TruncatedSeries(X, [0, 1], 3))
    for p in (x, u * x + u ** 2):
        with pytest.raises(ValueError, match="series variable"):
            substitute_series(p, U, s)


def low_terms(p, syms, d):
    """The terms of p of total degree at most d in syms, read off term by term:
    the reference for the total-degree kernels."""
    return Polynomial(
        {mono: c for mono, c in p.terms() if sum(e for s, e in mono if s in syms) <= d}
    )


def test_bivariate_truncated_product():
    t, x = map(Polynomial.variable, (T, X))
    # 1/(1 - t - x) as check 5.2 builds it: the geometric sum up to the cap.
    geometric = sum(((t + x) ** j for j in range(4)), Polynomial.zero())
    assert low_terms(geometric, (T, X), 2) == 1 + t + x + t ** 2 + 2 * t * x + x ** 2
    assert mul_truncated(geometric, 1 - t - x, (T, X), 3) == Polynomial.one()
    p = t * x + t ** 3 + 5
    assert low_terms(p, (T, X), 0) == Polynomial.constant(5)
    prod = mul_truncated(t + 1, x + 1, (T, X), 1)
    assert prod == t + x + 1


def square_truncated(p, syms, total_degree):
    return mul_truncated(p, p, syms, total_degree)


@pytest.mark.parametrize("kernel", [exp_truncated, square_truncated],
                         ids=["exp_truncated", "mul_truncated"])
@pytest.mark.parametrize("total_degree", [-1, -2])
def test_capped_power_sums_reject_a_negative_order(kernel, total_degree):
    t = Polynomial.variable(T)
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        kernel(t, (T,), total_degree)


def test_exp_truncated_needs_no_part_free_of_the_truncation_symbols():
    t = Polynomial.variable(T)
    for bad in (t + 1, t + lam):
        with pytest.raises(ValueError, match="every term to involve the truncation symbols"):
            exp_truncated(bad, (T,), 2)


small_poly = st.fractions(min_value=-3, max_value=3, max_denominator=2).map(
    Polynomial.constant
)
zero_head = st.lists(small_poly, min_size=0, max_size=4).map(
    lambda tail: TruncatedSeries(X, [0] + tail, 5)
)


@settings(max_examples=40, deadline=None)
@given(zero_head)
def test_exp_inverse_property(g):
    assert g.exp() * (-g).exp() == TruncatedSeries.constant(1, X, 5)


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_binomial_power_exponent_additivity(e1, e2):
    c = Polynomial.constant(2)
    lhs = binomial_power(c, e1 + e2, 6)
    rhs = binomial_power(c, e1, 6) * binomial_power(c, e2, 6)
    assert lhs == rhs


def test_binomial_power_symbolic_exponent_additivity():
    lhs = binomial_power(1, alpha + lam, 5)
    rhs = binomial_power(1, alpha, 5) * binomial_power(1, lam, 5)
    assert lhs == rhs


# ---- the truncating total-degree multiply against truncate-after-multiply ----

td_coeffs = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
# λ is outside the truncation symbols, so its degree never counts.
td_monomials = st.dictionaries(st.sampled_from((T, X, LAM)), st.integers(1, 4), max_size=3)
td_polys = st.lists(st.tuples(td_monomials, td_coeffs), max_size=6).map(
    lambda items: Polynomial({tuple(sorted(m.items())): c for m, c in items})
)


@settings(max_examples=150, deadline=None)
@given(td_polys, td_polys, st.integers(0, 6))
def test_mul_truncated_matches_truncated_full_product(p, q, d):
    got = mul_truncated(p, q, (T, X), d)
    assert got == low_terms(p * q, (T, X), d)
    for _, c in got.terms():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


@settings(max_examples=60, deadline=None)
@given(td_polys, st.integers(0, 6))
def test_graded_parts_keep_exactly_the_low_terms(p, d):
    parts = p.graded((T, X), d)
    kept = dict(sum(parts, Polynomial.zero()).terms())
    assert kept == dict(low_terms(p, (T, X), d).terms())
    for mono, c in p.terms():
        deg = sum(e for s, e in mono if s in (T, X))
        assert (mono in kept) == (deg <= d)
        if deg <= d:
            assert kept[mono] == c
            assert dict(parts[deg].terms())[mono] == c


def test_mul_truncated_single_symbol_cap():
    t, x = map(Polynomial.variable, (T, X))
    p = (1 + t + x * lam) ** 3
    assert mul_truncated(p, p, (T,), 2) == low_terms(p * p, (T,), 2)
    assert mul_truncated(p, p, (T, X), 0) == Polynomial.one()
