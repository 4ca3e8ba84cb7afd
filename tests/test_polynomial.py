"""Unit and property tests for the exact polynomial ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdafact.enumeration import permutations_with_fix
from lambdafact.polynomial import Polynomial, variables
from lambdafact.symbols import LAM, MU

lam, mu = variables(LAM, MU)


def enum_f(n):
    """Fixed-point generating polynomial by direct permutation enumeration."""
    acc = Polynomial.zero()
    for _, fix in permutations_with_fix(n):
        acc = acc + lam ** fix
    return acc


def test_difference_of_squares():
    assert (lam + 1) * (lam - 1) == lam ** 2 - 1


def test_additive_identity():
    p = lam ** 2 * 3 - mu + Fraction(1, 2)
    assert p + Polynomial.zero() == p
    assert p + 0 == p


def test_binomial_expansion_cancels():
    assert ((lam + mu) ** 2 - (lam ** 2 + lam * mu * 2 + mu ** 2)).is_zero


def test_pow_conventions():
    assert lam ** 0 == Polynomial.one()
    assert Polynomial.zero() ** 0 == Polynomial.one()
    assert (lam + 1) ** 2 == lam ** 2 + 2 * lam + 1
    with pytest.raises(ValueError):
        lam ** -1


def test_substitute():
    assert (lam ** 2 + 1).substitute(LAM, mu + 1) == mu ** 2 + 2 * mu + 2
    assert lam.substitute(LAM, 0).is_zero


def test_substitute_matches_shift_expansion():
    # f_2 with λ := λ+μ equals the binomial-shift expansion, f by enumeration.
    f = [enum_f(k) for k in range(3)]
    lhs = f[2].substitute(LAM, lam + mu)
    from math import comb

    rhs = sum(
        (f[k] * mu ** (2 - k) * comb(2, k) for k in range(3)), Polynomial.zero()
    )
    assert lhs == rhs


def test_derivative():
    f2, f3 = enum_f(2), enum_f(3)
    assert f3.derivative(LAM) == f2 * 3
    assert Polynomial.constant(7).derivative(LAM).is_zero
    assert (lam * mu).derivative(MU) == lam


def test_evaluate():
    f3 = enum_f(3)
    assert f3.evaluate({LAM: 0}) == 2
    assert f3.evaluate({LAM: 1}) == 6
    assert (lam * mu).evaluate({LAM: 2, MU: 3}) == 6


def test_evaluate_names_unbound_symbol():
    with pytest.raises(ValueError, match="μ"):
        (lam * mu).evaluate({LAM: 1})


def test_rendering_is_canonical():
    assert str(enum_f(3)) == "λ^3 + 3λ + 2"
    assert str(Polynomial.zero()) == "0"
    assert str(lam * mu + lam ** 2 + 1) == "λμ + λ^2 + 1"
    assert str(lam * Fraction(3, 2) - 1) == "3/2 λ - 1"


def test_equality_and_hash():
    assert Polynomial.constant(3) == 3
    assert lam != mu
    assert hash(lam + 1 - 1) == hash(lam)


SYMS = (LAM, MU, "u")

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
monomials = st.dictionaries(st.sampled_from(SYMS), st.integers(1, 3), max_size=2)
polys = st.lists(st.tuples(monomials, coeffs), max_size=4).map(
    lambda items: Polynomial({tuple(sorted(m.items())): c for m, c in items})
)


@settings(max_examples=80)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80)
@given(polys, polys)
def test_product_rule(a, b):
    lhs = (a * b).derivative(LAM)
    rhs = a * b.derivative(LAM) + a.derivative(LAM) * b
    assert lhs == rhs


@settings(max_examples=60)
@given(polys)
def test_substitute_identity(p):
    assert p.substitute(LAM, lam) == p


@settings(max_examples=40)
@given(polys, st.integers(0, 4))
def test_pow_matches_repeated_multiplication(p, k):
    expected = Polynomial.one()
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


# ---- int-first coefficients: differential tests against a Fraction-only
# reference kept here, independent of the kernel ----

mixed_coeffs = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
mixed_polys = st.lists(st.tuples(monomials, mixed_coeffs), max_size=5).map(
    lambda items: Polynomial({tuple(sorted(m.items())): c for m, c in items})
)
scalars = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def ref(p):
    """p's terms as a plain dict with every coefficient a Fraction."""
    return {m: Fraction(c) for m, c in p.terms()}


def ref_clean(d):
    return {m: c for m, c in d.items() if c}


def ref_mono_mul(a, b):
    exps = dict(a)
    for s, e in b:
        exps[s] = exps.get(s, 0) + e
    return tuple(sorted(exps.items()))


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = ref_mono_mul(m1, m2)
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_derivative(a, sym):
    out = {}
    for m, c in a.items():
        exps = dict(m)
        e = exps.pop(sym, 0)
        if e:
            if e > 1:
                exps[sym] = e - 1
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, Fraction(0)) + c * e
    return ref_clean(out)


def assert_canonical(p):
    for _, c in p.terms():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


@settings(max_examples=120, deadline=None)
@given(mixed_polys, mixed_polys, scalars)
def test_results_are_canonical(a, b, k):
    results = [a, b, a + b, a - b, -a, a * b, a * k, k * a, a + k, k - a,
               a.derivative(LAM), a.coefficient(LAM, 1), a.substitute(MU, b),
               Polynomial.constant(k), a ** 2]
    if k:
        results.append(a / k)
    results.extend(a.coefficients_in(MU))
    for p in results:
        assert_canonical(p)


@settings(max_examples=120, deadline=None)
@given(mixed_polys, mixed_polys, scalars)
def test_ring_results_match_fraction_reference(a, b, k):
    ra, rb, rk = ref(a), ref(b), Fraction(k)
    assert ref(a + b) == ref_add(ra, rb)
    assert ref(a - b) == ref_add(ra, {m: -c for m, c in rb.items()})
    assert ref(a * b) == ref_mul(ra, rb)
    assert ref(a * k) == ref_clean({m: c * rk for m, c in ra.items()})
    if k:
        assert ref(a / k) == ref_clean({m: c / rk for m, c in ra.items()})
    assert ref(a.derivative(LAM)) == ref_derivative(ra, LAM)
    assert ref(a.coefficient(LAM, 0)) == ref_clean(
        {m: c for m, c in ra.items() if LAM not in dict(m)}
    )


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(monomials, st.integers(-6, 6)), max_size=5))
def test_int_and_fraction_inputs_build_the_same_polynomial(items):
    from_int = Polynomial({tuple(sorted(m.items())): c for m, c in items})
    from_frac = Polynomial(
        {tuple(sorted(m.items())): Fraction(c) for m, c in items}
    )
    assert from_int == from_frac
    assert hash(from_int) == hash(from_frac)
    assert str(from_int) == str(from_frac)
    assert_canonical(from_frac)


def test_fraction_sums_that_turn_integral_are_stored_as_int():
    half = lam * Fraction(1, 2)
    assert list((half + half).terms()) == [(((LAM, 1),), 1)]
    assert type(dict((half * 2).terms())[((LAM, 1),)]) is int
    assert type(dict(((lam ** 2) / 2).derivative(LAM).terms())[((LAM, 1),)]) is int
    assert (half - half).is_zero
    assert Polynomial.constant(Fraction(6, 3)) == Polynomial.constant(2)
    assert type(Polynomial.constant(Fraction(6, 3)).as_fraction()) is Fraction


@settings(max_examples=60, deadline=None)
@given(mixed_polys, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
def test_boundary_values_are_fractions(p, a, b, c):
    value = p.evaluate({LAM: a, MU: b, "u": c})
    assert type(value) is Fraction
    const = p.substitute(LAM, a).substitute(MU, b).substitute("u", c)
    assert type(const.as_fraction()) is Fraction
    assert const.as_fraction() == value
    assert type(p.constant_term()) is Fraction
    assert type(Polynomial.zero().as_fraction()) is Fraction
