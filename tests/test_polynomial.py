"""Unit and property tests for the exact polynomial ring."""

import json
import operator
import os
import pickle
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambdafact
from lambdafact import polynomial
from lambdafact.enumeration import permutations_with_fix
from lambdafact.polynomial import MAX_EXPONENT, Polynomial, as_poly, dot
from lambdafact.sequences import rising_factorial
from lambdafact.series import binomial_power
from lambdafact.symbols import LAM, MU, X

lam, mu = map(Polynomial.variable, (LAM, MU))


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
    with pytest.raises(ValueError, match="^no binding for symbol 'μ'$"):
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


@settings(max_examples=120)
@given(st.one_of(st.integers(-10 ** 30, 10 ** 30), st.fractions()))
def test_constants_hash_like_their_value(c):
    for p in (Polynomial.constant(c), Polynomial({(): c}), lam + c - lam):
        assert p == c
        assert hash(p) == hash(c)
        assert c in {p}
        assert p in {c}
        assert len({p, c}) == 1


def test_equal_values_from_different_routes_are_equal_and_hash_alike():
    routes = [
        (lam / 2 + lam / 2, lam),
        ((lam / 6) * 3, lam / 2),
        (Polynomial({((LAM, 1),): Fraction(1, 2)}), lam * Fraction(1, 2)),
        (dot([(lam / 2, mu / 3), (lam / 3, mu / 2)]), lam * mu / 3),
        ((lam * mu / 4).derivative(MU) * 2, lam / 2),
    ]
    for p, q in routes:
        assert p == q
        assert hash(p) == hash(q)
        assert str(p) == str(q)


@pytest.mark.parametrize("op, sign", [
    (operator.sub, "-"), (operator.add, "+"), (operator.mul, "*"),
])
def test_unsupported_left_operand_names_both_types(op, sign):
    with pytest.raises(TypeError, match=rf"for \{sign}: 'float' and 'Polynomial'"):
        op(0.5, lam)


def test_division_by_zero_is_an_error():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="polynomial division by zero"):
            lam / zero


def test_a_float_is_never_coerced_to_a_polynomial():
    for coerce in (
        as_poly,
        lambda v: lam.substitute(LAM, v),
        lambda v: rising_factorial(v, 2),
        lambda v: binomial_power(v, 2, 3),
    ):
        with pytest.raises(TypeError, match="not float"):
            coerce(0.5)
        assert coerce(Fraction(1, 2)) == coerce(Polynomial.constant(Fraction(1, 2)))


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


# ---- numerators over one denominator: differential tests against a
# Fraction-only reference kept here, independent of the kernel ----

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
    # Inside: nonzero int numerators over one int denominator >= 1 that is
    # coprime to their content, and zero over denominator 1.
    assert type(p._den) is int and p._den >= 1
    assert all(type(c) is int and c for c in p._terms.values())
    assert gcd(p._den, *p._terms.values()) == 1
    if not p._terms:
        assert p._den == 1
    # At the boundary: an int when integral, else a Fraction.
    for _, c in p.terms():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


@settings(max_examples=120, deadline=None)
@given(mixed_polys, mixed_polys, scalars)
def test_results_are_canonical(a, b, k):
    results = [a, b, a + b, a - b, -a, a * b, a * k, k * a, a + k, k - a,
               a.derivative(LAM), a.substitute(MU, b),
               Polynomial.constant(k), a ** 2, dot([(a, b), (b / 3, a)])]
    if k:
        results.append(a / k)
    results.extend(a.coefficients_in(LAM))
    results.extend(a.coefficients_in(MU))
    results.extend(a.graded((LAM, MU), 3))
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
    assert ref(a.coefficients_in(LAM)[0]) == ref_clean(
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
    assert type(Polynomial.zero().as_fraction()) is Fraction


def fraction_sum_over_terms(p, bindings):
    """evaluate's former route: each term's value as a Fraction, summed."""
    total = Fraction(0)
    for mono, c in p.terms():
        term = Fraction(c)
        for s, e in mono:
            term *= bindings[s] ** e
        total += term
    return total


@settings(max_examples=100, deadline=None)
@given(mixed_polys, st.fixed_dictionaries({s: scalars for s in SYMS}))
def test_evaluate_matches_a_fraction_sum_over_terms(p, bindings):
    value = p.evaluate(bindings)
    assert type(value) is Fraction
    assert value == fraction_sum_over_terms(p, bindings)


def test_evaluate_takes_no_polynomial_binding():
    # substitute would take one; evaluate binds scalars only.
    with pytest.raises(TypeError, match="must be an int or a Fraction, not Polynomial"):
        (lam * mu).evaluate({LAM: mu, MU: 1})


# ---- packed monomial keys ----


@pytest.mark.parametrize("bad", ["", 5, ("x",)])
def test_a_symbol_name_is_a_nonempty_string_and_takes_no_slot_otherwise(bad):
    slots = len(polynomial._NAMES)
    with pytest.raises(ValueError, match="nonempty string"):
        Polynomial({((bad, 1),): 1})
    with pytest.raises(ValueError, match="nonempty string"):
        Polynomial({((LAM, 1), (bad, 2)): 3})
    with pytest.raises(ValueError, match="nonempty string"):
        Polynomial({((LAM, 1), (bad, 0)): 3})
    with pytest.raises(ValueError, match="nonempty string"):
        Polynomial.variable(bad)
    with pytest.raises(ValueError, match="nonempty string"):
        lam.derivative(bad)
    with pytest.raises(ValueError, match="nonempty string"):
        lam.coefficients_in(bad)
    assert len(polynomial._NAMES) == slots
    assert str(lam * mu + 1) == "λμ + 1"


def test_negative_exponent_is_rejected():
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial({((LAM, -1),): 1})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial({((LAM, 2), (LAM, -1)): 1})


def test_exponent_at_the_guard_bit_is_rejected():
    top = Polynomial({((LAM, MAX_EXPONENT),): 1})
    assert list(top.terms()) == [(((LAM, MAX_EXPONENT),), 1)]
    for mono in (((LAM, 2 ** (polynomial._W - 1)),),
                 ((LAM, 2 ** polynomial._W),),
                 ((LAM, MAX_EXPONENT), (LAM, 1))):
        with pytest.raises(ValueError, match="exceeds"):
            Polynomial({mono: 1})


def test_product_exponent_overflow_raises():
    quarter = lam ** (2 ** (polynomial._W - 2))
    with pytest.raises(ValueError, match="exponent above"):
        quarter ** 4
    with pytest.raises(ValueError, match="exponent above"):
        lam ** MAX_EXPONENT * (lam + 1)
    x = Polynomial.variable(X)
    with pytest.raises(ValueError, match="exponent above"):
        dot([(x ** MAX_EXPONENT, x)])
    # Full fields side by side do not disturb each other.
    full = lam ** MAX_EXPONENT * mu ** MAX_EXPONENT
    assert list(full.terms()) == [(((LAM, MAX_EXPONENT), (MU, MAX_EXPONENT)), 1)]
    assert list(full.derivative(MU).terms()) == [
        (((LAM, MAX_EXPONENT), (MU, MAX_EXPONENT - 1)), MAX_EXPONENT)
    ]


@pytest.mark.parametrize("bad", [0.1, 1.0, 2j, "1/2", None])
def test_non_rational_scalars_are_rejected(bad):
    with pytest.raises(TypeError):
        Polynomial.constant(bad)
    with pytest.raises(TypeError):
        Polynomial({((LAM, 1),): bad})
    with pytest.raises(TypeError):
        lam * bad
    with pytest.raises(TypeError):
        lam + bad
    with pytest.raises(TypeError):
        lam.substitute(LAM, bad)
    with pytest.raises(TypeError):
        lam.evaluate({LAM: bad})


def test_pickle_rebuilds_from_monomials_in_another_process():
    # Fresh symbols, first seen here in the order a, b, c and in the child
    # process in the order c, b, a, so their packed keys differ.
    a, b, c = map(Polynomial.variable, ("pk_a", "pk_b", "pk_c"))
    p = (a + 2 * b) ** 3 * c - Fraction(1, 3) * lam * b + mu ** 2
    assert polynomial._SHIFT["pk_a"] < polynomial._SHIFT["pk_c"]
    child = textwrap.dedent("""
        import pickle, sys
        from fractions import Fraction
        from lambdafact import polynomial
        from lambdafact.polynomial import Polynomial
        from lambdafact.symbols import LAM, MU
        c, b, a = map(Polynomial.variable, ("pk_c", "pk_b", "pk_a"))
        lam, mu = map(Polynomial.variable, (LAM, MU))
        assert polynomial._SHIFT["pk_a"] > polynomial._SHIFT["pk_c"]
        q = pickle.loads(sys.stdin.buffer.read())
        assert q == (a + 2 * b) ** 3 * c - Fraction(1, 3) * lam * b + mu ** 2
        sys.stdout.buffer.write(str(q).encode() + b"\\n" + pickle.dumps(q * c))
    """)
    src = str(Path(lambdafact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", child], input=pickle.dumps(p),
        capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    text, _, back = done.stdout.partition(b"\n")
    assert text.decode() == str(p)
    assert pickle.loads(back) == p * c
    assert pickle.loads(pickle.dumps(p)) == p


def test_importing_the_package_fixes_the_slots_of_its_symbols():
    # symbols builds the package's variables at import, in one order, so a
    # packed key of them means the same in every process that imports it.
    child = "import json, lambdafact; print(json.dumps(lambdafact.polynomial._NAMES))"
    src = str(Path(lambdafact.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr.decode()
    assert json.loads(done.stdout) == ["λ", "μ", "α", "β", "u", "v", "D", "t", "x", "a", "b"]


# Differential tests of the packed kernel against a reference kept here: a
# dict from sorted (symbol, exponent) tuples to Fraction.  Symbol names are
# drawn, so new symbols get their slots in a different order from one
# example to the next, and slot order differs from name order.

names = st.text(alphabet="abcdλ", min_size=1, max_size=3)


@st.composite
def ref_polys(draw, pool):
    items = draw(st.lists(
        st.tuples(
            st.dictionaries(st.sampled_from(pool), st.integers(1, 4), max_size=3),
            mixed_coeffs,
        ),
        max_size=5,
    ))
    out = {}
    for m, c in items:
        key = tuple(sorted(m.items()))
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return ref_clean(out)


@st.composite
def named_cases(draw):
    pool = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    return pool, draw(ref_polys(pool)), draw(ref_polys(pool))


def ref_exp(m, sym):
    return dict(m).get(sym, 0)


def ref_without(m, sym):
    return tuple((s, e) for s, e in m if s != sym)


def ref_coefficient(a, sym, k):
    return {ref_without(m, sym): c for m, c in a.items() if ref_exp(m, sym) == k}


def ref_substitute(a, sym, value):
    out = {}
    for m, c in a.items():
        part = {ref_without(m, sym): c}
        for _ in range(ref_exp(m, sym)):
            part = ref_mul(part, value)
        out = ref_add(out, part)
    return out


def ref_degree_in(m, symset):
    return sum(e for s, e in m if s in symset)


def ref_part(a, symset, d):
    return {m: c for m, c in a.items() if ref_degree_in(m, symset) == d}


@settings(max_examples=150, deadline=None)
@given(named_cases(), st.integers(0, 6))
def test_packed_kernel_matches_tuple_reference(case, cap):
    pool, ra, rb = case
    a, b = Polynomial(ra), Polynomial(rb)
    for p, r in ((a, ra), (b, rb)):
        assert ref(p) == r
        for mono, _ in p.terms():
            assert list(mono) == sorted(mono)
            assert len({s for s, _ in mono}) == len(mono)
            assert all(e >= 1 for _, e in mono)
    assert ref(a * b) == ref_mul(ra, rb)
    assert ref(a + b) == ref_add(ra, rb)
    # Graded by every symbol, a has no part above its total degree and a
    # nonzero part at it.
    top = max((ref_degree_in(m, pool) for m in ra), default=0)
    whole = a.graded(pool, top)
    assert sum(whole, Polynomial.zero()) == a
    assert whole[top] or a.is_zero
    assert not a.mentions("never seen")
    for sym in pool:
        assert a.mentions(sym) == (sym in a.symbols()) == any(ref_exp(m, sym) for m in ra)
        split = a.coefficients_in(sym)
        assert len(split) == max((ref_exp(m, sym) for m in ra), default=0) + 1
        for k, part in enumerate(split):
            assert ref(part) == ref_coefficient(ra, sym, k)
        assert ref(a.derivative(sym)) == ref_derivative(ra, sym)
        assert ref(a.substitute(sym, b)) == ref_substitute(ra, sym, rb)
    symset = frozenset(pool[:2])
    parts = a.graded(pool[:2], cap)
    assert [ref(part) for part in parts] == [ref_part(ra, symset, d) for d in range(cap + 1)]
    assert ref(dot([(a, b), (b, b)])) == ref_add(ref_mul(ra, rb), ref_mul(rb, rb))
    assert str(a) == str(Polynomial(dict(a.terms())))


def tuple_route_str(p):
    """str(p) by the route the packed renderer replaced: decode every term to
    a tuple, sort on (-total degree, exponents in symbol-name order), join."""
    terms = dict(p.terms())
    names = sorted({s for mono in terms for s, _ in mono})

    def key(mono):
        exps = tuple(dict(mono).get(s, 0) for s in names)
        return -sum(exps), exps

    return polynomial.join_signed(
        (terms[mono], "".join(s if e == 1 else f"{s}^{e}" for s, e in mono))
        for mono in sorted(terms, key=key)
    )


@st.composite
def rendered_polys(draw):
    # Fresh names take their slots in the order drawn, not in name order.
    pool = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    coeff = st.one_of(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]), mixed_coeffs)
    items = draw(st.lists(st.tuples(
        st.dictionaries(st.sampled_from(pool), st.integers(1, 4), max_size=3), coeff),
        max_size=6))
    return Polynomial({tuple(sorted(m.items())): c for m, c in items})


@settings(max_examples=200, deadline=None)
@given(rendered_polys(), mixed_coeffs)
def test_rendering_from_packed_keys_matches_the_tuple_route(p, c):
    for q in (p, -p, p + c, p / 3, Polynomial.constant(c), p * lam):
        assert str(q) == tuple_route_str(q)


# ---- fraction-free coefficients: differential tests on fractional inputs ----

# Polynomials over different denominators, so that a sum or a dot must bring
# its sides to a common one, and polynomials with integral coefficients only.
frac_polys = st.tuples(mixed_polys, st.sampled_from([1, 2, 3, 4, 6, 9])).map(
    lambda t: t[0] / t[1]
)
int_polys = st.lists(st.tuples(monomials, st.integers(-6, 6)), max_size=5).map(
    lambda items: Polynomial({tuple(sorted(m.items())): c for m, c in items})
)


def ref_dot(pairs):
    out = {}
    for p, q in pairs:
        out = ref_add(out, ref_mul(ref(p), ref(q)))
    return out


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(frac_polys, frac_polys), max_size=4))
def test_dot_matches_fraction_reference(pairs):
    got = dot(pairs)
    assert ref(got) == ref_dot(pairs)
    assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(int_polys, int_polys), max_size=4))
def test_dot_of_integral_pairs_matches_fraction_reference(pairs):
    got = dot(pairs)
    assert ref(got) == ref_dot(pairs)
    assert got._den == 1
    assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(frac_polys, frac_polys, st.integers(0, 6))
def test_slices_and_calculus_on_fractional_inputs_match_fraction_reference(a, b, cap):
    ra, rb = ref(a), ref(b)
    results = []
    for sym in SYMS:
        split = a.coefficients_in(sym)
        degree = max((ref_exp(m, sym) for m in ra), default=0)
        assert [ref(part) for part in split] == [
            ref_coefficient(ra, sym, k) for k in range(degree + 1)
        ]
        results.extend(split)
        results.append(a.derivative(sym))
        assert ref(results[-1]) == ref_derivative(ra, sym)
        results.append(a.substitute(sym, b))
        assert ref(results[-1]) == ref_substitute(ra, sym, rb)
    parts = a.graded(SYMS[:2], cap)
    assert [ref(part) for part in parts] == [
        ref_part(ra, frozenset(SYMS[:2]), d) for d in range(cap + 1)
    ]
    for p in results + parts:
        assert_canonical(p)


# ---- fast paths: differential tests by operand shape ----

# A zero side, a nonzero constant and a single non-constant term skip the
# general product; general operands (two or more terms) do not.  Each shape
# comes with int and with fractional coefficients.
single_terms = st.tuples(
    st.dictionaries(st.sampled_from(SYMS), st.integers(1, 3), min_size=1, max_size=2),
    mixed_coeffs.filter(bool),
).map(lambda t: Polynomial({tuple(sorted(t[0].items())): t[1]}))
general_polys = st.lists(
    st.tuples(monomials, mixed_coeffs.filter(bool)), min_size=2, max_size=5
).map(lambda items: Polynomial({tuple(sorted(m.items())): c for m, c in items}))
shaped = st.one_of(
    st.just(Polynomial.zero()),
    mixed_coeffs.filter(bool).map(Polynomial.constant),
    single_terms,
    general_polys,
)


@settings(max_examples=200, deadline=None)
@given(shaped, shaped)
def test_fast_paths_match_fraction_reference(a, b):
    ra, rb = ref(a), ref(b)
    results = [(a * b, ref_mul(ra, rb)), (b * a, ref_mul(rb, ra)),
               (a + b, ref_add(ra, rb)), (b + a, ref_add(rb, ra)),
               (a - b, ref_add(ra, {m: -c for m, c in rb.items()}))]
    expected = {(): Fraction(1)}
    for k in range(5):
        results.append((a ** k, expected))
        expected = ref_mul(expected, ra)
    for p, r in results:
        assert ref(p) == r
        assert_canonical(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(shaped, shaped), max_size=4),
       st.lists(st.tuples(frac_polys, frac_polys), max_size=3), st.randoms())
def test_dot_with_zero_sides_matches_fraction_reference(shaped_pairs, frac_pairs, rnd):
    zero = Polynomial.zero()
    pairs = shaped_pairs + frac_pairs + [(zero, p) for p, _ in frac_pairs] + [
        (q, zero) for _, q in frac_pairs]
    rnd.shuffle(pairs)
    got = dot(pairs)
    assert ref(got) == ref_dot(pairs)
    assert_canonical(got)


def test_single_term_product_exponent_overflow_raises():
    top = lam ** MAX_EXPONENT
    for single, other in ((top, lam), (lam, top), (top, lam * mu / 3)):
        with pytest.raises(ValueError, match="exponent above"):
            single * other
        with pytest.raises(ValueError, match="exponent above"):
            other * single
