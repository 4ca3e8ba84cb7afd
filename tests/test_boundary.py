"""The library boundary: every index-taking public entry point of sequences,
series and enumeration, and Polynomial.graded, given a hostile index.

Each index in turn is True, 2.0, -1, "3" and None, one past its cap
where there is a cap, and the unhashable [1] for an enumeration entry
point.  Every call runs cold, after each cache is cleared, and warm, after
a valid call with the int the hostile value stands for, so a cache keyed
on 1 or 2 cannot answer for True or 2.0.  The answer is a
ValueError, the IndexError that coefficient documents, or the 0 that
binomial and stirling2 document for a negative index; never a bare
TypeError and never a value.
"""

from contextlib import suppress
from functools import partial

import pytest

from lambdafact import enumeration as en, sequences as seq, series
from lambdafact.polynomial import Polynomial
from lambdafact.symbols import LAM, T, X, lam

HOSTILE = (True, 2.0, -1, "3", None)
# the int a hostile value stands for, when cached, keyed by repr: a list is unhashable
TWIN = {"True": 1, "2.0": 2, "'3'": 3, "[1]": 1}
SIGMA = en.Endofunction((1, 1, 3))  # a member of the family at n = lam = 1
t = Polynomial.variable(T)
ones = seq.ABEL_FAMILIES["ones"]


def coefficient(order, n):
    return series.geometric(X, order).coefficient(n)


def egf_coefficient(order, n):
    return series.geometric(X, order).egf_coefficient(n)


# name: (entry point, valid arguments, {index position: first value past its cap})
ENTRY_POINTS = {
    "factorial": (seq.factorial, (3,), {0: None}),
    "binomial": (seq.binomial, (3, 1), {0: None, 1: None}),
    "derangement": (seq.derangement, (3,), {0: None}),
    **{f"lambda_factorial-{route}": (partial(seq.lambda_factorial, route=route), (3,), {0: None})
       for route in seq.LAMBDA_FACTORIAL_ROUTES},
    "rising_factorial": (seq.rising_factorial, (lam, 3), {1: None}),
    "charlier": (seq.charlier, (3,), {0: None}),
    "bell_poly": (seq.bell_poly, (3,), {0: None}),
    "bell_number": (seq.bell_number, (3,), {0: None}),
    "hermite_poly": (seq.hermite_poly, (3,), {0: None}),
    "involution_number": (seq.involution_number, (3,), {0: None}),
    "matching_number": (seq.matching_number, (3,), {0: None}),
    "stirling2": (seq.stirling2, (3, 2), {0: None, 1: None}),
    **{f"q_poly-{route}": (partial(seq.q_poly, route=route), (2, 1), {0: None, 1: None})
       for route in seq.Q_POLY_ROUTES},
    "TruncatedSeries": (series.TruncatedSeries, (X, [1, 2], 3), {2: None}),
    "TruncatedSeries.zero": (series.TruncatedSeries.zero, (X, 3), {1: None}),
    "TruncatedSeries.constant": (series.TruncatedSeries.constant, (2, X, 3), {2: None}),
    "TruncatedSeries.egf": (series.TruncatedSeries.egf, (ones, X, 3), {2: None}),
    "TruncatedSeries.ogf": (series.TruncatedSeries.ogf, (ones, X, 3), {2: None}),
    "TruncatedSeries.coefficient": (coefficient, (3, 2), {1: 4}),
    "TruncatedSeries.egf_coefficient": (egf_coefficient, (3, 2), {1: 4}),
    "TruncatedSeries.truncate": (series.geometric(X, 3).truncate, (2,), {0: None}),
    "TruncatedSeries.shift": (series.geometric(X, 3).shift, (2,), {0: None}),
    "geometric": (series.geometric, (X, 3), {1: None}),
    "exp_series": (series.exp_series, (lam, X, 3), {2: None}),
    "binomial_power": (series.binomial_power, (2, lam, 3), {2: None}),
    "tree_function": (series.tree_function, (3,), {0: None}),
    "shifted_sum": (series.shifted_sum, (lambda k: series.geometric(X, 3), 3), {1: None}),
    "abel_sum": (series.abel_sum, (lam, lambda k: series.geometric(X, 3), 3), {2: None}),
    "abel_rhs": (series.abel_rhs, (ones, lam, 3), {2: None}),
    "mul_truncated": (series.mul_truncated, (t + 1, t + lam, (T,), 2), {3: None}),
    "exp_truncated": (series.exp_truncated, (t * lam, (T,), 2), {2: None}),
    "Polynomial.graded": (Polynomial.graded, (t + lam, (T, LAM), 2), {2: None}),
    "permutations_with_fix": (en.permutations_with_fix, (3,), {0: en.PERMUTATION_CUTOFF + 1}),
    "set_partitions": (en.set_partitions, (3,), {0: en.PERMUTATION_CUTOFF + 1}),
    "oracle_polynomials": (en.oracle_polynomials, (3,), {0: en.PERMUTATION_CUTOFF + 1}),
    "forests": (en.forests, (3,), {0: en.FOREST_CUTOFF + 1}),
    "permanent_check": (en.permanent_check, (3,), {0: en.PERMANENT_CUTOFF + 1}),
    # The smallest n and lam past MSTAR_CUTOFF: 8**8 and 1001**2 maps.
    "enumerate_m_star": (lambda n, lam: list(en.enumerate_m_star(n, lam)), (1, 1),
                         {0: 7, 1: 1000}),
    "exhaustive_roundtrip": (en.exhaustive_roundtrip, (1, 1), {0: 7, 1: 1000}),
    "sigma_to_pair": (en.sigma_to_pair, (SIGMA, 1, 1), {1: None, 2: None}),
    "pair_to_sigma": (en.pair_to_sigma, (en.sigma_to_pair(SIGMA, 1, 1), 1, 1),
                      {1: None, 2: None}),
}
INDEX_ERRORS = {"TruncatedSeries.coefficient", "TruncatedSeries.egf_coefficient"}
# The enumeration entry points are also given an unhashable index, [1]; the
# lru_cache entry points of sequences still raise a bare TypeError for one.
LIST_INDEX = {name for name in ENTRY_POINTS if hasattr(en, name)}
ZERO_AT_NEGATIVE = {"binomial", "stirling2"}


def clear_caches():
    for module in (seq, series, en):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_hostile_index_is_rejected_cold_and_warm(name):
    fn, valid, indices = ENTRY_POINTS[name]
    fn(*valid)
    error = IndexError if name in INDEX_ERRORS else ValueError
    for i, over in indices.items():
        extra = (() if over is None else (over,)) + (([1],) if name in LIST_INDEX else ())
        for bad in HOSTILE + extra:
            args = valid[:i] + (bad,) + valid[i + 1:]
            twin = valid[:i] + (TWIN.get(repr(bad), valid[i]),) + valid[i + 1:]
            for when in ("cold", "warm"):
                clear_caches()
                if when == "warm":
                    # A twin that does not fit the other arguments, n = 3 for
                    # a member at n = 1 say, is rejected after the caches saw it.
                    with suppress(ValueError):
                        fn(*twin)
                try:
                    got = fn(*args)
                except Exception as exc:  # a bare TypeError included
                    got = exc
                where = f"{name} index {i} = {bad!r}, {when}: got {got!r}"
                if bad == -1 and name in ZERO_AT_NEGATIVE:
                    assert got == 0, where
                else:
                    assert isinstance(got, error), where
