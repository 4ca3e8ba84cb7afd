"""Tests for umbral evaluation, the identity registry, and inverse relations."""

import inspect
import json
import math
import pickle
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdafact import identities as ids
from lambdafact import polynomial, sequences, series
from lambdafact.cli import main
from lambdafact.enumeration import permutations_with_fix
from lambdafact.identities import catalogue
from lambdafact.polynomial import Polynomial
from lambdafact.sequences import derangement, factorial, lambda_factorial
from lambdafact.series import TruncatedSeries
from lambdafact.symbols import LAM, UMBRA, X
from test_series import low_terms

lam, D = map(Polynomial.variable, (LAM, UMBRA))


def enum_f(n):
    acc = Polynomial.zero()
    for _, fix in permutations_with_fix(n):
        acc = acc + lam ** fix
    return acc


def test_umbral_eval_powers():
    # [2] has one derangement and [4] has nine.
    assert ids.umbral_eval(D ** 2) == Polynomial.one()
    assert ids.umbral_eval(D ** 4) == Polynomial.constant(9)
    assert ids.umbral_eval(Polynomial.constant(5)) == Polynomial.constant(5)


def test_umbral_eval_shifted_binomial():
    assert ids.umbral_eval((D + lam) ** 3) == enum_f(3)
    # One-step instance: (D+λ)(D+λ+2) evaluates to (1+λ)^2.
    assert ids.umbral_eval((D + lam) * (D + lam + 2)) == (lam + 1) ** 2


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=2)
monos = st.dictionaries(st.sampled_from((LAM, UMBRA)), st.integers(1, 3), max_size=2)
polys = st.lists(st.tuples(monos, coeffs), max_size=4).map(
    lambda items: Polynomial({tuple(sorted(m.items())): c for m, c in items})
)
dfree = st.lists(st.tuples(st.dictionaries(st.just(LAM), st.integers(1, 3), max_size=1), coeffs), max_size=3).map(
    lambda items: Polynomial({tuple(sorted(m.items())): c for m, c in items})
)


@settings(max_examples=60)
@given(polys, polys)
def test_umbral_eval_is_linear(p, q):
    assert ids.umbral_eval(p + q) == ids.umbral_eval(p) + ids.umbral_eval(q)


@settings(max_examples=60)
@given(polys, dfree)
def test_umbral_eval_commutes_with_dfree_factors(p, c):
    assert ids.umbral_eval(p * c) == ids.umbral_eval(p) * c


def test_umbral_closed_form_of_f():
    for n in range(11):
        assert ids.umbral_eval((D + lam) ** n) == lambda_factorial(n), n


def test_verify_riordan_spot_value():
    report = ids.verify("riordan", n=3)
    assert report.verdict
    lhs = sum(
        math.comb(3, k) * factorial(k + 1) * 4 ** (3 - k) for k in range(4)
    )
    assert lhs == 256 == 4 ** 4


def test_verify_sunxu_spot_value():
    report = ids.verify("sunxu", n=2)
    assert report.verdict
    lhs = sum(
        math.comb(2, k) * derangement(k + 1) * 3 ** (2 - k) for k in range(3)
    )
    assert lhs == 8 == 2 ** 3


def test_verify_thm11_small():
    report = ids.verify("thm1.1", n=1)
    assert report.verdict
    assert (enum_f(1) * 2 + enum_f(2) - (lam + 1) ** 2).is_zero


def test_verify_unknown_id():
    with pytest.raises(KeyError, match="unknown identity"):
        ids.verify("bogus", n=1)


def test_verify_respects_caps():
    with pytest.raises(ValueError, match="cap"):
        ids.verify("thm1.1", n=100)


def test_report_json_shape():
    report = ids.verify("2.4", n=4)
    payload = report.to_json()
    assert payload["id"] == "2.4"
    assert payload["params"] == {"n": 4}
    assert payload["residual"] == "0"
    assert payload["verdict"] == "pass"
    assert payload["elapsed_ms"] >= 0


def test_reports_and_rows_are_immutable_values():
    report = ids.verify("2.4", n=4)
    entry = catalogue.CATALOGUE["2.4"]
    for record, field in ((report, "residual"), (report, "verdict"), (entry, "check")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    back = pickle.loads(pickle.dumps(report))
    assert back == report and back.verdict and "IdentityReport" in repr(back)
    assert "Identity" in repr(entry)


def test_verify_default_point_counts():
    reports = list(ids.verify_many(["thm1.1"], n_max=10))
    assert len(reports) == 11
    assert all(r.verdict for r in reports)


def test_catalogue_contains_expected_ids():
    got = set(ids.catalogue_ids())
    expected = {
        "1.0a", "1.0b", "1.0c", "1.0d", "1.0e", "charlier-spec", "riordan",
        "sunxu", "thm1.1", "2.1", "2.2", "2.3", "2.3a", "2.4", "3.1", "3.2",
        "3.3", "thm1.2", "3.4", "3.5", "3.6", "3.7", "3.7.1", "gessel", "chz",
        "bell-transform", "3.8", "3.9", "4.1", "4.2", "cor-selfdual", "4.3",
        "difference", "4.3a", "4.4", "4.5", "remark-mu", "stirling-difference",
        "cor-n-factorial", "5.1", "5.2", "q-second", "q-diag", "q-explicit",
        "5.3", "5.4", "thm5.2",
    }
    assert expected <= got


def test_selected_identities_at_small_parameters():
    for identity, params in [
        ("1.0a", {"n": 4}),
        ("2.2", {"n": 5}),
        ("3.1", {"n": 4}),
        ("3.2", {"a_kind": "exp", "order": 5}),
        ("thm1.2", {"family": "bell", "order": 5}),
        ("3.4", {"order": 4}),
        ("gessel", {"variant": "bilinear", "order": 4}),
        ("4.4", {"n": 5}),
        ("stirling-difference", {"n": 3, "m_hi": 5}),
        ("5.3", {"n": 3, "m_hi": 3}),
        ("q-diag", {"n": 4}),
    ]:
        report = ids.verify(identity, **params)
        assert report.verdict, (identity, params, str(report.residual)[:120])


def test_abel_k0_boundary_convention():
    # At n = 0 the sum is the k = 0 term alone, whose leading factor is 1.
    assert ids.verify("3.1", n=0).verdict
    # Hand expansion at n = 2: b^2 + 2a(b+t) + a(a-2t) = (a+b)^2.
    a, b, t = map(Polynomial.variable, ("a", "b", "t"))
    rhs = b ** 2 + (b + t) * a * 2 + (a - t * 2) * a
    assert rhs == (a + b) ** 2


def test_free_parameter_boundary_convention():
    # At n = 0 the right side is exactly the k = n boundary term (λ+n)^(n+1),
    # so the conventional unit factor must be wired in.
    assert ids.verify("4.4", n=0).verdict
    assert lambda_factorial(1) == lam


def test_inverse_roundtrip_unit_sequence():
    a = [1] + [0] * 9
    assert ids.inverse_relation_roundtrip("derangement-4.1", a) == a


def test_inverse_roundtrip_factorials():
    a = [factorial(k) for k in range(11)]
    assert ids.inverse_relation_roundtrip("derangement-4.1", a) == a


def test_inverse_roundtrip_tree_kind():
    a = [1] * 8
    assert ids.inverse_relation_roundtrip("tree-4.4", a) == a


def test_inverse_roundtrip_random_sequences():
    rng = random.Random(42)
    for _ in range(10):
        a = [rng.randint(-50, 50) for _ in range(10)]
        assert ids.inverse_relation_roundtrip("derangement-4.1", a) == a
        assert ids.inverse_relation_roundtrip("tree-4.4", a) == a


def test_inverse_roundtrip_of_symbolic_entries_covers_every_sequence():
    a = [Polynomial.variable(f"a{k}") for k in range(12)]
    for kind in ("derangement-4.1", "tree-4.4"):
        assert ids.inverse_relation_roundtrip(kind, a) == a, kind


def test_unit_term_in_the_inverse_pairs_kernel_is_not_hidden(monkeypatch):
    kernel = catalogue.binomial_convolution
    monkeypatch.setattr(ids.inverse, "binomial_convolution",
                        lambda n, term, lo=0: kernel(n, term, lo) + 1)
    a = [Polynomial.variable(f"a{k}") for k in range(4)]
    for kind in ("derangement-4.1", "tree-4.4"):
        assert ids.inverse_relation_roundtrip(kind, a) != a, kind


def test_inverse_roundtrip_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        ids.inverse_relation_roundtrip("nope", [1, 2])


# ---- behaviour contract: the full verify-all stream ----

GOLDEN = Path(__file__).with_name("golden_verify_all.json")


def test_verify_all_stream_matches_golden():
    """Every (id, params, order, residual, verdict) record, in order."""
    stream = []
    for report in ids.verify_many(ids.catalogue_ids()):
        record = report.to_json()
        del record["elapsed_ms"]
        stream.append(record)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(stream) == len(golden) == 510
    assert stream == golden


def test_the_definition_route_of_q_runs_once_per_point_of_a_pass():
    """The catalogue asks for Q_{n,m} by definition 639 times per pass, at
    66 distinct (n, m); the route's body runs once for each."""
    list(ids.verify_many())  # warms every other cache
    route = sequences._q_definition
    route.cache_clear()
    list(ids.verify_many())
    info = route.cache_info()
    assert (info.misses, info.hits + info.misses) == (66, 639)


# The points() output of every identity at six override sets (n_max, m_max,
# order), key order included; written from the registry before it became a
# table, by dumping `CATALOGUE[i].points(*limits)` for every id.
POINTS_GOLDEN = Path(__file__).with_name("golden_points.json")


def test_points_match_golden():
    golden = json.loads(
        POINTS_GOLDEN.read_text(encoding="utf-8"), object_pairs_hook=list
    )
    assert len(golden) == 6
    for (_, limits), (_, by_id) in golden:
        assert [i for i, _ in by_id] == list(ids.catalogue_ids())
        for identity_id, points in by_id:
            got = catalogue.CATALOGUE[identity_id].points(*limits)
            assert [list(p.items()) for p in got] == points, (identity_id, limits)


def _unknobbed(spec):
    """The parameters of a spec whose default axis no override knob reaches."""
    return [param for group in spec for param, axis in group.items()
            if not isinstance(axis, tuple) and param not in catalogue._KNOB]


def test_each_knob_sets_one_parameter_name():
    """n_max sets n, m_max sets m or m_hi, and order sets order, in every spec."""
    for entry in catalogue.CATALOGUE.values():
        assert _unknobbed(entry.spec) == [], entry.id
    overrides = set(inspect.signature(ids.verify_many).parameters) - {"ids"}
    assert set(catalogue._KNOB.values()) == overrides
    # A default axis on a parameter with no knob is caught, not read as literal.
    bad = catalogue.Identity("bad", "a default no knob reaches", lambda k: None,
                             ({"k": range(3)},))
    assert _unknobbed(bad.spec) == ["k"]
    with pytest.raises(KeyError, match="'k'"):
        bad.points(None, None, None)


def test_every_point_binds_to_its_check():
    for limits in [(None, None, None), (2, 1, 3), (12, 4, 9)]:
        for entry in catalogue.CATALOGUE.values():
            signature = inspect.signature(entry.check)
            for point in entry.points(*limits):
                signature.bind(**point)


# ---- mutation tests: a perturbed identity must be reported as a failure ----

def _top_unit(order):
    """A unit term at the highest retained order."""
    return TruncatedSeries(X, [0] * order + [1], order)


UNIT_TERMS = {
    # polynomial residual: a unit constant
    "1.0a": lambda params: Polynomial.one(),
    # series residuals: a unit term at the highest retained order
    "3.2": lambda params: _top_unit(params["order"]),
    "3.4": lambda params: _top_unit(params["order"]),
    # total-degree residual: a unit monomial at the degree cap
    "5.2": lambda params: Polynomial.variable(X) ** params["order"],
}


def _perturb(monkeypatch, identity_id, unit):
    entry = catalogue.CATALOGUE[identity_id]

    def check(**params):
        return entry.check(**params) + unit(params)

    monkeypatch.setitem(
        catalogue.CATALOGUE, identity_id, entry._replace(check=check)
    )


def _assert_every_report_fails(identity_id, capsys, order=None):
    reports = list(ids.verify_many([identity_id], order=order))
    assert reports
    for report in reports:
        assert not report.verdict
        assert not report.residual.is_zero
        payload = report.to_json()
        assert payload["verdict"] == "fail"
        assert payload["residual"] != "0"
    knob = [] if order is None else ["--order", str(order)]
    assert main(["verify", identity_id, *knob]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(reports)
    assert all(json.loads(line)["verdict"] == "fail" for line in lines)


@pytest.mark.parametrize("identity_id", sorted(UNIT_TERMS))
def test_perturbed_identity_fails(identity_id, monkeypatch, capsys):
    _perturb(monkeypatch, identity_id, UNIT_TERMS[identity_id])
    _assert_every_report_fails(identity_id, capsys)


def test_unit_term_inside_truncating_multiply_is_not_hidden(monkeypatch, capsys):
    real = catalogue.mul_truncated

    def perturbed(p, q, syms, total_degree):
        return real(p, q, syms, total_degree) + Polynomial.variable(X) ** total_degree

    monkeypatch.setattr(catalogue, "mul_truncated", perturbed)
    _assert_every_report_fails("5.2", capsys)


def test_truncating_one_degree_too_low_is_caught(monkeypatch, capsys):
    real = catalogue.mul_truncated

    def off_by_one(p, q, syms, total_degree):
        return low_terms(real(p, q, syms, total_degree), syms, total_degree - 1)

    monkeypatch.setattr(catalogue, "mul_truncated", off_by_one)
    _assert_every_report_fails("5.2", capsys)


TRANSFORM_IDS = ("3.4", "3.5", "3.6", "3.7", "3.7.1", "bell-transform", "3.8", "3.9")


def _unit_term_in_the_transform_kernel(monkeypatch):
    real = catalogue.abel_sum

    def perturbed(lam, shifted_derivative, order):
        return real(lam, shifted_derivative, order) + _top_unit(order)

    monkeypatch.setattr(catalogue, "abel_sum", perturbed)


@pytest.mark.parametrize("identity_id", TRANSFORM_IDS)
def test_unit_term_in_the_transform_kernel_is_not_hidden(identity_id, monkeypatch, capsys):
    _unit_term_in_the_transform_kernel(monkeypatch)
    _assert_every_report_fails(identity_id, capsys)


@pytest.mark.parametrize("identity_id", TRANSFORM_IDS)
def test_unit_term_in_the_transform_kernel_is_not_hidden_at_order_2(
    identity_id, monkeypatch, capsys
):
    # At order 2 the last term of the sum is built at order 0.
    _unit_term_in_the_transform_kernel(monkeypatch)
    _assert_every_report_fails(identity_id, capsys, order=2)


# The checks whose sums over k go through shifted_sum, which builds term k
# only to order N-k; at --order 0, 1 and 2 the last term is built at order 0.
SHIFTED_SUM_IDS = TRANSFORM_IDS + ("thm1.2", "gessel", "chz", "3.2")


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("identity_id", SHIFTED_SUM_IDS)
def test_shifted_sums_pass_at_the_lowest_orders(identity_id, order, capsys):
    assert main(["verify", identity_id, "--order", str(order)]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records
    assert all(r["verdict"] == "pass" and r["params"]["order"] == order for r in records)


# A right side built one order short: the residual keeps the smaller order of
# its sides, so it comes out zero to order N-1 and its top coefficient is
# never compared.  The report must fail it.
SHORT_SIDES = {"thm1.2": "abel_rhs", "charlier-deriv": "exp_series", "gessel": "exp_series",
               "3.2": "shifted_sum", "chz": "shifted_sum"}


@pytest.mark.parametrize("identity_id", sorted(SHORT_SIDES))
def test_a_series_residual_short_of_its_order_fails(identity_id, monkeypatch, capsys):
    real = getattr(catalogue, SHORT_SIDES[identity_id])
    signature = inspect.signature(real)

    def one_order_short(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["order"] -= 1
        return real(*bound.args, **bound.kwargs)

    monkeypatch.setattr(catalogue, SHORT_SIDES[identity_id], one_order_short)
    reports = list(ids.verify_many([identity_id]))
    assert reports
    for report in reports:
        assert report.residual.is_zero
        assert report.residual.order == report.order - 1
        assert not report.verdict
        payload = report.to_json()
        assert payload["verdict"] == "fail"
        assert payload["residual"] == f"0 + O(x^{report.order})"
    assert main(["verify", identity_id]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(reports)
    assert all(json.loads(line)["verdict"] == "fail" for line in lines)


# The fifteen convolution rows of Theorem 1.1 and section 4, then the other
# checks with one side a binomial sum: the row 3.1, the sweep of
# stirling-difference and the diagonal sum of q-diag.
CONVOLUTION_IDS = (
    "1.0a", "riordan", "sunxu", "thm1.1", "2.3a", "4.1", "4.2", "cor-selfdual",
    "4.3", "difference", "4.3a", "4.4", "4.5", "cor-n-factorial", "thm5.2",
    "3.1", "stirling-difference", "q-diag",
)


@pytest.mark.parametrize("identity_id", CONVOLUTION_IDS)
def test_unit_term_in_the_convolution_kernel_is_not_hidden(
    identity_id, monkeypatch, capsys
):
    real = catalogue.binomial_convolution

    def perturbed(n, term, lo=0):
        return real(n, term, lo) + Polynomial.one()

    monkeypatch.setattr(catalogue, "binomial_convolution", perturbed)
    _assert_every_report_fails(identity_id, capsys)


# The ids whose reports fail under a unit term in one shared kernel of the
# polynomial or series layer, pinned from `lambdafact verify all`.
KERNEL_MUTANT_FAILURES = {
    # a unit term added to each result of evaluate_at, which serves
    # Polynomial.substitute, substitute_series and TruncatedSeries.compose
    "evaluate_at": (
        "1.0a", "charlier-spec", "charlier-recurrence", "charlier-deriv", "3.4",
        "3.5", "3.6", "3.7", "gessel", "chz", "bell-transform", "3.8", "3.9",
        "4.2", "cor-selfdual", "4.3", "4.3a", "4.5", "remark-mu",
        "cor-n-factorial", "5.3", "5.4",
    ),
    # a unit term added to every power after the zeroth from powers
    "powers": (
        "1.0a", "1.0b", "charlier-spec", "charlier-recurrence", "2.3", "3.2", "thm1.2",
        "charlier-deriv", "3.4", "3.5", "3.6", "3.7", "3.7.1", "gessel", "chz",
        "bell-transform", "3.8", "3.9", "4.2", "cor-selfdual", "4.3", "4.5",
        "remark-mu", "cor-n-factorial", "q-explicit", "5.3", "5.4",
    ),
    # a unit term added to each result of dot, which serves every series
    # product, exp and inverse (3.4) and the total-degree kernels (5.2)
    "dot": (
        "2.1", "2.2", "2.3", "3.2", "charlier-deriv", "3.4", "3.5", "3.6", "3.7",
        "gessel", "bell-transform", "3.8", "3.9", "5.2",
    ),
    # a unit term at the top order of each result of shifted_sum, which serves
    # abel_sum (the transform rows, thm1.2), 3.2, gessel and chz
    "shifted_sum": (
        "3.2", "thm1.2", "3.4", "3.5", "3.6", "3.7", "3.7.1", "gessel", "chz",
        "bell-transform", "3.8", "3.9",
    ),
}


def _evaluate_at_mutant(real):
    return lambda coeffs, value, total: real(coeffs, value, total) + 1


def _powers_mutant(real):
    def mutant(base):
        for j, power in enumerate(real(base)):
            yield power + 1 if j else power

    return mutant


def _dot_mutant(real):
    return lambda pairs: real(pairs) + 1


def _shifted_sum_mutant(real):
    return lambda term, order: real(term, order) + _top_unit(order)


MAKE_MUTANT = {
    "evaluate_at": _evaluate_at_mutant, "powers": _powers_mutant, "dot": _dot_mutant,
    "shifted_sum": _shifted_sum_mutant,
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_MUTANT_FAILURES))
def test_unit_term_in_a_shared_polynomial_kernel_fails_verify_all(
    kernel, monkeypatch, capsys
):
    real = getattr(polynomial if hasattr(polynomial, kernel) else series, kernel)
    mutant = MAKE_MUTANT[kernel](real)
    # Every module that imported the kernel holds its own binding.
    for module in [m for name, m in sys.modules.items() if name.startswith("lambdafact")]:
        if getattr(module, kernel, None) is real:
            monkeypatch.setattr(module, kernel, mutant)
    assert main(["verify", "all"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    failed = {r["id"] for r in records if r["verdict"] == "fail"}
    got = tuple(i for i in ids.catalogue_ids() if i in failed)
    assert got == KERNEL_MUTANT_FAILURES[kernel]


def test_binomial_convolution_kernel():
    for n in range(6):
        ones = catalogue.binomial_convolution(n, lambda k: 1)
        assert ones == Polynomial.constant(2 ** n)
        shifted = catalogue.binomial_convolution(n, lambda k: k, lo=1)
        expected = sum(math.comb(n - 1, k - 1) * k for k in range(1, n + 1))
        assert shifted == Polynomial.constant(expected)
    assert catalogue.binomial_convolution(0, lambda k: 1, lo=1).is_zero
    first = catalogue.binomial_convolution(4, lambda k: lam ** k)
    assert first == (lam + 1) ** 4


@pytest.mark.parametrize(
    "identity_id,params",
    [
        ("thm1.2", {"family": "ones", "order": 2, "variant": "bogus"}),
        ("3.2", {"a_kind": "bogus", "order": 2}),
        ("gessel", {"variant": "bogus", "order": 2}),
        ("cor-n-factorial", {"n": 2, "variant": "bogus"}),
        ("3.7", {"m": 0, "variant": "bogus", "order": 2}),
        ("thm1.2", {"family": "bogus", "order": 2}),
    ],
)
def test_an_unknown_variant_is_an_error_naming_it(identity_id, params):
    with pytest.raises(ValueError, match="unknown .*'bogus'"):
        ids.verify(identity_id, **params)


def test_empty_sweep_is_an_error_not_a_pass():
    with pytest.raises(ValueError, match="empty sweep"):
        ids.verify("5.1", n=2, m_hi=-1)
    with pytest.raises(ValueError, match="empty sweep"):
        ids.verify("2.1", n=0)


# Each capped parameter of each identity at -1, from its first default
# point, and two points that passed as empty sums before they were rejected.
# Below 0 a check may sum over nothing, and an empty sum would pass.
BELOW_ZERO = [
    pytest.param(identity_id, {**point, param: -1}, id=f"{identity_id}-{param}")
    for identity_id, entry in catalogue.CATALOGUE.items()
    for point in entry.points(None, None, None)[:1]
    for param in point if param in catalogue._PARAM_CAPS
] + [pytest.param("thm5.2", {"n": -5}, id="thm5.2-n=-5"),
     pytest.param("3.2", {"a_kind": "geometric", "order": -1}, id="3.2-geometric")]
BELOW_ZERO_MESSAGES = {"order": "truncation order must be >= 0", "m_hi": "empty sweep"}


@pytest.mark.parametrize("identity_id,params", BELOW_ZERO)
def test_a_capped_parameter_below_zero_is_an_error_not_a_pass(identity_id, params):
    param, value = next((p, v) for p, v in params.items()
                        if p in catalogue._PARAM_CAPS and v < 0)
    message = BELOW_ZERO_MESSAGES.get(param, f"{param}={value} below 0")
    with pytest.raises(ValueError, match=message):
        ids.verify(identity_id, **params)


# Hostile points, each from the first default point of an identity: a capped
# parameter that is no int, or is a bool; an unknown and a missing parameter
# name; a literal parameter off its spec's list; and four calls outside
# their specs (3.5's point given to 3.4, thm1.2's default variant named, and
# two values of `at` that 4.3a does not list, one a float equal to the value
# it does list).  Each is a ValueError naming what is wrong.
FIRST_POINTS = {i: e.points(None, None, None)[0] for i, e in catalogue.CATALOGUE.items()}
HOSTILE = [
    pytest.param(i, {**point, param: bad}, rf"\b{param}={re.escape(repr(bad))} ",
                 id=f"{i}-{param}={bad!r}")
    for i, point in FIRST_POINTS.items() for param in point
    if param in catalogue._PARAM_CAPS for bad in (2.0, "3", True, None)
] + [
    pytest.param(i, {**point, param: "bogus"}, rf"unknown {param} 'bogus'",
                 id=f"{i}-{param}=bogus")
    for i, point in FIRST_POINTS.items() for param in point
    if param not in catalogue._PARAM_CAPS
] + [
    pytest.param(i, {**point, "bogus": 1}, rf"{re.escape(i)}: unknown .*'bogus'",
                 id=f"{i}-unknown-name")
    for i, point in FIRST_POINTS.items()
] + [
    pytest.param(i, {p: v for p, v in point.items() if p != shared},
                 rf"{re.escape(i)}: missing .*'{shared}'", id=f"{i}-missing-{shared}")
    for i, point in FIRST_POINTS.items()
    for shared in [next(p for p in point
                        if all(p in group for group in catalogue.CATALOGUE[i].spec))]
] + [
    pytest.param("3.4", {"order": 2, "m": 1}, r"3\.4: unknown .*'m'", id="3.4-m"),
    pytest.param("thm1.2", {"family": "bell", "order": 3, "variant": "egf"},
                 "unknown variant 'egf'", id="thm1.2-variant=egf"),
    pytest.param("4.3a", {"n": 3, "at": 2}, "unknown at 2", id="4.3a-at=2"),
    pytest.param("4.3a", {"n": 3, "at": -1.0}, r"unknown at -1\.0", id="4.3a-at=-1.0"),
]


@pytest.mark.parametrize("identity_id,params,message", HOSTILE)
def test_a_point_outside_its_spec_is_an_error_naming_it(identity_id, params, message):
    with pytest.raises(ValueError, match=message):
        ids.verify(identity_id, **params)


@pytest.mark.parametrize(
    "wanted,knobs,message",
    [
        (["2.1"], {"n_max": -3}, "no parameter points to check for: 2.1"),
        (["1.0a"], {"n_max": 41}, "n=41 beyond the supported cap 40"),
        (["bogus", "thm1.1", "x"], {}, "unknown identity ids: bogus, x"),
        (["5.1"], {"n_max": 11}, "empty sweep"),
        (["q-second"], {"n_max": 10}, "empty sweep"),
        (["thm1.1", "stirling-difference"], {"m_max": -1}, "empty sweep"),
        (["thm1.1", "3.2"], {"order": -1}, "truncation order must be >= 0"),
        ([], {}, "no identity ids"),
        (["thm1.1"], {"order": 3, "m_max": 2}, "no point of thm1.1 reads m_max=2, order=3"),
        (["5.2", "3.4"], {"n_max": 4}, "no point of 5.2, 3.4 reads n_max=4"),
        (["3.4", "chz"], {"n_max": 3, "m_max": 1, "order": 0},
         "no point of 3.4, chz reads n_max=3, m_max=1"),
        (["2.1"], {"n_max": 5000}, "n=5000 beyond the supported cap 40"),
        (["5.2"], {"order": 21}, "order=21 beyond the supported cap 20"),
        (["2.1"], {"n_max": True}, "n_max=True is not an int"),
        (["2.1"], {"n_max": 2.0}, "n_max=2.0 is not an int"),
        (["2.1"], {"n_max": "3"}, "n_max='3' is not an int"),
        (["5.1"], {"m_max": 1.0}, "m_max=1.0 is not an int"),
        (["3.2"], {"order": 1.5}, "order=1.5 is not an int"),
    ],
)
def test_verify_many_rejects_a_bad_request_before_any_report(wanted, knobs, message):
    reports = []
    with pytest.raises(ValueError, match=message):
        for report in ids.verify_many(wanted, **knobs):
            reports.append(report)
    assert reports == []


def test_an_override_beyond_its_cap_is_rejected_before_any_point_is_built():
    with pytest.raises(ValueError, match=r"^n=100000 beyond the supported cap 40$"):
        catalogue.CATALOGUE["1.0a"].points(10 ** 5, None, None)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^m=100000 beyond the supported cap 12$"):
            ids.verify_many(["3.5"], m_max=10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("bad", [True, 2.0, "3"])
def test_points_take_only_int_knobs(bad):
    # verify_many and direct callers of points share this one check.
    with pytest.raises(ValueError, match=re.escape(f"n_max={bad!r} is not an int")):
        catalogue.CATALOGUE["2.1"].points(bad, None, None)
