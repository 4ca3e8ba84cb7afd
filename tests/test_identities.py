"""Tests for umbral evaluation, the identity registry, and inverse relations."""

import inspect
import io
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

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
from test_sequences import q_power_with_a_unit_term
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


# ---- the cost golden: operation counts of one cold `verify all`, per id ----

COSTS_GOLDEN = Path(__file__).with_name("golden_costs.json")

# Run in a fresh interpreter, so every cache starts cold.  It wraps the
# product and sum of Polynomial, dot and _product in every lambdafact module
# that holds them, and prints, for each id in turn, the calls to each and
# the term pairs that _product multiplied.
COST_SCRIPT = """
import json, sys
from lambdafact import identities, polynomial
from lambdafact.polynomial import Polynomial

counts = dict.fromkeys(("__mul__", "__rmul__", "__add__", "__radd__", "dot", "_product",
                        "term_pairs"), 0)


def counted(name, real):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)
    return wrapper


def counted_rows(rows):
    for row in rows:
        counts["term_pairs"] += len(row[2])
        yield row


for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
    setattr(Polynomial, name, counted(name, getattr(Polynomial, name)))
real = {"dot": polynomial.dot, "_product": polynomial._product}
wrappers = {"dot": counted("dot", real["dot"]), "_product": counted(
    "_product", lambda rows, den: real["_product"](counted_rows(rows), den))}
for module in [m for name, m in sys.modules.items() if name.startswith("lambdafact")]:
    for name, wrapper in wrappers.items():
        if getattr(module, name, None) is real[name]:
            setattr(module, name, wrapper)
costs = {}
for report in identities.verify_many():
    cost = costs.setdefault(report.identity, dict.fromkeys(counts, 0))
    for name in counts:
        cost[name] += counts[name]
        counts[name] = 0
print(json.dumps(costs, indent=1))
"""


def cold_verify_all_costs(hash_seed):
    """The output of COST_SCRIPT run under PYTHONHASHSEED=hash_seed, with the
    package that this process imported."""
    path = [str(Path(polynomial.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "PYTHONHASHSEED": str(hash_seed)}
    run = subprocess.run([sys.executable, "-c", COST_SCRIPT], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_a_cold_verify_all_costs_what_is_pinned():
    # The golden was written under PYTHONHASHSEED=0; this run takes seed 1,
    # so it also shows that two processes count alike.
    golden = json.loads(COSTS_GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == list(ids.catalogue_ids())
    assert json.loads(cold_verify_all_costs(1)) == golden


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


# ---- the mutation matrix: a mutant must fail verify, and its verdicts are pinned ----
#
# Each row installs one mutant of a check, a kernel or a family table, and
# runs `lambdafact verify <id>` once for each of its ids, with its knobs.  The
# verdicts, one p or f per point in order, are pinned in golden_mutants.json;
# a row that runs every id pins the ids its mutant cannot fail as well.

MUTANTS_GOLDEN = Path(__file__).with_name("golden_mutants.json")
MUTANT_VERDICTS = json.loads(MUTANTS_GOLDEN.read_text(encoding="utf-8"))
ALL_IDS = tuple(ids.catalogue_ids())


def _top_unit(order):
    """A unit term at the highest retained order."""
    return TruncatedSeries(X, [0] * order + [1], order)


def _plus(unit):
    """A mutant maker: the real result plus unit(the last positional argument)."""
    return lambda real: lambda *args, **kwargs: real(*args, **kwargs) + unit(args[-1])


def _one(_):
    return 1


def _x_to_the(degree):
    return Polynomial.variable(X) ** degree


def _patch(owner, name, make):
    """An install that replaces owner.name by make(owner.name)."""
    return lambda monkeypatch, _: monkeypatch.setattr(owner, name, make(getattr(owner, name)))


def _patch_everywhere(real, make):
    """An install that replaces real in every lambdafact module that holds it."""
    def install(monkeypatch, _):
        mutant = make(real)
        for module in [m for name, m in sys.modules.items() if name.startswith("lambdafact")]:
            if getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, mutant)

    return install


# A unit term added to the residual of one check.
UNIT_TERMS = {
    # polynomial residual: a unit constant
    "1.0a": lambda params: Polynomial.one(),
    # series residuals: a unit term at the highest retained order
    "3.2": lambda params: _top_unit(params["order"]),
    "3.4": lambda params: _top_unit(params["order"]),
    # total-degree residual: a unit monomial at the degree cap
    "5.2": lambda params: _x_to_the(params["order"]),
}


def _perturb(monkeypatch, identity_id):
    entry = catalogue.CATALOGUE[identity_id]

    def check(**params):
        return entry.check(**params) + UNIT_TERMS[identity_id](params)

    monkeypatch.setitem(catalogue.CATALOGUE, identity_id, entry._replace(check=check))


def _one_degree_low(real):
    return lambda p, q, syms, degree: low_terms(real(p, q, syms, degree), syms, degree - 1)


# A right side built one order short: the residual keeps the smaller order of
# its sides, so it comes out zero to order N-1 and its top coefficient is
# never compared.  The report must fail it.
SHORT_SIDES = {"thm1.2": "abel_rhs", "charlier-deriv": "exp_series", "gessel": "exp_series",
               "3.2": "shifted_sum", "chz": "shifted_sum"}


def _one_order_short(monkeypatch, identity_id):
    real = getattr(catalogue, SHORT_SIDES[identity_id])
    signature = inspect.signature(real)

    def one_order_short(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["order"] -= 1
        return real(*bound.args, **bound.kwargs)

    monkeypatch.setattr(catalogue, SHORT_SIDES[identity_id], one_order_short)


def _carried_f_power(monkeypatch, _):
    # f_0..f_2 are right; the carried (λ-1)^2 has a unit term added.
    monkeypatch.setattr(sequences, "_LAMBDA_FACTORIALS", [Polynomial.one(), lam, lam ** 2 + 1])
    monkeypatch.setattr(sequences, "_LAMBDA_POWER", [(lam - 1) ** 2 + 1])


def _rising_factorial_mutant(real):
    # charlier compiled again with a unit term in (α)_2; (α)_0 and (α)_1 are right.
    step = "rising = rising * (alpha + (k - 1))"
    source = inspect.getsource(real)
    assert source.count(step) == 1
    namespace = dict(vars(sequences))
    exec(source.replace(step, step + " + int(k == 2)"), namespace)
    return namespace[real.__name__]


TRANSFORM_IDS = ("3.4", "3.5", "3.6", "3.7", "3.7.1", "bell-transform", "3.8", "3.9")
# The fifteen convolution rows of Theorem 1.1 and section 4, then the other
# checks with one side a binomial sum: the row 3.1, the sweep of
# stirling-difference and the diagonal sum of q-diag.
CONVOLUTION_IDS = (
    "1.0a", "riordan", "sunxu", "thm1.1", "2.3a", "4.1", "4.2", "cor-selfdual",
    "4.3", "difference", "4.3a", "4.4", "4.5", "cor-n-factorial", "thm5.2",
    "3.1", "stirling-difference", "q-diag",
)


class Mutant(NamedTuple):
    install: Callable  # (monkeypatch, identity_id) puts the mutant in place
    ids: tuple[str, ...]
    knobs: tuple[str, ...] = ()
    cold: tuple = ()  # cached entry points cleared before the install and after the run


MUTANTS = {
    "check+unit": Mutant(_perturb, tuple(UNIT_TERMS)),
    "mul_truncated+x^N": Mutant(_patch(catalogue, "mul_truncated", _plus(_x_to_the)), ("5.2",)),
    "mul_truncated-one-degree": Mutant(_patch(catalogue, "mul_truncated", _one_degree_low), ("5.2",)),
    "abel_sum+unit": Mutant(_patch(catalogue, "abel_sum", _plus(_top_unit)), TRANSFORM_IDS),
    # At order 2 the last term of the sum is built at order 0.
    "abel_sum+unit@order-2": Mutant(_patch(catalogue, "abel_sum", _plus(_top_unit)),
                                    TRANSFORM_IDS, ("--order", "2")),
    "side-one-order-short": Mutant(_one_order_short, tuple(SHORT_SIDES)),
    "binomial_convolution+1": Mutant(_patch(catalogue, "binomial_convolution", _plus(_one)),
                                     CONVOLUTION_IDS),
    # evaluate_at serves Polynomial.substitute, substitute_series and compose.
    "evaluate_at+1": Mutant(_patch_everywhere(polynomial.evaluate_at, _plus(_one)), ALL_IDS),
    # powers gains a unit term in every power after the zeroth.
    "powers+1": Mutant(_patch_everywhere(polynomial.powers, lambda real: lambda base: (
        power + 1 if j else power for j, power in enumerate(real(base)))), ALL_IDS),
    # dot serves every series product, exp and inverse, and the total-degree kernels.
    "dot+1": Mutant(_patch_everywhere(polynomial.dot, _plus(_one)), ALL_IDS),
    # shifted_sum serves abel_sum (the transform rows, thm1.2), 3.2, gessel and chz.
    "shifted_sum+unit": Mutant(_patch_everywhere(series.shifted_sum, _plus(_top_unit)),
                               ALL_IDS),
    "carried-f-power+1": Mutant(_carried_f_power, ("1.0b", "1.0c", "1.0e"),
                                cold=(sequences._lambda_factorial_recurrence,)),
    # Q_{0,0} is right, so column 0 of the recurrence route goes wrong from row 1.
    "carried-q-power+1": Mutant(lambda monkeypatch, _: q_power_with_a_unit_term(monkeypatch),
                                ("5.1",), cold=(sequences._q_recurrence,)),
    "rising-factorial+1": Mutant(_patch(catalogue, "charlier", _rising_factorial_mutant),
                                 ("charlier-spec", "charlier-recurrence")),
    "umbral_eval+1": Mutant(_patch(catalogue, "umbral_eval", _plus(_one)), ALL_IDS),
    # q_poly reads the module's _q_definition at each call.
    "_q_definition+1": Mutant(_patch(sequences, "_q_definition", _plus(_one)), ALL_IDS),
    # derivative builds the bell_poly and hermite_poly tables.
    "derivative+1": Mutant(_patch(Polynomial, "derivative", _plus(_one)), ALL_IDS,
                           cold=(sequences.bell_poly, sequences.hermite_poly)),
}


def run_mutant(row, identity_id, monkeypatch):
    """The exit status and records of `verify identity_id` under the row's mutant."""
    mutant = MUTANTS[row]
    for fn in mutant.cold:
        fn.cache_clear()
    try:
        mutant.install(monkeypatch, identity_id)
        with redirect_stdout(io.StringIO()) as out:
            status = main(["verify", identity_id, *mutant.knobs])
    finally:
        for fn in mutant.cold:
            fn.cache_clear()
    return status, [json.loads(line) for line in out.getvalue().splitlines()]


@pytest.mark.parametrize("row,identity_id",
                         [(row, i) for row, mutant in MUTANTS.items() for i in mutant.ids])
def test_a_mutant_fails_as_pinned(row, identity_id, monkeypatch):
    status, records = run_mutant(row, identity_id, monkeypatch)
    failed = [r for r in records if r["verdict"] == "fail"]
    assert status == (1 if failed else 0)
    assert all(r["residual"] != "0" for r in failed)
    if row == "side-one-order-short":
        assert all(r["residual"] == f"0 + O(x^{r['order']})" for r in failed)
    verdicts = "".join(r["verdict"][0] for r in records)
    assert verdicts == MUTANT_VERDICTS[row][identity_id]


def test_every_id_is_failed_by_some_mutant_and_every_row_fails_one():
    assert {row: tuple(v) for row, v in MUTANT_VERDICTS.items()} == {
        row: mutant.ids for row, mutant in MUTANTS.items()}
    assert all("f" in "".join(v.values()) for v in MUTANT_VERDICTS.values())
    failed = {i for v in MUTANT_VERDICTS.values() for i, verdicts in v.items() if "f" in verdicts}
    assert failed == set(ALL_IDS)


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
