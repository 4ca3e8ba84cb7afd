"""Tests for the exhaustive generators and the colored-forest bijection."""

import itertools
import pickle
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdafact import enumeration as en
from lambdafact import sequences as seq
from lambdafact.cli import main
from lambdafact.symbols import LAM


def test_permutations_with_fix_small():
    assert list(en.permutations_with_fix(2)) == [((1, 2), 2), ((2, 1), 0)]
    fixes = sorted(fix for _, fix in en.permutations_with_fix(3))
    assert fixes == [0, 0, 1, 1, 1, 3]
    assert list(en.permutations_with_fix(0)) == [((), 0)]
    with pytest.raises(ValueError):
        list(en.permutations_with_fix(9))


def test_set_partitions_match_the_brute_force_restricted_growth_strings():
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    for n in range(8):
        # every word over 0..n-1, in lexicographic order, whose values each
        # exceed the largest value before them (-1 for the first) by at most 1
        want = [rgs for rgs in itertools.product(range(n), repeat=n)
                if all(b <= top + 1 for b, top in
                       zip(rgs, itertools.accumulate(rgs, max, initial=-1)))]
        got = list(en.set_partitions(n))
        assert got == want, n
        assert len(got) == bell[n]


@pytest.mark.parametrize("generate,cutoff", [
    (en.permutations_with_fix, en.PERMUTATION_CUTOFF),
    (en.set_partitions, en.PERMUTATION_CUTOFF),
    (en.forests, en.FOREST_CUTOFF),
    (en.permanent_check, en.PERMANENT_CUTOFF),
    pytest.param(lambda n: en.exhaustive_roundtrip(n, 1), None, id="exhaustive_roundtrip-n"),
    pytest.param(lambda lam: en.exhaustive_roundtrip(1, lam), None,
                 id="exhaustive_roundtrip-lam"),
    # enumerate_m_star stays a generator, so it checks when the first map is read.
    pytest.param(lambda n: next(en.enumerate_m_star(n, 1)), None, id="enumerate_m_star-n"),
    pytest.param(lambda lam: next(en.enumerate_m_star(1, lam)), None,
                 id="enumerate_m_star-lam"),
])
def test_a_size_is_an_int_within_the_cutoff(generate, cutoff):
    # True would count as 1 and 1.0 would fail inside a range; a stream
    # raises when it is asked for, before anything reads it.
    bound = ">= 0" if cutoff is None else f"in 0..{cutoff}"
    for size in (True, 1.0, 2.0, -1) + (() if cutoff is None else (cutoff + 1,)):
        expected = f"must be {bound if type(size) is int else 'an int'}, got {size!r}"
        with pytest.raises(ValueError, match=re.escape(expected) + "$"):
            generate(size)


def test_census_exceeds_matches_the_power():
    for cutoff in (0, 1, 2, 7, 8, 100, 10 ** 5, en.MSTAR_CUTOFF):
        for n in range(25):
            for lam in (*range(12), 999, 10 ** 5, 10 ** 6 - n, 10 ** 6 + 1):
                want = (n + lam) ** (n + 1) > cutoff
                assert en.census_exceeds(n, lam, cutoff) == want, (n, lam, cutoff)


@pytest.mark.parametrize("call,message", [
    pytest.param(lambda: en.exhaustive_roundtrip(0, 3_000_000), "n=0, lam=3000000 exceed",
                 id="census-lam"),
    pytest.param(lambda: en.exhaustive_roundtrip(10 ** 6, 1), "n=1000000, lam=1 exceed",
                 id="census-n"),
    pytest.param(lambda: en.sigma_to_pair(en.Endofunction((1, 1)), 0, 10 ** 6),
                 r"expected a map on \[1000001\], got \[2\]", id="short-sigma"),
    # 10**6 maps pass the map cutoff, but each has 10**6 + 1 entries.
    pytest.param(lambda: next(en.enumerate_m_star(0, 10 ** 6)),
                 "n=0, lam=1000000 exceed 200000000 entries", id="census-entries"),
])
def test_an_oversized_request_raises_before_it_allocates(call, message):
    # The census size is decided without forming (n+lam)**(n+1), and the length
    # of a map is checked before the lam-long tail of fixed color vertices is built.
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 5 * 2 ** 20


def test_the_entry_bound_binds_only_where_maps_are_long():
    def starts(n, lam):
        try:
            return next(en.enumerate_m_star(n, lam)) is not None
        except ValueError:
            return False

    # From n = 2 on, the map cutoff is the limit: the largest lam it admits runs.
    for n in range(2, 7):  # from n = 7 on, 7**8 maps pass the cutoff at lam = 0
        lam = 0
        while not en.census_exceeds(n, lam + 1, en.MSTAR_CUTOFF):
            lam += 1
        assert starts(n, lam), (n, lam)
    # Below, the entries stop n = 0 at lam = 14141 and n = 1 at lam = 583.
    assert [starts(0, 14141), starts(0, 14142), starts(1, 583), starts(1, 584)] == [
        True, False, True, False]


def test_oracle_polynomials_counts():
    o4 = en.oracle_polynomials(4)
    assert o4.derangements == 9
    assert o4.involutions == 10
    assert o4.matchings == 3
    assert o4.bell.evaluate({"u": 1}) == 15
    o1 = en.oracle_polynomials(1)
    assert str(o1.lambda_factorial) == "λ"
    assert str(o1.bell) == "u"
    assert str(o1.hermite) == "u"


def endofunctions(n):
    """All n**n self-maps of [n], in lexicographic order of the image tuple."""
    return map(en.Endofunction, itertools.product(range(1, n + 1), repeat=n))


def test_endofunction_counts():
    assert [sum(1 for _ in endofunctions(n)) for n in range(5)] == [1, 1, 4, 27, 256]
    with pytest.raises(ValueError):
        en.Endofunction((1, 2, 4))


def test_endofunction_validation():
    with pytest.raises(ValueError, match=r"^image value 4 outside \[3\]$"):
        en.Endofunction((1, 4, 2))
    with pytest.raises(ValueError, match=r"^image value 0 outside \[3\]$"):
        en.Endofunction((1, 0, 2))


@pytest.mark.parametrize("image,bad", [((1.5, 1), "1.5"), ((1, 2.0), "2.0"), (("1", 1), "'1'"),
                                       ((1, None), "None"), ((1, 5, 0.5), "5")])
def test_endofunction_rejects_a_non_integer_entry(image, bad):
    with pytest.raises(ValueError, match=rf"^image value {re.escape(bad)} outside \[{len(image)}\]$"):
        en.Endofunction(image)


def two_path_check(image):
    """The constructor's validation before it became one loop: a sum/min/max
    fast path, then a loop that names the first bad value."""
    n = len(image)
    try:
        ok = not image or (type(sum(image)) is int and min(image) >= 1 and max(image) <= n)
    except TypeError:
        ok = False
    if not ok:
        bad = next(v for v in image if not (isinstance(v, int) and 1 <= v <= n))
        raise ValueError(f"image value {bad!r} outside [{n}]")


ENTRIES = st.one_of(st.integers(-1, 8), st.booleans(), st.floats(), st.fractions(),
                    st.none(), st.text(max_size=2))


@settings(max_examples=500)
@given(st.one_of(st.lists(st.integers(-1, 8), max_size=7), st.lists(ENTRIES, max_size=7)))
def test_endofunction_check_matches_the_two_path_check(image):
    def outcome(check):
        try:
            check(tuple(image))
        except ValueError as exc:
            return str(exc)
        return None

    assert outcome(en.Endofunction) == outcome(two_path_check)


def test_endofunction_check_accepts_a_bool_and_rejects_a_whole_fraction():
    assert en.Endofunction((True, 2)).image == (True, 2)
    with pytest.raises(ValueError, match=r"^image value Fraction\(1, 1\) outside \[2\]$"):
        en.Endofunction((2, Fraction(1)))


def test_endofunction_stores_a_tuple():
    sigma = en.Endofunction([1, 1, 3])
    assert type(sigma.image) is tuple and sigma == en.Endofunction((1, 1, 3))
    assert hash(sigma) == hash(en.Endofunction((1, 1, 3)))
    with pytest.raises(AttributeError):
        sigma.image.append(1)
    assert en.Endofunction(v for v in (2, 1)).image == (2, 1)


# ---- the record types: immutable values that compare, hash and pickle ----


def test_records_compare_and_hash_by_value():
    sigma, same, other = (en.Endofunction(image) for image in ((1, 1, 3), (1, 1, 3), (3, 1, 3)))
    assert sigma == same and hash(sigma) == hash(same) and sigma != other
    assert len({sigma, same, other}) == 2
    pair = en.sigma_to_pair(sigma, 1, 1)
    twin = en.ColoredForestPermutation(parent=pair.parent, pi=pair.pi, colors=pair.colors)
    assert pair == twin and hash(pair) == hash(twin)
    assert pair != en.sigma_to_pair(other, 1, 1)
    assert "Endofunction" in repr(sigma) and "ColoredForestPermutation" in repr(pair)


def test_records_are_immutable():
    sigma = en.Endofunction((1, 1, 3))
    pair = en.sigma_to_pair(sigma, 1, 1)
    families = en.oracle_polynomials(2)
    for record, field in ((sigma, "image"), (pair, "parent"), (families, "derangements")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
    assert sigma.image == (1, 1, 3) and families.derangements == 1


def test_records_survive_pickling():
    sigma = en.Endofunction((1, 1, 3))
    back = pickle.loads(pickle.dumps(sigma))
    assert back == sigma and type(back) is en.Endofunction and back(3) == 3
    pair = en.sigma_to_pair(sigma, 1, 1)
    assert pickle.loads(pickle.dumps(pair)) == pair


def test_cycle_vertices_examples():
    assert en._cycle_vertices((2, 1, 2)) == {1, 2}
    assert en._cycle_vertices((1, 2, 3, 4)) == {1, 2, 3, 4}
    assert en._cycle_vertices((1, 1, 1)) == {1}
    # A parent map: 0 marks a root and ends the path, so a forest has none.
    assert en._cycle_vertices((0, 1, 2)) == set()
    assert en._cycle_vertices((0, 3, 2)) == {2, 3}


def bold_sources(dot):
    return {int(line.split()[0]) for line in dot.splitlines() if "[style=bold]" in line}


def test_cycle_vertices_and_dot_properties():
    for sigma in endofunctions(4):
        cyc = en._cycle_vertices(sigma.image)
        assert {sigma(v) for v in cyc} == cyc  # restriction is a permutation
        for v in range(1, 5):  # every vertex reaches a cycle
            steps = 0
            w = v
            while w not in cyc:
                w = sigma(w)
                steps += 1
                assert steps <= 4
        assert bold_sources(en.endofunction_to_dot(sigma)) == cyc


def test_forest_counts():
    assert sum(1 for _ in en.forests(1)) == 1
    # Forests on [3]: (2+2)^2 with the two-component stratum C(2,1)*3.
    all3 = list(en.forests(3))
    assert len(all3) == 16
    assert sum(1 for f in all3 if f.count(0) == 2) == 6


def test_is_forest_rejects_cycles():
    assert not en.is_forest((2, 1))
    assert not en.is_forest((1,))
    assert en.is_forest((0, 1, 2))


@pytest.mark.parametrize("parent,bad", [((5, 0), 5), ((-1, 0), -1), ((0, 3), 3), ((1.5, 0), 1.5),
                                        (("a", 0), "a"), ((1.0, 0), 1.0), ([0, 2, 7], 7)])
def test_is_forest_rejects_parent_values_out_of_range(parent, bad):
    with pytest.raises(ValueError, match=rf"^parent value {re.escape(str(bad))} outside \[0\.\.{len(parent)}\]$"):
        en.is_forest(parent)


def test_enumerate_m_star_counts_and_order():
    images = [s.image for s in en.enumerate_m_star(2, 2)]
    assert len(images) == 64  # (2+2)^3
    assert images == sorted(images)  # lexicographic stream
    assert sum(1 for _ in en.enumerate_m_star(0, 1)) == 1
    assert sum(1 for _ in en.enumerate_m_star(1, 1)) == 4
    assert sum(1 for _ in en.enumerate_m_star(0, 0)) == 0
    # The stream builds its members unchecked; each passes the checked constructor.
    for n, lam in ((0, 3), (2, 2), (3, 1)):
        for sigma in en.enumerate_m_star(n, lam):
            assert en.Endofunction(sigma.image) == sigma and type(sigma) is en.Endofunction


def test_m_star_validation():
    with pytest.raises(ValueError, match="forbidden"):
        en.sigma_to_pair(en.Endofunction((2, 2, 3)), 1, 1)
    with pytest.raises(ValueError, match="fixed"):
        en.sigma_to_pair(en.Endofunction((1, 1, 1)), 1, 1)
    # (n, lam) is checked before sigma: this map once passed as a member at n = -1.
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        en.sigma_to_pair(en.Endofunction((1, 2)), -1, 2)


def test_rewrite_rules_one_by_one():
    # n = 2, λ = 2 on [5]: vertex 1 fixed, vertex 2 into a plain edge,
    # vertex 3 into color vertex 4 (color 1).
    sigma = en.Endofunction((1, 1, 4, 4, 5))
    tau, colors = tau_of(en.sigma_to_pair(sigma, 2, 2))
    assert tau == (3, 1, 3)  # 1 -> n+1 = 3; 2 -> 1 copied; 3 -> itself
    assert colors == {3: 1}
    assert (tau, colors) == reference_tau(sigma, 2)
    assert reference_head(tau, colors, 2) + (4, 5) == sigma.image
    assert en.pair_to_sigma(en.sigma_to_pair(sigma, 2, 2), 2, 2) == sigma


def test_spec_single_object_examples():
    sigma = en.Endofunction((1, 1, 3))
    pair = en.sigma_to_pair(sigma, 1, 1)
    assert pair.parent == (0, 0)
    assert pair.pi == ((1, 2), (2, 1))
    assert pair.colors == ()
    assert en.pair_to_sigma(pair, 1, 1).image == sigma.image

    # n = 0, λ = 1: the unique map becomes a single colored fixed point.
    (only,) = en.enumerate_m_star(0, 1)
    pair = en.sigma_to_pair(only, 0, 1)
    assert pair.parent == (0,)
    assert pair.pi == ((1, 1),)
    assert pair.colors == ((1, 1),)


def is_member(image, n, lam):
    return (len(image) == n + lam + 1 and n + 1 not in image
            and all(image[k - 1] == k for k in range(n + 2, n + lam + 2)))


@pytest.mark.parametrize("n, lam", [(0, 2), (1, 1), (1, 2), (2, 1), (3, 0)])
def test_validate_m_star_accepts_exactly_the_members(n, lam):
    for size in (n + lam, n + lam + 1, n + lam + 2):
        for image in itertools.product(range(1, size + 1), repeat=size):
            if is_member(image, n, lam):
                en._validate_m_star(en.Endofunction(image), n, lam)
            else:
                with pytest.raises(ValueError):
                    en._validate_m_star(en.Endofunction(image), n, lam)


def test_census_validates_each_member(monkeypatch):
    monkeypatch.setattr(en, "enumerate_m_star", lambda n, lam: iter([en.Endofunction((2, 2, 3))]))
    with pytest.raises(RuntimeError, match="forbidden"):
        en.exhaustive_roundtrip(1, 1)


def test_exhaustive_roundtrip_and_strata():
    strata = en.exhaustive_roundtrip(2, 2)
    assert sum(strata.values()) == 64
    for k in range(3):
        expected = (
            seq.binomial(2, k)
            * 3 ** (2 - k)
            * int(seq.lambda_factorial(k + 1).evaluate({LAM: 2}))
        )
        assert strata.get(k, 0) == expected, k

    # λ = 1 strata reproduce the plain tree-count convolution at n = 2.
    strata = en.exhaustive_roundtrip(2, 1)
    assert sum(strata.values()) == 27
    for k in range(3):
        expected = (
            seq.binomial(2, k)
            * 3 ** (2 - k)
            * int(seq.lambda_factorial(k + 1).evaluate({LAM: 1}))
        )
        assert strata.get(k, 0) == expected, k


def test_both_sides_count_two_at_n0_lam2():
    sigmas = list(en.enumerate_m_star(0, 2))
    assert len(sigmas) == 2
    pairs = {en.sigma_to_pair(s, 0, 2) for s in sigmas}
    assert len(pairs) == 2
    for s in sigmas:
        assert en.pair_to_sigma(en.sigma_to_pair(s, 0, 2), 0, 2).image == s.image


def test_pair_validation_errors():
    good = en.sigma_to_pair(en.Endofunction((1, 1, 3)), 1, 1)
    bad_color = en.ColoredForestPermutation(
        parent=good.parent, pi=good.pi, colors=((1, 1),)
    )
    with pytest.raises(ValueError, match="fixed points"):
        en.pair_to_sigma(bad_color, 1, 1)
    bad_pi = en.ColoredForestPermutation(
        parent=(0, 0), pi=((1, 1), (2, 1)), colors=((1, 1),)
    )
    with pytest.raises(ValueError, match="permute"):
        en.pair_to_sigma(bad_pi, 1, 1)
    cyclic = en.ColoredForestPermutation(parent=(2, 1), pi=(), colors=())
    with pytest.raises(ValueError, match="cycle"):
        en.pair_to_sigma(cyclic, 1, 1)
    overflow = en.ColoredForestPermutation(
        parent=(0,), pi=((1, 1),), colors=((1, 5),)
    )
    with pytest.raises(ValueError, match="color"):
        en.pair_to_sigma(overflow, 0, 1)
    # A color that is not an int is named as given, not as a shifted image value.
    for color, lam in [("x", 1), (1.5, 2)]:
        odd = en.ColoredForestPermutation(parent=(0,), pi=((1, 1),), colors=((1, color),))
        with pytest.raises(ValueError, match=rf"^color {color!r} of vertex 1 outside \[1\.\.{lam}\]$"):
            en.pair_to_sigma(odd, 0, lam)


# ---- the tuple kernels against the slow paths they replace ----


def fixpoint_cycles(f):
    """Cycle vertices by iterating the image of the whole vertex set until it
    stabilizes: the set-iteration fixpoint the path walk replaced."""
    current = frozenset(range(1, len(f) + 1))
    while True:
        nxt = frozenset(f[v - 1] for v in current)
        if nxt == current:
            return current
        current = nxt


def reaches_root(parent):
    """Every vertex reaches the root marker 0 within len(parent) steps."""
    for v in range(1, len(parent) + 1):
        for _ in range(len(parent)):
            if v == 0:
                break
            v = parent[v - 1]
        if v != 0:
            return False
    return True


def tau_of(pair):
    """The intermediate map tau and its colors, read off a pair: a root goes
    to its pi image, every other vertex to its parent."""
    pi = dict(pair.pi)
    return tuple(p or pi[v] for v, p in enumerate(pair.parent, start=1)), dict(pair.colors)


def reference_tau(sigma, n):
    """The three rewrite rules, one vertex at a time: a fixed point in [n]
    becomes an edge to n+1, an edge into color vertex n+j+1 a fixed point
    colored j, and any other edge is copied."""
    tau, colors = [], {}
    for i in range(1, n + 2):
        s = sigma(i)
        if s > n + 1:
            tau.append(i)
            colors[i] = s - n - 1
        elif s == i:
            tau.append(n + 1)
        else:
            tau.append(s)
    return tuple(tau), colors


def reference_head(tau, colors, n):
    """The three rewrite rules run backwards: sigma's first n+1 values."""
    return tuple(n + 1 + colors[i] if t == i else i if t == n + 1 else t
                 for i, t in enumerate(tau, start=1))


def reference_pair(sigma, n):
    """sigma -> (parent, pi, colors) through the rewrite rules and the
    fixpoint cycle finder."""
    tau, colors = reference_tau(sigma, n)
    cycles = fixpoint_cycles(tau)
    parent = tuple(0 if v in cycles else tau[v - 1] for v in range(1, n + 2))
    pi = tuple(sorted((v, tau[v - 1]) for v in cycles))
    return parent, pi, tuple(sorted(colors.items()))


def test_cycle_vertices_matches_fixpoint_on_every_small_map():
    for m in range(0, 6):
        for sigma in endofunctions(m):
            assert en._cycle_vertices(sigma.image) == fixpoint_cycles(sigma.image), sigma


@settings(max_examples=200)
@given(st.integers(1, 7).flatmap(
    lambda m: st.lists(st.integers(1, m), min_size=m, max_size=m)))
def test_cycle_vertices_matches_fixpoint_on_drawn_maps(image):
    assert en._cycle_vertices(image) == fixpoint_cycles(image)


@settings(max_examples=200)
@given(st.integers(1, 7).flatmap(
    lambda m: st.lists(st.integers(0, m), min_size=m, max_size=m)))
def test_is_forest_matches_reaching_a_root(parent):
    assert en.is_forest(parent) == reaches_root(parent)


@pytest.mark.parametrize("n,lam", [(0, 1), (1, 2), (2, 3), (3, 2), (4, 1), (5, 1)])
def test_kernels_match_public_entry_points_and_reference(n, lam):
    tail = tuple(range(n + 2, n + lam + 2))
    for sigma in en.enumerate_m_star(n, lam):
        pair = en.sigma_to_pair(sigma, n, lam)
        assert type(pair) is en.ColoredForestPermutation
        assert reference_pair(sigma, n) == pair
        tau, colors = reference_tau(sigma, n)
        assert tau_of(pair) == (tau, colors)
        head = reference_head(tau, colors, n)
        assert head + tail == sigma.image
        assert en._pair_to_head(*pair, n, lam) == head
        assert en.pair_to_sigma(pair, n, lam) == sigma


def test_pi_fixes_exactly_the_colored_vertices():
    # sigma_to_pair does not check this of its output: after the member check,
    # a vertex is its own tau image only when sigma sends it to a color vertex.
    for n, lam in itertools.product(range(5), repeat=2):
        if 1 <= n + lam <= 4:
            for sigma in en.enumerate_m_star(n, lam):
                pair = en.sigma_to_pair(sigma, n, lam)
                fixed = [v for v, w in pair.pi if v == w]
                assert fixed == [v for v, _ in pair.colors], (n, lam, sigma)


MALFORMED_PAIRS = {
    "bad color": (((0, 0), ((1, 2), (2, 1)), ((1, 1),), 1, 1), "fixed points"),
    "bad pi": (((0, 0), ((1, 1), (2, 1)), ((1, 1),), 1, 1), "permute"),
    "cyclic parent": (((2, 1), (), (), 1, 1), "cycle"),
    "color overflow": (((0,), ((1, 1),), ((1, 5),), 0, 1), "color"),
    "short forest": (((0,), ((1, 1),), ((1, 1),), 1, 1), "cover"),
    "parent above n+1": (((5, 0), ((2, 2),), ((2, 1),), 1, 1), r"parent value 5 "),
    "negative parent": (((-1, 0), ((2, 2),), ((2, 1),), 1, 1), r"parent value -1 "),
    # Out of sigma_to_pair's form: each would map to the sigma of its sorted
    # twin, (4, 1, 3, 4) and (2, 1, 4, 4), so the inverse would not be injective.
    "vertex colored twice": (((0, 1), ((1, 1),), ((1, 1), (1, 2)), 1, 2), "fixed points"),
    "unsorted pi": (((0, 0, 0), ((3, 3), (2, 1), (1, 2)), ((3, 1),), 2, 1), "permute"),
}


@pytest.mark.parametrize("case,sigma", [("vertex colored twice", (4, 1, 3, 4)),
                                        ("unsorted pi", (2, 1, 4, 4))])
def test_a_pair_out_of_form_has_a_twin_in_form(case, sigma):
    (parent, pi, colors, n, lam), _ = MALFORMED_PAIRS[case]
    twin = en.sigma_to_pair(en.Endofunction(sigma), n, lam)
    assert twin.parent == parent and twin.pi == tuple(sorted(pi))
    assert set(twin.colors) <= set(colors)


@pytest.mark.parametrize("case", sorted(MALFORMED_PAIRS))
def test_pair_to_head_rejects_what_pair_to_sigma_rejects(case):
    (parent, pi, colors, n, lam), match = MALFORMED_PAIRS[case]
    pair = en.ColoredForestPermutation(parent=parent, pi=pi, colors=colors)
    with pytest.raises(ValueError, match=match) as public:
        en.pair_to_sigma(pair, n, lam)
    with pytest.raises(ValueError, match=match) as kernel:
        en._pair_to_head(parent, pi, colors, n, lam)
    assert str(kernel.value) == str(public.value)


# ---- mutants the census must catch ----


def census_formula(n, lam):
    return {
        k: seq.binomial(n, k) * (n + 1) ** (n - k)
        * int(seq.lambda_factorial(k + 1).evaluate({LAM: lam}))
        for k in range(n + 1)
    }


def test_census_catches_an_inverse_kernel_that_shifts_a_color(monkeypatch, capsys):
    real = en._pair_to_head

    def shifted(parent, pi, colors, n, lam):
        if colors:
            (v, c), *rest = colors
            colors = ((v, c % lam + 1), *rest)
        return real(parent, pi, colors, n, lam)

    monkeypatch.setattr(en, "_pair_to_head", shifted)
    with pytest.raises(RuntimeError, match=r"round trip failed at sigma=\(.*\): got the head \("):
        en.exhaustive_roundtrip(2, 2)
    assert main(["bijection", "2", "2"]) == 1
    captured = capsys.readouterr()
    assert "round trip: MISMATCH" in captured.err
    assert "round-trip OK" not in captured.out


def test_census_catches_a_forward_kernel_that_drops_a_root(monkeypatch, capsys):
    real = en.sigma_to_pair

    def dropping(sigma, n, lam):
        parent, pi, colors = real(sigma, n, lam)
        roots = [v for v, p in enumerate(parent, start=1) if p == 0]
        if len(roots) > 1:  # hang the last root under the first
            parent = parent[: roots[-1] - 1] + (roots[0],) + parent[roots[-1]:]
        return en.ColoredForestPermutation(parent=parent, pi=pi, colors=colors)

    n, lam = 2, 2
    strata = {}
    for sigma in en.enumerate_m_star(n, lam):
        k = dropping(sigma, n, lam).parent.count(0) - 1
        strata[k] = strata.get(k, 0) + 1
    assert strata != census_formula(n, lam)

    monkeypatch.setattr(en, "sigma_to_pair", dropping)
    with pytest.raises(RuntimeError, match=r"round trip failed at sigma=\(.*\): pi must permute"):
        en.exhaustive_roundtrip(n, lam)
    assert main(["bijection", "2", "2"]) == 1
    captured = capsys.readouterr()
    assert "round trip: MISMATCH" in captured.err
    assert "round-trip OK" not in captured.out


def brute_permanent(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def test_ryser_against_brute_force():
    rng = random.Random(7)
    for n in range(0, 6):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert en.ryser_permanent(rows) == brute_permanent(rows), rows
    with pytest.raises(ValueError):
        en.ryser_permanent([[1, 2]])


def test_permanent_check_counts_derangements():
    assert en.permanent_check(1) == 0
    assert en.permanent_check(3) == 2
    assert en.permanent_check(4) == 9
    for n in range(0, 8):
        assert en.permanent_check(n) == seq.derangement(n), n
    with pytest.raises(ValueError):
        en.permanent_check(11)


def test_dot_output():
    sigma = en.Endofunction((2, 1, 2))
    dot = en.endofunction_to_dot(sigma)
    assert dot.startswith("digraph sigma {")
    assert "1 -> 2 [style=bold];" in dot
    assert "3 -> 2;" in dot
    assert dot.endswith("}")

    pair = en.sigma_to_pair(en.Endofunction((4, 1, 1, 4, 5, 6)), 2, 3)
    dot = en.pair_to_dot(pair)
    assert dot.startswith("digraph pair {")
    assert "style=bold" in dot
    assert "(c1)" in dot
