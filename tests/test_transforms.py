import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import incidence as inc
from freeprob import ksym
from freeprob import ncpart as nc
from freeprob import series as se
from freeprob import transforms as tr
from freeprob.errors import ResourceLimitError, ValidationError
from freeprob.sequences import RationalSequence
from oracles import (CenteringWordMoments, check_pair, freeness_by_centering, rescale_to_monic,
                     sum_moments_by_words)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def seqs(order):
    return st.lists(rationals, min_size=order, max_size=order).map(RationalSequence)


def cumulants_to_moments_bruteforce(cum, order):
    out = []
    for n in range(1, order + 1):
        total = Fraction(0)
        for p in nc.iter_nc(n):
            total += inc.extend(cum, p)
        out.append(total)
    return RationalSequence(out)


# --- moment <-> cumulant ----------------------------------------------------


def test_semicircle_and_poisson_conversions():
    n = 8
    semicirle_cums = RationalSequence.unit_vector(2, n)
    m = tr.cumulants_to_moments(semicirle_cums, n, route="both")
    assert m == tr.semicircle_moments(n)
    poisson_cums = RationalSequence.constant(1, n)
    assert tr.cumulants_to_moments(poisson_cums, n, route="both") == \
        tr.free_poisson_moments(n)
    assert tr.moments_to_cumulants(tr.free_poisson_moments(n), n, route="both") == \
        poisson_cums


def test_point_mass_conversions():
    n = 6
    c = Fraction(7, 3)
    m = tr.point_mass_moments(c, n)
    assert tr.moments_to_cumulants(m, n, route="both") == \
        RationalSequence.unit_vector(1, n, c)
    assert tr.cumulants_to_moments(RationalSequence.unit_vector(1, n, c), n) == m


@settings(max_examples=20, deadline=None)
@given(seqs(6))
def test_cumulants_to_moments_matches_bruteforce(cum):
    assert tr.cumulants_to_moments(cum, 6, route="both") == \
        cumulants_to_moments_bruteforce(cum, 6)


@settings(max_examples=20, deadline=None)
@given(seqs(10))
def test_conversion_roundtrip_both_routes(m):
    cum = tr.moments_to_cumulants(m, 10, route="both")
    back = tr.cumulants_to_moments(cum, 10, route="both")
    assert back == m


# --- free convolutions ------------------------------------------------------


def test_additive_convolution_and_power():
    semi = RationalSequence.unit_vector(2, 5)
    double = tr.free_add_convolve(semi, semi)
    assert double == RationalSequence.unit_vector(2, 5, 2)
    assert tr.free_add_power(RationalSequence.constant(1, 5), Fraction(3, 2)) == \
        RationalSequence.constant(Fraction(3, 2), 5)
    assert tr.free_add_power(semi, 1) == semi
    with pytest.raises(ValidationError):
        tr.free_add_power(semi, 0)


def test_additive_convolution_matches_word_expansion():
    n = 6
    mx = tr.atomic_moments([(Fraction(1, 2), Fraction(1, 2)),
                            (Fraction(3), Fraction(1, 2))], n)
    my = tr.atomic_moments([(Fraction(1), Fraction(1, 4)),
                            (Fraction(2), Fraction(3, 4))], n)
    vx = tr.FreeVariable("x", mx)
    vy = tr.FreeVariable("y", my)
    word_route = sum_moments_by_words(vx, vy, n)
    cum_route = tr.cumulants_to_moments(
        tr.free_add_convolve(tr.moments_to_cumulants(mx, n),
                             tr.moments_to_cumulants(my, n)), n
    )
    assert word_route == cum_route


def test_mult_convolution_with_point_mass_is_identity():
    c = RationalSequence([Fraction(1, 2), Fraction(3), Fraction(-2), Fraction(5)])
    unit = RationalSequence.unit_vector(1, 4)
    assert tr.free_mult_convolve(c, unit, 4) == c
    assert tr.free_mult_convolve(unit, c, 4) == c


def test_poisson_squared_free_bessel_values():
    ones = RationalSequence.constant(1, 6)
    m = tr.cumulants_to_moments(tr.free_mult_convolve(ones, ones, 6), 6)
    assert [int(v) for v in m] == [nc.fuss_catalan_kdivisible(2, n)
                                   for n in range(1, 7)]


@settings(max_examples=15, deadline=None)
@given(seqs(7), seqs(7))
def test_mult_convolution_commutative(a, b):
    assert tr.free_mult_convolve(a, b, 7) == tr.free_mult_convolve(b, a, 7)


@settings(max_examples=10, deadline=None)
@given(seqs(6), seqs(6), seqs(6))
def test_mult_convolution_associative(a, b, c):
    left = tr.free_mult_convolve(tr.free_mult_convolve(a, b, 6), c, 6)
    right = tr.free_mult_convolve(a, tr.free_mult_convolve(b, c, 6), 6)
    assert left == right


def test_product_moments_identities():
    n = 6
    a = RationalSequence([Fraction(2), Fraction(-1), Fraction(1, 3),
                          Fraction(0), Fraction(1), Fraction(4)])
    b = tr.atomic_moments([(Fraction(2), Fraction(1, 2)),
                           (Fraction(5), Fraction(1, 2))], n)
    assert tr.product_moments(a, tr.point_mass_moments(1, n), n) == \
        tr.cumulants_to_moments(a, n)
    assert tr.product_moments(RationalSequence.unit_vector(1, n), b, n) == b


@settings(max_examples=10, deadline=None)
@given(seqs(6), seqs(6))
def test_product_moments_consistent_with_mult_convolution(ka, mb):
    pm = tr.product_moments(ka, mb, 6)
    assert tr.moments_to_cumulants(pm, 6) == \
        tr.free_mult_convolve(ka, tr.moments_to_cumulants(mb, 6), 6)


# --- products as arguments --------------------------------------------------


def test_products_as_arguments_trivial_groupings():
    cum = RationalSequence([Fraction(1), Fraction(-2), Fraction(3),
                            Fraction(1, 2), Fraction(5)])
    assert tr.products_as_arguments(cum, [1, 1, 1, 1]) == cum[4]
    assert tr.products_as_arguments(cum, [4]) == \
        tr.cumulants_to_moments(cum, 4)[4]
    with pytest.raises(ValidationError):
        tr.products_as_arguments(cum, [0, 2])


def test_products_as_arguments_walks_nc_of_the_groups_only(monkeypatch):
    walked = []
    walk = nc._iter_spans
    monkeypatch.setattr(nc, "_iter_spans", lambda *args: walked.append(args) or walk(*args))
    cum = RationalSequence(range(1, 41))
    tr.products_as_arguments(cum, [3, 2, 4, 3])
    assert walked == [(4, 1, False)]
    # kappa_n(a, ..., a) = kappa_n for any n, with nothing walked
    assert tr.products_as_arguments(cum, [1] * 40) == cum[40]
    assert walked == [(4, 1, False)]


def test_products_as_arguments_budget_counts_groups(monkeypatch):
    monkeypatch.setenv("FREEPROB_MAX_N", "4")
    cum = RationalSequence(range(1, 11))
    assert tr.products_as_arguments(cum, [2, 3, 1, 4]) is not None
    with pytest.raises(ResourceLimitError, match=r"NC\(5\)"):
        tr.products_as_arguments(cum, [2, 2, 2, 2, 2])


def test_products_as_arguments_meets_the_budget_before_any_moment(monkeypatch):
    def refuse(*args):
        raise AssertionError("moments computed")

    monkeypatch.setenv("FREEPROB_MAX_N", "4")
    monkeypatch.setattr(tr, "cumulants_to_moments", refuse)
    with pytest.raises(ResourceLimitError, match=r"NC\(5\)"):
        tr.products_as_arguments(RationalSequence(range(1, 11)), [2, 2, 2, 2, 2])


@pytest.mark.parametrize("size, groups", [(4, 5), (5, 6), (3, 10)])
def test_products_of_equal_size_are_the_cumulants_of_the_power(size, groups):
    # kappa_r(a^s, ..., a^s) = kappa_r(a^s): m2c of (m_s, m_2s, ..., m_rs),
    # here at n = 20 and 30, past the NC(n) budget
    n = size * groups
    cum = RationalSequence([Fraction((-1) ** j * j, j + 2) for j in range(1, n + 1)])
    mom = tr.cumulants_to_moments(cum)
    power = RationalSequence([mom[size * j] for j in range(1, groups + 1)])
    assert tr.products_as_arguments(cum, [size] * groups) == tr.moments_to_cumulants(power)[groups]


def test_products_as_arguments_rejects_a_grouping_that_is_not_sizes():
    cum = RationalSequence([1, 2, 3])
    for grouping in ([1.5, 1], "ab", 3, None, [], [0, 2], [2, -1], [Fraction(1), 1]):
        with pytest.raises(ValidationError, match="invalid grouping"):
            tr.products_as_arguments(cum, grouping)
    with pytest.raises(ValidationError, match="too short for grouping"):
        tr.products_as_arguments(cum, [2, 2])


@settings(max_examples=10, deadline=None)
@given(seqs(3), st.integers(min_value=2, max_value=3),
       st.integers(min_value=1, max_value=2))
def test_products_as_arguments_matches_power_formula(alpha, k, n):
    full = inc.dilate(alpha.prefix(n), k)
    got = tr.products_as_arguments(full, [k] * n)
    want = tr.kdiv_power_cumulants(alpha.prefix(n), k, n, route="enumeration")[n]
    assert got == want


# --- cumulants of x^k -------------------------------------------------------


def test_kdiv_power_identity_for_k1():
    a = RationalSequence([1, 2, 3])
    assert tr.kdiv_power_cumulants(a, 1, 3) == a


def test_kdiv_power_semicircle_square_is_free_poisson():
    # alpha = (1,0,0,...) describes the standard semicircle; its square
    # has all cumulants 1, cross-checked through the moment route
    alpha = RationalSequence.unit_vector(1, 6)
    for route in ("enumeration", "two-stage", "zeta"):
        assert tr.kdiv_power_cumulants(alpha, 2, 6, route=route) == \
            RationalSequence.constant(1, 6)
    square_moments = RationalSequence(
        [tr.semicircle_moments(12)[2 * n] for n in range(1, 7)]
    )
    assert tr.moments_to_cumulants(square_moments, 6) == \
        RationalSequence.constant(1, 6)


@settings(max_examples=10, deadline=None)
@given(seqs(6), st.integers(min_value=2, max_value=4))
def test_kdiv_power_three_routes_agree(alpha, k):
    order = min(6, 12 // (k - 1))
    a = alpha.prefix(order)
    r1 = tr.kdiv_power_cumulants(a, k, order, route="enumeration")
    r2 = tr.kdiv_power_cumulants(a, k, order, route="two-stage")
    r3 = tr.kdiv_power_cumulants(a, k, order, route="zeta")
    assert r1 == r2 == r3


# --- S-transform ------------------------------------------------------------


def test_s_transform_of_free_poisson_is_geometric_alternating():
    s = tr.s_transform(tr.free_poisson_moments(8), 8)
    assert list(s.coeffs) == [Fraction((-1) ** i) for i in range(s.order + 1)]


def test_s_transform_of_point_mass_is_constant():
    s = tr.s_transform(tr.point_mass_moments(Fraction(5, 2), 6), 6)
    assert s[0] == Fraction(2, 5)
    assert all(s[i] == 0 for i in range(1, s.order + 1))


def test_s_transform_error_cases():
    with pytest.raises(ValidationError):
        tr.s_transform(RationalSequence([0, 0, 0]), 3)
    with pytest.raises(ValidationError):
        tr.s_transform(RationalSequence([0, -1, 0, 1]), 4)


def test_s_transform_of_semicircle_is_puiseux():
    s = tr.s_transform(tr.semicircle_moments(10), 10)
    assert s.ram == 2
    assert s.lo == -1
    assert s.coeff(-1) == 1  # leading z^(-1/2)


def test_s_transform_of_root_of_unity_law_matches_binomial_series():
    # moments 1 on multiples of k give psi = z^k/(1-z^k), whose inverse
    # is (z/(1+z))^(1/k); so S(z) = z^((1-k)/k) (1+z)^((k-1)/k) and the
    # Puiseux coefficients are generalized binomials
    for k in (2, 3):
        mom = RationalSequence(
            [Fraction(1) if n % k == 0 else Fraction(0) for n in range(1, 13)]
        )
        s = tr.s_transform(mom, 12)
        assert s.ram == k and s.lo == 1 - k
        e = Fraction(k - 1, k)
        for j in range(0, (s.hi - s.lo) // k + 1):
            # coefficient of z^((1-k)/k + j): binom((k-1)/k, j)
            binom = Fraction(1)
            for i in range(j):
                binom *= (e - i) / (i + 1)
            assert s.coeff(s.lo + k * j) == binom, (k, j)


def test_power_cumulant_triple_satisfies_functional_equations():
    # alpha, kappa(x^k) and m(x^k) generate series (A, B, M) tied by the
    # three functional equations of the series module
    import random

    rnd = random.Random(21)
    for k in (2, 3):
        order = 5
        alpha = RationalSequence(
            [Fraction(rnd.randint(-4, 4), rnd.randint(1, 4)) for _ in range(order)]
        )
        beta = tr.kdiv_power_cumulants(alpha, k, order)
        a = se.PowerSeries([1, *alpha.values[:order]])
        b = se.PowerSeries([1, *beta.values[:order]])
        for mode in ("i", "ii", "iii"):
            assert check_pair(a, b, mode, k), (k, mode)


def test_s_multiplicativity_on_example_families():
    delta1 = tr.point_mass_moments(1, 10)
    assert tr.s_multiplicativity_check(delta1, delta1, 10)
    assert tr.s_multiplicativity_check(
        tr.semicircle_moments(10), tr.free_poisson_moments(10), 10, min_window=6
    )
    haar3 = RationalSequence(
        [Fraction(1) if n % 3 == 0 else Fraction(0) for n in range(1, 13)]
    )
    assert tr.s_multiplicativity_check(
        haar3, tr.point_mass_moments(2, 12), 12, min_window=6
    )


def test_s_multiplicativity_needs_nonzero_mean():
    with pytest.raises(ValidationError):
        tr.s_multiplicativity_check(
            tr.free_poisson_moments(6), tr.semicircle_moments(6), 6
        )


def test_s_power_relation():
    assert tr.s_power_relation_check(tr.free_poisson_moments(8), 1, 8)
    assert tr.s_power_relation_check(tr.semicircle_moments(16), 2, 16, min_window=6)
    dilated = inc.dilate(tr.free_poisson_moments(6), 3)
    assert tr.s_power_relation_check(dilated, 3, 18, min_window=6)
    with pytest.raises(ValidationError):
        tr.s_power_relation_check(tr.free_poisson_moments(6), 2, 6)


def old_s_power_window(mom, k, order):
    """(verdict, width) of the relation over the common window of
    w-exponents, with (z/(1+z))^(k-1) taken to twice a guessed order."""
    undil = inc.undilate(mom.prefix(order), k)
    s_x = tr._as_puiseux(tr.s_transform(mom, order))
    lhs = tr._as_puiseux(tr.s_transform(undil, undil.order))
    rhs = s_x
    if k > 1:
        aux_order = max(order, s_x.hi - k * (1 - k) + k) * 2
        factor = se.PowerSeries.one(aux_order)
        recip = se.PowerSeries([(-1) ** n for n in range(aux_order + 1)])  # 1/(1+z)
        for _ in range(k - 1):
            factor = se.mul(factor, recip, aux_order)
        rhs = se.puiseux_mul(se.puiseux_pow(s_x, k),
                             se.PuiseuxSeries.from_power_series(factor, k).shift(k * (k - 1)))
    ram = lhs.ram * rhs.ram // math.gcd(lhs.ram, rhs.ram)
    lhs, rhs = lhs.reindex(ram), rhs.reindex(ram)
    width = min(lhs.hi, rhs.hi) - max(lhs.lo, rhs.lo) + 1
    return se.puiseux_agree(lhs, rhs, 1), width


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6),
       st.booleans(), st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3),
       st.lists(rationals, min_size=0, max_size=5))
def test_s_power_relation_sizes_its_factor_from_the_window(k, min_window, lead_zero,
                                                           root, tail):
    # a k-dilated law whose first nonzero moment has a rational k-th root;
    # the factor must leave the old window whole, so every min_window
    # reads the old verdict
    base = [0] * lead_zero + [1 / root ** (k * (1 + lead_zero))] + tail
    mom = inc.dilate(RationalSequence(base), k)
    agree, width = old_s_power_window(mom, k, mom.order)
    for window in (min_window, width, width + 1):
        want = agree and width >= window
        assert tr.s_power_relation_check(mom, k, mom.order, window) == want


def test_rescale_to_monic():
    m = RationalSequence([0, Fraction(9, 4), 0, 5])
    t, scaled = rescale_to_monic(m, 2)
    assert scaled[2] == 1 and t == Fraction(2, 3)
    with pytest.raises(ValidationError):
        rescale_to_monic(RationalSequence([0, -1, 0, 1]), 2)


# --- Hankel -----------------------------------------------------------------


def test_hankel_examples():
    assert tr.hankel_check(tr.free_poisson_moments(8), stieltjes=True)
    assert tr.hankel_check(RationalSequence([0, 1, 0, 1]))  # symmetric Bernoulli
    assert not tr.hankel_check(RationalSequence([0, 1, 0, 0]))
    assert tr.hankel_check(tr.semicircle_moments(8))
    assert not tr.hankel_check(tr.semicircle_moments(8), stieltjes=True)


def test_hankel_accepts_atoms():
    m = tr.atomic_moments([(Fraction(0), Fraction(1, 2)),
                           (Fraction(2), Fraction(1, 2))], 8)
    assert tr.hankel_check(m, stieltjes=True)


def test_hankel_rejects_a_negative_pivot_behind_a_zero_minor():
    # every leading minor of (0, 0, 0, -1) is >= 0, but m_4 < 0
    m = RationalSequence([0, 0, 0, -1])
    assert not tr.hankel_check(m)
    assert not tr.hankel_check(m, stieltjes=True)
    assert not ksym.KSymmetricDistribution(1, m).check_validity()
    # a zero pivot with a nonzero rest of its row: m_2 = 0 but m_3 != 0
    assert not tr.hankel_check(RationalSequence([0, 0, 1, 1]))
    # PSD, though not a moment sequence (needs the flat-extension condition)
    assert tr.hankel_check(RationalSequence([0, 0, 0, 1]))


atoms_st = st.lists(
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=4),
              st.integers(min_value=1, max_value=5)),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(atoms_st, st.integers(min_value=1, max_value=9))
def test_hankel_accepts_every_atomic_measure(atoms, order):
    total = sum(w for _, w in atoms)
    mom = tr.atomic_moments([(x, Fraction(w, total)) for x, w in atoms], order)
    assert tr.hankel_check(mom)
    positive = [(abs(x), Fraction(w, total)) for x, w in atoms]
    assert tr.hankel_check(tr.atomic_moments(positive, order), stieltjes=True)


# --- word moments -----------------------------------------------------------


def test_word_moment_single_variable():
    x = tr.FreeVariable("x", RationalSequence([Fraction(1, 2), 2, 3]))
    assert tr.free_word_moment([x], [("x", 2)]) == 2
    assert tr.free_word_moment([x], [("x", 1), ("x", 1)]) == 2
    assert tr.free_word_moment([x], []) == 1


def test_word_moment_pair_factorizes():
    x = tr.FreeVariable("x", RationalSequence([Fraction(1, 2), 2]))
    y = tr.FreeVariable("y", RationalSequence([Fraction(3), 1]))
    assert tr.free_word_moment([x, y], [("x", 1), ("y", 1)]) == Fraction(3, 2)


def test_word_moment_alternating_centered_vanishes():
    x = tr.FreeVariable("x", RationalSequence([0, 1, 0, 2]))
    y = tr.FreeVariable("y", RationalSequence([0, 3, 0, 1]))
    ev = tr.WordMomentEvaluator([x, y])
    assert ev.phi([("x", 1), ("y", 1)]) == 0
    assert ev.phi([("x", 1), ("y", 1), ("x", 1), ("y", 1)]) == 0
    # mixed moment with nonzero value: phi(xyxy...) with squares
    assert ev.phi([("x", 2), ("y", 2)]) == 3


def test_word_moment_agrees_with_monochromatic_partition_sum():
    # independent oracle: sum over non-crossing partitions with
    # single-variable blocks of products of free cumulants
    mx = tr.atomic_moments([(Fraction(1), Fraction(1, 2)),
                            (Fraction(2), Fraction(1, 2))], 8)
    my = tr.atomic_moments([(Fraction(-1), Fraction(1, 3)),
                            (Fraction(1), Fraction(2, 3))], 8)
    vx, vy = tr.FreeVariable("x", mx), tr.FreeVariable("y", my)
    cums = {
        "x": tr.moments_to_cumulants(mx, 8),
        "y": tr.moments_to_cumulants(my, 8),
    }

    def oracle(labels):
        total = Fraction(0)
        for p in nc.iter_nc(len(labels)):
            term = Fraction(1)
            for b in p.blocks:
                block_labels = {labels[i - 1] for i in b}
                if len(block_labels) > 1:
                    term = Fraction(0)
                    break
                term *= cums[block_labels.pop()][len(b)]
            total += term
        return total

    ev = tr.WordMomentEvaluator([vx, vy])
    for labels in (
        ["x", "y", "x", "y"],
        ["x", "x", "y", "y", "x"],
        ["y", "x", "y", "x", "y", "x"],
        ["x", "y", "y", "x", "x", "y", "x"],
    ):
        word = [(lab, 1) for lab in labels]
        assert ev.phi(word) == oracle(labels), labels


maybe_centred = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def free_words(draw):
    """2-3 free variables, each aperiodic or of period 2 or 3, and a word
    of up to 7 letters with at least one repeated adjacent label when
    nonempty; periodic letters take exponents in -3..3."""
    variables = []
    for label in "xyz"[:draw(st.integers(2, 3))]:
        period = draw(st.sampled_from([None, 2, 3]))
        if period is None:
            moments = draw(st.lists(maybe_centred, min_size=14, max_size=14))
        else:
            cycle = draw(st.lists(maybe_centred, min_size=period - 1, max_size=period - 1))
            moments = [(cycle + [1])[(j - 1) % period] for j in range(1, 15)]
        variables.append(tr.FreeVariable(label, RationalSequence(moments), period))
    letter = st.sampled_from(variables).flatmap(lambda v: st.tuples(
        st.just(v.label), st.integers(-3, 3) if v.period else st.integers(1, 2)))
    word = draw(st.lists(letter, max_size=6))
    i = draw(st.integers(0, max(len(word) - 1, 0)))
    return variables, word[:i + 1] + word[i:]


@settings(max_examples=150, deadline=None)
@given(free_words())
def test_word_moment_equals_the_centering_expansion(case):
    variables, word = case
    assert tr.WordMomentEvaluator(variables).phi(word) == \
        CenteringWordMoments(variables).phi(word)


def test_word_moment_reads_moments_up_to_the_letter_count():
    x = tr.FreeVariable("x", RationalSequence([1, 2]))
    y = tr.FreeVariable("y", RationalSequence([0, 1]))
    word = [("x", 1), ("y", 1), ("x", 1), ("y", 1), ("x", 1)]
    # centering never reads m_3(x); the cumulant sum needs kappa_3(x)
    assert CenteringWordMoments([x, y]).phi(word) == 2
    with pytest.raises(ValidationError, match="moment 3 of 'x' not available"):
        tr.free_word_moment([x, y], word)
    # every reduced letter centred: 0 from the means, though m_4(x) and
    # m_2(y) are missing
    x2 = tr.FreeVariable("x", RationalSequence([1, 0]))
    y1 = tr.FreeVariable("y", RationalSequence([0]))
    assert tr.free_word_moment([x2, y1], [("x", 2), ("y", 1), ("x", 1), ("x", 1), ("y", 1)]) == 0
    assert tr.free_word_moment([x2, y1], []) == 1


def test_word_moments_rerun_m2c_only_for_a_longer_word(monkeypatch):
    x = tr.FreeVariable("x", RationalSequence([1, 2, 3, 5, 8]))
    y = tr.FreeVariable("y", RationalSequence([2, 1, 4]))
    words = [[("x", 2), ("y", 1)], [("x", 1), ("y", 1), ("x", 1)], [("y", 2)],
             [("x", 3), ("y", 1), ("x", 1)], [("x", 1), ("y", 1)]]
    want = [tr.free_word_moment([x, y], word) for word in words]
    orders = []
    m2c = tr.moments_to_cumulants
    monkeypatch.setattr(tr, "moments_to_cumulants",
                        lambda mom, *args: orders.append(mom.order) or m2c(mom, *args))
    ev = tr.WordMomentEvaluator([x, y])
    assert [ev.phi(word) for word in words] == want
    assert orders == [2, 1, 2, 4]  # x and y, then y, then x, each to a longer order


def test_word_moment_period_variables():
    k = 3
    haar = RationalSequence([0, 0, 1])
    u1 = tr.FreeVariable("u1", haar, period=k)
    u2 = tr.FreeVariable("u2", haar, period=k)
    ev = tr.WordMomentEvaluator([u1, u2])
    assert ev.phi([("u1", 1), ("u1", -1)]) == 1
    assert ev.phi([("u1", 1), ("u2", 1), ("u1", -1), ("u2", -1)]) == 0
    assert ev.phi([("u1", k), ("u2", k)]) == 1
    assert ev.phi([("u1", -2)]) == ev.phi([("u1", 1)]) == 0


def test_word_moment_accepts_any_iterable_of_variables():
    x = tr.FreeVariable("x", RationalSequence([Fraction(1, 2), 2, 3]))
    y = tr.FreeVariable("y", RationalSequence([1, 3, 5]))
    word = [("x", 1), ("y", 1), ("x", 1)]
    want = tr.free_word_moment([x, y], word)
    assert tr.free_word_moment(iter([x, y]), word) == want
    assert tr.free_word_moment((v for v in (x, y)), word) == want
    with pytest.raises(ValidationError, match="duplicate variable labels"):
        tr.free_word_moment(iter([x, y, x]), word)


def test_word_moment_rejects_negative_power_without_period():
    x = tr.FreeVariable("x", RationalSequence([1, 2]))
    with pytest.raises(ValidationError):
        tr.free_word_moment([x], [("x", -1)])


def test_period_consistency_validation():
    # m_3 must repeat m_1 for a period-2 variable
    with pytest.raises(ValidationError):
        tr.FreeVariable("u", RationalSequence([Fraction(1, 2), 1, 0]), period=2)
    u = tr.FreeVariable("u", RationalSequence([0, 1, 0, 1]), period=2)
    assert u.moment(6) == 1
    assert u.moment(-3) == u.moment(1) == 0


def test_main_theorem_products_with_kdivisible_factor():
    # phi((xy)^(kn)) for positive x and k-divisible y equals the n-th
    # moment of the k-fold multiplicative power of x convolved with y^k
    for k, nmax in ((2, 3), (3, 2)):
        mx = tr.atomic_moments([(Fraction(1), Fraction(1, 2)),
                                (Fraction(3), Fraction(1, 2))], k * nmax)
        base = tr.atomic_moments([(Fraction(2), Fraction(1, 2)),
                                  (Fraction(1, 2), Fraction(1, 2))], nmax)
        my = inc.dilate(base, k)
        ev = tr.WordMomentEvaluator([
            tr.FreeVariable("x", mx), tr.FreeVariable("y", my)
        ])
        cum = tr.moments_to_cumulants(base, nmax)
        cx = tr.moments_to_cumulants(mx.prefix(nmax), nmax)
        for _ in range(k):
            cum = tr.free_mult_convolve(cum, cx, nmax)
        rhs = tr.cumulants_to_moments(cum, nmax)
        for n in range(1, nmax + 1):
            assert ev.phi([("x", 1), ("y", 1)] * (k * n)) == rhs[n]
        # off-lattice powers of xy vanish
        assert ev.phi([("x", 1), ("y", 1)] * (k * nmax - 1)) == 0


# --- freeness of sandwiched words -------------------------------------------


def _even_law(order):
    return inc.dilate(
        tr.atomic_moments([(Fraction(1), Fraction(1, 2)),
                           (Fraction(4), Fraction(1, 2))], order // 2), 2
    )


def test_sandwich_freeness_for_even_element():
    s = tr.FreeVariable("s", _even_law(12))
    a = tr.FreeVariable("a", tr.atomic_moments([(Fraction(1), Fraction(1, 3)),
                                                (Fraction(3), Fraction(2, 3))], 8))
    assert tr.freeness_moment_check([s, a], "a", [("s", 1), ("a", 1), ("s", 1)], 6)


def test_sandwich_freeness_fails_without_divisibility():
    base = _even_law(12)
    skew = RationalSequence(
        [Fraction(1, 7) if n == 1 else base[n] for n in range(1, 13)]
    )
    s = tr.FreeVariable("s", skew)
    a = tr.FreeVariable("a", tr.atomic_moments([(Fraction(1), Fraction(1, 3)),
                                                (Fraction(3), Fraction(2, 3))], 8))
    assert not tr.freeness_moment_check([s, a], "a",
                                        [("s", 1), ("a", 1), ("s", 1)], 6)


def test_sandwich_freeness_three_divisible():
    base3 = inc.dilate(
        tr.atomic_moments([(Fraction(1), Fraction(1, 2)),
                           (Fraction(2), Fraction(1, 2))], 4), 3
    )
    s = tr.FreeVariable("s", base3)
    a = tr.FreeVariable("a", tr.atomic_moments([(Fraction(1), Fraction(1, 3)),
                                                (Fraction(3), Fraction(2, 3))], 12))
    word = [("s", 1), ("a", 1), ("s", 1), ("a", 1), ("s", 1)]
    assert tr.freeness_moment_check([s, a], "a", word, 4)


def test_sandwich_freeness_scalar_is_trivially_free():
    s = tr.FreeVariable("s", _even_law(12))
    c = tr.FreeVariable("c", tr.point_mass_moments(1, 8))
    assert tr.freeness_moment_check([s, c], "c", [("s", 1), ("c", 1), ("s", 1)], 6)


def _three_divisible_pair():
    s = tr.FreeVariable("s", inc.dilate(
        tr.atomic_moments([(Fraction(1), Fraction(1, 2)), (Fraction(2), Fraction(1, 2))], 4), 3))
    a = tr.FreeVariable("a", tr.atomic_moments([(Fraction(1), Fraction(1, 3)),
                                                (Fraction(3), Fraction(2, 3))], 12))
    return [s, a]


def test_sandwich_of_degree_zero_is_not_free_at_k_three():
    # h = s a s: p = a has degree 0 in s, not k - 2 = 1, and
    # phi(h° a° (h^2)°) = 98/9, x° = x - phi(x), a mixed moment of degree 4
    sas = [("s", 1), ("a", 1), ("s", 1)]
    variables = _three_divisible_pair()
    assert tr.freeness_moment_check(variables, "a", sas, 3)
    assert not tr.freeness_moment_check(variables, "a", sas, 4)
    ev = tr.WordMomentEvaluator(variables)
    h1, h2, a1 = ev.phi(sas), ev.phi(sas * 2), ev.phi([("a", 1)])
    centred = sum(sign * ev.phi(word) for sign, word in [
        (1, sas + [("a", 1)] + sas * 2), (-h1, [("a", 1)] + sas * 2),
        (-a1, sas * 3), (-h2, sas + [("a", 1)]), (h1 * a1, sas * 2), (h1 * h2, [("a", 1)]),
        (a1 * h2, sas), (-h1 * a1 * h2, [])])
    assert centred == Fraction(98, 9)


def test_freeness_check_reads_moments_to_the_longest_mixed_word():
    # h^5 a at max_letters 6 holds ten letters s, so s needs 10 moments
    s = tr.FreeVariable("s", _even_law(8))
    a = tr.FreeVariable("a", tr.atomic_moments([(Fraction(1), Fraction(1, 3)),
                                                (Fraction(3), Fraction(2, 3))], 8))
    with pytest.raises(ValidationError, match="moment 9 of 's' not available"):
        tr.freeness_moment_check([s, a], "a", [("s", 1), ("a", 1), ("s", 1)], 6)
    assert tr.freeness_moment_check([s, a], "a", [("s", 1), ("a", 1), ("s", 1)], 5)


def test_freeness_check_takes_an_integer_order():
    for bad in (2.5, Fraction(3), "4", None):
        with pytest.raises(ValidationError, match="max_letters must be an integer"):
            tr.freeness_moment_check(_three_divisible_pair(), "a", [("s", 1)], bad)


def test_freeness_check_meets_the_nc_budget_at_its_order(monkeypatch):
    monkeypatch.setenv("FREEPROB_MAX_N", "3")
    variables = _three_divisible_pair()
    assert tr.freeness_moment_check(variables, "a", [("s", 1), ("a", 1), ("s", 2)], 3)
    with pytest.raises(ResourceLimitError, match=r"NC\(4\)"):
        tr.freeness_moment_check(variables, "a", [("s", 1), ("a", 1), ("s", 2)], 4)


def _atomic_law(draw, order):
    # two atoms at least: a point mass is free from everything
    weights = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=3))
    places = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                           min_size=len(weights), max_size=len(weights), unique=True))
    return tr.atomic_moments([(x, Fraction(w, sum(weights))) for x, w in zip(places, weights)],
                             order)


@st.composite
def sandwiches(draw):
    # s k-divisible, a free from s, and h = s p s with p a word of degree
    # k - 2 in s: h = s a^(e_1) s ... a^(e_(k-1)) s, each e_i >= 0
    k = draw(st.integers(min_value=2, max_value=4))
    s = tr.FreeVariable("s", inc.dilate(_atomic_law(draw, 3), k))
    a = tr.FreeVariable("a", _atomic_law(draw, 24))
    h = [("s", 1)]
    for e in draw(st.lists(st.integers(min_value=0, max_value=2), min_size=k - 1,
                           max_size=k - 1)):
        h += [("a", e), ("s", 1)]
    return [s, a], h


@settings(max_examples=15, deadline=None)
@given(sandwiches())
def test_sandwich_theorem(sandwich):
    # the paper's second theorem: s p s and a are free
    variables, h = sandwich
    assert tr.freeness_moment_check(variables, "a", h, 4)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=3),
       st.lists(st.tuples(st.sampled_from("sa"), st.integers(min_value=1, max_value=2)),
                min_size=1, max_size=3),
       st.integers(min_value=2, max_value=4))
def test_freeness_check_matches_the_centering_oracle(data, k, h, max_letters):
    s = tr.FreeVariable("s", inc.dilate(_atomic_law(data.draw, 12), k))
    a = tr.FreeVariable("a", _atomic_law(data.draw, 24))
    assert tr.freeness_moment_check([s, a], "a", h, max_letters) == \
        freeness_by_centering([s, a], "a", h, max_letters)
