from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import incidence as inc
from freeprob import ksym
from freeprob import ncpart as nc
from freeprob import transforms as tr
from freeprob.errors import ValidationError
from freeprob.ksym import KSymmetricDistribution, StableMonomial
from freeprob.sequences import RationalSequence

positive_rationals = st.fractions(min_value=Fraction(1, 4), max_value=4,
                                  max_denominator=5)


def positive_atomic(order, seed_atoms):
    return tr.atomic_moments(seed_atoms, order)


def random_positive_moments(rnd, order):
    atoms = [
        (Fraction(rnd.randint(1, 4)), Fraction(1, 2)),
        (Fraction(rnd.randint(1, 9), 3), Fraction(1, 2)),
    ]
    return tr.atomic_moments(atoms, order)


# --- the distribution container ----------------------------------------------


def test_moment_accessor_vanishes_off_lattice():
    d = ksym.haar_unitary_law(3, 4)
    assert d.moment(1) == 0 and d.moment(2) == 0
    assert d.moment(3) == 1 and d.moment(6) == 1
    assert d.moment(5) == 0
    with pytest.raises(ValidationError):
        d.moment(13)


def test_full_moments_and_serialization_layer():
    d = ksym.semicircle_sk(2, 4)
    full = d.full_moments(8)
    for j in range(1, 9):
        assert (full[j] == 0) == (j % 2 == 1)
    js = d.to_json()
    assert js["k"] == 2 and js["valid"] is True
    assert KSymmetricDistribution.from_json(js) == d


def test_determining_sequence_of_haar_and_semicircle():
    assert ksym.haar_unitary_law(2, 4).determining_sequence(2)[1] == 1
    sk = ksym.semicircle_sk(3, 5)
    assert sk.determining_sequence(5) == RationalSequence.unit_vector(1, 5)


def test_determining_sequence_roundtrip():
    alpha = RationalSequence([Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(2)])
    d = ksym.from_determining_sequence(3, alpha)
    assert d.determining_sequence(4) == alpha
    # the base agrees with the k-divisible power-cumulant route
    k_of_power = tr.kdiv_power_cumulants(alpha, 3, 4, route="enumeration")
    assert tr.moments_to_cumulants(d.base.prefix(4), 4) == k_of_power


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6),
       st.lists(small_rationals, min_size=6, max_size=6), positive_rationals)
def test_base_order_solves_match_the_dilated_definition(k, order, values, rate):
    # the definitions at order k*order: full moments or cumulants of the
    # law, one moment-cumulant transform, undilate
    n = k * order
    seq = RationalSequence(values[:order])
    law = KSymmetricDistribution(k, seq)
    assert law.determining_sequence(order) == inc.undilate(
        tr.moments_to_cumulants(law.full_moments(n), n), k)
    assert ksym.from_determining_sequence(k, seq, order).base == inc.undilate(
        tr.cumulants_to_moments(inc.dilate(seq, k), n), k)
    assert ksym.compound_poisson(k, rate, law, order).base == inc.undilate(
        tr.cumulants_to_moments(law.full_moments(n).scale(rate), n), k)


def test_base_order_solves_never_reach_the_dilated_order(monkeypatch):
    k, order = 3, 4
    alpha = RationalSequence([Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(2)])
    jump = KSymmetricDistribution(k, RationalSequence([1, 2, Fraction(1, 3), 5]))
    expected = (ksym.from_determining_sequence(k, alpha, order),
                jump.determining_sequence(order),
                ksym.compound_poisson(k, 2, jump, order))

    def boom(*args, **kwargs):
        raise AssertionError("order-k*n path reached")

    monkeypatch.setattr(tr, "moments_to_cumulants", boom)
    monkeypatch.setattr(tr, "cumulants_to_moments", boom)
    monkeypatch.setattr(inc, "undilate", boom)
    monkeypatch.setattr(inc, "dilate", boom)
    monkeypatch.setattr(KSymmetricDistribution, "full_moments", boom)
    assert (ksym.from_determining_sequence(k, alpha, order),
            jump.determining_sequence(order),
            ksym.compound_poisson(k, 2, jump, order)) == expected


def test_short_base_or_determining_sequence_is_rejected():
    law = ksym.haar_unitary_law(2, 3)
    with pytest.raises(ValidationError, match="not enough base moments"):
        law.determining_sequence(4)
    with pytest.raises(ValidationError):
        ksym.compound_poisson(2, 1, law, 4)
    with pytest.raises(ValidationError):
        ksym.from_determining_sequence(2, RationalSequence([1, 2]), 3)


# --- semicircle family --------------------------------------------------------


def test_semicircle_base_is_kequal_count():
    for k in (1, 2, 3, 4):
        sk = ksym.semicircle_sk(k, 6)
        assert [int(v) for v in sk.base] == [nc.count_kequal(k, n)
                                             for n in range(1, 7)]
        assert tr.hankel_check(sk.base, stieltjes=True)


def test_semicircle_base_matches_poisson_power():
    # (s_k)^k has the same law as the (k-1)-fold multiplicative power of
    # the rate-1 free Poisson
    for k in (2, 3, 4):
        sk = ksym.semicircle_sk(k, 6)
        power = ksym.boxtimes_power_moments(tr.free_poisson_moments(6 * (k - 1)),
                                            k - 1, 6, route="series")
        assert sk.base.prefix(6) == power


def test_semicircle_squared_is_marchenko_pastur():
    assert [int(v) for v in ksym.semicircle_sk(2, 5).base] == [1, 2, 5, 14, 42]


# --- multiplicative convolution -----------------------------------------------


def test_boxtimes_with_point_mass_is_identity():
    d = ksym.semicircle_sk(2, 6)
    out = ksym.boxtimes_positive(d, tr.point_mass_moments(1, 6), 6)
    assert out.base == d.base.prefix(6)


def test_boxtimes_haar_gives_multiplicative_power():
    import random

    rnd = random.Random(4)
    for k in (2, 3):
        mu = random_positive_moments(rnd, 4 * k)
        d = ksym.haar_unitary_law(k, 4)
        out = ksym.boxtimes_positive(d, mu, 4)
        assert out.base == ksym.boxtimes_power_moments(mu, k, 4, route="both")


def _boxtimes_on_cumulants(base, nu, k, order):
    # the cumulant-side loop: kappa(nu)^{*k} * kappa(base), back to moments
    c_nu = tr.moments_to_cumulants(nu.prefix(order), order)
    c = tr.moments_to_cumulants(base.prefix(order), order)
    for _ in range(k):
        c = tr.free_mult_convolve(c, c_nu, order)
    return tr.cumulants_to_moments(c, order)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=7),
       st.lists(st.tuples(positive_rationals, st.integers(min_value=1, max_value=5)),
                min_size=1, max_size=3),
       st.lists(small_rationals, min_size=7, max_size=7))
def test_boxtimes_moment_loops_match_the_cumulant_loop(k, order, atoms, base_values):
    total = sum(w for _x, w in atoms)
    nu = tr.atomic_moments([(x, Fraction(w, total)) for x, w in atoms], order)
    base = RationalSequence(base_values[:order])
    d = KSymmetricDistribution(k, base)
    assert ksym.boxtimes_positive(d, nu, order).base == _boxtimes_on_cumulants(
        base, nu, k, order)
    assert ksym.boxtimes_power_moments(nu, k, order) == _boxtimes_on_cumulants(
        nu, nu, k - 1, order)


def test_boxtimes_requires_positive_law():
    d = ksym.haar_unitary_law(2, 4)
    with pytest.raises(ValidationError):
        ksym.boxtimes_positive(d, tr.semicircle_moments(4), 4)


def test_boxtimes_agrees_with_word_moments():
    # direct route: phi((xy)^(kn)) with x ~ nu positive, y ~ d
    alpha = [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(1, 3)]
    for k, order in ((2, 4), (3, 2)):
        nu = tr.atomic_moments([(Fraction(1), Fraction(1, 2)),
                                (Fraction(2), Fraction(1, 2))], k * order)
        d = ksym.from_determining_sequence(k, RationalSequence(alpha[:order]))
        out = ksym.boxtimes_positive(d, nu, order)
        ev = tr.WordMomentEvaluator([
            tr.FreeVariable("x", nu),
            d.as_free_variable("y"),
        ])
        for n in range(1, order + 1):
            assert ev.phi([("x", 1), ("y", 1)] * (k * n)) == out.base[n]


def test_bessel_law_from_compound_poisson_of_haar():
    for k in (2, 3, 4):
        bes = ksym.compound_poisson(k, 1, ksym.haar_unitary_law(k, 6), 6)
        assert [int(v) for v in bes.base] == [
            nc.fuss_catalan_kdivisible(k, n) for n in range(1, 7)
        ]


# --- additive powers ----------------------------------------------------------


def test_boxplus_power_identity_and_scaling():
    d = ksym.semicircle_sk(3, 5)
    assert ksym.boxplus_power(d, 1, 5).base == d.base.prefix(5)
    doubled = ksym.boxplus_power(d, 2, 5)
    assert doubled.determining_sequence(5) == RationalSequence.unit_vector(1, 5, 2)
    with pytest.raises(ValidationError):
        ksym.boxplus_power(d, 0, 5)


def test_boxplus_power_small_t_keeps_formal_result_with_flag():
    d = ksym.semicircle_sk(2, 6)
    half = ksym.boxplus_power(d, Fraction(1, 2), 6)
    assert half.determining_sequence(6)[1] == Fraction(1, 2)
    assert half.valid in (True, False)


def test_boxplus_power_additivity_of_cumulants():
    alpha = RationalSequence([Fraction(1), Fraction(2), Fraction(-1)])
    d = ksym.from_determining_sequence(2, alpha)
    t = Fraction(7, 3)
    powered = ksym.boxplus_power(d, t, 3)
    assert powered.determining_sequence(3) == alpha.scale(t)


# --- CLT ----------------------------------------------------------------------


def test_clt_scaling_is_exact():
    alpha = RationalSequence([Fraction(1), Fraction(1, 2), Fraction(-1, 3),
                              Fraction(2)])
    d = ksym.from_determining_sequence(2, alpha)
    for n_samples in (4, 16, 64):
        b = round(n_samples ** 0.5)
        scaled = ksym.clt_scaled_cumulants(d, n_samples, 8)
        full = inc.dilate(alpha, 2)
        for i in range(1, 9):
            assert scaled[i] == Fraction(b) ** (2 - i) * full[i]
        assert scaled[2] == 1


def test_clt_higher_cumulants_shrink_monotonically():
    alpha = RationalSequence([Fraction(1), Fraction(3), Fraction(5)])
    d = ksym.from_determining_sequence(3, alpha)
    prev = None
    for n_samples in (2 ** 3, 4 ** 3, 8 ** 3):
        scaled = ksym.clt_scaled_cumulants(d, n_samples, 9)
        tail = [abs(scaled[i]) for i in range(4, 10)]
        if prev is not None:
            assert all(a <= b for a, b in zip(tail, prev))
            assert tail[2] < prev[2]
        prev = tail


def test_clt_reads_the_dilated_entries_without_dilating(monkeypatch):
    # k = 10**9: a dilated alpha would hold k * order entries
    def refuse(*args):
        raise AssertionError("clt_scaled_cumulants dilated alpha")
    monkeypatch.setattr(inc, "dilate", refuse)
    d = KSymmetricDistribution(10**9, RationalSequence([Fraction(1)]))
    assert ksym.clt_scaled_cumulants(d, 1, 3) == RationalSequence([Fraction(0)] * 3)
    d = ksym.from_determining_sequence(2, RationalSequence([Fraction(1), Fraction(-1, 3)]))
    assert list(ksym.clt_scaled_cumulants(d, 9, 4)) == [0, 1, 0, Fraction(-1, 27)]


def test_clt_requires_normalized_and_perfect_power():
    d = ksym.from_determining_sequence(2, RationalSequence([Fraction(2), 0, 0]))
    with pytest.raises(ValidationError):
        ksym.clt_scaled_cumulants(d, 4, 4)
    good = ksym.semicircle_sk(2, 4)
    with pytest.raises(ValidationError):
        ksym.clt_scaled_cumulants(good, 5, 4)
    # 0 is a perfect square whose root the scaling raises to a negative power
    for n_samples in (0, -4):
        with pytest.raises(ValidationError, match="n_samples must be positive"):
            ksym.clt_scaled_cumulants(good, n_samples, 4)


# --- compound Poisson ---------------------------------------------------------


def test_compound_poisson_cumulants_are_rate_times_jump_moments():
    jump = ksym.from_determining_sequence(
        2, RationalSequence([Fraction(1), Fraction(1, 3), Fraction(1, 5)])
    )
    lam = Fraction(3, 2)
    cp = ksym.compound_poisson(2, lam, jump, 3)
    got = tr.moments_to_cumulants(cp.base.prefix(1), 1)
    assert got[1] == lam * jump.base[1]
    full_cums = inc.dilate(cp.determining_sequence(3), 2)
    assert full_cums == jump.full_moments(6).scale(lam)


def test_compound_poisson_rate_additivity_and_power_rule():
    jump = ksym.haar_unitary_law(2, 5)
    a = ksym.compound_poisson(2, Fraction(1, 2), jump, 5)
    b = ksym.compound_poisson(2, Fraction(3, 2), jump, 5)
    c = ksym.compound_poisson(2, 2, jump, 5)
    assert a.determining_sequence(5).add(b.determining_sequence(5)) == \
        c.determining_sequence(5)
    # power rule: boxplus power by t matches rate multiplication
    assert ksym.boxplus_power(a, 4, 5) == c


def test_compound_poisson_k_mismatch():
    with pytest.raises(ValidationError):
        ksym.compound_poisson(3, 1, ksym.haar_unitary_law(2, 4), 4)


def test_poisson_limit_gap_shrinks_per_doubling():
    jump = ksym.from_determining_sequence(
        2, RationalSequence([Fraction(1), Fraction(1, 3), Fraction(2)])
    )
    lam = Fraction(3, 2)
    gaps = {n: ksym.poisson_limit_gap(2, lam, jump, n, 4) for n in (64, 128, 256)}
    for idx in range(1, 5):
        g1, g2, g3 = gaps[64][idx], gaps[128][idx], gaps[256][idx]
        if g1 == 0:
            assert g2 == 0 and g3 == 0
        else:
            assert g2 * Fraction(3, 2) <= g1
            assert g3 * Fraction(3, 2) <= g2


def test_poisson_limit_gap_vanishes_at_lowest_order():
    jump = ksym.haar_unitary_law(3, 3)
    gaps = ksym.poisson_limit_gap(3, 1, jump, 27, 3)
    assert gaps[3] == 0


def test_poisson_limit_single_sample_degenerate_case():
    jump = ksym.haar_unitary_law(2, 3)
    gaps = ksym.poisson_limit_gap(2, 1, jump, 1, 6)
    # with one sample the mixture IS the jump law, so the gap at order
    # 2k is the full quadratic cumulant correction |kappa_4 - lambda m_4|
    mix = jump.full_moments(6)
    direct = tr.moments_to_cumulants(mix, 6)
    assert gaps[4] == abs(direct[4] - mix[4])


def test_poisson_limit_hand_expansion_at_2k():
    # jump whose base has a single nonzero moment: the order-2k cumulant
    # of the mixture power is N*(m2 - m1^2 scaled), computable by hand:
    # kappa_{2k} = m_{2k} - (k-equal pair count) m_k^2 with m both scaled
    k = 2
    jump = ksym.from_determining_sequence(k, RationalSequence([1, 0, 0]))
    lam = Fraction(1)
    for n_samples in (8, 16):
        gaps = ksym.poisson_limit_gap(k, lam, jump, n_samples, 2 * k)
        m2 = Fraction(2)  # second base moment of the jump law
        mk = Fraction(1, n_samples) * 1
        m2k = Fraction(1, n_samples) * m2
        kappa = n_samples * (m2k - 2 * mk ** 2)
        assert gaps[2 * k] == abs(kappa - lam * m2)


# --- powers of k-divisible laws -------------------------------------------------


def test_xk_of_kdivisible_delta_one_gives_semicircle_power():
    for k in (1, 2, 3):
        m = ksym.xk_of_kdivisible(RationalSequence.unit_vector(1, 5), k, 5)
        assert [int(v) for v in m] == [nc.count_kequal(k, n) for n in range(1, 6)]


def test_xk_of_kdivisible_poisson_alpha():
    m = ksym.xk_of_kdivisible(RationalSequence.constant(1, 5), 2, 5)
    assert [int(v) for v in m] == [nc.fuss_catalan_kdivisible(2, n)
                                   for n in range(1, 6)]


def test_xk_of_kdivisible_checks_the_kdivisible_cumulant_formula(monkeypatch):
    # the zeta power alpha * zeta^(k-1) runs every route; its "dilated"
    # route is the k-divisible cumulant formula, one walk of NC^(k-1)(n)
    powers, walked = [], set()
    real_power, real_walk = inc.zeta_power_conv, inc.kdivisible_conv

    def spy_power(g, k, order, route="series"):
        powers.append((k, route))
        return real_power(g, k, order, route=route)

    def spy_walk(k, f, g, order):
        walked.add(k)
        return real_walk(k, f, g, order)

    monkeypatch.setattr(inc, "zeta_power_conv", spy_power)
    monkeypatch.setattr(inc, "kdivisible_conv", spy_walk)
    ksym.xk_of_kdivisible(RationalSequence.constant(1, 4), 3, 4)
    assert [route for k, route in powers if k == 2] == ["both"]
    assert walked == {1, 2}


def test_xk_rejects_signed_alpha():
    with pytest.raises(ValidationError):
        ksym.xk_of_kdivisible(RationalSequence([0, 1, 0]), 2, 3)


def test_boxtimes_power_trivial_and_random_routes():
    assert list(ksym.boxtimes_power_moments(
        tr.point_mass_moments(1, 8), 2, 4, route="both")) == [1, 1, 1, 1]
    import random

    rnd = random.Random(9)
    for k in (2, 3):
        mu = random_positive_moments(rnd, 4 * k)
        both = ksym.boxtimes_power_moments(mu, k, 4, route="both")
        assert both == ksym.boxtimes_power_moments(mu, k, 4, route="series")


def test_boxtimes_power_needs_k_at_least_one():
    mu = tr.atomic_moments([(1, Fraction(1, 2)), (3, Fraction(1, 2))], 8)
    for k in (0, -1):
        for route in ("series", "enumeration", "both"):
            with pytest.raises(ValidationError, match="k must be >= 1"):
                ksym.boxtimes_power_moments(mu, k, 4, route=route)


def test_boxtimes_power_rejects_a_power_that_is_not_an_integer():
    mu = tr.atomic_moments([(1, Fraction(1, 2)), (3, Fraction(1, 2))], 8)
    for k in (Fraction(3, 2), 2.5, 2.0):
        for route in ("series", "enumeration", "both"):
            with pytest.raises(ValidationError, match="k must be an integer"):
                ksym.boxtimes_power_moments(mu, k, 4, route=route)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6),
       st.lists(st.tuples(positive_rationals, st.integers(min_value=1, max_value=5)),
                min_size=1, max_size=3))
def test_boxtimes_power_of_a_positive_law_is_a_positive_law(k, order, atoms):
    # mu^{boxtimes k} of a law on [0, inf) is again one (Belinschi-Bercovici)
    total = sum(w for _x, w in atoms)
    mu = tr.atomic_moments([(x, Fraction(w, total)) for x, w in atoms], 2 * order)
    power = ksym.boxtimes_power_moments(mu, k, order, route="series")
    assert tr.hankel_check(power, stieltjes=True)


def test_infdiv_identity_on_haar_jump_and_random_jump():
    for k in (1, 2, 3):
        assert ksym.infdiv_power_identity_check(1, ksym.haar_unitary_law(k, 5),
                                                k, 5)
    jump = ksym.from_determining_sequence(
        2, RationalSequence([Fraction(2), Fraction(1, 2), Fraction(3),
                             Fraction(1), Fraction(1)])
    )
    assert ksym.infdiv_power_identity_check(1, jump, 2, 5)
    assert ksym.infdiv_power_identity_check(Fraction(7, 3), jump, 2, 5)


def test_infdiv_identity_statement_at_rate_one():
    # the jump law of x^k is the (k-1)-fold free Poisson power convolved
    # with jump^k when the rate is 1
    k, order = 3, 4
    jump = ksym.haar_unitary_law(k, order)
    x = ksym.compound_poisson(k, 1, jump, order)
    lhs = tr.moments_to_cumulants(x.base.prefix(order), order)
    c = tr.moments_to_cumulants(jump.base.prefix(order), order)
    for _ in range(k - 1):
        c = tr.free_mult_convolve(c, inc.zeta_family(order), order)
    rhs = tr.cumulants_to_moments(c, order)
    assert lhs == rhs


# --- stable monomials -----------------------------------------------------------


def test_unit_monomial_is_neutral():
    m = ksym.positive_stable_monomial(Fraction(1, 2))
    assert ksym.stable_monomial_mul(m, ksym.UNIT_MONOMIAL) == m


def test_positive_stable_monomial_values():
    m = ksym.positive_stable_monomial(Fraction(1, 2))
    assert m.phase_pi == 1 and m.exponent == 1 and m.theta == (Fraction(1, 2),)
    w3 = ksym.ksemicircle_monomial(3)
    assert w3.exponent == Fraction(-2, 3) and w3.phase_pi == 0 and not w3.theta


def test_ksym_stable_exponent_is_t():
    for k in (1, 2, 3):
        for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
            sig = ksym.ksym_stable_monomial(k, t)
            beta = Fraction(1, 1 + t)
            assert sig.exponent == (1 - beta) / beta == t


def test_stable_reproducing_grid():
    for k in (1, 2, 3):
        for t in (Fraction(1, 2), 1, 2):
            for s in (Fraction(1, 2), 1, 2):
                assert ksym.stable_reproducing_check(k, t, s)


def test_reproducing_check_is_not_vacuous():
    lhs = ksym.stable_monomial_mul(
        ksym.ksym_stable_monomial(2, 1),
        ksym.positive_stable_monomial(Fraction(1, 2)),
    )
    wrong = ksym.ksym_stable_monomial(2, 3)
    assert not ksym.stable_monomial_equal(lhs, wrong)


def test_dilation_and_additive_power_rules():
    m = ksym.positive_stable_monomial(Fraction(2, 3))
    d = ksym.stable_dilate(m, Fraction(5, 2))
    assert d.scale == Fraction(2, 5) and d.exponent == m.exponent
    p = ksym.stable_add_power(ksym.ksemicircle_monomial(2), 4)
    # exponent -1/2: factor 4^(-1/2) = 1/2 is rational and folds in
    assert p.scale == Fraction(1, 2) and not p.power_atoms
    q = ksym.stable_add_power(ksym.ksemicircle_monomial(3), 2)
    # exponent -2/3: factor 2^(-1/3) stays symbolic
    assert q.power_atoms and q.scale == Fraction(1, 2)


@settings(max_examples=20, deadline=None)
@given(positive_rationals)
def test_mult_additive_identity_on_monomials(t):
    a = ksym.ksym_stable_monomial(2, Fraction(1, 2))
    b = ksym.positive_stable_monomial(Fraction(2, 3))
    assert ksym.mult_additive_check(a, b, t)
    c = ksym.ksemicircle_monomial(3)
    assert ksym.mult_additive_check(a, c, t)


def test_monomial_json_roundtrip():
    m = ksym.stable_add_power(ksym.ksym_stable_monomial(3, Fraction(1, 2)), 2)
    assert StableMonomial.from_json(m.to_json()) == m


def _scalar_parameter_sites():
    d, jump, m = ksym.semicircle_sk(2, 4), ksym.haar_unitary_law(2, 8), ksym.ksemicircle_monomial(2)
    return {
        "boxplus_power": lambda x: ksym.boxplus_power(d, x, 4),
        "compound_poisson": lambda x: ksym.compound_poisson(2, x, jump, 4),
        "poisson_limit_gap": lambda x: ksym.poisson_limit_gap(2, x, jump, 3, 4),
        "infdiv_power_identity_check": lambda x: ksym.infdiv_power_identity_check(x, jump, 2, 3),
        "stable_add_power": lambda x: ksym.stable_add_power(m, x),
        "stable_dilate": lambda x: ksym.stable_dilate(m, x),
        "positive_stable_monomial": ksym.positive_stable_monomial,
        "ksym_stable_monomial": lambda x: ksym.ksym_stable_monomial(2, x),
        "stable_reproducing_check, t": lambda x: ksym.stable_reproducing_check(2, x, 1),
        "stable_reproducing_check, s": lambda x: ksym.stable_reproducing_check(2, 1, x),
        "free_add_power": lambda x: tr.free_add_power(RationalSequence([1, 2]), x),
        "point_mass_moments": lambda x: tr.point_mass_moments(x, 3),
    }


@pytest.mark.parametrize("site", sorted(_scalar_parameter_sites()))
def test_a_non_finite_scalar_parameter_is_a_validation_error(site):
    call = _scalar_parameter_sites()[site]
    call(1)
    call(0.5)
    for x in (float("nan"), float("inf"), float("-inf"), "1/0", None):
        with pytest.raises(ValidationError, match="must be a finite rational"):
            call(x)
