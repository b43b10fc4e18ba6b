"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`).

All numeric comparisons are exact rational equality except where a
criterion states a tolerance (the matrix model's 0.1 deviation bound
and its 60 second budget).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from freeprob import incidence as inc
from freeprob import ksym
from freeprob import matmodel as mm
from freeprob import ncpart as nc
from freeprob import series as se
from freeprob import transforms as tr
from freeprob.sequences import RationalSequence
from oracles import multichain_count_enumerated


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {name}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {name}")


def random_sequence(rnd, order, lo=-9, hi=9, den=9):
    return RationalSequence(
        [Fraction(rnd.randint(lo, hi), rnd.randint(1, den)) for _ in range(order)]
    )


def random_positive_law(rnd, order):
    atoms = [
        (Fraction(rnd.randint(1, 4)), Fraction(1, 2)),
        (Fraction(rnd.randint(1, 9), rnd.randint(1, 3)), Fraction(1, 2)),
    ]
    return tr.atomic_moments(atoms, order)


def test_criterion_01_counting_closed_forms():
    with criterion(1, "enumeration counts match the closed forms for kn <= 14"):
        for k in range(1, 15):
            for n in range(1, 15):
                if k * n > 14:
                    continue
                kdiv = sum(1 for _ in nc.iter_kdivisible_blocks(k, n))
                assert kdiv == nc.fuss_catalan_kdivisible(k, n), (k, n)
                keq = sum(1 for _ in nc.iter_kequal(k, n))
                assert keq == nc.count_kequal(k, n), (k, n)


def test_criterion_02_triple_coincidence():
    with criterion(2, "k-equal, k-divisible and multichain counts coincide"):
        for k in range(1, 5):
            for n in range(1, 6):
                direct = multichain_count_enumerated(k, n)
                assert direct == nc.count_kequal(k + 1, n)
                assert direct == nc.fuss_catalan_kdivisible(k, n)
                assert direct == nc.count_multichains(k, n)


def test_criterion_03_moebius_inversion():
    with criterion(3, "zeta * moebius = delta and full inversion, 25 families"):
        order = 8
        z = inc.zeta_family(order)
        m = inc.moebius_family(order)
        assert inc.conv(z, m, order) == inc.delta_family(order)
        rnd = random.Random(1003)
        for _ in range(25):
            g = random_sequence(rnd, order)
            assert inc.conv(inc.conv(g, z, order), m, order) == g


def test_criterion_04_zeta_power_dilation_equivalence():
    with criterion(4, "k-fold convolution equals the dilated single-step route"):
        rnd = random.Random(1004)
        for k in range(1, 5):
            order = 12 // k
            for _ in range(5):
                g = random_sequence(rnd, order)
                iterated = inc.zeta_power_conv(g, k, order, route="iterated")
                dilated = inc.zeta_power_conv(g, k, order, route="dilated")
                assert iterated == dilated
                # generalization: arbitrary h in place of zeta
                h = random_sequence(rnd, k * order)
                lhs = g
                for _ in range(k):
                    lhs = inc.conv(lhs, h.prefix(order), order)
                rhs = inc.undilate(
                    inc.conv(inc.dilate(g, k), h, k * order), k
                )
                assert lhs == rhs


def test_criterion_05_three_power_cumulant_formulas():
    with criterion(5, "three formulas for the cumulants of x^k agree, 25 sequences"):
        rnd = random.Random(1005)
        for i in range(25):
            k = 2 + i % 3  # cycles through 2, 3, 4
            order = 12 // (k - 1)
            alpha = random_sequence(rnd, order)
            r1 = tr.kdiv_power_cumulants(alpha, k, order, route="enumeration")
            r2 = tr.kdiv_power_cumulants(alpha, k, order, route="two-stage")
            r3 = tr.kdiv_power_cumulants(alpha, k, order, route="zeta")
            assert r1 == r2 == r3
        # k = 1 degenerates to the identity on all routes
        alpha = random_sequence(rnd, 6)
        assert tr.kdiv_power_cumulants(alpha, 1, 6) == alpha


def test_criterion_06_product_word_moments():
    with criterion(6, "phi((xy)^(kn)) by centering recursion equals the "
                      "convolution route"):
        rnd = random.Random(1006)
        for rep in range(10):
            for k in (2, 3):
                nmax = 8 // k
                mx = random_positive_law(rnd, k * nmax)
                assert tr.hankel_check(mx, stieltjes=True)
                base = random_positive_law(rnd, nmax)
                my = inc.dilate(base, k)
                ev = tr.WordMomentEvaluator([
                    tr.FreeVariable("x", mx),
                    tr.FreeVariable("y", my),
                ])
                cum = tr.moments_to_cumulants(base, nmax)
                cx = tr.moments_to_cumulants(mx.prefix(nmax), nmax)
                for _ in range(k):
                    cum = tr.free_mult_convolve(cum, cx, nmax)
                rhs = tr.cumulants_to_moments(cum, nmax)
                for n in range(1, nmax + 1):
                    lhs = ev.phi([("x", 1), ("y", 1)] * (k * n))
                    assert lhs == rhs[n], (rep, k, n)


def test_criterion_07_s_transform():
    with criterion(7, "S of the free Poisson is 1/(1+z); multiplicativity and "
                      "the k-th power relation hold"):
        s = tr.s_transform(tr.free_poisson_moments(9), 9)
        assert s.order >= 8
        assert list(s.coeffs[:9]) == [Fraction((-1) ** i) for i in range(9)]
        # multiplicativity on the example families, window >= 6 coefficients
        order = 12
        mp = tr.free_poisson_moments(order)
        semi = tr.semicircle_moments(order)
        haar2 = RationalSequence(
            [Fraction(1) if n % 2 == 0 else Fraction(0) for n in range(1, order + 1)]
        )
        haar3 = RationalSequence(
            [Fraction(1) if n % 3 == 0 else Fraction(0) for n in range(1, order + 1)]
        )
        delta2 = tr.point_mass_moments(2, order)
        assert tr.s_multiplicativity_check(semi, mp, order, min_window=6)
        assert tr.s_multiplicativity_check(haar2, mp, order, min_window=6)
        assert tr.s_multiplicativity_check(haar3, delta2, order, min_window=6)
        assert tr.s_multiplicativity_check(mp, delta2, order, min_window=6)
        # S_{x^k} = S_x^k (z/(1+z))^(k-1) on the same families
        assert tr.s_power_relation_check(tr.semicircle_moments(16), 2, 16,
                                         min_window=6)
        assert tr.s_power_relation_check(
            inc.dilate(tr.free_poisson_moments(6), 3), 3, 18, min_window=6
        )
        haar2_16 = RationalSequence(
            [Fraction(1) if n % 2 == 0 else Fraction(0) for n in range(1, 17)]
        )
        assert tr.s_power_relation_check(haar2_16, 2, 16, min_window=6)


def test_criterion_08_free_bessel_two_routes():
    with criterion(8, "free Bessel moments and cumulants via enumeration and "
                      "iterated convolution"):
        for k in range(1, 5):
            mp = tr.free_poisson_moments(max(k * 6, 12))
            both = ksym.boxtimes_power_moments(mp, k, 6, route="both")
            assert [int(v) for v in both] == [
                nc.fuss_catalan_kdivisible(k, n) for n in range(1, 7)
            ]
            cums = tr.moments_to_cumulants(both, 6)
            assert [int(v) for v in cums] == [
                nc.count_kequal(k, n) for n in range(1, 7)
            ]
            iterated = RationalSequence.constant(1, 6)
            for _ in range(k - 1):
                iterated = tr.free_mult_convolve(
                    iterated, RationalSequence.constant(1, 6), 6
                )
            assert cums == iterated


def test_criterion_09_central_limit_scaling():
    with criterion(9, "CLT cumulant scaling is exact; the limit law's k-th "
                      "power has Fuss-Catalan moments"):
        rnd = random.Random(1009)
        for k in (2, 3, 4):
            alpha = RationalSequence(
                [Fraction(1)] + [Fraction(rnd.randint(-6, 6), rnd.randint(1, 6))
                                 for _ in range(5)]
            )
            d = ksym.from_determining_sequence(k, alpha)
            full = inc.dilate(alpha, k)
            for n_samples in (2 ** k, 4 ** k):
                b = round(n_samples ** (1.0 / k))
                scaled = ksym.clt_scaled_cumulants(d, n_samples, 2 * k)
                for i in range(1, 2 * k + 1):
                    assert scaled[i] == Fraction(b) ** (k - i) * full[i]
        for k in range(1, 5):
            # independent route: cumulants (1,0,0,...) pushed through the
            # k-divisible power formula, then to moments
            power_cums = tr.kdiv_power_cumulants(
                RationalSequence.unit_vector(1, 6), k, 6
            )
            moments = tr.cumulants_to_moments(power_cums, 6)
            assert [int(v) for v in moments] == [
                nc.count_kequal(k, n) for n in range(1, 7)
            ]
            assert ksym.semicircle_sk(k, 6).base == moments


def test_criterion_10_poisson_limit_gaps():
    with criterion(10, "compound Poisson limit gaps shrink by >= 1.5 per "
                       "doubling"):
        rnd = random.Random(1010)
        for k in (1, 2, 3):
            alpha = RationalSequence(
                [Fraction(rnd.randint(1, 6), rnd.randint(1, 4))
                 for _ in range(2 * k + 1)]
            )
            jump = ksym.from_determining_sequence(k, alpha)
            lam = Fraction(rnd.randint(1, 3), rnd.randint(1, 2))
            gaps = {
                n: ksym.poisson_limit_gap(k, lam, jump, n, 2 * k)
                for n in (64, 128, 256)
            }
            saw_nonzero = False
            for idx in range(1, 2 * k + 1):
                g1, g2, g3 = gaps[64][idx], gaps[128][idx], gaps[256][idx]
                if g1 == 0:
                    assert g2 == 0 and g3 == 0
                else:
                    saw_nonzero = True
                    assert g2 * Fraction(3, 2) <= g1, (k, idx)
                    assert g3 * Fraction(3, 2) <= g2, (k, idx)
            assert saw_nonzero


def test_criterion_11_infinite_divisibility_of_powers():
    with criterion(11, "the k-th power of a compound Poisson is compound "
                       "Poisson with the stated jump law"):
        rnd = random.Random(1011)
        for k in (1, 2, 3):
            assert ksym.infdiv_power_identity_check(
                1, ksym.haar_unitary_law(k, 5), k, 5
            )
            for _ in range(3):
                base = RationalSequence(
                    [Fraction(rnd.randint(1, 5), rnd.randint(1, 3))
                     for _ in range(5 * k)]
                )
                jump = ksym.from_determining_sequence(k, base)
                lam = Fraction(rnd.randint(1, 4), rnd.randint(1, 3))
                assert ksym.infdiv_power_identity_check(lam, jump, k, 5)


def test_criterion_12_stable_reproducing_property():
    with criterion(12, "stable reproducing identity and the dilation form of "
                       "the power identity hold on monomials"):
        grid = (Fraction(1, 2), Fraction(1), Fraction(2))
        for k in (1, 2, 3):
            for t in grid:
                for s in grid:
                    assert ksym.stable_reproducing_check(k, t, s)
        for t in grid:
            a = ksym.ksym_stable_monomial(2, Fraction(1, 2))
            b = ksym.positive_stable_monomial(Fraction(2, 3))
            w3 = ksym.ksemicircle_monomial(3)
            assert ksym.mult_additive_check(a, b, t)
            assert ksym.mult_additive_check(a, w3, t)
            assert ksym.mult_additive_check(b, w3, t)


def test_criterion_13_matrix_model():
    with criterion(13, "permutation model: exact single-matrix traces, "
                       "commutator deviation <= 0.1 shrinking with size, "
                       "under 60 s"):
        start = time.monotonic()
        for k in (2, 3):
            perm = mm.sample_kcycle(8, k, 42)
            for m in range(1, 4 * k + 1):
                assert mm.normalized_trace([perm], [(1, m)]) == \
                    (1 if m % k == 0 else 0)
        word = [[(1, 1), (2, 1), (1, -1), (2, -1)]]
        for k in (2, 3):
            big = mm.freeness_experiment(2, 2000, k, word, 50, 42)
            dev_big = Fraction(big["words"][0]["deviation"])
            assert dev_big <= Fraction(1, 10), (k, dev_big)
            bigger = mm.freeness_experiment(2, 20000, k, word, 5, 42)
            dev_bigger = Fraction(bigger["words"][0]["deviation"])
            assert dev_bigger < dev_big, (k, dev_big, dev_bigger)
        elapsed = time.monotonic() - start
        assert elapsed <= 60, f"matrix model took {elapsed:.1f}s"
