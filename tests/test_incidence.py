from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import incidence as inc
from freeprob import ncpart as nc
from freeprob import series
from freeprob.errors import ResourceLimitError, ValidationError
from freeprob.ksym import KSymmetricDistribution
from freeprob.sequences import RationalSequence
from oracles import (catalan_by_recurrence, conv_power_by_steps, multichain_count_enumerated,
                     pair_stats_by_enumeration)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def seqs(order):
    return st.lists(rationals, min_size=order, max_size=order).map(RationalSequence)


def conv_bruteforce(f, g, order):
    """Literal sum over NC(n), no type caching."""
    out = []
    for n in range(1, order + 1):
        total = Fraction(0)
        for p in nc.iter_nc(n):
            total += inc.extend(f, p) * inc.extend(g, nc.kreweras(p))
        out.append(total)
    return RationalSequence(out)


def test_extend_examples():
    p = nc.NCPartition(3, [(1, 2), (3,)])
    assert inc.extend(inc.zeta_family(5), p) == 1
    assert inc.extend(RationalSequence([1, 2, 3]), p) == 2
    zeroed = RationalSequence([0, 7, 7])
    assert inc.extend(zeroed, nc.NCPartition(3, [(1, 3), (2,)])) == 0


def test_extend_order_too_small():
    with pytest.raises(ValidationError):
        inc.extend(RationalSequence([1]), nc.NCPartition(2, [(1, 2)]))


@settings(max_examples=20, deadline=None)
@given(seqs(5), seqs(5))
def test_conv_matches_bruteforce(f, g):
    assert inc.conv(f, g, 5) == conv_bruteforce(f, g, 5)


@settings(max_examples=25, deadline=None)
@given(seqs(8))
def test_delta_is_unit(g):
    d = inc.delta_family(8)
    assert inc.conv(d, g, 8) == g
    assert inc.conv(g, d, 8) == g


def test_zeta_squared_counts_noncrossing_partitions():
    zz = inc.conv(inc.zeta_family(8), inc.zeta_family(8), 8)
    assert [int(v) for v in zz] == [nc.catalan(n) for n in range(1, 9)]


def test_moebius_family_values_and_inversion():
    m = inc.moebius_family(6)
    assert list(m) == [1, -1, 2, -5, 14, -42]
    assert inc.conv(inc.zeta_family(6), m, 6) == inc.delta_family(6)
    assert inc.conv(m, inc.zeta_family(6), 6) == inc.delta_family(6)


def test_moebius_family_solves_triangular_system():
    # independent derivation: solve conv(zeta, m) = delta entry by entry
    order = 6
    z = inc.zeta_family(order)
    vals = []
    for n in range(1, order + 1):
        m_try = RationalSequence(vals + [Fraction(0)] * (order - len(vals)))
        residue = inc.conv(z, m_try, n)[n]
        # entry n of conv(zeta, m) is linear in m_n with coefficient 1
        # (the term pi = 1_n, Kr = 0_n contributes zeta_n * m_1^... );
        # isolate it by bumping m_n by 1
        m_bump = RationalSequence(
            vals + [Fraction(1)] + [Fraction(0)] * (order - len(vals) - 1)
        )
        slope = inc.conv(z, m_bump, n)[n] - residue
        target = Fraction(1) if n == 1 else Fraction(0)
        vals.append((target - residue) / slope)
    assert RationalSequence(vals) == inc.moebius_family(order)


@settings(max_examples=25, deadline=None)
@given(seqs(8))
def test_moebius_inversion_roundtrip(g):
    z = inc.zeta_family(8)
    m = inc.moebius_family(8)
    assert inc.conv(inc.conv(g, z, 8), m, 8) == g
    assert inc.conv(inc.conv(g, m, 8), z, 8) == g


def test_dilate_undilate():
    a = RationalSequence([1, 2, 3])
    assert inc.dilate(a, 1) == a
    assert list(inc.dilate(a, 2)) == [0, 1, 0, 2, 0, 3]
    assert inc.undilate(inc.dilate(a, 2), 2) == a
    assert inc.undilate(RationalSequence([0, 1, 0, 2]), 2) == RationalSequence([1, 2])
    assert inc.undilate(RationalSequence([1, 2]), 1) == RationalSequence([1, 2])
    with pytest.raises(ValidationError):
        inc.undilate(RationalSequence([1, 0]), 2)


@settings(max_examples=10, deadline=None)
@given(seqs(8), st.integers(min_value=1, max_value=4))
def test_zeta_power_routes_agree(g, k):
    order = min(8, 12 // k)
    a = inc.zeta_power_conv(g.prefix(order), k, order, route="iterated")
    b = inc.zeta_power_conv(g.prefix(order), k, order, route="dilated")
    assert a == b
    assert inc.zeta_power_conv(g.prefix(order), k, order) == a


def _refuse(*args, **kwargs):
    raise AssertionError("a walk must not get here")


def _zero_led(a: RationalSequence, zero: bool) -> RationalSequence:
    return RationalSequence([0, *a.values[1:]]) if zero else a


@settings(max_examples=40, deadline=None)
@given(seqs(8), seqs(8), st.integers(min_value=0, max_value=8), st.booleans(), st.booleans())
def test_conv_matches_the_walk(f, g, order, f1_zero, g1_zero):
    # zero leading entries: one has no Nica-Speicher transform, two
    # convolve to zero
    f, g = _zero_led(f, f1_zero), _zero_led(g, g1_zero)
    if order == 0:
        for run in (inc.conv, lambda f, g, order: inc.kdivisible_conv(1, f, g, order)):
            with pytest.raises(ValidationError, match="order >= 1"):
                run(f, g, 0)
        return
    walk = inc.kdivisible_conv(1, f, g, order)
    assert inc.conv(f, g, order) == walk
    assert inc.conv(g, f, order) == walk


def test_conv_on_both_leading_entries_zero():
    # pi and Kr(pi) are never both free of singletons (|pi| + |Kr(pi)| =
    # n + 1), so pairings convolved with pairings vanish
    pair = RationalSequence([0, 1, 0, 0, 0, 0, 0])
    out = inc.conv(pair, pair, 7)
    assert out == inc.kdivisible_conv(1, pair, pair, 7)
    assert list(out) == [0] * 7 and all(isinstance(v, Fraction) for v in out)


@settings(max_examples=25, deadline=None)
@given(seqs(6), seqs(6), st.integers(min_value=1, max_value=6), st.booleans(), st.booleans())
def test_conv_power_is_the_chain_of_convolutions(f, g, order, f1_zero, g1_zero):
    f, g = _zero_led(f, f1_zero), _zero_led(g, g1_zero)
    for t in range(5):
        assert inc.conv(f, g, order, t) == conv_power_by_steps(f, g, order, t)


@settings(max_examples=15, deadline=None)
@given(seqs(6), seqs(6), st.integers(min_value=1, max_value=6), st.booleans())
def test_negative_conv_power_undoes_the_positive_one(f, g, order, f1_zero):
    f = _zero_led(f, f1_zero)
    if not g[1]:
        return  # see test_negative_conv_power_needs_a_nonzero_leading_entry
    for t in (1, 2, 3):
        assert inc.conv(inc.conv(f, g, order, -t), g, order, t) == f.prefix(order)


def test_negative_conv_power_needs_a_nonzero_leading_entry():
    f, g = RationalSequence([1, 2, 3]), RationalSequence([0, 1, 1])
    for t in (-1, -2):
        with pytest.raises(ValidationError, match="a negative convolution power needs g_1 != 0"):
            inc.conv(f, g, 3, t)


@settings(max_examples=10, deadline=None)
@given(seqs(7), st.integers(min_value=1, max_value=7))
def test_conv_with_a_zeta_power_matches_the_zeta_power_kernel(g, order):
    # two kernels: the Nica-Speicher transform and solve_A_given_B
    zeta = inc.zeta_family(order)
    for k in range(-2, 4):
        assert inc.conv(g, zeta, order, k) == inc.zeta_power_conv(g, k, order)


def test_conv_rejects_a_power_that_is_not_an_integer():
    # g_1 ** (t * n) with a float or Fraction t used to round the result
    f, g = RationalSequence([1, 2, 3]), RationalSequence([Fraction(1, 3), 1, 1])
    for t in (2.0, Fraction(3, 2), Fraction(2), 0.0):
        with pytest.raises(ValidationError, match="t must be an integer"):
            inc.conv(f, g, 3, t)


def test_unit_vector_rejects_an_index_outside_its_order():
    # a negative index used to wrap around from the end of the list
    assert RationalSequence.unit_vector(3, 3, 2) == RationalSequence([0, 0, 2])
    for index, order in ((0, 3), (-1, 3), (4, 3), (1, 0)):
        with pytest.raises(ValidationError, match=rf"index {index} outside 1\.\.{order}$"):
            RationalSequence.unit_vector(index, order)
    with pytest.raises(ValidationError, match=r"index 1 outside 1\.\.0$"):
        inc.delta_family(0)


def test_dilate_to_an_order_builds_that_prefix_only():
    a = RationalSequence([1, Fraction(-2, 3), 5])
    for k in range(1, 4):
        for order in range(1, 3 * k + 1):
            assert inc.dilate(a, k, order) == inc.dilate(a, k).prefix(order)
    # k * a.order entries are never listed: a_1 sits past the prefix
    assert inc.dilate(a, 10**9, 3) == RationalSequence([0, 0, 0])
    assert KSymmetricDistribution(10**9, a).full_moments(2) == RationalSequence([0, 0])
    with pytest.raises(ValidationError, match=r"index 4 outside 1\.\.3"):
        inc.dilate(a, 2, 8)  # entry 8 is a_4


def test_conv_and_the_walk_share_the_operand_order_check():
    f, g = RationalSequence([1, 2, 3]), RationalSequence([1, 1, 1, 1])
    for run in (inc.conv, lambda f, g, order: inc.kdivisible_conv(1, f, g, order)):
        with pytest.raises(ValidationError, match="operand order too small"):
            run(f, g, 4)
    assert inc.conv(f, g).order == 3


@settings(max_examples=12, deadline=None)
@given(seqs(8), st.integers(min_value=0, max_value=3))
def test_zeta_power_series_route_matches_both_walks(g, k):
    order = min(8, 12 // max(k, 1))
    g = g.prefix(order)
    both = inc.zeta_power_conv(g, k, order, route="both")
    assert inc.zeta_power_conv(g, k, order, route="series") == both
    assert inc.zeta_power_conv(g, k, order) == both


@settings(max_examples=12, deadline=None)
@given(seqs(8), st.integers(min_value=1, max_value=3))
def test_negative_zeta_power_routes_agree_and_invert(g, k):
    # the Moebius family walks |k| times, or once on the |k|-dilation
    order = 8 // k
    g = g.prefix(order)
    down = inc.zeta_power_conv(g, -k, order, route="both")
    assert inc.zeta_power_conv(g, -k, order) == down
    assert inc.zeta_power_conv(down, k, order, route="both") == g
    assert inc.zeta_power_conv(inc.zeta_power_conv(g, k, order), -k, order) == g


def test_dilated_zeta_power_walks_nc_k_not_nc_of_k_times_n():
    # NC^3(6), not NC(18): the undilating walk went over the NC(16) budget
    g = RationalSequence([1, -2, 0, 3, Fraction(1, 2), 5])
    for k in (3, -3):
        assert (inc.zeta_power_conv(g, k, 6, route="dilated")
                == inc.zeta_power_conv(g, k, 6, route="series"))


def test_zeta_power_edge_cases():
    g = RationalSequence([2, 3, 4])
    assert inc.zeta_power_conv(g, 0, 3) == g
    assert inc.zeta_power_conv(inc.delta_family(4), 1, 4) == inc.zeta_family(4)
    # zeta^-1 is the Moebius family
    n = 6
    assert inc.zeta_power_conv(inc.delta_family(n), -1, n) == inc.moebius_family(n)
    assert inc.zeta_power_conv(inc.zeta_family(n), -1, n) == inc.delta_family(n)
    catalan = RationalSequence([nc.catalan(m) for m in range(1, n + 1)])
    assert inc.zeta_power_conv(catalan, -1, n) == inc.zeta_family(n)
    assert inc.zeta_power_conv(catalan, -2, n) == inc.delta_family(n)


def test_delta_zeta_power_counts_kequal_partitions():
    # delta * zeta^(k+1) at n equals the number of (k+1)-equal
    # non-crossing partitions of [(k+1)n], which equals the k-divisible
    # count and the k-multichain count
    for k in range(1, 4):
        for n in range(1, 4):
            if (k + 1) * n > 12:
                continue
            val = inc.zeta_power_conv(inc.delta_family(n), k + 1, n)[n]
            assert val == nc.count_kequal(k + 1, n)
            assert val == nc.fuss_catalan_kdivisible(k, n)
            assert val == multichain_count_enumerated(k, n)


def test_zeta_power_matches_poset_multichain_walks():
    # delta * zeta^(j+1) counts j-multichains enumerated from the order
    # relation; checked against the closed form as well
    for j in range(1, 5):
        for n in range(1, 4):
            if (j + 1) * n > 8:
                continue
            val = inc.zeta_power_conv(inc.delta_family(n), j + 1, n)[n]
            assert val == multichain_count_enumerated(j, n)
            assert val == nc.count_multichains(j, n)


def test_multichains_of_kdivisible_poset():
    # l-multichains of the k-divisible poset match lk-multichains of
    # NC(n): enumerate both posets directly
    for k, l, n in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 4), (4, 1, 2)]:
        if l * k * n > 8:
            continue
        elems = nc.enumerate_kdivisible(k, n)
        below = [
            [i for i, p in enumerate(elems) if nc.leq(p, q)] for q in elems
        ]
        ways = [1] * len(elems)
        for _ in range(l - 1):
            ways = [sum(ways[i] for i in below[j]) for j in range(len(elems))]
        direct = sum(ways)
        assert direct == multichain_count_enumerated(l * k, n)
        assert direct == inc.zeta_power_conv(inc.delta_family(n), l * k + 1, n)[n]


@settings(max_examples=8, deadline=None)
@given(seqs(12), seqs(12), st.integers(min_value=1, max_value=3))
def test_iterated_h_convolution_equals_dilated_route(g, h, k):
    order = 12 // k
    lhs = g.prefix(order)
    for _ in range(k):
        lhs = inc.conv(lhs, h.prefix(order), order)
    rhs = inc.undilate(
        inc.conv(inc.dilate(g.prefix(order), k), h.prefix(k * order), k * order), k
    )
    assert lhs == rhs


def test_catalan_by_recurrence_matches_closed_form():
    for n in range(0, 15):
        assert catalan_by_recurrence(n) == nc.catalan(n)


def test_concurrent_cache_initialization_is_consistent():
    import threading

    z = inc.zeta_family(9)
    g = RationalSequence([Fraction(1, 2), -3, 0, Fraction(5, 7), 1, 2, -1, 4, Fraction(1, 3)])
    results = []

    def work():
        # zeta on the right, then a general g: nothing is shared between walks
        results.append((inc.kdivisible_conv(1, z, None, 9), inc.kdivisible_conv(1, z, g, 9)))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert [int(v) for v in results[0][0]] == [nc.catalan(n) for n in range(1, 10)]
    assert results[0][1] == inc.conv(z, g, 9)


def kdivisible_conv_bruteforce(k, f, g, order):
    """Literal sum over the k-divisible partitions of [kn]; None is zeta."""
    out = []
    for n in range(1, order + 1):
        total = Fraction(0)
        for p in nc.enumerate_kdivisible(k, n):
            fp = 1 if f is None else inc.extend(f, p)
            gp = 1 if g is None else inc.extend(g, nc.kreweras(p))
            total += fp * gp
        out.append(total)
    return RationalSequence(out)


@settings(max_examples=10, deadline=None)
@given(seqs(12), seqs(12), st.integers(min_value=1, max_value=4), st.booleans(), st.booleans())
def test_kdivisible_conv_matches_bruteforce(f, g, k, f1_zero, g1_zero):
    order = 12 // k if k > 1 else 6
    f, g = _zero_led(f.prefix(k * order), f1_zero), _zero_led(g.prefix(k * order), g1_zero)
    moebius = inc.moebius_family(k * order)
    for a, b in ((f, g), (None, g), (f, None), (None, None), (f, moebius), (None, moebius)):
        assert inc.kdivisible_conv(k, a, b, order) == kdivisible_conv_bruteforce(k, a, b, order)
    zeta = inc.zeta_family(k * order)
    assert inc.kdivisible_conv(k, None, g, order) == inc.kdivisible_conv(k, zeta, g, order)
    if k == 1:
        assert inc.kdivisible_conv(1, f, g, order) == inc.conv(f, g, order)


def test_kdivisible_conv_needs_operands_up_to_k_times_order():
    g = RationalSequence([1, 2, 3, 4, 5])
    with pytest.raises(ValidationError):
        inc.kdivisible_conv(2, None, g, 3)
    with pytest.raises(ValidationError):
        inc.kdivisible_conv(2, g, None, 3)
    assert inc.kdivisible_conv(2, None, g.prefix(4), 2).order == 2


@lru_cache(maxsize=None)
def _pair_stats(k, n):
    return pair_stats_by_enumeration(k, n)


def _types_with_parts(total, parts, top=None):
    """Partitions of total into exactly `parts` parts, non-increasing."""
    top = total if top is None else top
    if parts == 0:
        return [()] if total == 0 else []
    return [(s, *rest) for s in range(min(total, top), 0, -1)
            for rest in _types_with_parts(total - s, parts - 1, s)]


def _aut(sizes):
    return prod(factorial(sizes.count(s)) for s in set(sizes))


def _c(sizes):
    return Fraction(factorial(len(sizes) - 1), _aut(sizes))


@pytest.mark.parametrize("k,top", [(1, 11), (2, 6), (3, 5), (4, 4), (5, 3)])
def test_pair_stats_closed_form_matches_the_enumeration(k, top):
    # Goulden-Jackson, the factorization the walk sums by: NC^k(n) has
    # N c(lam) c(mu) partitions of type lam whose Kreweras complement has
    # type mu, c(t) = (l(t) - 1)! / Aut t, for every mu |- N with
    # N + 1 - l(lam) parts
    for n in range(1, top + 1):
        size, hist = k * n, _pair_stats(k, n)
        lams = {lam for lam, _ in hist}
        assert lams == {tuple(k * s for s in nu)
                        for parts in range(1, n + 1) for nu in _types_with_parts(n, parts)}
        for lam in lams:
            mus = {mu for other, mu in hist if other == lam}
            assert mus == set(_types_with_parts(size, size + 1 - len(lam)))
            for mu in mus:
                assert hist[lam, mu] == size * _c(lam) * _c(mu)


def test_pair_stats_sum_to_fuss_catalan_with_kreweras_type_counts():
    # an all-ones g is the zeta family, so the walk counts NC^k(n) and, at
    # k = 1, weights each type lambda with Kreweras' count
    # n! / ((n - l + 1)! Aut lambda)
    for k, top in [(1, 16), (2, 8), (3, 6), (7, 3), (1000, 2), (5000, 1)]:
        out = inc.kdivisible_conv(k, None, inc.zeta_family(k * top), top)
        assert list(out) == [nc.fuss_catalan_kdivisible(k, n) for n in range(1, top + 1)]
    primes = RationalSequence([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
    want = [sum(factorial(n) // (factorial(n - parts + 1) * _aut(lam))
                * prod(primes[s] for s in lam)
                for parts in range(1, n + 1) for lam in _types_with_parts(n, parts))
            for n in range(1, 17)]
    assert list(inc.kdivisible_conv(1, primes, inc.zeta_family(16), 16)) == want


def test_pair_stats_take_no_recursion_that_deepens_with_k():
    # NC^1000(2): one block, whose complement is 2000 singletons, or two
    # blocks of 1000, whose complement has type (2, 1^1998), 1000 times
    f = RationalSequence([Fraction(j % 7 - 3, j % 5 + 1) for j in range(1, 2001)])
    g = RationalSequence([Fraction(1, 2), 3] + [Fraction(-5, 3)] * 1998)
    out = inc.kdivisible_conv(1000, f, g, 2)
    assert list(out) == [f[1000] * g[1] ** 1000,
                         f[2000] * g[1] ** 2000 + 1000 * f[1000] ** 2 * g[1] ** 1998 * g[2]]


def test_pair_stats_enumerate_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the walk enumerated partitions")
    f = RationalSequence([Fraction(1, 2), -3, 0, Fraction(5, 7)] * 3)
    g = RationalSequence([2, Fraction(-1, 3), 1, 0, 4, Fraction(2, 9)] * 2)
    want = inc.conv(f, g, 12)
    monkeypatch.setattr(nc, "_iter_spans", refuse)
    monkeypatch.setattr(nc, "kreweras", refuse)
    assert inc.kdivisible_conv(1, f, g, 12) == want


def test_pair_stats_keep_the_validation_and_the_budget(monkeypatch):
    g = RationalSequence([Fraction(1, 2), -3, 0, Fraction(5, 7)] * 5)
    with pytest.raises(ValidationError, match="k and n must be >= 1"):
        inc.kdivisible_conv(0, g, g, 3)
    with pytest.raises(ResourceLimitError, match=r"NC\^1\(17\) would enumerate"):
        inc.kdivisible_conv(1, g, g, 17)
    # a walk checks the budget of every n, however often it ran before
    inc.kdivisible_conv(1, g, None, 12)
    monkeypatch.setenv("FREEPROB_MAX_N", "5")
    for right in (g, None):
        with pytest.raises(ResourceLimitError, match=r"NC\^1\(6\) would enumerate"):
            inc.kdivisible_conv(1, g, right, 12)


def test_the_budget_refuses_before_any_power_is_built(monkeypatch):
    monkeypatch.setattr(series, "_imul", _refuse)
    f = RationalSequence.constant(2, 2000)
    for g in (f, None):
        with pytest.raises(ResourceLimitError, match=r"NC\^1\(17\) would enumerate"):
            inc.kdivisible_conv(1, f, g, 2000)


@pytest.mark.parametrize("k,top", [(1, 11), (2, 6), (3, 5), (4, 4), (5, 3)])
def test_type_counts_are_the_marginal_of_the_enumerated_pair_stats(k, top):
    # summed over the types of one length, the Goulden-Jackson weights are
    # power coefficients: over lam = k nu with j parts, c(lam) f_lam sums to
    # [z^n] F^j / j, F the sum of f_(km) z^m, and over mu with L parts,
    # c(mu) g_mu sums to [z^N] G^L / L.  c is read off the marginals of the
    # enumerated histogram: by the same count, pi of type lam number
    # N c(lam) C(N - 1, L - 1) / L, and Kr(pi) of type mu number
    # N c(mu) C(n - 1, j - 1) / j, with j + L = N + 1
    f = RationalSequence([Fraction(s % 7 - 3, s % 5 + 1) for s in range(1, k * top + 1)])
    g = RationalSequence([Fraction(s % 4 - 1, s % 3 + 2) for s in range(k * top)])
    fd, fc = inc._power_coeffs(f.values[k - 1::k], top)
    gd, gc = inc._power_coeffs(g.values[:top], top)
    for n in range(1, top + 1):
        size, by_lam, by_mu = k * n, Counter(), Counter()
        for (lam, mu), cnt in _pair_stats(k, n).items():
            by_lam[lam] += cnt
            by_mu[mu] += cnt
        f_sums, g_sums = Counter(), Counter()
        for lam, cnt in by_lam.items():
            j, parts = len(lam), size + 1 - len(lam)
            f_sums[j] += (Fraction(cnt * parts, size * comb(size - 1, parts - 1))
                          * prod(f[s] for s in lam))
        for mu, cnt in by_mu.items():
            j, parts = size + 1 - len(mu), len(mu)
            g_sums[parts] += Fraction(cnt * j, size * comb(n - 1, j - 1)) * prod(g[s] for s in mu)
        for j in range(1, n + 1):
            parts = size + 1 - j
            assert f_sums[j] == Fraction(fc(j, n), fd ** j * j)
            assert g_sums[parts] == Fraction(gc(parts, size), gd ** parts * parts)


def test_a_zeta_side_walk_reads_no_pair_stats(monkeypatch):
    # a walk, with zeta on either side or on neither, lists no partition,
    # takes no Kreweras complement and inverts no series
    f = RationalSequence([Fraction(1, 2), -3, 0, Fraction(5, 7)] * 4)
    g = RationalSequence([2, Fraction(-1, 3), 1, 0, 4, Fraction(2, 9)] * 3).prefix(16)
    want = {(f, None): inc.zeta_power_conv(f, 1, 16), (None, g): inc.zeta_power_conv(g, 1, 16),
            (f, g): inc.conv(f, g, 16)}
    for name in ("_iter_spans", "kreweras"):
        monkeypatch.setattr(nc, name, _refuse)
    monkeypatch.setattr(series, "_lagrange", _refuse)
    for (a, b), value in want.items():
        assert inc.kdivisible_conv(1, a, b, 16) == value
    assert list(inc.kdivisible_conv(4, None, None, 4)) == [
        nc.fuss_catalan_kdivisible(4, n) for n in range(1, 5)]


walk_sides = st.sampled_from(["zeta", "plain", "zero-led", "moebius"])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
           lambda k: st.tuples(st.just(k), st.integers(min_value=1, max_value=12 // k))),
       seqs(12), seqs(12), walk_sides, walk_sides)
def test_the_walk_equals_the_enumerated_pair_sum(k_order, f, g, f_side, g_side):
    # entry n is the sum over the k-divisible pi in NC(kn), listed one by
    # one, of f_pi g_Kr(pi), for kn up to 12
    k, order = k_order

    def side(name, seq):
        return {"zeta": None, "plain": seq, "zero-led": _zero_led(seq, True),
                "moebius": inc.moebius_family(12)}[name]
    a, b = side(f_side, f), side(g_side, g)
    want = [sum(cnt * (1 if a is None else prod(a[s] for s in lam))
                * (1 if b is None else prod(b[s] for s in mu))
                for (lam, mu), cnt in _pair_stats(k, n).items())
            for n in range(1, order + 1)]
    assert list(inc.kdivisible_conv(k, a, b, order)) == want


@pytest.mark.parametrize("k", [-4, -3, -2, -1, 1, 2, 3, 4])
def test_the_walks_equal_the_series_route(k):
    order = 12 // abs(k)
    plain = RationalSequence([Fraction(3, 2), -1, Fraction(2, 5), 0, 7, Fraction(-1, 3),
                              1, 2, Fraction(1, 9), -4, 5, Fraction(6, 11)][:order])
    inputs = [plain, _zero_led(plain, True), inc.dilate(plain, 2).prefix(order)]
    for g in inputs:
        want = inc.zeta_power_conv(g, k, order, route="series")
        for route in ("iterated", "dilated", "both"):
            assert inc.zeta_power_conv(g, k, order, route=route) == want, (g, route)


def test_a_zeta_side_walk_keeps_the_budget_and_the_errors():
    g = inc.zeta_family(17)
    with pytest.raises(ResourceLimitError, match=r"NC\^1\(17\) would enumerate"):
        inc.kdivisible_conv(1, g, None, 17)
    with pytest.raises(ResourceLimitError, match=r"NC\^1\(17\) would enumerate"):
        inc.kdivisible_conv(1, None, None, 17)
    with pytest.raises(ValidationError, match="k and n must be >= 1"):
        inc.kdivisible_conv(0, g, None, 3)
    with pytest.raises(ValidationError, match="operand order too small"):
        inc.kdivisible_conv(2, g.prefix(5), None, 3)
