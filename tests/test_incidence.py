from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprob import incidence as inc
from freeprob import ncpart as nc
from freeprob.errors import ValidationError
from freeprob.sequences import RationalSequence
from oracles import catalan_by_recurrence, conv_power_by_steps, multichain_count_enumerated

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

    inc._pair_stats.pop((1, 9), None)
    results = []

    def work():
        z = inc.zeta_family(9)
        results.append(inc.kdivisible_conv(1, z, None, 9))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert [int(v) for v in results[0]] == [nc.catalan(n) for n in range(1, 10)]


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
@given(seqs(9), seqs(9), st.integers(min_value=1, max_value=3))
def test_kdivisible_conv_matches_bruteforce(f, g, k):
    order = 9 // k if k > 1 else 6
    f, g = f.prefix(k * order), g.prefix(k * order)
    for a, b in ((f, g), (None, g), (f, None), (None, None)):
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
