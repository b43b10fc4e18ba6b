import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freeprob import ncpart as nc
from freeprob import series as se
from freeprob import transforms as tr
from freeprob.errors import IrrationalRootError, ValidationError
from freeprob.sequences import RationalSequence
from freeprob.series import PowerSeries, PuiseuxSeries
from oracles import check_pair, compose_by_fractions, geometric, mul_by_fractions

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


def series_st(order, unit_constant=False, unit_linear=False):
    def build(vals):
        if unit_constant:
            vals = [Fraction(1)] + vals[1:]
        if unit_linear:
            vals = [Fraction(0), Fraction(1)] + vals[2:]
        return PowerSeries(vals)

    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(build)


def test_series_keep_the_fractions_they_are_given():
    given = [Fraction(1, 3), Fraction(-2, 5)]
    for coeffs in (PowerSeries(given).coeffs, PuiseuxSeries(2, -1, given).coeffs):
        assert all(c is g for c, g in zip(coeffs, given))
    assert PowerSeries([1, 2.5]).coeffs == (Fraction(1), Fraction(5, 2))
    assert all(type(c) is Fraction for c in PowerSeries([True, 2]).coeffs)


def test_mul_unit_and_reciprocal_geometric():
    a = PowerSeries([2, 3, Fraction(1, 2), 5])
    assert se.mul(a, PowerSeries.one(3)) == a
    r = se.power(PowerSeries([1, -1, 0, 0, 0]), -1)
    assert r == geometric(4)
    assert se.mul(a, se.power(a, -1)) == PowerSeries.one(3)


def test_reciprocal_requires_unit():
    for a, e in ((PowerSeries([0, 1]), -1), (PowerSeries([0, 1, 2]), -2),
                 (PowerSeries([0, 0]), -1)):
        with pytest.raises(ValidationError, match="nonzero constant term"):
            se.power(a, e)
    assert se.power(PowerSeries([0, 0]), 0) == PowerSeries.one(1)
    assert se.power(PowerSeries([0, 1, 1]), 3) == PowerSeries([0, 0, 0])


def test_compose_examples():
    n = 8
    a = PowerSeries([1, 2, -1, 3, 0, 0, 0, 0, 0])
    z = PowerSeries.identity(n)
    assert se.compose(a, z, n) == a
    left = se.mul(z, geometric(n), n)  # z/(1-z)
    right = se.mul(z, se.power(PowerSeries([1, 1] + [0] * (n - 1)), -1), n)
    assert se.compose(left, right, n) == z
    assert se.compose(PowerSeries([1, 1, 0]), PowerSeries([0, 2, 0]), 2) == \
        PowerSeries([1, 2, 0])
    with pytest.raises(ValidationError):
        se.compose(a, PowerSeries([1, 1] + [0] * 7), n)


# zeros, negatives and denominators up to 10^6; lengths below and past the order
wide = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                                     max_denominator=10 ** 6))
wide_series = st.builds(lambda zeros, tail: PowerSeries([0] * zeros + tail),
                        st.integers(min_value=0, max_value=3),
                        st.lists(wide, min_size=1, max_size=9))


@settings(max_examples=150, deadline=None)
@given(wide_series, wide_series, st.one_of(st.none(), st.integers(min_value=0, max_value=12)))
@example(PowerSeries([Fraction(-3, 7)]), PowerSeries([Fraction(5, 999983)]), None)
@example(PowerSeries([Fraction(-3, 7)]), PowerSeries([0, Fraction(1, 2), 7]), 3)
@example(PowerSeries([Fraction(1, 2), Fraction(-2, 3), 0, 7]), PowerSeries([0, 5, 1]), 0)
def test_integer_products_match_the_fraction_loops(a, b, order):
    got = se.mul(a, b, order)
    assert got == mul_by_fractions(a, b, order) and all_fractions(got.coeffs)
    inner = PowerSeries([0, *b.coeffs])
    got = se.compose(a, inner, order)
    assert got == compose_by_fractions(a, inner, order) and all_fractions(got.coeffs)
    if b[0]:
        with pytest.raises(ValidationError, match="inner series to vanish"):
            se.compose(a, b, order)


def test_power_rejects_an_exponent_that_is_not_an_integer():
    a = PowerSeries([3, 1, 1])
    for e in (Fraction(1, 2), 2.0, Fraction(2)):
        with pytest.raises(ValidationError, match="needs an integer exponent"):
            se.power(a, e, 3)
    with pytest.raises(ValidationError, match="needs an integer exponent"):
        se.puiseux_pow(PuiseuxSeries(1, 0, a.coeffs), 1.5)


def test_comp_inverse_known_series():
    n = 8
    assert se.comp_inverse(PowerSeries.identity(n)) == PowerSeries.identity(n)
    p = se.mul(PowerSeries.identity(n), geometric(n), n)  # z/(1-z)
    q = se.comp_inverse(p)  # z/(1+z)
    assert q.coeffs[1:] == tuple(Fraction((-1) ** (i - 1)) for i in range(1, n + 1))
    p2 = PowerSeries([0, 1, 1] + [0] * (n - 2))
    q2 = se.comp_inverse(p2)
    # signed Catalan numbers
    assert q2.coeffs[1:6] == tuple(
        Fraction((-1) ** (m - 1) * nc.catalan(m - 1)) for m in range(1, 6)
    )


@settings(max_examples=25, deadline=None)
@given(series_st(8, unit_linear=True))
def test_comp_inverse_roundtrip(p):
    q = se.comp_inverse(p)
    z = PowerSeries.identity(8)
    assert se.compose(p, q, 8) == z
    assert se.compose(q, p, 8) == z


def test_comp_inverse_rejects_bad_leading_terms():
    with pytest.raises(ValidationError):
        se.comp_inverse(PowerSeries([1, 1]))
    with pytest.raises(ValidationError):
        se.comp_inverse(PowerSeries([0, 0, 1]))


def test_frac_inverse_monomial_and_agreement_with_comp_inverse():
    n = 9
    for k in (1, 2, 3):
        p = PowerSeries([0] * k + [1] + [0] * (n - k))
        chi = se.frac_inverse(p, k)
        assert chi.coeff(1) == 1
        assert all(chi.coeff(e) == 0 for e in range(2, chi.hi + 1))
    p = PowerSeries([0, 2, 5, -1, 0, 0, 0, 0, 0, 0])
    assert PowerSeries([0] + list(se.frac_inverse(p, 1).coeffs)) == se.comp_inverse(p)


def test_frac_inverse_first_coefficients():
    p = PowerSeries([0, 0, 1, 1, 0, 0, 0, 0])
    chi = se.frac_inverse(p, 2)
    assert chi.coeff(1) == 1
    assert chi.coeff(2) == Fraction(-1, 2)
    # roundtrip: p(V(w)) = w^2
    v = PowerSeries([0] + list(chi.coeffs))
    comp = se.compose(p, v, chi.hi)
    assert comp.coeffs[: chi.hi + 1] == tuple(
        Fraction(1) if i == 2 else Fraction(0) for i in range(chi.hi + 1)
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=3),
       st.lists(rationals, min_size=5, max_size=5))
def test_frac_inverse_roundtrip_random_tails(k, tail):
    order = k + 5
    p = PowerSeries([0] * k + [1] + tail + [0] * (order - k - 5))
    chi = se.frac_inverse(p, k)
    v = PowerSeries([0] + list(chi.coeffs))
    comp = se.compose(p, v, chi.hi)
    want = [Fraction(1) if i == k else Fraction(0) for i in range(chi.hi + 1)]
    assert list(comp.coeffs[: chi.hi + 1]) == want


def test_frac_inverse_nonmonic_leading_coefficient():
    # c_2 = 9/4: beta_1 = (4/9)^(1/2) = 2/3
    p = PowerSeries([0, 0, Fraction(9, 4), 1, 0, 0, 0, 0])
    chi = se.frac_inverse(p, 2)
    assert chi.coeff(1) == Fraction(2, 3)
    v = PowerSeries([0] + list(chi.coeffs))
    comp = se.compose(p, v, chi.hi)
    assert comp[2] == 1 and all(comp[i] == 0 for i in range(chi.hi + 1) if i != 2)


def test_frac_inverse_error_cases():
    with pytest.raises(ValidationError):
        se.frac_inverse(PowerSeries([0, 0, -1, 0]), 2)
    with pytest.raises(ValidationError):
        se.frac_inverse(PowerSeries([0, 1, 1, 0]), 2)
    with pytest.raises(IrrationalRootError):
        se.frac_inverse(PowerSeries([0, 0, 2, 0]), 2)


def test_frac_inverse_second_branch_for_even_ramification():
    # flipping the sign of the leading root gives the other formal branch
    p = PowerSeries([0, 0, 1, 1, 0, 0, 0, 0])
    other = se.frac_inverse(p, 2, leading_root=Fraction(-1))
    v = PowerSeries([0] + list(other.coeffs))
    comp = se.compose(p, v, other.hi)
    assert comp[2] == 1 and all(comp[i] == 0 for i in range(other.hi + 1) if i != 2)
    principal = se.frac_inverse(p, 2)
    assert other.coeff(1) == -principal.coeff(1)


def test_solve_functional_equation_families():
    n = 8
    b_atom = PowerSeries([1, 1] + [0] * (n - 1))
    # A = 1 + z A^2: Catalan
    cat = se.solve_A_given_B(b_atom, 2, n)
    assert [int(c) for c in cat.coeffs] == [nc.catalan(m) for m in range(n + 1)]
    # A = 1 + z A: geometric
    assert se.solve_A_given_B(b_atom, 1, n) == geometric(n)
    # B = 1/(1-z), k = 1: A = 1 + z A^2 again
    assert se.solve_A_given_B(geometric(n), 1, n) == cat
    # A = 1 + z A^3: 3-equal partition counts
    triple = se.solve_A_given_B(b_atom, 3, n)
    assert [int(c) for c in triple.coeffs[:5]] == [1, 1, 3, 12, 55]
    assert [int(c) for c in triple.coeffs[:5]] == [
        1, *(nc.count_kequal(3, m) for m in range(1, 5))
    ]


def test_solve_requires_unit_constant():
    with pytest.raises(ValidationError):
        se.solve_A_given_B(PowerSeries([2, 1]), 1, 1)


@settings(max_examples=20, deadline=None)
@given(series_st(7, unit_constant=True))
def test_functional_equation_duality(b):
    # if A = B(zA) then B = A(z/B) to the common order
    n = 7
    a = se.solve_A_given_B(b, 1, n)
    z = PowerSeries.identity(n)
    rhs = se.compose(a, se.mul(z, se.power(b, -1, n), n), n)
    assert rhs == b
    # and k = -1 inverts k = 1
    assert se.solve_A_given_B(a, -1, a.order) == b


@settings(max_examples=20, deadline=None)
@given(series_st(7, unit_constant=True), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=9))
def test_solve_B_given_A_inverts_solve_A_given_B_for_every_k(b, k, n):
    # A = B(z A^k) both ways, k and -k; B is read as a polynomial past
    # its order
    a = se.solve_A_given_B(b, k, n)
    got = se.solve_A_given_B(a, -k, n)
    assert got == PowerSeries([b[i] for i in range(n + 1)])
    assert all_fractions(got.coeffs)
    # the other way round: peel k zetas off first, then put them back
    assert se.solve_A_given_B(se.solve_A_given_B(b, -k, n), k, n) == got


@settings(max_examples=12, deadline=None)
@given(series_st(7, unit_constant=True), st.integers(min_value=2, max_value=4))
def test_chain_of_intermediate_solutions(a, k):
    # from M = A(z M^k), peeling one zeta at a time walks down to A:
    # B_i = A(z B_i^(k-i)), and the last one is A itself
    n = 7
    m = se.solve_A_given_B(a, k, n)
    chain = [se.solve_A_given_B(m, -1, n)]
    for _ in range(k - 1):
        chain.append(se.solve_A_given_B(chain[-1], -1, n))
    z = PowerSeries.identity(n)
    for i, b_i in enumerate(chain, start=1):
        rhs = se.compose(a, se.mul(z, se.power(b_i, k - i, n), n), n)
        assert b_i == rhs
    assert chain[-1] == a


def test_check_pair_modes():
    n = 8
    one = PowerSeries.one(n)
    for mode in ("i", "ii", "iii"):
        assert check_pair(one, one, mode, 2)
    a = se.solve_A_given_B(PowerSeries([1, 1] + [0] * (n - 1)), 3, n)
    b = se.solve_A_given_B(se.solve_A_given_B(a, 3, n), -1, n)
    for mode in ("i", "ii", "iii"):
        assert check_pair(a, b, mode, 3)
    assert not check_pair(
        PowerSeries([1, 1] + [0] * 6), PowerSeries([1, 2] + [0] * 6), "iii", 2
    )


def test_puiseux_reindex_shift_mul():
    p = PuiseuxSeries(2, -1, [1, 0, Fraction(1, 2)])
    q = p.reindex(4)
    assert q.ram == 4 and q.lo == -2 and q.coeff(2) == Fraction(1, 2)
    r = se.puiseux_mul(p, p)
    assert r.lo == -2 and r.coeff(-2) == 1 and r.coeff(0) == 1
    assert p.shift(3).lo == 2


def test_puiseux_from_power_series_window():
    p = PowerSeries([1, 2, 3])
    q = PuiseuxSeries.from_power_series(p, 3)
    assert q.ram == 3 and q.lo == 0 and q.hi == 3 * 3 - 1
    assert q.coeff(3) == 2 and q.coeff(4) == 0


def test_puiseux_agree_window_rules():
    a = PuiseuxSeries(2, -1, [1, 2, 3, 4])
    b = PuiseuxSeries(2, -1, [1, 2, 3])  # same values, shorter window
    assert se.puiseux_agree(a, b, 3)
    assert not se.puiseux_agree(a, b, 4)  # window too narrow for the demand
    mism = PuiseuxSeries(2, -1, [1, 2, 3, 5])
    assert not se.puiseux_agree(a, mism, 3)  # full common window compared
    c = PuiseuxSeries(2, 5, [9])
    assert not se.puiseux_agree(a, c, 1)  # disjoint windows never agree


def test_rational_root():
    assert se.rational_root(Fraction(27, 8), 3) == Fraction(3, 2)
    with pytest.raises(IrrationalRootError):
        se.rational_root(Fraction(2), 2)


# ---------------------------------------------------------------------------
# Oracles: the algorithms the Lagrange core replaced, kept as reference
# implementations that every rebuilt function must match exactly.


def old_solve_A_given_B(b, k, order):
    """Fixed-point iteration A <- B(z A^k) over compose, one order per round."""
    a = PowerSeries.one(order)
    for _ in range(order):
        inner = se.mul(PowerSeries.identity(order), se.power(a, k, order), order)
        a = se.compose(b, inner, order)
    return a


def old_solve_B_given_A(a, order):
    """Triangular solve of a_n = sum_j b_j [z^(n-j)] A^j."""
    apow = [PowerSeries.one(order)]
    for _ in range(order):
        apow.append(se.mul(apow[-1], a, order))
    b = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        b[n] = a[n] - sum((b[j] * apow[j][n - j] for j in range(1, n)), Fraction(0))
    return PowerSeries(b)


def old_root_inverse(p, k, b1):
    """Coefficient-by-coefficient compose inverse of p(V(w)) = w^k, V'(0) = b1."""
    top = p.order - k + 1
    b = [Fraction(0), b1] + [Fraction(0)] * (top - 1)
    dk = k * p[k] * b1 ** (k - 1)
    for j in range(2, top + 1):
        m = k + j - 1
        b[j] = -se.compose(p, PowerSeries(b[: m + 1]), m)[m] / dk
    return b[1:]


def all_fractions(values):
    return all(type(c) is Fraction for c in values)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=3),
       st.lists(rationals, min_size=0, max_size=10))
def test_solvers_match_old_algorithms(order, k, tail):
    b = PowerSeries([1] + tail)
    a = se.solve_A_given_B(b, k, order)
    assert a == old_solve_A_given_B(b, k, order) and all_fractions(a.coeffs)
    got = se.solve_A_given_B(b, -1, order)
    assert got == old_solve_B_given_A(b, order) and all_fractions(got.coeffs)
    assert se.solve_A_given_B(b, -1, b.order) == old_solve_B_given_A(b, b.order)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10), rationals.filter(bool),
       st.lists(rationals, min_size=9, max_size=9))
def test_comp_inverse_matches_old_algorithm(order, c1, tail):
    p = PowerSeries([0, c1] + tail[: order - 1])
    q = se.comp_inverse(p)
    assert list(q.coeffs) == [0] + old_root_inverse(p, 1, 1 / c1)
    assert all_fractions(q.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6),
       st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3),
       st.booleans(), st.lists(rationals, min_size=6, max_size=6))
def test_frac_inverse_matches_old_algorithm(k, extra, root, negative, tail):
    # c_k = root^-k, so both signs of the leading root are rational for even k
    p = PowerSeries([0] * k + [1 / root ** k] + tail[:extra])
    b1 = -root if negative and k % 2 == 0 else root
    chi = se.frac_inverse(p, k, leading_root=b1 if b1 < 0 else None)
    assert (chi.ram, chi.lo) == (k, 1)
    assert list(chi.coeffs) == old_root_inverse(p, k, b1)
    assert all_fractions(chi.coeffs)


def parent_solve_B_given_A(a, order, k):
    """B with A = B(z A^k): Lagrange inversion with H = A, phi = A^(-k),
    each power A^(-nk) from Miller's recurrence written out in place."""
    q, out = 1, []
    fs = [(j, a[j]) for j in range(1, order) if a[j]]
    for n in range(1, order + 1):
        g, c = [Fraction(1)], -n * k + q
        for m in range(1, n):
            acc = sum((c * j - m * q) * (x * g[m - j]) for j, x in fs if j <= m)
            g.append(Fraction(acc, m * q))
        out.append(Fraction(sum(i * a[i] * g[n - i] for i in range(1, n + 1)), n))
    return PowerSeries([1] + out)


def parent_reciprocal(a, order):
    """1/a by the recurrence a_0 r_n = -sum_(i >= 1) a_i r_(n-i)."""
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, min(n, a.order) + 1):
            acc += a[i] * out[n - i]
        out[n] = -inv0 * acc
    return PowerSeries(out)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=4),
       st.lists(rationals, min_size=0, max_size=10))
def test_negative_k_matches_the_parent_inverse_solver(order, k, tail):
    b = PowerSeries([1] + tail)
    got = se.solve_A_given_B(b, -k, order)
    assert got == parent_solve_B_given_A(b, order, k) and all_fractions(got.coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.lists(rationals, min_size=1, max_size=7),
       st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=4))
def test_power_matches_repeated_multiplication(zeros, coeffs, e, extra):
    # leading zeros and an order past a.order (a read as a polynomial)
    a = PowerSeries([0] * zeros + coeffs)
    for order in (None, a.order + extra):
        want = PowerSeries.one(a.order if order is None else order)
        for _ in range(e):
            want = se.mul(want, a, want.order)
        got = se.power(a, e, order)
        assert got == want and all_fractions(got.coeffs)


@settings(max_examples=60, deadline=None)
@given(rationals.filter(bool), st.lists(rationals, min_size=0, max_size=7),
       st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=4))
def test_negative_power_matches_the_reciprocal_recurrence(a0, tail, order, e):
    a = PowerSeries([a0] + tail)
    inv = se.power(a, -1, order)
    assert inv == parent_reciprocal(a, order) and all_fractions(inv.coeffs)
    assert se.mul(se.power(a, -e, order), se.power(a, e, order)) == PowerSeries.one(order)


def test_solve_A_given_B_edge_orders_and_k_zero():
    b = PowerSeries([1, 2, Fraction(-1, 3), 5])
    # k = 0: A = B(z), cut or padded to the order
    assert se.solve_A_given_B(b, 0, 2) == PowerSeries([1, 2, Fraction(-1, 3)])
    assert se.solve_A_given_B(b, 0, 5) == PowerSeries([1, 2, Fraction(-1, 3), 5, 0, 0])
    for k in range(4):
        assert se.solve_A_given_B(b, k, 0) == PowerSeries([1])
        assert se.solve_A_given_B(b, k, 1) == PowerSeries([1, 2])
    assert se.solve_A_given_B(b, -1, 0) == PowerSeries([1])
    one = se.solve_A_given_B(PowerSeries([1]), 2, 5)
    assert one == PowerSeries.one(5) and all_fractions(one.coeffs)
    # a negative k peels zeta factors off
    assert se.solve_A_given_B(b, -1, 3) == old_solve_B_given_A(b, 3)


def test_compose_and_solve_reject_a_negative_order():
    a, b = PowerSeries([1, 2, Fraction(-1, 3)]), PowerSeries([0, 1, 1])
    for order in (-1, -5):
        with pytest.raises(ValidationError, match="order must be >= 0"):
            se.compose(a, b, order)
        for k in (-1, 0, 2):
            with pytest.raises(ValidationError, match="order must be >= 0"):
                se.solve_A_given_B(a, k, order)
    assert se.compose(a, b, 0) == PowerSeries([1])


def test_mul_and_power_reject_a_negative_order():
    a, b = PowerSeries([1, 2, 3]), PowerSeries([Fraction(1, 2), 0, -1])
    for order in (-1, -5):
        message = f"a series order must be >= 0, not {order}"
        with pytest.raises(ValidationError, match=message):
            se.mul(a, b, order)
        for e in (-2, 0, 2):  # e = 0 once returned the series 1
            with pytest.raises(ValidationError, match=message):
                se.power(a, e, order)
    assert se.mul(a, b, 0) == PowerSeries([Fraction(1, 2)])
    assert se.power(a, 0, 0) == se.power(a, 3, 0) == PowerSeries([1])


def test_short_B_is_read_as_a_polynomial():
    n = 9
    cat = se.solve_A_given_B(PowerSeries([1, 1]), 2, n)
    assert [int(c) for c in cat.coeffs] == [nc.catalan(m) for m in range(n + 1)]
    assert cat == old_solve_A_given_B(PowerSeries([1, 1]), 2, n)
    # A short A is a polynomial for the inverse solve too
    short = PowerSeries([1, 2, 3])
    assert se.solve_A_given_B(short, -1, 7) == old_solve_B_given_A(short, 7)


def test_frac_inverse_at_minimal_order():
    for k in (1, 2, 3):
        chi = se.frac_inverse(PowerSeries([0] * k + [Fraction(1, 8 ** k)]), k)
        assert (chi.lo, chi.hi) == (1, 1) and chi.coeff(1) == 8
        assert all_fractions(chi.coeffs)
        # a monomial gives all-zero sums past b_1, which must stay Fractions
        chi = se.frac_inverse(PowerSeries([0] * k + [Fraction(1, 8 ** k)] + [0] * 5), k)
        assert list(chi.coeffs) == [8, 0, 0, 0, 0, 0] and all_fractions(chi.coeffs)


def test_frac_inverse_negative_root_and_non_unit_leading_coefficient():
    p = PowerSeries([0, 0, Fraction(9, 4), 1, Fraction(-1, 2), 0, 3, 0, 0])
    for root in (Fraction(2, 3), Fraction(-2, 3)):
        chi = se.frac_inverse(p, 2, leading_root=root)
        assert list(chi.coeffs) == old_root_inverse(p, 2, root)
        assert all_fractions(chi.coeffs)
    cubic = PowerSeries([0, 0, 0, Fraction(8, 27), 2, -1, 0, 0, 0])
    chi = se.frac_inverse(cubic, 3)
    assert chi.coeff(1) == Fraction(3, 2)
    assert list(chi.coeffs) == old_root_inverse(cubic, 3, Fraction(3, 2))
    assert all_fractions(chi.coeffs)


# ---------------------------------------------------------------------------
# Oracles for the Puiseux layer: the coefficient loops that puiseux_mul,
# puiseux_pow, from_power_series and the S-transform prefactor used before
# they moved onto mul and power.


def old_puiseux_mul(a, b):
    """Two-window product loop, exact on w^lo..w^min(a.hi + b.lo, b.hi + a.lo)."""
    ram = a.ram * b.ram // math.gcd(a.ram, b.ram)
    a, b = a.reindex(ram), b.reindex(ram)
    lo = a.lo + b.lo
    hi = min(a.hi + b.lo, b.hi + a.lo)
    out = [Fraction(0)] * (hi - lo + 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        ea = a.lo + i
        for j, cb in enumerate(b.coeffs):
            e = ea + b.lo + j
            if e > hi:
                break
            if cb != 0:
                out[e - lo] += ca * cb
    return PuiseuxSeries(ram, lo, out)


def old_puiseux_pow(a, e):
    """Repeated multiplication by a."""
    if e < 1:
        raise ValidationError("puiseux_pow needs e >= 1")
    out = a
    for _ in range(e - 1):
        out = old_puiseux_mul(out, a)
    return out


def old_prefactor_mul(a, poly):
    """Multiply by an exact Laurent polynomial, keeping a's window length."""
    poly = poly.reindex(a.ram) if poly.ram != a.ram else poly
    lo = a.lo + poly.lo
    hi = a.hi + poly.lo
    out = [Fraction(0)] * (hi - lo + 1)
    for j, cp in enumerate(poly.coeffs):
        if cp == 0:
            continue
        for i, ca in enumerate(a.coeffs):
            e = a.lo + i + poly.lo + j
            if lo <= e <= hi:
                out[e - lo] += ca * cp
    return PuiseuxSeries(a.ram, lo, out)


def old_from_power_series(p, ram):
    coeffs = [Fraction(0)] * (p.order * ram + 1)
    for i, c in enumerate(p.coeffs):
        coeffs[i * ram] = c
    return PuiseuxSeries(ram, 0, coeffs + [Fraction(0)] * (ram - 1))


def old_s_transform(mom, order):
    """S = (1+z) chi/z through the prefactor loop for every k >= 2."""
    k = next(n for n in range(1, order + 1) if mom[n] != 0)
    psi = PowerSeries([0] + [mom[n] for n in range(1, order + 1)])
    if k == 1:
        shifted = PowerSeries(se.comp_inverse(psi).coeffs[1:])
        return se.mul(shifted, PowerSeries([1, 1] + [0] * (order - 2)), order - 1) \
            if order >= 2 else shifted
    chi = se.frac_inverse(psi, k)
    out = old_prefactor_mul(chi, PuiseuxSeries(k, 0, [1] + [0] * (k - 1) + [1]))
    return out.shift(-k)


def same_puiseux(a, b):
    return (a.ram, a.lo, a.coeffs) == (b.ram, b.lo, b.coeffs) and all_fractions(a.coeffs)


window_coeffs = st.lists(st.one_of(st.just(Fraction(0)), rationals), min_size=1, max_size=8)
puiseux_st = st.builds(PuiseuxSeries, st.sampled_from([1, 2, 3, 6]),
                       st.integers(min_value=-3, max_value=3), window_coeffs)


@settings(max_examples=60, deadline=None)
@given(puiseux_st, puiseux_st)
def test_puiseux_mul_matches_old_loop(a, b):
    assert same_puiseux(se.puiseux_mul(a, b), old_puiseux_mul(a, b))


@settings(max_examples=60, deadline=None)
@given(puiseux_st, st.integers(min_value=1, max_value=4))
def test_puiseux_pow_matches_repeated_multiplication(a, e):
    assert same_puiseux(se.puiseux_pow(a, e), old_puiseux_pow(a, e))


def test_puiseux_pow_rejects_non_positive_exponents():
    for e in (0, -1):
        with pytest.raises(ValidationError, match="puiseux_pow needs e >= 1"):
            se.puiseux_pow(PuiseuxSeries(2, 1, [1, 2]), e)


@settings(max_examples=40, deadline=None)
@given(window_coeffs, st.sampled_from([1, 2, 3, 6]))
def test_from_power_series_matches_old_loop(coeffs, ram):
    p = PowerSeries(coeffs)
    assert same_puiseux(PuiseuxSeries.from_power_series(p, ram), old_from_power_series(p, ram))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), window_coeffs)
def test_one_plus_z_product_matches_old_prefactor_loop(k, coeffs):
    # the product s_transform takes: (1 + w^k) chi/z over chi's own window
    chi = PuiseuxSeries(k, 1, coeffs)
    one_plus_z = [1] + [0] * (k - 1) + [1]
    got = se.mul(PowerSeries(one_plus_z), PowerSeries(coeffs), len(coeffs) - 1)
    want = old_prefactor_mul(chi, PuiseuxSeries(k, 0, one_plus_z)).shift(-k)
    assert same_puiseux(PuiseuxSeries(k, 1 - k, got.coeffs), want)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=6),
       st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3),
       st.lists(rationals, min_size=6, max_size=6))
def test_s_transform_matches_old_prefactor_route(k, extra, root, tail):
    # m_k = root^-k keeps the leading root rational
    mom = RationalSequence([0] * (k - 1) + [1 / root ** k] + tail[:extra])
    got, want = tr.s_transform(mom), old_s_transform(mom, mom.order)
    if k == 1:
        assert isinstance(got, PowerSeries) and got == want and all_fractions(got.coeffs)
    else:
        assert same_puiseux(got, want)


def test_s_transform_at_order_k_has_a_one_coefficient_window():
    for k in range(1, 5):
        s = tr.s_transform(RationalSequence([0] * (k - 1) + [Fraction(1, 8 ** k)]), k)
        if k == 1:
            assert s == PowerSeries([8])
        else:
            assert (s.ram, s.lo, s.coeffs) == (k, 1 - k, (Fraction(8),))


def test_s_transform_negative_leading_moment_message():
    for k, m in ((2, Fraction(-1)), (3, Fraction(-8, 3))):
        with pytest.raises(ValidationError, match=(
                f"^first nonzero moment m_{k} = {m} must be positive for the principal branch$")):
            tr.s_transform(RationalSequence([0] * (k - 1) + [m, 1, 2]))
