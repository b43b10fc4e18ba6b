"""Multiplicative families on NC(n) and the combinatorial convolution.

A sequence (a_n) extends multiplicatively to partitions by
a_pi = prod over blocks V of a_{|V|}.  The convolution of two families
is (f*g)_n = sum over pi in NC(n) of f_pi g_{Kr(pi)}; the all-ones zeta
family and its inverse, the Moebius family, are the distinguished
elements.

Two independent computations exist for every convolution.  The series
one, the default, uses the Nica-Speicher Fourier transform of
multiplicative families, F(f)(z) = f^{<-1>}(z)/z with F(f*g) = F(f) F(g),
where f(z) = sum f_n z^n: `conv(f, g, order, t)` is f * g^{*t} for
any integer t, one Lagrange inversion since F(g^{*t}) = F(g)^t, even
when a leading entry is zero; a zeta power g * zeta^k is the A with
A = B(z A^k), B = 1 + g(z).  Both cost polynomial time.

The walk is the test oracle.  It never walks NC(n): by Goulden and
Jackson the pi of each type with Kr(pi) of each type are counted in
closed form, and summed over types those counts are coefficients of
powers of two generating series, so `kdivisible_conv`, the convolution
in the lattice of k-divisible partitions, costs O(order^3) integer
products whatever k.  Its k = 1 case is the walk for `conv`.
FREEPROB_MAX_N bounds only these walks, through the enumeration budget
of `ncpart`.  `ksym` builds every k-symmetric law on the series zeta
power: k convolutions with zeta in NC are one in NC^k.

Routes go through `errors.run_route` ("both" runs all and checks that
they agree): `zeta_power_conv` has "series", "iterated" (|k| walks in
NC(n)) and "dilated" (one walk in NC^|k|(n)), and a negative power walks
with the Moebius family.  Every zeta-power walk in the library is one of these.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from . import ncpart, series
from .errors import ValidationError, run_route
from .sequences import RationalSequence, check_int
from .series import PowerSeries


def _admit(k: int, n: int) -> None:
    # the validation and budget of a walk of NC^k(n), as iter_kdivisible_blocks has them
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    ncpart._check_budget(n, lambda: ncpart.fuss_catalan_kdivisible(k, n), None, f"NC^{k}({n})")


def _power_coeffs(values, top: int) -> tuple:
    """d and (m, s) -> d^m [z^s] A^m for s - m < top, where A is the sum of
    a_s z^s, a_s = values[s - 1], s = 1..top, and d is their common
    denominator.  A = z (c + H) gives [z^s] A^m = sum over i of C(m, i)
    c^(m - i) [z^(s - m)] H^i, and H^i starts at z^i, so one table of the
    powers of H through z^(top - 1) serves every m."""
    (c, *h), d = series._scaled(values)
    h, rows = [0, *h], [[1] + [0] * (top - 1)]
    for _ in range(1, top):
        rows.append(series._imul(rows[-1], h, top - 1))

    def coeff(m: int, s: int) -> int:
        e = s - m
        return sum(comb(m, i) * c ** (m - i) * rows[i][e] for i in range(min(m, e) + 1))
    return d, coeff


def extend(a: RationalSequence, p: ncpart.Partition) -> Fraction:
    """Multiplicative extension a_pi = prod over blocks of a_{|V|}."""
    out = Fraction(1)
    for b in p.blocks:
        if len(b) > a.order:
            raise ValidationError(
                f"block of size {len(b)} exceeds sequence order {a.order}"
            )
        out *= a[len(b)]
    return out


def zeta_family(order: int) -> RationalSequence:
    return RationalSequence.constant(1, order)


def delta_family(order: int) -> RationalSequence:
    """Unit of the convolution: (1, 0, 0, ...)."""
    return RationalSequence.unit_vector(1, order)


def moebius_family(order: int) -> RationalSequence:
    """Inverse of zeta under the convolution: ((-1)^(n-1) Catalan(n-1))_n."""
    check_int(order, "order")
    return RationalSequence(
        [Fraction((-1) ** (n - 1) * ncpart.catalan(n - 1)) for n in range(1, order + 1)]
    )


def conv(f: RationalSequence, g: RationalSequence, order: int | None = None,
         t: int = 1) -> RationalSequence:
    """f * g^{*t}, entry n = 1..order, for any integer t; (f*g)_n is the
    sum over pi in NC(n) of f_pi g_{Kr(pi)}, and g^{*(-1)} needs g_1 != 0.

    Computed from Nica-Speicher transforms, F(g^{*t}) = F(g)^t;
    kdivisible_conv(1, f, g, order) is the walk over NC(n) that the tests
    hold it against.
    """
    check_int(t, "the convolution power t")
    if order is None:
        order = min(f.order, g.order)
    check_int(order, "order")
    if min(f.order, g.order) < order:
        raise ValidationError("operand order too small for requested convolution order")
    if order < 1:
        return RationalSequence([])  # the walk's empty-sequence error
    if t == 0:
        return f.prefix(order)
    fv, gv = f.values[:order], g.values[:order]
    if not gv[0] and t == 1:
        fv, gv = gv, fv  # f*g = g*f
    if not gv[0]:
        if t < 0:
            raise ValidationError("a negative convolution power needs g_1 != 0")
        # pi and Kr(pi) both free of singletons would need
        # |pi| + |Kr(pi)| <= n/2 + n/2, but the sum is n + 1; so g*g = 0
        return RationalSequence([0] * order)
    # F(f*g^{*t}) = F(f) F(g)^t means (f*g^{*t})^{<-1>}(z) = f^{<-1>}(z)
    # F(g)(z)^t.  At z = f(w) this reads (f*g^{*t})(Phi(w)) = f(w) with
    # Phi(w) = w F(g)(f(w))^t, an identity between polynomials in f_1,
    # f_2, ..., so it holds for f_1 = 0 as well.  Phi(w) = w P(w)^t / g_1^t
    # with P(0) = 1, so w = (g_1^t z) / P(w)^t inverts it and Lagrange
    # gives f*g^{*t} = f(w(z)).
    g1 = gv[0]
    transform = series.comp_inverse(PowerSeries([0, *gv])).coeffs[1:]  # F(g)
    p = series.compose(PowerSeries([g1 * c for c in transform]), PowerSeries([0, *fv]))
    lag = series._lagrange(PowerSeries([0, *fv]), p, Fraction(-t), order)
    return RationalSequence([g1 ** (t * n) * c for n, c in enumerate(lag, start=1)])


def kdivisible_conv(k: int, f: RationalSequence | None, g: RationalSequence | None,
                    order: int) -> RationalSequence:
    """Entry n is the sum over k-divisible pi in NC(kn) of f_pi g_{Kr(pi)},
    n = 1..order; None for f or g stands for the zeta family (all ones).

    Goulden-Jackson: with N = kn, N c(lam) c(mu) partitions in NC(N) have
    type lam and a complement of type mu, c(t) = (l(t) - 1)! / Aut t, for
    every mu |- N with N + 1 - l(lam) parts.  Summed over the lam = k nu
    with j parts, c(lam) f_lam is [z^n] F^j / j with F the sum of
    f_(km) z^m, and over the mu with L parts c(mu) g_mu is [z^N] G^L / L
    with G the sum of g_s z^s.  So entry n is N times the sum over j = 1..n of
    [z^n] F^j [z^N] G^(N+1-j) / (j (N + 1 - j)), which reads only
    f_k..f_(k order) and g_1..g_order.
    """
    check_int(k, "k")
    check_int(order, "order")
    if any(a is not None and a.order < k * order for a in (f, g)):
        raise ValidationError("operand order too small for requested convolution order")
    for n in range(1, order + 1):
        _admit(k, n)  # every error before any work
    if order < 1:
        return RationalSequence([])  # the empty-sequence error
    fd, fc = _power_coeffs([1] * order if f is None else f.values[k - 1:k * order:k], order)
    gd, gc = _power_coeffs([1] * order if g is None else g.values[:order], order)
    out = []
    for n in range(1, order + 1):
        size = k * n
        den = lcm(*(j * (size + 1 - j) for j in range(1, n + 1)))
        total = sum(fc(j, n) * fd ** (n - j) * gc(size + 1 - j, size) * gd ** (j - 1)
                    * (den // (j * (size + 1 - j))) for j in range(1, n + 1))
        out.append(Fraction(size * total, fd ** n * gd ** size * den))
    return RationalSequence(out)


def dilate(a: RationalSequence, k: int, order: int | None = None) -> RationalSequence:
    """k-dilation: value a_n moves to position kn, zeros elsewhere.  Only
    entries 1..order are built, by default all k * a.order of them."""
    check_int(k, "k")
    if k < 1:
        raise ValidationError("dilation factor must be >= 1")
    vals = [Fraction(0)] * (k * a.order if order is None else order)
    for n in range(1, len(vals) // k + 1):
        vals[k * n - 1] = a[n]
    return RationalSequence(vals)


def undilate(a: RationalSequence, k: int) -> RationalSequence:
    """Inverse of dilate; rejects sequences with mass off the k-lattice."""
    if k < 1:
        raise ValidationError("dilation factor must be >= 1")
    for m in range(1, a.order + 1):
        if m % k and a[m] != 0:
            raise ValidationError(f"entry {m} is nonzero, sequence is not {k}-dilated")
    if a.order < k:
        raise ValidationError("sequence too short to undilate")
    return RationalSequence([a[k * n] for n in range(1, a.order // k + 1)])


def zeta_power_conv(g: RationalSequence, k: int, order: int,
                    route: str = "series") -> RationalSequence:
    """g * zeta^k for any integer k; zeta^(-1) is the Moebius family.

    Three routes are available and must agree: "series" solves
    A = B(z A^k) for A = 1 + (g * zeta^k)(z) with B = 1 + g(z),
    "iterated" walks NC(n) |k| times, and "dilated" walks NC^|k|(n)
    once with the |k|-dilated g, since |k| convolutions in NC are one
    in NC^|k|.  Both walks convolve with zeta, or with the Moebius
    family when k < 0.  At k = 0 every route is g itself.
    """
    check_int(k, "k")
    check_int(order, "order")
    if g.order < order:
        raise ValidationError("operand order too small")
    steps = abs(k)

    def by_series() -> RationalSequence:
        b = PowerSeries([1, *g.prefix(order).values])
        return RationalSequence(series.solve_A_given_B(b, k, order).coeffs[1:])

    def walk(j: int, seq: RationalSequence, times: int) -> RationalSequence:
        step = None if k > 0 else moebius_family(j * order)
        for _ in range(times):
            seq = kdivisible_conv(j, seq, step, order)
        return seq

    routes = {
        "series": by_series,
        "iterated": lambda: walk(1, g.prefix(order), steps),
        "dilated": lambda: walk(steps, dilate(g.prefix(order), steps), 1),
    }
    if k == 0:
        routes = dict.fromkeys(routes, lambda: g.prefix(order))
    return run_route("zeta_power_conv", route, routes)
