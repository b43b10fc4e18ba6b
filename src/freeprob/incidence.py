"""Multiplicative families on NC(n) and the combinatorial convolution.

A sequence (a_n) extends multiplicatively to partitions by
a_pi = prod over blocks V of a_{|V|}.  The convolution of two families
is (f*g)_n = sum over pi in NC(n) of f_pi g_{Kr(pi)}; the all-ones zeta
family and its inverse, the Moebius family, are the distinguished
elements.

Two independent computations exist for every convolution.  The series
one, the default, uses the Nica-Speicher Fourier transform of
multiplicative families, F(f)(z) = f^{<-1>}(z)/z with F(f*g) = F(f) F(g),
where f(z) = sum f_n z^n: `conv` solves it by Lagrange inversion even
when a leading entry is zero, and a zeta power g * zeta^k is the A with
A = B(z A^k), B = 1 + g(z).  Both cost polynomial time.

The walk is the test oracle.  It never walks NC(n) twice: a per-n
histogram keyed by the pair (block sizes of pi, block sizes of Kr(pi))
is built once by enumeration and cached, collapsing the Catalan-sized
sum to a sum over partition-type pairs with integer multiplicities.
Only `kdivisible_conv`, the convolution in the lattice of k-divisible
partitions, reads these histograms; its k = 1 case is the walk for
`conv`.  FREEPROB_MAX_N bounds only these walks, through the
enumeration budget of `ncpart`.  `ksym` builds every k-symmetric law
on the series zeta power: k convolutions with zeta in NC are one in NC^k.

Routes go through `errors.run_route` ("both" runs all and checks that
they agree): `zeta_power_conv` has "series", "iterated" and "dilated".
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import prod

from . import ncpart, series
from .errors import ValidationError, run_route
from .ncpart import kreweras
from .sequences import RationalSequence
from .series import PowerSeries

_stats_lock = threading.Lock()
_pair_stats: dict = {}


def _sizes(blocks) -> tuple:
    return tuple(sorted((len(b) for b in blocks), reverse=True))


def kdivisible_pair_stats(k: int, n: int) -> dict:
    """Histogram {(sizes(pi), sizes(Kr(pi))): count} over the k-divisible
    non-crossing partitions of [kn] (all of NC(n) when k = 1).

    Built once by enumeration and cached; read only by kdivisible_conv,
    so every convolution-type sum in this package is a walk over these
    partition-type pairs with integer multiplicities.
    """
    hit = _pair_stats.get((k, n))
    if hit is not None:
        return hit
    with _stats_lock:
        hit = _pair_stats.get((k, n))
        if hit is not None:
            return hit
        hist: dict = {}
        for blocks in ncpart.iter_kdivisible_blocks(k, n):
            key = (_sizes(blocks), _sizes(kreweras(ncpart._wrap(k * n, blocks)).blocks))
            hist[key] = hist.get(key, 0) + 1
        _pair_stats[(k, n)] = hist
        return hist


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
    return RationalSequence(
        [Fraction((-1) ** (n - 1) * ncpart.catalan(n - 1)) for n in range(1, order + 1)]
    )


def conv(f: RationalSequence, g: RationalSequence, order: int | None = None) -> RationalSequence:
    """(f*g)_n = sum over pi in NC(n) of f_pi g_{Kr(pi)}, n = 1..order.

    Computed from Nica-Speicher transforms; kdivisible_conv(1, f, g, order)
    is the walk over NC(n) that the tests hold it against.
    """
    if order is None:
        order = min(f.order, g.order)
    if min(f.order, g.order) < order:
        raise ValidationError("operand order too small for requested convolution order")
    if order < 1:
        return RationalSequence([])  # the walk's empty-sequence error
    fv, gv = f.values[:order], g.values[:order]
    if not gv[0]:
        fv, gv = gv, fv  # f*g = g*f
    if not gv[0]:
        # pi and Kr(pi) both free of singletons would need
        # |pi| + |Kr(pi)| <= n/2 + n/2, but the sum is n + 1
        return RationalSequence([0] * order)
    # F(f*g) = F(f) F(g) means (f*g)^{<-1>}(z) = f^{<-1>}(z) F(g)(z).  At
    # z = f(w) this reads (f*g)(Phi(w)) = f(w) with Phi(w) = w F(g)(f(w)),
    # an identity between polynomials in f_1, f_2, ..., so it holds for
    # f_1 = 0 as well.  Phi(w) = w P(w) / g_1 with P(0) = 1, so
    # w = (g_1 z) / P(w) inverts it and Lagrange gives (f*g) = f(w(z)).
    g1 = gv[0]
    transform = series.comp_inverse(PowerSeries([0, *gv])).coeffs[1:]  # F(g)
    p = series.compose(PowerSeries([g1 * c for c in transform]), PowerSeries([0, *fv]))
    lag = series._lagrange(PowerSeries([0, *fv]), p, Fraction(-1), order)
    return RationalSequence([g1 ** n * c for n, c in enumerate(lag, start=1)])


def kdivisible_conv(k: int, f: RationalSequence | None, g: RationalSequence | None,
                    order: int) -> RationalSequence:
    """Entry n is the sum over k-divisible pi in NC(kn) of f_pi g_{Kr(pi)},
    n = 1..order; None for f or g stands for the zeta family (all ones).

    Walks the cached (pi, Kr(pi)) type histogram of each n; a zeta side
    costs no multiplications.
    """
    if any(a is not None and a.order < k * order for a in (f, g)):
        raise ValidationError("operand order too small for requested convolution order")
    fv = None if f is None else (None, *f.values)  # fv[s] is f_s
    gv = None if g is None else (None, *g.values)
    out = []
    for n in range(1, order + 1):
        total = 0
        for (spi, skr), cnt in kdivisible_pair_stats(k, n).items():
            if fv is not None:
                cnt *= prod(fv[s] for s in spi)
            if gv is not None:
                cnt *= prod(gv[s] for s in skr)
            total += cnt
        out.append(total)
    return RationalSequence(out)


def dilate(a: RationalSequence, k: int) -> RationalSequence:
    """k-dilation: value a_n moves to position kn, zeros elsewhere."""
    if k < 1:
        raise ValidationError("dilation factor must be >= 1")
    vals = [Fraction(0)] * (k * a.order)
    for n in range(1, a.order + 1):
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
    """g * zeta * ... * zeta (k convolutions with the all-ones family).

    Three routes are available and must agree: "series" solves
    A = B(z A^k) for A = 1 + (g * zeta^k)(z) with B = 1 + g(z),
    "iterated" convolves k times at order n by enumeration, "dilated"
    convolves the k-dilated sequence with zeta once at order kn by
    enumeration and undilates.
    """
    if k < 0:
        raise ValidationError("zeta power must be >= 0")
    if g.order < order:
        raise ValidationError("operand order too small")
    if k == 0:
        return g.prefix(order)

    def by_series() -> RationalSequence:
        b = PowerSeries.from_sequence_with_unit(g, order)
        return RationalSequence(series.solve_A_given_B(b, k, order).tail_sequence())

    def iterated() -> RationalSequence:
        out = g.prefix(order)
        for _ in range(k):
            out = kdivisible_conv(1, out, None, order)
        return out

    def dilated() -> RationalSequence:
        lifted = dilate(g.prefix(order), k)
        return undilate(kdivisible_conv(1, lifted, None, k * order), k)

    return run_route("zeta_power_conv", route,
                     {"series": by_series, "iterated": iterated, "dilated": dilated})


def multichain_count_enumerated(length: int, n: int) -> int:
    """Count weakly increasing `length`-tuples in NC(n) straight from the
    order relation (dynamic programming over the poset); test oracle for
    the closed form and the zeta-power identities."""
    if length < 1:
        raise ValidationError("multichain length must be >= 1")
    elems = ncpart.enumerate_nc(n)
    below = [
        [i for i, p in enumerate(elems) if ncpart.leq(p, q)] for q in elems
    ]
    ways = [1] * len(elems)
    for _ in range(length - 1):
        ways = [sum(ways[i] for i in below[j]) for j in range(len(elems))]
    return sum(ways)


def catalan_by_recurrence(n: int) -> int:
    """Independent Catalan oracle: C_0 = 1, C_n = sum C_i C_{n-1-i}."""
    cs = [1]
    for m in range(1, n + 1):
        cs.append(sum(cs[i] * cs[m - 1 - i] for i in range(m)))
    return cs[n]

