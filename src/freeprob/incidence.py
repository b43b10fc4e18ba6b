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

The walk is the test oracle.  It never walks NC(n): it sums over
partition types, each weighted by Kreweras' cached closed-form count
(enumerating NC^k(n) is the tests' oracle for them), so the
Catalan-sized sum collapses to a sum over types.  The Goulden-Jackson
count of pi of type lam with Kr(pi) of type mu factors, so the right
side enters only through one mean per block count of Kr(pi), and with
zeta on the right that mean is 1.  Only `kdivisible_conv`, the
convolution in the lattice of k-divisible partitions, reads these
counts; its k = 1 case is the walk for `conv`.  FREEPROB_MAX_N bounds
only these walks, through the enumeration budget of `ncpart`.  `ksym`
builds every k-symmetric law on the series zeta power: k convolutions
with zeta in NC are one in NC^k.

Routes go through `errors.run_route` ("both" runs all and checks that
they agree): `zeta_power_conv` has "series", "iterated" (|k| walks in
NC(n)) and "dilated" (one walk in NC^|k|(n)), and a negative power walks
with the Moebius family.  Every zeta-power walk in the library is one of these.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, perm, prod

from . import ncpart, series
from .errors import ValidationError, run_route
from .sequences import RationalSequence
from .series import PowerSeries

_type_count_cache: dict = {}


def _types(total: int, parts: int):
    # partitions of total into at most `parts` parts, non-increasing, by a stack
    stack = [((), total, total)]
    while stack:
        head, rest, top = stack.pop()
        if not rest:
            yield head
        elif len(head) < parts:
            stack.extend((head + (s,), rest - s, s) for s in range(1, min(rest, top) + 1))


def _aut(sizes: tuple) -> int:
    return prod(factorial(c) for c in Counter(sizes).values())


def _admit(k: int, n: int) -> None:
    # the validation and budget of a walk of NC^k(n), as iter_kdivisible_blocks has them
    if k < 1 or n < 1:
        raise ValidationError("k and n must be >= 1")
    ncpart._check_budget(n, lambda: ncpart.fuss_catalan_kdivisible(k, n), None, f"NC^{k}({n})")


def _type_counts(k: int, n: int) -> dict:
    # {sizes(pi): count} over NC^k(n), cached.  Kreweras: NC(N) has
    # N! / ((N - l + 1)! Aut lam) partitions of a type lam with l blocks,
    # and Aut(k nu) = Aut nu.
    hit = _type_count_cache.get((k, n))
    if hit is not None:
        return hit
    _admit(k, n)
    counts = {tuple(k * s for s in nu): perm(k * n, len(nu) - 1) // _aut(nu)
              for nu in _types(n, n)}
    _type_count_cache[(k, n)] = counts
    return counts


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


def conv(f: RationalSequence, g: RationalSequence, order: int | None = None,
         t: int = 1) -> RationalSequence:
    """f * g^{*t}, entry n = 1..order, for any integer t; (f*g)_n is the
    sum over pi in NC(n) of f_pi g_{Kr(pi)}, and g^{*(-1)} needs g_1 != 0.

    Computed from Nica-Speicher transforms, F(g^{*t}) = F(g)^t;
    kdivisible_conv(1, f, g, order) is the walk over NC(n) that the tests
    hold it against.
    """
    if not isinstance(t, int):
        raise ValidationError(f"the convolution power t must be an integer, not {t!r}")
    if order is None:
        order = min(f.order, g.order)
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

    Walks partition types, not partitions: entry n is the sum over
    lam = k nu, nu |- n, of Kreweras' count of lam, f_lam and the mean of
    g_mu over the types mu of Kr(pi).  Goulden-Jackson: N c(lam) c(mu) such
    pi have Kr(pi) of type mu, c(t) = (l(t) - 1)! / Aut t, so Kr(pi) takes
    the type of each composition of N = kn into L = N + 1 - l(lam) parts
    equally often: the mean depends on L alone and is taken once per L, and
    with zeta on the right it is 1.
    """
    if any(a is not None and a.order < k * order for a in (f, g)):
        raise ValidationError("operand order too small for requested convolution order")
    fv = None if f is None else (None, *f.values)  # fv[s] is f_s
    if g is not None:
        gn, gd = series._scaled(PowerSeries([0, *g.values]), k * order)  # g_s = gn[s] / gd
    out = []
    for n in range(1, order + 1):
        weights = _type_counts(k, n)
        if g is not None:
            _admit(k, n)  # the budget, also over warm type counts
            size = k * n
            # mu = rho + 1 padded with ones, rho |- N - L, is the type of
            # perm(L, l(rho)) / Aut rho of the C(N - 1, L - 1) compositions
            mean = {blocks: Fraction(sum(perm(blocks, len(rho)) // _aut(rho)
                                         * gn[1] ** (blocks - len(rho)) * prod(gn[s + 1] for s in rho)
                                         for rho in _types(size - blocks, blocks)),
                                     comb(size - 1, blocks - 1) * gd ** blocks)
                    for blocks in range(size + 1 - n, size + 1)}
            weights = {lam: cnt * mean[size + 1 - len(lam)] for lam, cnt in weights.items()}
        total = 0
        for lam, w in weights.items():
            if fv is not None:
                w *= prod(fv[s] for s in lam)
            total += w
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
    """g * zeta^k for any integer k; zeta^(-1) is the Moebius family.

    Three routes are available and must agree: "series" solves
    A = B(z A^k) for A = 1 + (g * zeta^k)(z) with B = 1 + g(z),
    "iterated" walks NC(n) |k| times, and "dilated" walks NC^|k|(n)
    once with the |k|-dilated g, since |k| convolutions in NC are one
    in NC^|k|.  Both walks convolve with zeta, or with the Moebius
    family when k < 0.  At k = 0 every route is g itself.
    """
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
