"""Truncated formal power series and Puiseux series over the rationals.

A PowerSeries of order N carries exact coefficients c_0..c_N of
sum c_i z^i; everything beyond z^N is unknown, and operations track how
far their result stays valid.  A PuiseuxSeries is a truncated Laurent
series in w = z^(1/ram) whose exponents may be negative; it carries the
window [lo, hi] of w-exponents on which its coefficients are exact.

Every product of two series goes through mul, and compose sums a_i b^i
itself; both multiply integer numerators over one common denominator, so
an output coefficient costs one gcd.  Every power comes from one J.C.P.
Miller recurrence, _miller: power takes any integer exponent and is not
built on mul.  The Puiseux operations (puiseux_mul, puiseux_pow,
from_power_series) only track the ramification ram and the window lo..hi
and hand the coefficients to those kernels.

Every series inverse and functional-equation solve (comp_inverse,
frac_inverse, solve_A_given_B) runs on one Lagrange inversion core,
_lagrange: if w = z phi(w) then [z^n] H(w) = (1/n) [w^(n-1)] H'(w)
phi(w)^n.  Each function only picks H and phi = f^beta (B^k for any
integer k, and u^(-1/k) for the inverses); the core takes each power
phi^n = f^(n beta) from _miller, so a solve to order N costs O(N^3)
coefficient operations.  compose serves incidence.conv and the tests.

Truncation order is always explicit.  No operation guesses precision
and no floating point appears anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import IrrationalRootError, ValidationError


def _coerce(values) -> tuple:
    # a Fraction is kept as it is, as RationalSequence does
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


class PowerSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = _coerce(coeffs)
        if not c:
            raise ValidationError("a series needs at least the constant term")
        self.coeffs = c

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1] + [0] * order)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series z."""
        c = [Fraction(0)] * (order + 1)
        if order >= 1:
            c[1] = Fraction(1)
        return cls(c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i <= self.order else Fraction(0)

    def __eq__(self, other):
        if isinstance(other, PowerSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"PowerSeries({[str(c) for c in self.coeffs]})"

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValidationError("cannot extend a truncated series")
        return PowerSeries(self.coeffs[: order + 1])


def mul(a: PowerSeries, b: PowerSeries, order: int | None = None) -> PowerSeries:
    if order is None:
        order = min(a.order, b.order)
    if order < 0:
        raise ValidationError(f"a series order must be >= 0, not {order}")
    (na, da), (nb, db) = _scaled(a.coeffs[:order + 1]), _scaled(b.coeffs[:order + 1])
    return PowerSeries([Fraction(x, da * db) for x in _imul(na, nb, order)])


def compose(a: PowerSeries, b: PowerSeries, order: int | None = None) -> PowerSeries:
    """a(b(z)); b must have zero constant term."""
    if b[0] != 0:
        raise ValidationError("composition needs the inner series to vanish at 0")
    if order is None:
        order = min(a.order, b.order)
    if order < 0:
        raise ValidationError(f"a series order must be >= 0, not {order}")
    # sum A_i B^i d_b^(top-i) over d_a d_b^top; B^i vanishes below z^i, which _imul skips
    top = min(a.order, order)
    (na, da), (nb, db) = _scaled(a.coeffs[:top + 1]), _scaled(b.coeffs[:order + 1])
    out = [na[0] * db ** top] + [0] * order
    pw = [1]
    for i in range(1, top + 1):
        pw = _imul(pw, nb, order)
        if na[i]:
            s = na[i] * db ** (top - i)
            for j in range(i, order + 1):
                out[j] += s * pw[j]
    d = da * db ** top
    return PowerSeries([Fraction(x, d) for x in out])


def _scaled(c) -> tuple:
    """Integer numerators of the rationals c over their least common denominator."""
    d = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (d // x.denominator) for x in c], d


def _imul(a: list, b: list, order: int) -> list:
    """Integer product of coefficient lists through z^order, zeros skipped."""
    out = [0] * (order + 1)
    bs = [(j, y) for j, y in enumerate(b[:order + 1]) if y]
    for i, x in enumerate(a[:order + 1]):
        if x:
            for j, y in bs:
                if i + j > order:
                    break
                out[i + j] += x * y
    return out


def power(a: PowerSeries, e: int, order: int | None = None) -> PowerSeries:
    """a^e to order for any integer e (e < 0 needs a_0 != 0), a read as a
    polynomial: a = c z^v u with u(0) = 1 gives c^e z^(ev) _miller(u, e)."""
    if not isinstance(e, int):
        raise ValidationError(f"a series power needs an integer exponent, not {e!r}")
    if order is None:
        order = a.order
    if order < 0:
        raise ValidationError(f"a series order must be >= 0, not {order}")
    v = next((i for i, c in enumerate(a.coeffs) if c), None)
    if e < 0 and v != 0:
        raise ValidationError("a negative series power needs a nonzero constant term")
    if e == 0:
        return PowerSeries.one(order)
    if v is None or v * e > order:
        return PowerSeries([0] * (order + 1))
    c, top = a.coeffs[v], order - v * e
    u = [(j, x / c) for j, x in enumerate(a.coeffs[v + 1:v + 1 + top], start=1) if x]
    return PowerSeries([0] * (v * e) + [c ** e * g for g in _miller(u, Fraction(e), top)])


def comp_inverse(p: PowerSeries) -> PowerSeries:
    """Compositional inverse: q with p(q(z)) = z + O(z^(N+1))."""
    if p[0] != 0 or p[1] == 0:
        raise ValidationError("compositional inverse needs c_0 = 0 and c_1 != 0")
    return PowerSeries([0] + _root_inverse(p, 1, 1 / p[1]))


def _root_inverse(p: PowerSeries, k: int, b1: Fraction) -> list:
    """b_1..b_top of V(w) = sum b_i w^i with p(V(w)) = w^k, top = p.order-k+1.

    p = c_k z^k u(z) with u(0) = 1 and c_k b1^k = 1, so V = (b1 w) u(V)^(-1/k):
    H = z, phi = u^(-1/k), and b_n is b1^n times the Lagrange coefficient.
    """
    ck = p[k]
    u = PowerSeries([c / ck for c in p.coeffs[k:]])
    lag = _lagrange(PowerSeries.identity(1), u, Fraction(-1, k), p.order - k + 1)
    return [b1 ** n * c for n, c in enumerate(lag, start=1)]


def _miller(fs: list, alpha: Fraction, top: int) -> list:
    """g_0..g_top of g = f^alpha, f(0) = 1, from the nonzero (j, f_j), j >= 1.

    J.C.P. Miller's recurrence: f g' = alpha f' g gives
    g_m = (1/m) sum_j ((alpha+1) j - m) f_j g_(m-j), g_0 = 1.  With
    alpha = p/q the weights are integers over q, and every term has one
    factor f_j of the input.
    """
    p, q = alpha.numerator, alpha.denominator
    g, c = [Fraction(1)], p + q
    for m in range(1, top + 1):
        acc = sum((c * j - m * q) * (x * g[m - j]) for j, x in fs if j <= m)
        g.append(Fraction(acc, m * q))
    return g


def _lagrange(h: PowerSeries, f: PowerSeries, beta: Fraction, order: int) -> list:
    """[z^n] H(w(z)) for n = 1..order, where w = z phi(w), phi = f^beta, f(0) = 1.

    Lagrange inversion gives (1/n) [w^(n-1)] H'(w) f(w)^(n beta), and each
    power f^(n beta) comes from _miller.  Zero f_j are skipped, so a solve
    to order N costs about N^3/6 terms.  H and f read as zero past their
    last coefficient.
    """
    dh = [(i, i * h[i]) for i in range(1, order + 1) if h[i]]
    fs = [(j, f[j]) for j in range(1, order) if f[j]]
    out = []
    for n in range(1, order + 1):
        g = _miller(fs, n * beta, n - 1)
        out.append(Fraction(sum(d * g[n - i] for i, d in dh if i <= n), n))
    return out


def nth_root_int(x: int, k: int) -> int | None:
    """Exact integer k-th root of x >= 0, or None if there is none."""
    if x < 0:
        return None
    if x in (0, 1) or k == 1:
        return x
    r = 1 << (-(-x.bit_length() // k))  # upper bound for the root
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    return r if r ** k == x else None


def rational_root(x: Fraction, k: int) -> Fraction:
    """Positive rational k-th root of x > 0, or IrrationalRootError."""
    x = Fraction(x)
    if x <= 0:
        raise ValidationError("rational_root needs a positive argument")
    p = nth_root_int(x.numerator, k)
    q = nth_root_int(x.denominator, k)
    if p is None or q is None:
        raise IrrationalRootError(f"{x} has no rational {k}-th root")
    return Fraction(p, q)


class PuiseuxSeries:
    """Truncated Laurent series in w = z^(1/ram), exact on w^lo..w^hi."""

    __slots__ = ("ram", "lo", "coeffs")

    def __init__(self, ram: int, lo: int, coeffs):
        if ram < 1:
            raise ValidationError("ramification must be >= 1")
        self.ram = ram
        self.lo = lo
        self.coeffs = _coerce(coeffs)
        if not self.coeffs:
            raise ValidationError("empty coefficient window")

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def coeff(self, e: int) -> Fraction:
        """Coefficient of w^e; e must lie in the valid window."""
        if not self.lo <= e <= self.hi:
            raise ValidationError(f"w-exponent {e} outside window {self.lo}..{self.hi}")
        return self.coeffs[e - self.lo]

    def __repr__(self):
        return f"PuiseuxSeries(ram={self.ram}, lo={self.lo}, {[str(c) for c in self.coeffs]})"

    def reindex(self, ram: int) -> "PuiseuxSeries":
        """Re-express with a coarser ramification (ram must be a multiple)."""
        if ram % self.ram:
            raise ValidationError("new ramification must be a multiple of the old")
        f = ram // self.ram
        if f == 1:
            return self
        coeffs = [Fraction(0)] * ((len(self.coeffs) - 1) * f + 1)
        for i, c in enumerate(self.coeffs):
            coeffs[i * f] = c
        return PuiseuxSeries(ram, self.lo * f, coeffs)

    def shift(self, e: int) -> "PuiseuxSeries":
        """Multiply by w^e."""
        return PuiseuxSeries(self.ram, self.lo + e, self.coeffs)

    @classmethod
    def from_power_series(cls, p: PowerSeries, ram: int = 1) -> "PuiseuxSeries":
        spread = cls(1, 0, p.coeffs).reindex(ram)
        # z^(order+1) is the first unknown, so w-exponents through
        # ram*(order+1)-1 are exact.
        pad = ram - 1
        return cls(ram, 0, spread.coeffs + (Fraction(0),) * pad)


def puiseux_mul(a: PuiseuxSeries, b: PuiseuxSeries) -> PuiseuxSeries:
    # mul keeps the shorter window: hi = min(a.hi + b.lo, b.hi + a.lo)
    ram = math.lcm(a.ram, b.ram)
    a, b = a.reindex(ram), b.reindex(ram)
    return PuiseuxSeries(ram, a.lo + b.lo,
                         mul(PowerSeries(a.coeffs), PowerSeries(b.coeffs)).coeffs)


def puiseux_pow(a: PuiseuxSeries, e: int) -> PuiseuxSeries:
    if e < 1:
        raise ValidationError("puiseux_pow needs e >= 1")
    return PuiseuxSeries(a.ram, e * a.lo, power(PowerSeries(a.coeffs), e).coeffs)


def puiseux_agree(a: PuiseuxSeries, b: PuiseuxSeries, min_window: int = 1) -> bool:
    """Exact coefficient equality over the common validity window.

    The window must contain at least min_window exponents, otherwise the
    comparison is considered vacuous and fails.
    """
    ram = math.lcm(a.ram, b.ram)
    a, b = a.reindex(ram), b.reindex(ram)
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    if hi - lo + 1 < min_window:
        return False
    return all(a.coeff(e) == b.coeff(e) for e in range(lo, hi + 1))


def frac_inverse(p: PowerSeries, k: int, leading_root: Fraction | None = None) -> PuiseuxSeries:
    """Principal inverse of p(z) = c_k z^k + ... under composition.

    Returns chi(z) = sum b_i z^(i/k) with b_1 = c_k^(-1/k) > 0 and
    p(chi(z)) = z to truncation.  The other k-1 formal branches differ
    by a k-th root of unity in b_1 and are not produced; passing an
    explicit leading_root (any rational with c_k * root^k = 1) selects a
    non-principal rational branch, which only exists for even k.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if any(p[i] != 0 for i in range(min(k, p.order + 1))):
        raise ValidationError(f"coefficients below z^{k} must vanish")
    if p.order < k:
        raise ValidationError("series order too small")
    ck = p[k]
    if ck <= 0:
        raise ValidationError(f"leading coefficient c_{k} = {ck} must be positive")
    if leading_root is None:
        b1 = rational_root(1 / ck, k)
    else:
        b1 = Fraction(leading_root)
        if ck * b1 ** k != 1:
            raise ValidationError("leading_root does not satisfy c_k * r^k = 1")
    return PuiseuxSeries(k, 1, _root_inverse(p, k, b1))


def solve_A_given_B(b: PowerSeries, k: int, order: int) -> PowerSeries:
    """Unique A with constant term 1 and A(z) = B(z A(z)^k) to order, for
    any integer k.

    If B generates g then A generates g * zeta^k: a negative k peels -k
    zeta-convolutions off.  B is read as a polynomial: coefficients past
    b.order count as zero.
    """
    if b[0] != 1:
        raise ValidationError("B must have constant term 1")
    if order < 0:
        raise ValidationError(f"a series order must be >= 0, not {order}")
    # w = z A^k solves w = z B(w)^k and A = B(w): H = B, phi = B^k.
    return PowerSeries([1] + _lagrange(b, b, Fraction(k), order))
