"""Independent exact series arithmetic used to verify benchmark outputs.

Nothing here imports freeprob: every check recomputes an identity with
its own code, so a defect in the library's series kernel cannot hide
behind the same defect in the checker.  A series is a list of Fractions
c_0..c_n; "order n" means coefficients through z^n.
"""

from __future__ import annotations

from fractions import Fraction


def mul(a, b, n):
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in enumerate(b[: n + 1 - i]):
                out[i + j] += x * y
    return out


def power(a, e, n):
    out = [Fraction(1)] + [Fraction(0)] * n
    for _ in range(e):
        out = mul(out, a, n)
    return out


def compose(a, b, n):
    """a(b(z)) through z^n; b[0] must be 0."""
    if b[0] != 0:
        raise ValueError("inner series must vanish at 0")
    out = [Fraction(0)] * (n + 1)
    for c in reversed(a[: n + 1]):
        out = mul(out, b, n)
        out[0] += c
    return out


def reciprocal(a, n):
    inv0 = 1 / a[0]
    out = [inv0] + [Fraction(0)] * n
    for m in range(1, n + 1):
        acc = sum((a[i] * out[m - i] for i in range(1, min(m, len(a) - 1) + 1)), Fraction(0))
        out[m] = -inv0 * acc
    return out


def comp_inverse(p, n):
    """q with p(q(z)) = z through z^n, by Lagrange inversion:
    [z^m] q = (1/m) [w^(m-1)] (w / p(w))^m."""
    h = reciprocal(p[1:], n)  # w / p(w)
    q = [Fraction(0)] * (n + 1)
    hp = [Fraction(1)] + [Fraction(0)] * n
    for m in range(1, n + 1):
        hp = mul(hp, h, n)
        q[m] = hp[m - 1] / m
    return q


def with_unit(values):
    """1 + v_1 z + ... as a coefficient list."""
    return [Fraction(1)] + [Fraction(v) for v in values]


def shifted(values):
    """v_1 z + v_2 z^2 + ... as a coefficient list."""
    return [Fraction(0)] + [Fraction(v) for v in values]


def solves_fe(a, b, k, n):
    """A(z) = B(z A(z)^k) through z^n."""
    inner = [Fraction(0)] + power(a, k, n)[:n]
    return compose(b, inner, n) == a[: n + 1]


def cumulant_series(moments, n):
    """1 + sum kappa_j z^j from 1 + sum m_j z^j, through C(z M(z)) = M(z):
    C = M o (z M)^(<-1>)."""
    zm = [Fraction(0)] + moments[:n]
    return compose(moments, comp_inverse(zm, n), n)


def fourier(f, n):
    """Nica-Speicher transform of a multiplicative family with f_1 != 0:
    F(f)(z) = f^(<-1>)(z) / z, through z^(n-1).  F(f * g) = F(f) F(g)."""
    return comp_inverse(shifted(f[:n]), n)[1:]


def s_series(moments, n):
    """S-transform (1 + z)/z * psi^(<-1>)(z) through z^(n-1), m_1 != 0."""
    chi_over_z = comp_inverse(shifted(moments[:n]), n)[1:]
    return mul(chi_over_z, [Fraction(1), Fraction(1)], n - 1)


def puiseux_s_ok(moments, k, ram, lo, coeffs):
    """Check a fractional-power S-transform with first nonzero moment
    m_k, k >= 2: S = chi (1+z)/z with chi(w) = sum b_i w^i, w = z^(1/k),
    psi(chi) = z on every exponent the window determines, and b_1 > 0."""
    n = len(moments)
    top = n - k + 1
    if ram != k or lo != 1 - k or len(coeffs) != top:
        return False
    # S w^k = chi (1 + w^k): peel the (1 + w^k) factor off exponent by exponent.
    b = [Fraction(0)] * (top + 1)
    for e in range(1, top + 1):
        b[e] = coeffs[e - 1] - (b[e - k] if e > k else 0)
    if b[1] <= 0:
        return False
    psi = shifted(moments)
    # psi(V(w)) with psi's z^j turning into V(w)^j, V(w) = chi.
    lhs = [Fraction(0)] * (n + 1)
    vp = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        vp = mul(vp, b, n)
        if psi[j]:
            for e in range(n + 1):
                lhs[e] += psi[j] * vp[e]
    return all(lhs[e] == (1 if e == k else 0) for e in range(1, n + 1))


def catalan(n):
    from math import comb

    return comb(2 * n, n) // (n + 1)


def kequal_count(k, n):
    from math import comb

    return comb(k * n, n) // ((k - 1) * n + 1)


def kdivisible_count(k, n):
    from math import comb

    return comb((k + 1) * n, n) // (k * n + 1)
