"""Moment/cumulant calculus, free convolutions, the S-transform, and a
word-moment evaluator driven directly by the definition of freeness.

Every major identity here is computable along two independent routes
(enumeration over non-crossing partitions vs. formal series equations).
A `route` argument names one route and goes through `errors.run_route`,
where "both" runs every route and raises RouteMismatchError unless all
agree: m2c/c2m have "series" and "enumeration",
`kdiv_power_cumulants` has "enumeration", "two-stage" and "zeta".
"""

from __future__ import annotations

from fractions import Fraction

from . import incidence, ncpart, series
from .errors import ValidationError, run_route
from .sequences import RationalSequence
from .series import PowerSeries, PuiseuxSeries

# ---------------------------------------------------------------------------
# moment <-> cumulant


def cumulants_to_moments(cum: RationalSequence, order: int | None = None,
                         route: str = "series") -> RationalSequence:
    """m_n = sum over pi in NC(n) of kappa_pi.

    route "series" is the zeta power cum * zeta, which solves
    M(z) = C(z M(z)); route "enumeration" walks the convolution with the
    zeta family; "both" runs the two and insists they agree.
    """
    if order is None:
        order = cum.order
    if cum.order < order:
        raise ValidationError("cumulant sequence too short")
    return run_route("cumulants_to_moments", route, {
        "series": lambda: incidence.zeta_power_conv(cum, 1, order),
        "enumeration": lambda: incidence.kdivisible_conv(1, cum.prefix(order), None, order),
    })


def moments_to_cumulants(mom: RationalSequence, order: int | None = None,
                         route: str = "series") -> RationalSequence:
    """Inverse of cumulants_to_moments; kappa = m * moebius."""
    if order is None:
        order = mom.order
    if mom.order < order:
        raise ValidationError("moment sequence too short")
    return run_route("moments_to_cumulants", route, {
        "series": lambda: incidence.zeta_power_conv(mom, -1, order),
        "enumeration": lambda: incidence.kdivisible_conv(
            1, mom.prefix(order), incidence.moebius_family(order), order),
    })


# ---------------------------------------------------------------------------
# free convolutions at sequence level


def free_add_convolve(c1: RationalSequence, c2: RationalSequence) -> RationalSequence:
    return c1.add(c2)


def free_add_power(cum: RationalSequence, t) -> RationalSequence:
    t = Fraction(t)
    if t <= 0:
        raise ValidationError("free additive power needs t > 0")
    return cum.scale(t)


def free_mult_convolve(c1: RationalSequence, c2: RationalSequence,
                       order: int | None = None) -> RationalSequence:
    """kappa_n(ab) = sum over NC(n) of kappa_pi(a) kappa_{Kr(pi)}(b)."""
    return incidence.conv(c1, c2, order)


def product_moments(cum_a: RationalSequence, mom_b: RationalSequence,
                    order: int | None = None) -> RationalSequence:
    """phi((ab)^n) = sum over NC(n) of kappa_pi(a) m_{Kr(pi)}(b)."""
    return incidence.conv(cum_a, mom_b, order)


def products_as_arguments(cum: RationalSequence, grouping) -> Fraction:
    """Joint cumulant of consecutive products, as a sum over the p in
    NC(n) with p v sigma = 1_n, sigma the grouping's interval partition.
    Kr reverses the order, so that is Kr(p) ^ Kr(sigma) = 0_n."""
    sizes = list(grouping)
    n = sum(sizes)
    if any(s < 1 for s in sizes) or n < 1:
        raise ValidationError(f"invalid grouping {grouping!r}")
    if cum.order < n:
        raise ValidationError("cumulant sequence too short for grouping")
    owner = ncpart.kreweras(ncpart.interval_partition(sizes)).block_of()
    total = Fraction(0)
    for p in ncpart.iter_nc(n):
        if all(len({owner[x] for x in b}) == len(b) for b in ncpart.kreweras(p).blocks):
            total += incidence.extend(cum, p)
    return total


# ---------------------------------------------------------------------------
# cumulants of the k-th power of a k-divisible element


def kdiv_power_cumulants(alpha: RationalSequence, k: int, order: int,
                         route: str = "zeta") -> RationalSequence:
    """Cumulants of x^k for a k-divisible x with determining sequence
    alpha_n = kappa_{kn}(x).

    Three equivalent routes:
    * "enumeration": kappa_n(x^k) = sum over NC((k-1)n) of the
      (k-1)-dilated alpha, i.e. a sum over (k-1)-divisible partitions;
    * "two-stage": the same with one zeta factor peeled off, summing a
      (k-2)-stage sequence over NC(n);
    * "zeta" (the default): alpha convolved with zeta (k-1) times, on the
      series route of zeta_power_conv.
    The first two walk the partition-type histograms.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k == 1:
        return alpha.prefix(order)
    if alpha.order < order:
        raise ValidationError("determining sequence too short")

    def divisible_sum(j: int) -> RationalSequence:
        return incidence.kdivisible_conv(j, incidence.dilate(alpha.prefix(order), j),
                                         None, order)

    def two_stage() -> RationalSequence:
        beta = alpha.prefix(order) if k == 2 else divisible_sum(k - 2)
        return cumulants_to_moments(beta, order, route="enumeration")

    return run_route("kdiv_power_cumulants", route, {
        "enumeration": lambda: divisible_sum(k - 1),
        "two-stage": two_stage,
        "zeta": lambda: incidence.zeta_power_conv(alpha.prefix(order), k - 1, order),
    })


# ---------------------------------------------------------------------------
# S-transform


def s_transform(mom: RationalSequence, order: int | None = None):
    """S(z) = chi(z) (1+z)/z with chi the compositional inverse of the
    moment series psi(z) = sum m_n z^n.

    Returns a PowerSeries when m_1 != 0 and a PuiseuxSeries in z^(1/k)
    when the first nonzero moment sits at k >= 2 (which must then be
    positive, and its k-th root rational).
    """
    if order is None:
        order = mom.order
    if mom.order < order:
        raise ValidationError("moment sequence too short")
    k = next((n for n in range(1, order + 1) if mom[n] != 0), None)
    if k is None:
        raise ValidationError("S-transform needs a nonzero moment")
    psi = PowerSeries([Fraction(0)] + [mom[n] for n in range(1, order + 1)])
    if k == 1:
        chi_over_z = series.comp_inverse(psi).coeffs[1:]
    elif mom[k] < 0:
        raise ValidationError(
            f"first nonzero moment m_{k} = {mom[k]} must be positive for the principal branch"
        )
    else:
        # chi = b_1 w + ... in w = z^(1/k), so chi/z starts at w^(1-k)
        chi_over_z = series.frac_inverse(psi, k).coeffs
    # (1+z) chi/z with z = w^k; the sparse factor goes first so that mul
    # skips its zero coefficients
    one_plus_z = PowerSeries([1] + [0] * (k - 1) + [1])
    out = series.mul(one_plus_z, PowerSeries(chi_over_z), len(chi_over_z) - 1)
    return out if k == 1 else PuiseuxSeries(k, 1 - k, out.coeffs)


def _as_puiseux(s) -> PuiseuxSeries:
    if isinstance(s, PuiseuxSeries):
        return s
    return PuiseuxSeries.from_power_series(s, 1)


def s_multiplicativity_check(mom_x: RationalSequence, mom_y: RationalSequence,
                             order: int, min_window: int = 4) -> bool:
    """S_{xy} = S_x S_y for free x, y, with the product moments taken
    from the partition-sum formula (so the two sides are computed along
    independent routes)."""
    if mom_y[1] == 0:
        raise ValidationError("the second factor needs a nonzero mean")
    cum_x = moments_to_cumulants(mom_x.prefix(order))
    mom_xy = product_moments(cum_x, mom_y.prefix(order), order)
    s_xy = _as_puiseux(s_transform(mom_xy, order))
    s_x = _as_puiseux(s_transform(mom_x, order))
    s_y = _as_puiseux(s_transform(mom_y, order))
    return series.puiseux_agree(s_xy, series.puiseux_mul(s_x, s_y), min_window)


def s_power_relation_check(mom: RationalSequence, k: int, order: int,
                           min_window: int = 4) -> bool:
    """S_{x^k}(z) = S_x(z)^k (z/(1+z))^(k-1) for a k-divisible x."""
    undil = incidence.undilate(mom.prefix(order), k)
    s_x = _as_puiseux(s_transform(mom, order))
    s_xk = _as_puiseux(s_transform(undil, undil.order))
    if k == 1:
        return series.puiseux_agree(s_x, s_xk, min_window)
    s_x_to_k = series.puiseux_pow(s_x, k)
    # (z/(1+z))^(k-1) = z^(k-1) (1+z)^(1-k): ceil(len/ram) z-exponents
    # span the window of S_x^k, so the product keeps that window
    aux_order = -(-len(s_x_to_k.coeffs) // s_x_to_k.ram)
    factor = series.power(PowerSeries([1, 1]), 1 - k, aux_order)
    rhs = series.puiseux_mul(s_x_to_k,
                             PuiseuxSeries.from_power_series(factor, k).shift(k * (k - 1)))
    return series.puiseux_agree(s_xk, rhs, min_window)


# ---------------------------------------------------------------------------
# Hankel positivity


def _is_psd(rows) -> bool:
    """Exact LDL^T test that a symmetric matrix is positive semidefinite.

    Each pivot is eliminated from the Schur complement (upper triangle
    only).  A negative pivot fails; a zero pivot fails unless the rest of
    its row is zero, and then its row and column drop out.
    """
    m = [list(r) for r in rows]
    n = len(m)
    for col in range(n):
        d, row = m[col][col], m[col]
        if d < 0:
            return False
        if d == 0:
            if any(row[j] for j in range(col + 1, n)):
                return False
            continue
        for i in range(col + 1, n):
            f = row[i] / d
            if f:
                mi = m[i]
                for j in range(i, n):
                    mi[j] -= f * row[j]
    return True


def hankel_check(mom: RationalSequence, stieltjes: bool = False) -> bool:
    """Hankel positivity of (1, m_1, m_2, ...).

    The largest Hankel matrix (m_{i+j}) the sequence supports must be
    positive semidefinite; with stieltjes also the largest shifted matrix
    (m_{i+j+1}), the certificate for support in [0, infinity).  This is
    necessary for a representing measure, not sufficient: the
    Curto-Fialkow flat-extension condition is not checked.
    """
    full = [Fraction(1)] + list(mom)

    def hankel(shift: int) -> list:
        r = (len(full) - 1 - shift) // 2
        return [[full[i + j + shift] for j in range(r + 1)] for i in range(r + 1)]

    return _is_psd(hankel(0)) and (not stieltjes or _is_psd(hankel(1)))


# ---------------------------------------------------------------------------
# standard moment sequences


def point_mass_moments(c, order: int) -> RationalSequence:
    c = Fraction(c)
    return RationalSequence([c ** n for n in range(1, order + 1)])


def free_poisson_moments(order: int) -> RationalSequence:
    """Marchenko-Pastur with rate 1: m_n = Catalan(n)."""
    return RationalSequence([ncpart.catalan(n) for n in range(1, order + 1)])


def semicircle_moments(order: int) -> RationalSequence:
    """Standard semicircle: m_{2n} = Catalan(n), odd moments vanish."""
    vals = []
    for n in range(1, order + 1):
        vals.append(Fraction(ncpart.catalan(n // 2)) if n % 2 == 0 else Fraction(0))
    return RationalSequence(vals)


def atomic_moments(atoms, order: int) -> RationalSequence:
    """Moments of a finitely atomic measure given as (location, weight)
    pairs; weights must be positive and sum to 1."""
    pairs = [(Fraction(x), Fraction(w)) for x, w in atoms]
    if any(w <= 0 for _, w in pairs) or sum(w for _, w in pairs) != 1:
        raise ValidationError("weights must be positive and sum to 1")
    return RationalSequence(
        [sum(w * x ** n for x, w in pairs) for n in range(1, order + 1)]
    )


# ---------------------------------------------------------------------------
# word moments of free variables


class FreeVariable:
    """A random variable known through its moment sequence.

    A declared period p asserts x^p = 1, makes moments depend only on
    the exponent mod p, and lets negative exponents stand for inverse
    powers.  Variables without a period reject negative exponents.
    """

    __slots__ = ("label", "moments", "period")

    def __init__(self, label: str, moments: RationalSequence, period: int | None = None):
        self.label = label
        self.moments = moments
        if period is not None:
            if period < 1:
                raise ValidationError("period must be >= 1")
            if moments.order < period - 1 and period > 1:
                raise ValidationError("periodic variable needs moments up to period-1")
            for j in range(1, moments.order + 1):
                r = j % period
                ref = Fraction(1) if r == 0 else moments[r]
                if moments[j] != ref:
                    raise ValidationError(
                        f"moments of {label!r} are not {period}-periodic at index {j}"
                    )
        self.period = period

    def moment(self, e: int) -> Fraction:
        if self.period is not None:
            e %= self.period
            if e == 0:
                return Fraction(1)
        if e < 1:
            raise ValidationError(
                f"negative power of {self.label!r} needs a declared period"
            )
        if e > self.moments.order:
            raise ValidationError(f"moment {e} of {self.label!r} not available")
        return self.moments[e]


def _reduce_word(word, period=None) -> tuple:
    """Merge equal adjacent labels and drop zero exponents.  With period
    given, an exponent of a label whose period(label) is not None counts
    mod that period."""
    out: list = []
    for lab, e in word:
        if out and out[-1][0] == lab:
            e += out.pop()[1]
        p = period(lab) if period else None
        if p is not None:
            e %= p
        if e:
            out.append((lab, e))
    return tuple(out)


class WordMomentEvaluator:
    """Evaluates phi(words) in free variables by the centering expansion.

    Each letter a splits as (a - phi(a)) + phi(a); a fully centered
    alternating product has vanishing trace, so expanding over the
    letters with nonzero mean expresses phi(word) through strictly
    shorter words.  Results are memoized on the reduced word.
    """

    def __init__(self, variables):
        variables = list(variables)
        self.vars = {v.label: v for v in variables}
        if len(self.vars) != len(variables):
            raise ValidationError("duplicate variable labels")
        self._periods = {v.label: v.period for v in variables}
        self._memo: dict = {}

    def reduce(self, word) -> tuple:
        word = tuple(word)
        for lab, e in word:
            if lab not in self.vars:
                raise ValidationError(f"unknown variable {lab!r}")
            if e < 0 and self.vars[lab].period is None:
                raise ValidationError(
                    f"negative power of {lab!r} needs a declared period"
                )
        return _reduce_word(word, self._periods.get)

    def phi(self, word) -> Fraction:
        return self._phi(self.reduce(word))

    def _phi(self, word: tuple) -> Fraction:
        if not word:
            return Fraction(1)
        if len(word) == 1:
            lab, e = word[0]
            return self.vars[lab].moment(e)
        hit = self._memo.get(word)
        if hit is not None:
            return hit
        means = [self.vars[lab].moment(e) for lab, e in word]
        live = [i for i, m in enumerate(means) if m != 0]
        total = Fraction(0)
        # phi(prod of centered letters) = 0, expanded over subsets of the
        # letters with nonzero mean (centered letters equal themselves).
        for mask in range(1, 1 << len(live)):
            coeff = Fraction(1)
            drop = []
            for bit, idx in enumerate(live):
                if mask >> bit & 1:
                    coeff *= means[idx]
                    drop.append(idx)
            sub = _reduce_word(
                [l for i, l in enumerate(word) if i not in drop], self._periods.get
            )
            sign = -1 if len(drop) % 2 == 0 else 1
            total += sign * coeff * self._phi(sub)
        self._memo[word] = total
        return total


def free_word_moment(variables, word) -> Fraction:
    """phi of a word in free variables, e.g. [("x", 1), ("y", 2)]."""
    return WordMomentEvaluator(variables).phi(word)


def freeness_moment_check(variables, a_label: str, h_word, max_letters: int) -> bool:
    """True iff all alternating centered moments of (h, a) vanish up to
    words of max_letters letters, with h given as a word in the other
    variables.  This is the moment-level content of 'h and a are free'."""
    ev = WordMomentEvaluator(variables)
    h_word = tuple(h_word)
    mean_h = ev.phi(h_word)
    mean_a = ev.phi(((a_label, 1),))

    def phi_pattern(pattern, centered_mask) -> Fraction:
        # pattern entries: "h" or "a"; centered letters expand as
        # (letter - mean); expand the product by linearity
        total = Fraction(0)
        idx = [i for i in range(len(pattern)) if centered_mask >> i & 1]
        for mask in range(1 << len(idx)):
            coeff = Fraction(1)
            skip = set()
            for bit, i in enumerate(idx):
                if mask >> bit & 1:
                    coeff *= -(mean_h if pattern[i] == "h" else mean_a)
                    skip.add(i)
            word: list = []
            for i, sym in enumerate(pattern):
                if i in skip:
                    continue
                word.extend(h_word if sym == "h" else [(a_label, 1)])
            total += coeff * ev.phi(tuple(word))
        return total

    for m in range(2, max_letters + 1):
        for start in ("h", "a"):
            pattern = tuple(("h", "a")[(i + (start == "a")) % 2] for i in range(m))
            if phi_pattern(pattern, (1 << m) - 1) != 0:
                return False
    return True
