"""Reference computations that only the tests use.

Each one computes a value the library also computes, along a route the
library does not take, so the tests can hold the two against each other.
"""

import itertools
import math
from fractions import Fraction

from freeprob import incidence, ncpart
from freeprob import series as se
from freeprob.errors import ValidationError
from freeprob.sequences import RationalSequence
from freeprob.series import PowerSeries
from freeprob.transforms import WordMomentEvaluator, _reduce_word


def check_pair(a: PowerSeries, b: PowerSeries, mode: str, k: int,
               order: int | None = None) -> bool:
    """Verify one leg of the three-way functional-equation equivalence.

    Given series A and B with constant term 1, let M be built from the
    other two identities and test the selected one:

    * mode "i":   M solves M = A(z M^k); test M = B(z M).
    * mode "ii":  M solves M = B(z M);   test M = A(z M^k).
    * mode "iii": test B = A(z B^(k-1)) directly.
    """
    if a[0] != 1 or b[0] != 1:
        raise ValidationError("check_pair needs constant term 1 on both series")
    if order is None:
        order = min(a.order, b.order)
    ident = PowerSeries.identity(order)
    if mode == "iii":
        rhs = se.compose(a, se.mul(ident, se.power(b, k - 1, order), order), order)
        return b.truncate(order) == rhs
    if mode == "i":
        m = se.solve_A_given_B(a, k, order)
        rhs = se.compose(b, se.mul(ident, m, order), order)
        return m == rhs
    if mode == "ii":
        m = se.solve_A_given_B(b, 1, order)
        rhs = se.compose(a, se.mul(ident, se.power(m, k, order), order), order)
        return m == rhs
    raise ValidationError(f"unknown mode {mode!r}")


def geometric(order: int) -> PowerSeries:
    """1/(1-z) truncated."""
    return PowerSeries([1] * (order + 1))


def mul_by_fractions(a: PowerSeries, b: PowerSeries, order: int | None = None) -> PowerSeries:
    """The product loop on Fraction coefficients; oracle for series.mul."""
    if order is None:
        order = min(a.order, b.order)
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a.coeffs):
        if i > order:
            break
        if ca == 0:
            continue
        top = min(order - i, b.order)
        for j in range(top + 1):
            out[i + j] += ca * b.coeffs[j]
    return PowerSeries(out)


def compose_by_fractions(a: PowerSeries, b: PowerSeries,
                         order: int | None = None) -> PowerSeries:
    """sum a_i b^i on Fraction coefficients; oracle for series.compose."""
    if b[0] != 0:
        raise ValidationError("composition needs the inner series to vanish at 0")
    if order is None:
        order = min(a.order, b.order)
    out = [a[0]] + [Fraction(0)] * order
    pw = PowerSeries.one(order)
    for i in range(1, min(a.order, order) + 1):
        pw = mul_by_fractions(pw, b, order)
        if a[i]:
            for j in range(i, order + 1):
                out[j] += a[i] * pw.coeffs[j]
    return PowerSeries(out)


def multichain_count_enumerated(length: int, n: int) -> int:
    """Count weakly increasing `length`-tuples in NC(n) straight from the
    order relation (dynamic programming over the poset); oracle for the
    closed form and the zeta-power identities."""
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


def pair_stats_by_enumeration(k: int, n: int) -> dict:
    """{(sizes(pi), sizes(Kr(pi))): count} over NC^k(n), partition by
    partition; oracle for the Goulden-Jackson count and for its sums over
    the types of one length, the power coefficients that
    incidence.kdivisible_conv reads."""
    def sizes(blocks):
        return tuple(sorted((len(b) for b in blocks), reverse=True))
    hist: dict = {}
    for p in ncpart.iter_kdivisible(k, n):
        key = (sizes(p.blocks), sizes(ncpart.kreweras(p).blocks))
        hist[key] = hist.get(key, 0) + 1
    return hist


def catalan_by_recurrence(n: int) -> int:
    """Independent Catalan oracle: C_0 = 1, C_n = sum C_i C_{n-1-i}."""
    cs = [1]
    for m in range(1, n + 1):
        cs.append(sum(cs[i] * cs[m - 1 - i] for i in range(m)))
    return cs[n]


def conv_power_by_steps(f: RationalSequence, g: RationalSequence, order: int,
                        t: int) -> RationalSequence:
    """f * g^{*t} for t >= 0 as t chained convolutions; oracle for the
    exponent of incidence.conv."""
    f = f.prefix(order)
    for _ in range(t):
        f = incidence.conv(f, g, order)
    return f


class CenteringWordMoments(WordMomentEvaluator):
    """Evaluates phi(words) in free variables by the centering expansion;
    oracle for WordMomentEvaluator, which sums free cumulants instead.

    Each letter a splits as (a - phi(a)) + phi(a); a fully centered
    alternating product has vanishing trace, so expanding over the
    letters with nonzero mean expresses phi(word) through strictly
    shorter words.  Results are memoized on the reduced word.  Only
    moments are read, never moments_to_cumulants.
    """

    def __init__(self, variables):
        super().__init__(variables)
        self._memo: dict = {}

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


def sum_moments_by_words(var_a, var_b, order: int) -> RationalSequence:
    """Moments of a+b for free a, b evaluated letter by letter by the
    centering expansion; oracle for cumulant additivity."""
    ev = CenteringWordMoments([var_a, var_b])
    out = []
    for n in range(1, order + 1):
        total = Fraction(0)
        for mask in range(1 << n):
            word = tuple(
                (var_a.label, 1) if mask >> i & 1 else (var_b.label, 1)
                for i in range(n)
            )
            total += ev.phi(word)
        out.append(total)
    return RationalSequence(out)


def _compositions(total: int):
    """Tuples of positive integers that sum to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first, *rest)


def freeness_by_centering(variables, a_label: str, h_word, max_letters: int) -> bool:
    """True iff phi(x_1° x_2° ... x_m°) = 0, x° = x - phi(x), for every
    product of at least two alternating powers h^e and a^f of total degree
    at most max_letters, each expanded over the subsets of its centred
    factors on the centering word moments; oracle for
    transforms.freeness_moment_check, which tests mixed free cumulants
    instead.  Only moments are read, never moments_to_cumulants."""
    ev = CenteringWordMoments(variables)
    power = {"h": lambda e: list(h_word) * e, "a": lambda f: [(a_label, f)]}

    def centred(factors) -> Fraction:
        words = [power[x](e) for x, e in factors]
        means = [ev.phi(w) for w in words]
        total = Fraction(0)
        for keep in itertools.product((True, False), repeat=len(words)):
            coeff = math.prod(Fraction(1) if k else -m for k, m in zip(keep, means))
            total += coeff * ev.phi([l for k, w in zip(keep, words) if k for l in w])
        return total

    return not any(
        centred([("ha"[(i + start) % 2], e) for i, e in enumerate(exponents)])
        for degree in range(2, max_letters + 1) for exponents in _compositions(degree)
        if len(exponents) >= 2 for start in (0, 1))


def rescale_to_monic(mom: RationalSequence, k: int) -> tuple:
    """Dilation (t, m') with m'_n = t^n m_n and m'_k = 1.

    Needs m_k to be a positive perfect k-th power in the rationals;
    raises IrrationalRootError otherwise.
    """
    if mom[k] <= 0:
        raise ValidationError("leading moment must be positive")
    t = 1 / se.rational_root(mom[k], k)
    return t, RationalSequence([t ** n * mom[n] for n in range(1, mom.order + 1)])


def cycle_lengths(perm) -> list:
    """Cycle lengths of a KCyclePermutation, in order of each cycle's
    smallest point."""
    seen = [False] * perm.size
    out = []
    for start in range(perm.size):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm.mapping[x]
            length += 1
        out.append(length)
    return out
