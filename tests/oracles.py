"""Reference computations that only the tests use.

Each one computes a value the library also computes, along a route the
library does not take, so the tests can hold the two against each other.
"""

from fractions import Fraction

from freeprob import incidence, ncpart
from freeprob import series as se
from freeprob.errors import ValidationError
from freeprob.sequences import RationalSequence
from freeprob.series import PowerSeries
from freeprob.transforms import WordMomentEvaluator


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


def sum_moments_by_words(var_a, var_b, order: int) -> RationalSequence:
    """Moments of a+b for free a, b evaluated letter by letter; oracle
    for cumulant additivity."""
    ev = WordMomentEvaluator([var_a, var_b])
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
