"""k-symmetric distributions at moment level, their free convolutions
and limit theorems, plus the symbolic stable-law monomial algebra.

A k-symmetric law is determined by k together with the moment sequence
of its k-th power: the full moments vanish off multiples of k and
m_{kn} equals the n-th entry of the stored base.  Since k convolutions
with zeta in NC are one in NC^k, the base is alpha * zeta^k for the
determining sequence alpha_n = kappa_{kn}: either one follows from the
other by one series solve at the base's order, and a free multiplicative
power is one incidence.conv solve.  Everything is exact;
free additive powers are computed formally for every t > 0, and the
carried validity flag (from a Hankel test on the base) records whether
the result is certified as an actual measure.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import incidence, ncpart, transforms
from .series import nth_root_int as _root
from .errors import ValidationError, run_route
from .sequences import RationalSequence, check_int, frac_from_str, frac_param, frac_to_str


class KSymmetricDistribution:
    """Order k plus the moments of the k-th power."""

    __slots__ = ("k", "base", "valid")

    def __init__(self, k: int, base: RationalSequence, valid: bool | None = None):
        check_int(k, "k")
        if k < 1:
            raise ValidationError("k must be >= 1")
        self.k = k
        self.base = base
        self.valid = valid

    def __eq__(self, other):
        return (
            isinstance(other, KSymmetricDistribution)
            and self.k == other.k
            and self.base == other.base
        )

    def __repr__(self):
        return f"KSymmetricDistribution(k={self.k}, base={list(self.base)!r})"

    def moment(self, n: int) -> Fraction:
        """m_n of the law itself: base_{n/k} when k | n, zero otherwise."""
        if n < 1 or n > self.k * self.base.order:
            raise ValidationError(f"moment {n} out of range")
        return self.base[n // self.k] if n % self.k == 0 else Fraction(0)

    def full_moments(self, order: int) -> RationalSequence:
        if order > self.k * self.base.order:
            raise ValidationError("not enough base moments")
        return incidence.dilate(self.base, self.k, order)

    def determining_sequence(self, order: int | None = None) -> RationalSequence:
        """alpha_n = kappa_{kn}, the base times moebius^k: A = 1 + base(z)
        solves A = B(z A^k) with B = 1 + alpha(z)."""
        if order is None:
            order = self.base.order
        if order > self.base.order:
            raise ValidationError("not enough base moments")
        return incidence.zeta_power_conv(self.base, -self.k, order)

    def check_validity(self) -> bool:
        self.valid = transforms.hankel_check(self.base, stieltjes=True)
        return self.valid

    def as_free_variable(self, label: str, order: int | None = None) -> transforms.FreeVariable:
        if order is None:
            order = self.k * self.base.order
        return transforms.FreeVariable(label, self.full_moments(order))

    def to_json(self) -> dict:
        return {"k": self.k, "base": self.base.to_json(), "valid": self.valid}

    @classmethod
    def from_json(cls, obj) -> "KSymmetricDistribution":
        if not isinstance(obj, dict) or "k" not in obj or "base" not in obj:
            raise ValidationError('a k-symmetric law is a JSON object with "k" and "base"')
        k = obj["k"]
        if isinstance(k, bool) or not isinstance(k, int):
            raise ValidationError(f'"k" must be an integer, got {k!r}')
        return cls(k, RationalSequence.from_json(obj["base"]), obj.get("valid"))


def from_determining_sequence(k: int, alpha: RationalSequence,
                              order: int | None = None) -> KSymmetricDistribution:
    """Rebuild a k-symmetric law from alpha_n = kappa_{kn}: its base is
    alpha * zeta^k."""
    if order is None:
        order = alpha.order
    return KSymmetricDistribution(k, incidence.zeta_power_conv(alpha, k, order))


def haar_unitary_law(k: int, order: int) -> KSymmetricDistribution:
    """Uniform law on the k-th roots of unity: base is identically 1."""
    return KSymmetricDistribution(k, RationalSequence.constant(1, order), True)


def semicircle_sk(k: int, order: int) -> KSymmetricDistribution:
    """The k-symmetric central limit law: kappa_k = 1, all other
    cumulants vanish; the k-th power has the Fuss-Catalan moments
    binom(kn, n)/((k-1)n+1)."""
    check_int(k, "k")
    check_int(order, "order")
    base = RationalSequence([ncpart.count_kequal(k, n) for n in range(1, order + 1)])
    return KSymmetricDistribution(k, base, True)


def boxtimes_positive(d: KSymmetricDistribution, nu: RationalSequence,
                      order: int) -> KSymmetricDistribution:
    """Free multiplicative convolution with a positive law: the base of
    the result is base_d * kappa(nu)^{*k}, one incidence.conv solve."""
    if not transforms.hankel_check(nu, stieltjes=True):
        raise ValidationError("nu fails the Stieltjes moment test")
    if nu.order < order or d.base.order < order:
        raise ValidationError("not enough moments for requested order")
    c_nu = transforms.moments_to_cumulants(nu.prefix(order), order)
    return KSymmetricDistribution(d.k, incidence.conv(d.base, c_nu, order, d.k))


def boxplus_power(d: KSymmetricDistribution, t, order: int) -> KSymmetricDistribution:
    """Free additive power: every cumulant scales by t.  Formally valid
    for all t > 0; the validity flag reports the Hankel test on the new
    base (guaranteed to pass for t >= 1 when d is a measure)."""
    t = frac_param(t, "t")
    if t <= 0:
        raise ValidationError("free additive power needs t > 0")
    alpha = d.determining_sequence(order).scale(t)
    out = from_determining_sequence(d.k, alpha, order)
    out.check_validity()
    return out


def clt_scaled_cumulants(d: KSymmetricDistribution, n_samples: int,
                         order: int) -> RationalSequence:
    """Cumulants of the n_samples-th free additive power dilated by
    n_samples^(-1/k): kappa_i picks up the factor n_samples^(1-i/k).

    Exactness requires n_samples to be a perfect k-th power (the factor
    is then b^(k-i) with b the integer root) and kappa_k = 1.
    """
    check_int(n_samples, "n_samples")
    alpha = d.determining_sequence(-(-order // d.k))
    if alpha[1] != 1:
        raise ValidationError("normalize first: kappa_k must be 1")
    if n_samples < 1:
        raise ValidationError("n_samples must be positive")
    b = _root(n_samples, d.k)
    if b is None:
        raise ValidationError(
            f"{n_samples} is not a perfect {d.k}-th power, scaling is irrational"
        )
    # the k-dilated alpha: alpha_{i/k} at multiples of k, else 0
    return RationalSequence(
        [Fraction(b) ** (d.k - i) * alpha[i // d.k] if i % d.k == 0 else Fraction(0)
         for i in range(1, order + 1)]
    )


def compound_poisson(k: int, rate, jump: KSymmetricDistribution,
                     order: int) -> KSymmetricDistribution:
    """Free compound Poisson: kappa_n = rate * m_n(jump), so its
    determining sequence is alpha_n = rate * m_{kn}(jump)."""
    rate = frac_param(rate, "rate")
    if rate <= 0:
        raise ValidationError("rate must be positive")
    if jump.k != k:
        raise ValidationError(f"jump law has order {jump.k}, expected {k}")
    return from_determining_sequence(k, jump.base.prefix(order).scale(rate))


def poisson_limit_gap(k: int, rate, jump: KSymmetricDistribution,
                      n_samples: int, order: int) -> RationalSequence:
    """|kappa_n(((1 - rate/N) delta_0 + (rate/N) jump)^{boxplus N}) -
    rate * m_n(jump)| for n = 1..order, exactly."""
    rate = frac_param(rate, "rate")
    check_int(n_samples, "n_samples")
    if rate <= 0 or n_samples < 1:
        raise ValidationError("rate and n_samples must be positive")
    if jump.k != k:
        raise ValidationError("jump law has the wrong symmetry order")
    mix = jump.full_moments(order).scale(Fraction(rate, n_samples))
    cums = transforms.moments_to_cumulants(mix, order).scale(n_samples)
    target = jump.full_moments(order).scale(rate)
    return RationalSequence(
        [abs(cums[n] - target[n]) for n in range(1, order + 1)]
    )


def xk_of_kdivisible(alpha: RationalSequence, k: int, order: int) -> RationalSequence:
    """Moments of x^k for k-divisible x whose determining sequence alpha
    is the cumulant sequence of a positive law.

    The moments of kappa(x^k) = alpha * zeta^(k-1), whose zeta power runs
    route "both": the series solve, the k-divisible cumulant formula
    ("dilated", a walk of NC^(k-1)(n)) and the law identity distr(x^k) =
    (free Poisson)^{boxtimes (k-1)} boxtimes nu ("iterated") must agree.
    """
    check_int(k, "k")
    if k < 1:
        raise ValidationError("k must be >= 1")
    mom_nu = transforms.cumulants_to_moments(alpha.prefix(order), order)
    if not transforms.hankel_check(mom_nu, stieltjes=True):
        raise ValidationError("alpha is not the cumulant sequence of a positive law")
    return transforms.cumulants_to_moments(
        incidence.zeta_power_conv(alpha, k - 1, order, route="both"), order)


def boxtimes_power_moments(mu: RationalSequence, k: int, order: int,
                           route: str = "series") -> RationalSequence:
    """Moments of the k-fold free multiplicative power of a positive law:
    m_n = sum over k-divisible pi in NC(kn) of kappa_{Kr(pi)}(mu).

    route "series" (the default) is the one solve mu * kappa(mu)^{*(k-1)}
    of incidence.conv, route "enumeration" is the walk
    incidence.kdivisible_conv and needs moments up to k*order; "both" checks
    agreement.
    """
    check_int(k, "k")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not transforms.hankel_check(mu.prefix(min(mu.order, 2 * order)), stieltjes=True):
        raise ValidationError("mu fails the Stieltjes moment test")

    def by_enum() -> RationalSequence:
        if mu.order < k * order:
            raise ValidationError("enumeration route needs moments up to k*order")
        cums = transforms.moments_to_cumulants(mu.prefix(k * order), k * order)
        return incidence.kdivisible_conv(k, None, cums, order)

    return run_route("boxtimes_power_moments", route, {
        "enumeration": by_enum,
        "series": lambda: incidence.conv(
            mu, transforms.moments_to_cumulants(mu.prefix(order), order), order, k - 1),
    })


def infdiv_power_identity_check(rate, jump: KSymmetricDistribution, k: int,
                                order: int) -> bool:
    """For x compound Poisson(rate, jump) and k-symmetric, x^k is again
    compound Poisson with rate 1; its jump law is the (k-2)-fold free
    Poisson multiplicative power of the positive law whose cumulants are
    rate * m_n(jump^k).  At rate 1 that jump law equals
    (free Poisson)^{boxtimes (k-1)} boxtimes jump^k."""
    rate = frac_param(rate, "rate")
    if jump.k != k:
        raise ValidationError("jump law has the wrong symmetry order")
    x = compound_poisson(k, rate, jump, order)
    lhs = transforms.moments_to_cumulants(x.base.prefix(order), order)
    alpha = jump.base.prefix(order).scale(rate)
    return lhs == incidence.zeta_power_conv(alpha, k - 1, order, route="iterated")


# ---------------------------------------------------------------------------
# symbolic stable-law monomials


class StableMonomial(namedtuple("StableMonomial", "scale phase_pi exponent theta power_atoms")):
    """Symbolic S-transform scale * theta-product * e^(i pi phase) * z^exponent.

    Magnitude atoms theta_alpha carry the index of a one-sided stable
    law; their numeric values are never needed, only the composition
    rule theta_{1/(1+t)} theta_{1/(1+s)} = theta_{1/(1+t+s)}.  Additive
    powers whose scale factor t^e is irrational append a symbolic
    (base, exponent) power atom instead of evaluating it.
    """

    __slots__ = ()

    def __new__(cls, scale=1, phase_pi=0, exponent=0, theta=(), power_atoms=()):
        scale = frac_param(scale, "scale")
        if scale <= 0:
            raise ValidationError("monomial scale must be positive")
        # canonicalize power atoms: factor every base into primes, sum
        # the per-prime exponents, fold integer parts into the scale and
        # keep one (prime, exponent) atom per prime with exponent in
        # (0, 1); this normal form makes symbolically equal products of
        # rational powers compare equal
        per_prime: dict = {}
        for b, e in power_atoms:
            b, e = frac_param(b, "power atom base"), frac_param(e, "power atom exponent")
            if b <= 0:
                raise ValidationError("power atom base must be positive")
            for p, m in _prime_factors(b.numerator):
                per_prime[p] = per_prime.get(p, Fraction(0)) + m * e
            for p, m in _prime_factors(b.denominator):
                per_prime[p] = per_prime.get(p, Fraction(0)) - m * e
        atoms = []
        for p, e in per_prime.items():
            whole = e.numerator // e.denominator
            frac = e - whole
            scale *= Fraction(p) ** whole
            if frac != 0:
                atoms.append((Fraction(p), frac))
        theta = tuple(sorted(frac_param(a, "theta") for a in theta))
        return super().__new__(cls, scale, frac_param(phase_pi, "phase_pi") % 2,
                               frac_param(exponent, "exponent"), theta, tuple(sorted(atoms)))

    def to_json(self) -> dict:
        out = {
            "scale": frac_to_str(self.scale),
            "phase_pi": frac_to_str(self.phase_pi),
            "exponent": frac_to_str(self.exponent),
            "theta": [frac_to_str(a) for a in self.theta],
        }
        if self.power_atoms:
            out["power_atoms"] = [
                [frac_to_str(b), frac_to_str(e)] for b, e in self.power_atoms
            ]
        return out

    @classmethod
    def from_json(cls, obj) -> "StableMonomial":
        return cls(
            frac_from_str(obj["scale"]),
            frac_from_str(obj["phase_pi"]),
            frac_from_str(obj["exponent"]),
            tuple(frac_from_str(a) for a in obj.get("theta", ())),
            tuple(
                (frac_from_str(b), frac_from_str(e))
                for b, e in obj.get("power_atoms", ())
            ),
        )


UNIT_MONOMIAL = StableMonomial()


def _prime_factors(n: int):
    """(prime, multiplicity) pairs of a positive integer, trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            m = 0
            while n % p == 0:
                n //= p
                m += 1
            out.append((p, m))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def stable_monomial_mul(a: StableMonomial, b: StableMonomial) -> StableMonomial:
    return StableMonomial(
        a.scale * b.scale,
        a.phase_pi + b.phase_pi,
        a.exponent + b.exponent,
        a.theta + b.theta,
        a.power_atoms + b.power_atoms,
    )


def stable_add_power(a: StableMonomial, t) -> StableMonomial:
    """S of the t-th free additive power: S(z) -> (1/t) S(z/t), which on
    c z^gamma multiplies the scale by t^(-(1+gamma)).  Irrational parts
    of the factor survive as a symbolic power atom."""
    t = frac_param(t, "t")
    if t <= 0:
        raise ValidationError("t must be positive")
    return StableMonomial(a.scale, a.phase_pi, a.exponent, a.theta,
                          a.power_atoms + ((t, -(1 + a.exponent)),))


def stable_dilate(a: StableMonomial, t) -> StableMonomial:
    """S of the dilation by t: S(z) -> (1/t) S(z)."""
    t = frac_param(t, "t")
    if t <= 0:
        raise ValidationError("t must be positive")
    return StableMonomial(a.scale / t, a.phase_pi, a.exponent, a.theta,
                          a.power_atoms)


def positive_stable_monomial(alpha) -> StableMonomial:
    """S-transform of the one-sided stable law of index alpha in (0, 1]:
    theta_alpha e^(i pi (1-alpha)/alpha) z^((1-alpha)/alpha)."""
    alpha = frac_param(alpha, "alpha")
    if not 0 < alpha <= 1:
        raise ValidationError("index must lie in (0, 1]")
    g = (1 - alpha) / alpha
    theta = (alpha,) if alpha != 1 else ()
    return StableMonomial(1, g, g, theta)


def ksemicircle_monomial(k: int) -> StableMonomial:
    """S-transform of the k-symmetric central limit law: z^((1-k)/k)."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    return StableMonomial(1, 0, Fraction(1 - k, k))


def ksym_stable_monomial(k: int, t) -> StableMonomial:
    """S-transform of the k-symmetric strictly stable law of index
    1/(1+t), realized as the k-semicircle times the positive stable law
    of index alpha = beta k / (k - beta + beta k) with beta = 1/(1+t)."""
    t = frac_param(t, "t")
    if t < 0:
        raise ValidationError("t must be >= 0")
    beta = Fraction(1, 1 + t) if t else Fraction(1)
    alpha = beta * k / (k - beta + beta * k)
    return stable_monomial_mul(ksemicircle_monomial(k), positive_stable_monomial(alpha))


def _theta_reduced(theta: tuple) -> Fraction | None:
    """Collapse a theta multiset under the one-sided stable composition
    rule; None encodes the empty product."""
    if not theta:
        return None
    total = Fraction(0)
    for alpha in theta:
        total += 1 / alpha - 1
    return 1 / (1 + total)


def stable_monomial_equal(a: StableMonomial, b: StableMonomial) -> bool:
    """Equality with the magnitudes compared under the theta composition
    axiom."""
    return (a.scale, a.phase_pi, a.exponent, a.power_atoms) == (
        b.scale, b.phase_pi, b.exponent, b.power_atoms
    ) and _theta_reduced(a.theta) == _theta_reduced(b.theta)


def stable_reproducing_check(k: int, t, s) -> bool:
    """sigma^k_{1/(1+t)} boxtimes nu_{1/(1+s)} = sigma^k_{1/(1+t+s)} at
    the level of S-transform monomials, magnitudes compared under the
    theta composition axiom."""
    t, s = frac_param(t, "t"), frac_param(s, "s")
    if t <= 0 or s <= 0:
        raise ValidationError("t and s must be positive")
    lhs = stable_monomial_mul(
        ksym_stable_monomial(k, t),
        positive_stable_monomial(Fraction(1, 1 + s)),
    )
    rhs = ksym_stable_monomial(k, t + s)
    return stable_monomial_equal(lhs, rhs)


def mult_additive_check(a: StableMonomial, b: StableMonomial, t) -> bool:
    """mu^{boxplus t} boxtimes nu^{boxplus t} = D_t((mu boxtimes nu)^{boxplus t})
    on monomials."""
    lhs = stable_monomial_mul(stable_add_power(a, t), stable_add_power(b, t))
    rhs = stable_dilate(stable_add_power(stable_monomial_mul(a, b), t), t)
    return stable_monomial_equal(lhs, rhs)
