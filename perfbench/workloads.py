"""The benchmark's workloads: seeded inputs, the library call, and an
independent check for every op.

A workload is a fixed round of ops, each a distinct (op kind, size).  The
round never depends on the seed: the seed picks only coefficients, atoms
and small free parameters, so every seed runs the same mix.  Inputs are
valid by construction (positive atomic laws where a Hankel gate applies,
a perfect k-th power as the leading moment of the Puiseux branch, bases
long enough for k * order), so no op is expected to fail.

In-process ops return a zero-argument callable bound to library objects;
CLI ops return an argv and the JSON input files it reads.  Checks use
only `exact`, never freeprob.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import exact as X

# ---------------------------------------------------------------------------
# seeded raw inputs (plain Fractions, no library objects)


def op_rng(workload: str, seed: int, round_no: int, slot: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}:{slot}")


def rational(rng, nonzero=False):
    num = rng.choice((1, 2, 3, -1, -2, -3) if nonzero else (0, 1, 2, 3, -1, -2, -3))
    return Fraction(num, rng.randint(1, 4))


def rationals(rng, n, nonzero_first=True):
    return [rational(rng, nonzero=(i == 0 and nonzero_first)) for i in range(n)]


def atomic_moments(rng, n, atoms=3):
    """Moments 1..n of a law with `atoms` positive atoms and positive weights."""
    xs = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(atoms)]
    ws = [rng.randint(1, 4) for _ in range(atoms)]
    total = sum(ws)
    return [sum(Fraction(w, total) * x ** j for x, w in zip(xs, ws)) for j in range(1, n + 1)]


def puiseux_moments(rng, k, n):
    """m_1 = .. = m_{k-1} = 0 and m_k a positive perfect k-th power."""
    root = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    return [Fraction(0)] * (k - 1) + [root ** k] + rationals(rng, n - k, nonzero_first=False)


def full_moments(k, base):
    """Moments of a k-symmetric law from the moments of its k-th power."""
    out = []
    for b in base:
        out.extend([Fraction(0)] * (k - 1) + [Fraction(b)])
    return out


def positive_rational(rng, lo=1, hi=6, den=2):
    return Fraction(rng.randint(lo, hi), den)


# ---------------------------------------------------------------------------
# reading library outputs without importing the library


def values(out):
    """Fractions of a RationalSequence, PowerSeries or base of a law."""
    if hasattr(out, "coeffs"):
        return list(out.coeffs)
    if hasattr(out, "base"):
        return list(out.base)
    return list(out)


def canonical(out) -> str:
    """Stable text form of an op's output, for the committed digests."""
    if hasattr(out, "ram"):
        body = {"ram": out.ram, "lo": out.lo, "coeffs": [str(c) for c in out.coeffs]}
    elif hasattr(out, "to_json"):
        body = out.to_json()
    elif hasattr(out, "coeffs"):
        body = [str(c) for c in out.coeffs]
    else:
        body = [str(c) for c in out]
    return json.dumps(body, sort_keys=True)


# ---------------------------------------------------------------------------
# in-process ops


class Op:
    """kind: a distinct (op kind, size); gen(rng) -> raw inputs;
    bind(fp, raw) -> zero-argument call; check(raw, out) -> bool."""

    __slots__ = ("kind", "gen", "bind", "check")

    def __init__(self, kind, gen, bind, check):
        self.kind, self.gen, self.bind, self.check = kind, gen, bind, check


def _seq(fp, vals):
    return fp.sequences.RationalSequence(vals)


def _ps(fp, vals):
    return fp.series.PowerSeries(vals)


def _law(fp, k, base):
    return fp.ksym.KSymmetricDistribution(k, _seq(fp, base), True)


def m2c(n):
    return Op(
        f"m2c/N={n}",
        lambda rng: {"m": rationals(rng, n)},
        lambda fp, r: lambda: fp.transforms.moments_to_cumulants(_seq(fp, r["m"]), n),
        lambda r, out: X.solves_fe(X.with_unit(r["m"]), X.with_unit(values(out)), 1, n),
    )


def c2m(n):
    return Op(
        f"c2m/N={n}",
        lambda rng: {"c": rationals(rng, n)},
        lambda fp, r: lambda: fp.transforms.cumulants_to_moments(_seq(fp, r["c"]), n),
        lambda r, out: X.solves_fe(X.with_unit(values(out)), X.with_unit(r["c"]), 1, n),
    )


def s_transform(n, k=1):
    if k == 1:
        gen = lambda rng: {"m": rationals(rng, n)}
        check = lambda r, out: (not hasattr(out, "ram")
                                and values(out) == X.s_series(r["m"], n))
    else:
        gen = lambda rng: {"m": puiseux_moments(rng, k, n)}
        check = lambda r, out: (hasattr(out, "ram") and X.puiseux_s_ok(
            r["m"], k, out.ram, out.lo, list(out.coeffs)))
    return Op(
        f"s_transform/k={k}/N={n}",
        gen,
        lambda fp, r: lambda: fp.transforms.s_transform(_seq(fp, r["m"]), n),
        check,
    )


def comp_inverse(n):
    ident = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1)
    return Op(
        f"comp_inverse/N={n}",
        lambda rng: {"p": [Fraction(0), rational(rng, nonzero=True)] + rationals(rng, n - 1, False)},
        lambda fp, r: lambda: fp.series.comp_inverse(_ps(fp, r["p"])),
        lambda r, out: X.compose(r["p"], values(out), n) == ident,
    )


def solve_fe(k, n):
    return Op(
        f"solve_A_given_B/k={k}/N={n}",
        lambda rng: {"b": X.with_unit(rationals(rng, n))},
        lambda fp, r: lambda: fp.series.solve_A_given_B(_ps(fp, r["b"]), k, n),
        lambda r, out: X.solves_fe(values(out), r["b"], k, n),
    )


def boxplus_power(k, order):
    def check(r, out):
        n = k * order
        c_in = X.cumulant_series(X.with_unit(full_moments(k, r["base"])), n)
        c_out = X.cumulant_series(X.with_unit(full_moments(k, values(out))), n)
        return out.k == k and c_out[1:] == [r["t"] * c for c in c_in[1:]]

    return Op(
        f"boxplus_power/k={k}/order={order}",
        lambda rng: {"base": atomic_moments(rng, order), "t": positive_rational(rng, 2, 6)},
        lambda fp, r: lambda: fp.ksym.boxplus_power(_law(fp, k, r["base"]), r["t"], order),
        check,
    )


def compound_poisson(k, order):
    def check(r, out):
        cums = [r["rate"] * m for m in full_moments(k, r["base"])]
        return out.k == k and X.solves_fe(
            X.with_unit(full_moments(k, values(out))), X.with_unit(cums), 1, k * order)

    return Op(
        f"compound_poisson/k={k}/order={order}",
        lambda rng: {"base": atomic_moments(rng, order), "rate": positive_rational(rng)},
        lambda fp, r: lambda: fp.ksym.compound_poisson(
            k, r["rate"], _law(fp, k, r["base"]), order),
        check,
    )


def _fourier_ok(a, b, out, n):
    h = values(out)
    return len(h) == n and X.fourier(h, n) == X.mul(X.fourier(a, n), X.fourier(b, n), n - 1)


def free_mult_convolve(n):
    return Op(
        f"free_mult_convolve/order={n}",
        lambda rng: {"a": rationals(rng, n), "b": rationals(rng, n)},
        lambda fp, r: lambda: fp.transforms.free_mult_convolve(
            _seq(fp, r["a"]), _seq(fp, r["b"]), n),
        lambda r, out: _fourier_ok(r["a"], r["b"], out, n),
    )


def product_moments(n):
    return Op(
        f"product_moments/order={n}",
        lambda rng: {"a": rationals(rng, n), "b": atomic_moments(rng, n)},
        lambda fp, r: lambda: fp.transforms.product_moments(
            _seq(fp, r["a"]), _seq(fp, r["b"]), n),
        lambda r, out: _fourier_ok(r["a"], r["b"], out, n),
    )


def kdiv_power_cumulants(k, n, route):
    # kappa(x^k) is alpha convolved with zeta k-1 times: A = B(z A^(k-1)).
    return Op(
        f"kdiv_power_cumulants/k={k}/order={n}/{route}",
        lambda rng: {"alpha": rationals(rng, n)},
        lambda fp, r: lambda: fp.transforms.kdiv_power_cumulants(
            _seq(fp, r["alpha"]), k, n, route=route),
        lambda r, out: X.solves_fe(X.with_unit(values(out)), X.with_unit(r["alpha"]), k - 1, n),
    )


def zeta_power_conv(k, n):
    return Op(
        f"zeta_power_conv/k={k}/order={n}",
        lambda rng: {"g": rationals(rng, n)},
        lambda fp, r: lambda: fp.incidence.zeta_power_conv(_seq(fp, r["g"]), k, n),
        lambda r, out: X.solves_fe(X.with_unit(values(out)), X.with_unit(r["g"]), k, n),
    )


def boxtimes_power_moments(k, n):
    # S of the k-th free multiplicative power is S^k.
    def check(r, out):
        s_mu = X.s_series(r["mu"][:n], n)
        return X.s_series(values(out), n) == X.power(s_mu, k, n - 1)

    return Op(
        f"boxtimes_power_moments/k={k}/order={n}",
        lambda rng: {"mu": atomic_moments(rng, k * n)},
        lambda fp, r: lambda: fp.ksym.boxtimes_power_moments(_seq(fp, r["mu"]), k, n),
        check,
    )


# ---------------------------------------------------------------------------
# CLI ops


class CliOp:
    """kind: a distinct (verb, size); gen(rng) -> raw inputs;
    argv(raw, path) -> argv after `-m freeprob`, where path(name) places
    an input file; files(raw) -> {name: JSON value};
    check(raw, stdout text) -> bool."""

    __slots__ = ("kind", "gen", "argv", "files", "check")

    def __init__(self, kind, gen, argv, check, files=lambda r: {}):
        self.kind, self.gen, self.argv, self.check, self.files = kind, gen, argv, check, files


def _strs(vals):
    return [f"{Fraction(v).numerator}/{Fraction(v).denominator}" for v in vals]


def _fracs(items):
    return [Fraction(s) for s in items]


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def cli_count(kind, k_choices):
    closed = {"nc": lambda k, n: X.catalan(n), "kdivisible": X.kdivisible_count,
              "kequal": X.kequal_count, "multichains": X.kdivisible_count}[kind]
    return CliOp(
        f"nc count/{kind}",
        lambda rng: {"k": rng.choice(k_choices), "n": rng.randint(6, 14)},
        lambda r, path: ["nc", "count", "--kind", kind, "--n", str(r["n"]), "--k", str(r["k"])],
        lambda r, out: out.strip() == str(closed(r["k"], r["n"])),
    )


def random_nc_blocks(rng, n):
    """A non-crossing partition of 1..n: each point opens a block or joins
    an open one, closing every block opened after it."""
    stack, done = [], []
    for x in range(1, n + 1):
        j = rng.randrange(len(stack) + 1)
        if j == len(stack):
            stack.append([x])
        else:
            done.extend(stack[j + 1:])
            del stack[j + 1:]
            stack[j].append(x)
    return sorted(done + stack)


def _fmt_blocks(blocks):
    return "".join("{" + ",".join(map(str, b)) + "}" for b in blocks)


def parse_blocks(text):
    if not (text.startswith("{") and text.endswith("}")):
        return None
    try:
        return [tuple(int(x) for x in chunk.split(",")) for chunk in text[1:-1].split("}{")]
    except ValueError:
        return None


def noncrossing(blocks, n):
    """Blocks are a non-crossing partition of 1..n (pairwise scan)."""
    if sorted(x for b in blocks for x in b) != list(range(1, n + 1)):
        return False
    for i, b in enumerate(blocks):
        for c in blocks[i + 1:]:
            tags = [t for _, t in sorted([(x, 0) for x in b] + [(x, 1) for x in c])]
            if sum(1 for s, t in zip(tags, tags[1:]) if s != t) >= 3:
                return False
    return True


def kreweras_ok(blocks, n, out):
    """out is the Kreweras complement of blocks: non-crossing, non-crossing
    when interleaved with blocks as 1,1',2,2',..., and maximal, which for
    such a pair means |pi| + |K| = n + 1."""
    comp = parse_blocks(out)
    if comp is None or not noncrossing(comp, n):
        return False
    both = [tuple(2 * x - 1 for x in b) for b in blocks] + [tuple(2 * x for x in b) for b in comp]
    return len(blocks) + len(comp) == n + 1 and noncrossing(both, 2 * n)


def cli_kreweras():
    return CliOp(
        "nc kreweras",
        lambda rng: (lambda n: {"n": n, "blocks": random_nc_blocks(rng, n)})(rng.randint(8, 12)),
        lambda r, path: ["nc", "kreweras", "--partition", _fmt_blocks(r["blocks"])],
        lambda r, out: kreweras_ok(r["blocks"], r["n"], out.strip()),
    )


def cli_moebius():
    def check(r, out):
        got = (_json(out) or {}).get("values")
        want = [(-1) ** (n - 1) * X.catalan(n - 1) for n in range(1, r["order"] + 1)]
        return got is not None and _fracs(got) == want

    return CliOp(
        "conv moebius",
        lambda rng: {"order": rng.randint(8, 14)},
        lambda r, path: ["conv", "moebius", "--order", str(r["order"])],
        check,
    )


def cli_semicircle(k):
    def check(r, out):
        law = _json(out) or {}
        want = [X.kequal_count(k, n) for n in range(1, r["order"] + 1)]
        return law.get("k") == k and _fracs(law.get("base", [])) == want

    return CliOp(
        f"ksym semicircle/k={k}",
        lambda rng: {"order": rng.randint(6, 10)},
        lambda r, path: ["ksym", "semicircle", "--k", str(k), "--order", str(r["order"])],
        check,
    )


def _stable_exponent(k, t):
    """Exponent of the S-transform monomial of the k-symmetric stable law
    of index 1/(1+t)."""
    beta = 1 / (1 + t)
    alpha = beta * k / (k - beta + beta * k)
    return Fraction(1 - k, k) + (1 - alpha) / alpha


def cli_stable_check(k):
    def check(r, out):
        res = _json(out) or {}
        prod = res.get("product", {})
        return (res.get("holds") is True
                and Fraction(prod.get("exponent", "nan")) == _stable_exponent(k, r["t"] + r["s"]))

    return CliOp(
        f"ksym stable-check/k={k}",
        lambda rng: {"t": positive_rational(rng, 1, 4, rng.randint(1, 3)),
                     "s": positive_rational(rng, 1, 4, rng.randint(1, 3))},
        lambda r, path: ["ksym", "stable-check", "--k", str(k),
                         "--t", _strs([r["t"]])[0], "--s", _strs([r["s"]])[0]],
        check,
    )


# phi of a word in free x, y with moments a (of x) and b (of y), in closed form.
_WORDS = {
    "x:1,y:1,x:1,y:1": lambda a, b: a[0] ** 2 * b[1] + a[1] * b[0] ** 2 - a[0] ** 2 * b[0] ** 2,
    "x:1,y:2,x:1": lambda a, b: a[1] * b[1],
}


def cli_word_moment(word):
    def gen(rng):
        return {"a": rationals(rng, 3), "b": rationals(rng, 3)}

    return CliOp(
        f"transform word-moment/{word}",
        gen,
        lambda r, path: ["transform", "word-moment", "--vars", path("vars.json"), "--word", word],
        lambda r, out: Fraction((_json(out) or {}).get("moment", "nan")) == _WORDS[word](r["a"], r["b"]),
        files=lambda r: {"vars.json": [{"label": "x", "moments": _strs(r["a"])},
                                       {"label": "y", "moments": _strs(r["b"])}]},
    )


def cli_m2c(n):
    return CliOp(
        f"transform m2c/N={n}",
        lambda rng: {"m": rationals(rng, n)},
        lambda r, path: ["transform", "m2c", "--in", path("m.json")],
        lambda r, out: X.solves_fe(X.with_unit(r["m"]), X.with_unit(
            _fracs((_json(out) or {}).get("cumulants", []))), 1, n),
        files=lambda r: {"m.json": _strs(r["m"])},
    )


def cli_s_transform(n):
    return CliOp(
        f"transform s-transform/N={n}",
        lambda rng: {"m": rationals(rng, n)},
        lambda r, path: ["transform", "s-transform", "--in", path("m.json")],
        lambda r, out: _fracs(_json(out) or []) == X.s_series(r["m"], n),
        files=lambda r: {"m.json": _strs(r["m"])},
    )


def cli_bessel(k, order):
    # compound Poisson with rate 1 and the k-Haar jump: kappa_n = [k | n].
    cums = [Fraction(1) if n % k == 0 else Fraction(0) for n in range(1, k * order + 1)]
    return CliOp(
        f"ksym bessel/k={k}/order={order}",
        lambda rng: {},
        lambda r, path: ["ksym", "bessel", "--k", str(k), "--order", str(order)],
        lambda r, out: X.solves_fe(X.with_unit(full_moments(k, _fracs(
            (_json(out) or {}).get("moments", [])))), X.with_unit(cums), 1, k * order),
    )


def cli_series_invert(n):
    ident = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 1)
    return CliOp(
        f"series invert/N={n}",
        lambda rng: {"p": [Fraction(0), rational(rng, nonzero=True)] + rationals(rng, n - 1, False)},
        lambda r, path: ["series", "invert", "--in", path("p.json")],
        lambda r, out: X.compose(r["p"], _fracs(_json(out) or []), n) == ident,
        files=lambda r: {"p.json": _strs(r["p"])},
    )


def kcycle_trace_mean(r_mats, n_cycles, k, word, trials, seed):
    """Empirical mean fixed-point density of `word` over uniform k-cycle
    permutations, drawn from the same documented sub-seeds the library
    promises: trial t uses random.Random(f"{seed}:{t}")."""
    size = n_cycles * k
    total = Fraction(0)
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        perms = []
        for _ in range(r_mats):
            pts = list(range(size))
            rng.shuffle(pts)
            fwd = [0] * size
            for c in range(n_cycles):
                chunk = pts[c * k:(c + 1) * k]
                for i, x in enumerate(chunk):
                    fwd[x] = chunk[(i + 1) % k]
            inv = [0] * size
            for i, j in enumerate(fwd):
                inv[j] = i
            perms.append((fwd, inv))
        cur = list(range(size))
        for idx, exp in word:
            step = perms[idx - 1][0 if exp > 0 else 1]
            for _ in range(abs(exp)):
                cur = [step[x] for x in cur]
        total += Fraction(sum(1 for i, x in enumerate(cur) if i == x), size)
    return total / trials


def cli_matmodel(n_cycles, trials):
    word = "1:1,2:1,1:-1,2:-1"
    letters = [(1, 1), (2, 1), (1, -1), (2, -1)]

    def check(r, out):
        rep = _json(out) or {}
        rows = rep.get("words") or [{}]
        mean = kcycle_trace_mean(2, n_cycles, 2, letters, trials, r["seed"])
        # free 2-Haar unitaries: every letter is centred, so phi(u v u* v*) = 0
        return (rows[0].get("prediction") == "0/1"
                and Fraction(rows[0].get("empirical_mean", "nan")) == mean)

    return CliOp(
        f"matmodel run/N={n_cycles}/trials={trials}",
        lambda rng: {"seed": rng.randint(0, 10 ** 6)},
        lambda r, path: ["matmodel", "run", "--r", "2", "--N", str(n_cycles), "--k", "2",
                         "--word", word, "--trials", str(trials), "--seed", str(r["seed"])],
        check,
    )


def cli_enumerate(n):
    def check(r, out):
        lines = out.splitlines()
        if not lines or lines[0] != "partition" or len(lines) - 1 != X.catalan(n):
            return False
        rows = lines[1:]
        return len(set(rows)) == len(rows) and all(
            (b := parse_blocks(row)) is not None and noncrossing(b, n) for row in rows)

    return CliOp(
        f"nc enumerate/n={n}",
        lambda rng: {},
        lambda r, path: ["nc", "enumerate", "--n", str(n), "--format", "csv"],
        check,
    )


def cli_boxtimes(n):
    def check(r, out):
        got = _fracs((_json(out) or {}).get("cumulants", []))
        return _fourier_ok(r["a"], r["b"], got, n)

    return CliOp(
        f"transform boxtimes/order={n}",
        lambda rng: {"a": rationals(rng, n), "b": rationals(rng, n)},
        lambda r, path: ["transform", "boxtimes", "--a", path("a.json"), "--b", path("b.json")],
        check,
        files=lambda r: {"a.json": _strs(r["a"]), "b.json": _strs(r["b"])},
    )


def cli_zeta_power(k, n):
    return CliOp(
        f"conv zeta-power/k={k}/order={n}",
        lambda rng: {"g": rationals(rng, n)},
        lambda r, path: ["conv", "zeta-power", "--in", path("g.json"), "--k", str(k)],
        lambda r, out: X.solves_fe(X.with_unit(_fracs((_json(out) or {}).get("values", []))),
                                   X.with_unit(r["g"]), k, n),
        files=lambda r: {"g.json": _strs(r["g"])},
    )


# ---------------------------------------------------------------------------
# the rounds

WORKLOADS = {
    "series-kernel": [
        m2c(16), m2c(20), m2c(24), m2c(30),
        c2m(16), c2m(20), c2m(24),
        s_transform(16), s_transform(20),
        s_transform(16, k=2), s_transform(20, k=2),
        s_transform(16, k=3), s_transform(20, k=3),
        comp_inverse(16), comp_inverse(20),
        solve_fe(1, 12), solve_fe(1, 16), solve_fe(2, 12), solve_fe(2, 16),
        solve_fe(3, 12), solve_fe(3, 16),
        boxplus_power(2, 8), boxplus_power(3, 6),
        compound_poisson(2, 8), compound_poisson(3, 6),
    ],
    # Ops are grouped by cost so that p50 lands inside the ~14 ms group and
    # p90 inside the order-11 group, not on the edge between two groups.
    "conv-warm": [
        kdiv_power_cumulants(3, 5, "enumeration"), kdiv_power_cumulants(3, 5, "two-stage"),
        kdiv_power_cumulants(3, 4, "zeta"), kdiv_power_cumulants(2, 10, "enumeration"),
        free_mult_convolve(9), product_moments(9), zeta_power_conv(3, 3),
        boxtimes_power_moments(3, 4), boxtimes_power_moments(2, 5),
        kdiv_power_cumulants(2, 10, "two-stage"), kdiv_power_cumulants(3, 5, "zeta"),
        zeta_power_conv(2, 5),
        free_mult_convolve(10), free_mult_convolve(10), product_moments(10), product_moments(10),
        boxtimes_power_moments(2, 6),
        free_mult_convolve(11), free_mult_convolve(11), free_mult_convolve(11),
        product_moments(11), product_moments(11), product_moments(11),
        kdiv_power_cumulants(2, 10, "zeta"), zeta_power_conv(1, 11),
    ],
    "cli-mix": [
        # light: interpreter start and imports dominate
        cli_count("nc", (1,)), cli_count("kdivisible", (2, 3)), cli_count("kequal", (2, 3)),
        cli_count("multichains", (2, 3)),
        cli_kreweras(), cli_kreweras(), cli_kreweras(),
        cli_moebius(),
        cli_semicircle(2), cli_semicircle(3),
        cli_stable_check(2), cli_stable_check(3),
        cli_word_moment("x:1,y:1,x:1,y:1"), cli_word_moment("x:1,y:2,x:1"),
        # medium
        cli_m2c(16), cli_m2c(20), cli_s_transform(16), cli_s_transform(20),
        cli_bessel(2, 8), cli_series_invert(20), cli_matmodel(1000, 30), cli_enumerate(8),
        # cold-cache conv: each process fills the pair-stat cache again
        cli_boxtimes(10), cli_boxtimes(9), cli_zeta_power(2, 5),
    ],
}
