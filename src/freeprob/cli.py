"""Command-line front end.

A two-level verb grammar (`freeprob nc count ...`, `freeprob transform
m2c ...`) over the partition counts, convolutions, series, transforms,
k-symmetric laws and the matrix model.  Numeric output is exact rational
strings.  The nine verbs that print one sequence (conv zeta-power and
moebius; transform m2c, c2m, boxtimes and boxplus-power; ksym bessel, clt
and poisson-limit) take --decimal D, which adds a decimal rendering, and
--format csv; `nc enumerate` takes --format csv.  No other verb takes
either flag.  Exit codes: 0 success, 1 usage error, 2 validation error,
3 resource limit.  Identical argv (and seed) produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import incidence, ksym, matmodel, ncpart, series, transforms
from .errors import ResourceLimitError, ValidationError
from .ksym import KSymmetricDistribution
from .sequences import RationalSequence, _decimal_str, frac_to_str
from .series import PowerSeries, PuiseuxSeries


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read JSON from {path!r}: {exc}") from exc


def _load_sequence(path: str) -> RationalSequence:
    return RationalSequence.from_json(_read_json(path))


def _load_law(path: str) -> KSymmetricDistribution:
    return KSymmetricDistribution.from_json(_read_json(path))


def _load_variables(path: str) -> list:
    """The --vars file: an array of {"label", "moments", "period"} objects."""
    entries = _read_json(path)
    if not isinstance(entries, list) or not all(
            isinstance(v, dict) and isinstance(v.get("label"), str) and "moments" in v
            and type(v.get("period")) in (int, type(None)) for v in entries):
        raise ValidationError(
            '--vars must be a JSON array of {"label": str, "moments": [...], '
            '"period": int|null} objects')
    return [
        transforms.FreeVariable(
            v["label"], RationalSequence.from_json(v["moments"]), v.get("period"))
        for v in entries
    ]


# lowest accepted value of each integer option; argparse checks only the type
_MINIMUM = {"order": 1, "n": 0, "n_samples": 1, "decimal": 0, "frac": 1}
_RATIONAL = ("t", "s", "rate")


def _check_args(args) -> None:
    """Check integer ranges and parse rational options, as validation errors (exit 2)."""
    for name, low in _MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            flag = "--" + name.replace("_", "-")
            raise ValidationError(f"{flag} must be >= {low}, got {value}")
    for name in _RATIONAL:
        text = getattr(args, name, None)
        if text is not None:
            try:
                setattr(args, name, Fraction(text))
            except (ValueError, ZeroDivisionError):
                raise ValidationError(f"--{name} must be a rational p/q, got {text!r}") from None


def _order(args, full: int) -> int:
    """--order when given, else the full order of the input."""
    return full if args.order is None else args.order


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _print_sequence(args, name: str, seq: RationalSequence) -> None:
    """JSON {name: [...]}, plus name_decimal under --decimal, or CSV rows n,name."""
    if args.format == "csv":
        print(f"n,{name}")
        for n in range(1, seq.order + 1):
            print(f"{n},{frac_to_str(seq[n])}")
        return
    payload = {name: seq.to_json()}
    if args.decimal is not None:
        payload[name + "_decimal"] = [_decimal_str(v, args.decimal) for v in seq]
    _print_json(payload)


def _print_series(s) -> None:
    # plain power series are bare coefficient arrays c_0..c_N; Puiseux
    # series carry their ramification and lowest exponent
    coeffs = [frac_to_str(c) for c in s.coeffs]
    if isinstance(s, PuiseuxSeries):
        _print_json({"ramification": s.ram, "lo": s.lo, "coeffs": coeffs})
    else:
        _print_json(coeffs)


# ---------------------------------------------------------------------------
# verbs: each is declared once, by @_verb on its handler, with every option
# it takes; build_parser() adds the groups and verbs in declaration order


_VERBS = []


def _verb(group: str, name: str, *options):
    def declare(handler):
        _VERBS.append((group, name, options, handler))
        return handler
    return declare


_IN = ("--in", dict(dest="infile", required=True))
_K = ("--k", dict(type=int, required=True))
_K_OR_1 = ("--k", dict(type=int, default=1))
_N = ("--n", dict(type=int, required=True))
_ORDER = ("--order", dict(type=int, required=True))
_UP_TO = ("--order", dict(type=int))  # default: the input's full order
_RATE = ("--rate", dict(required=True))
_JUMP = ("--jump", dict(required=True, help="JSON file of the jump law"))
_SAMPLES = ("--n-samples", dict(type=int, required=True))
_FORMAT = ("--format", dict(choices=["json", "csv"], default="json"))
_SEQUENCE_OUTPUT = (_FORMAT, ("--decimal", dict(
    type=int, help="also render values with this many decimals")))

# --kind of `nc count` (k, n) and `nc enumerate` (k, n, max_n); the ncpart
# names are looked up at call time, so a wrapped module function is the one run
_COUNTS = {
    "nc": lambda k, n: ncpart.catalan(n),
    "kdivisible": lambda k, n: ncpart.fuss_catalan_kdivisible(k, n),
    "kequal": lambda k, n: ncpart.count_kequal(k, n),
    "multichains": lambda k, n: ncpart.count_multichains(k, n),
}
_ENUMERATIONS = {
    "nc": lambda k, n, max_n: ncpart.enumerate_nc(n, max_n),
    "kdivisible": lambda k, n, max_n: ncpart.enumerate_kdivisible(k, n, max_n),
    "kequal": lambda k, n, max_n: ncpart.enumerate_kequal(k, n, max_n),
}


@_verb("nc", "count", ("--kind", dict(default="nc", choices=_COUNTS)), _N, _K_OR_1)
def _nc_count(args) -> None:
    print(_COUNTS[args.kind](args.k, args.n))


@_verb("nc", "enumerate", ("--kind", dict(default="nc", choices=_ENUMERATIONS)), _N, _K_OR_1,
       ("--max-n", dict(type=int)), _FORMAT)
def _nc_enumerate(args) -> None:
    texts = [ncpart.format_partition(p)
             for p in _ENUMERATIONS[args.kind](args.k, args.n, args.max_n)]
    if args.format == "csv":
        print("\n".join(["partition"] + texts))
    else:
        _print_json({"count": len(texts), "partitions": texts})


@_verb("nc", "kreweras", ("--partition", dict(required=True, help="text form, e.g. {1,2}{3,4}")))
def _nc_kreweras(args) -> None:
    print(ncpart.format_partition(ncpart.kreweras(ncpart.parse_partition(args.partition))))


@_verb("conv", "zeta-power", _IN, _K, _UP_TO, *_SEQUENCE_OUTPUT)
def _zeta_power(args) -> None:
    seq = _load_sequence(args.infile)
    _print_sequence(args, "values",
                    incidence.zeta_power_conv(seq, args.k, _order(args, seq.order)))


@_verb("conv", "moebius", _ORDER, *_SEQUENCE_OUTPUT)
def _moebius(args) -> None:
    _print_sequence(args, "values", incidence.moebius_family(args.order))


@_verb("series", "invert", _IN, ("--frac", dict(
    type=int, help="fractional-power inverse with this ramification")))
def _invert(args) -> None:
    p = PowerSeries(_load_sequence(args.infile).values)
    if args.frac and args.frac > 1:
        _print_series(series.frac_inverse(p, args.frac))
    else:
        _print_series(series.comp_inverse(p))


@_verb("series", "solve-fe", _IN, _K, _UP_TO)
def _solve_fe(args) -> None:
    p = PowerSeries(_load_sequence(args.infile).values)
    _print_series(series.solve_A_given_B(p, args.k, _order(args, p.order)))


@_verb("transform", "m2c", _IN, _UP_TO, *_SEQUENCE_OUTPUT)
def _m2c(args) -> None:
    seq = _load_sequence(args.infile)
    _print_sequence(args, "cumulants",
                    transforms.moments_to_cumulants(seq, _order(args, seq.order)))


@_verb("transform", "c2m", _IN, _UP_TO, *_SEQUENCE_OUTPUT)
def _c2m(args) -> None:
    seq = _load_sequence(args.infile)
    _print_sequence(args, "moments",
                    transforms.cumulants_to_moments(seq, _order(args, seq.order)))


@_verb("transform", "boxtimes", ("--a", dict(required=True)), ("--b", dict(required=True)),
       _UP_TO, *_SEQUENCE_OUTPUT)
def _boxtimes(args) -> None:
    a, b = _load_sequence(args.a), _load_sequence(args.b)
    _print_sequence(args, "cumulants",
                    transforms.free_mult_convolve(a, b, _order(args, min(a.order, b.order))))


@_verb("transform", "boxplus-power", _IN, ("--t", dict(required=True)), *_SEQUENCE_OUTPUT)
def _boxplus_power(args) -> None:
    _print_sequence(args, "cumulants",
                    transforms.free_add_power(_load_sequence(args.infile), args.t))


@_verb("transform", "s-transform", _IN, _UP_TO)
def _s_transform(args) -> None:
    seq = _load_sequence(args.infile)
    _print_series(transforms.s_transform(seq, _order(args, seq.order)))


@_verb("transform", "word-moment", ("--vars", dict(required=True, help="JSON file of variables")),
       ("--word", dict(required=True, help="label:exp,label:exp,...")))
def _word_moment(args) -> None:
    variables = _load_variables(args.vars)
    word = matmodel.parse_word(args.word, label=str)
    _print_json({"moment": frac_to_str(transforms.free_word_moment(variables, word))})


@_verb("ksym", "semicircle", _K, _ORDER)
def _semicircle(args) -> None:
    _print_json(ksym.semicircle_sk(args.k, args.order).to_json())


@_verb("ksym", "bessel", _K, _ORDER, *_SEQUENCE_OUTPUT)
def _bessel(args) -> None:
    haar = ksym.haar_unitary_law(args.k, args.order)
    _print_sequence(args, "moments", ksym.compound_poisson(args.k, 1, haar, args.order).base)


@_verb("ksym", "compound-poisson", _K, _RATE, _JUMP, _ORDER)
def _compound_poisson(args) -> None:
    jump = _load_law(args.jump)
    _print_json(ksym.compound_poisson(args.k, args.rate, jump, args.order).to_json())


@_verb("ksym", "clt", _IN, _SAMPLES, _ORDER, *_SEQUENCE_OUTPUT)
def _clt(args) -> None:
    law = _load_law(args.infile)
    _print_sequence(args, "cumulants", ksym.clt_scaled_cumulants(law, args.n_samples, args.order))


@_verb("ksym", "poisson-limit", _K, _RATE, _JUMP, _SAMPLES, _ORDER, *_SEQUENCE_OUTPUT)
def _poisson_limit(args) -> None:
    jump = _load_law(args.jump)
    _print_sequence(args, "gaps", ksym.poisson_limit_gap(args.k, args.rate, jump,
                                                         args.n_samples, args.order))


@_verb("ksym", "stable-check", _K, ("--t", dict(required=True)), ("--s", dict(required=True)))
def _stable_check(args) -> None:
    # the check rejects t <= 0 and s <= 0, so it must run before 1/(1 + s)
    ok = ksym.stable_reproducing_check(args.k, args.t, args.s)
    lhs = ksym.stable_monomial_mul(
        ksym.ksym_stable_monomial(args.k, args.t),
        ksym.positive_stable_monomial(1 / (1 + args.s)),
    )
    _print_json({"holds": ok, "product": lhs.to_json()})


@_verb("matmodel", "run", ("--r", dict(type=int, required=True)),
       ("--N", dict(type=int, required=True)), _K,
       ("--word", dict(action="append", required=True,
                       help="index:exp,index:exp,... (repeatable)")),
       ("--trials", dict(type=int, required=True)), ("--seed", dict(type=int, required=True)),
       ("--output", dict(choices=["json"], default="json")))
def _matmodel_run(args) -> None:
    words = [matmodel.normalize_word(matmodel.parse_word(w)) for w in args.word]
    _print_json(matmodel.freeness_experiment(args.r, args.N, args.k, words, args.trials,
                                             args.seed))


def build_parser() -> _Parser:
    top = _Parser(prog="freeprob", description=__doc__)
    groups = top.add_subparsers(dest="group", required=True)
    verbs = {}
    for group, name, options, handler in _VERBS:
        if group not in verbs:
            verbs[group] = groups.add_parser(group).add_subparsers(dest="verb", required=True)
        p = verbs[group].add_parser(name)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return top


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        args.handler(args)
        return 0
    except UsageError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "usage"}) + "\n")
        return 1
    except ResourceLimitError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "resource-limit"}) + "\n")
        return 3
    except ValidationError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "validation"}) + "\n")
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
