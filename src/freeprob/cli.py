"""Command-line front end.

Every public operation is reachable through a two-level verb grammar
(`freeprob nc count ...`, `freeprob transform m2c ...`).  Numeric
output is exact rational strings by default; --decimal D adds a decimal
rendering.  Exit codes: 0 success, 1 usage error, 2 validation error,
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


def _emit(args, payload, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        header, rows = csv_rows
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
    else:
        print(json.dumps(payload, sort_keys=True))


def _seq_payload(args, seq: RationalSequence, name: str = "values"):
    payload: dict = {name: seq.to_json()}
    dec = getattr(args, "decimal", None)
    if dec is not None:
        payload[name + "_decimal"] = [_decimal_str(v, dec) for v in seq]
    header = ["n", name]
    rows = [(n, frac_to_str(seq[n])) for n in range(1, seq.order + 1)]
    return payload, (header, rows)


def _series_payload(args, s):
    # plain power series are bare coefficient arrays c_0..c_N; Puiseux
    # series carry their ramification and lowest exponent
    if isinstance(s, PuiseuxSeries):
        return {
            "ramification": s.ram,
            "lo": s.lo,
            "coeffs": [frac_to_str(c) for c in s.coeffs],
        }
    return [frac_to_str(c) for c in s.coeffs]


# ---------------------------------------------------------------------------
# verb handlers


def _nc(args) -> None:
    if args.verb == "count":
        if args.kind == "nc":
            value = ncpart.catalan(args.n)
        elif args.kind == "kdivisible":
            value = ncpart.fuss_catalan_kdivisible(args.k, args.n)
        elif args.kind == "kequal":
            value = ncpart.count_kequal(args.k, args.n)
        elif args.kind == "multichains":
            value = ncpart.count_multichains(args.k, args.n)
        else:
            raise ValidationError(f"unknown kind {args.kind!r}")
        print(value)
    elif args.verb == "enumerate":
        if args.kind == "nc":
            parts = ncpart.enumerate_nc(args.n, args.max_n)
        elif args.kind == "kdivisible":
            parts = ncpart.enumerate_kdivisible(args.k, args.n, args.max_n)
        elif args.kind == "kequal":
            parts = ncpart.enumerate_kequal(args.k, args.n, args.max_n)
        else:
            raise ValidationError(f"unknown kind {args.kind!r}")
        texts = [ncpart.format_partition(p) for p in parts]
        _emit(args, {"count": len(texts), "partitions": texts},
              (["partition"], [(t,) for t in texts]))
    elif args.verb == "kreweras":
        p = ncpart.parse_partition(args.partition)
        print(ncpart.format_partition(ncpart.kreweras(p)))


def _conv(args) -> None:
    if args.verb == "zeta-power":
        seq = _load_sequence(args.infile)
        out = incidence.zeta_power_conv(seq, args.k, _order(args, seq.order))
        payload, rows = _seq_payload(args, out)
        _emit(args, payload, rows)
    elif args.verb == "moebius":
        out = incidence.moebius_family(args.order)
        payload, rows = _seq_payload(args, out)
        _emit(args, payload, rows)


def _series_cmd(args) -> None:
    p = PowerSeries(_load_sequence(args.infile).values)
    if args.verb == "invert":
        if args.frac and args.frac > 1:
            out = series.frac_inverse(p, args.frac)
        else:
            out = series.comp_inverse(p)
        _emit(args, _series_payload(args, out))
    elif args.verb == "solve-fe":
        out = series.solve_A_given_B(p, args.k, _order(args, p.order))
        _emit(args, _series_payload(args, out))


def _transform(args) -> None:
    if args.verb == "m2c":
        seq = _load_sequence(args.infile)
        out = transforms.moments_to_cumulants(seq, _order(args, seq.order))
        payload, rows = _seq_payload(args, out, "cumulants")
    elif args.verb == "c2m":
        seq = _load_sequence(args.infile)
        out = transforms.cumulants_to_moments(seq, _order(args, seq.order))
        payload, rows = _seq_payload(args, out, "moments")
    elif args.verb == "boxtimes":
        a = _load_sequence(args.a)
        b = _load_sequence(args.b)
        out = transforms.free_mult_convolve(a, b, _order(args, min(a.order, b.order)))
        payload, rows = _seq_payload(args, out, "cumulants")
    elif args.verb == "boxplus-power":
        seq = _load_sequence(args.infile)
        out = transforms.free_add_power(seq, args.t)
        payload, rows = _seq_payload(args, out, "cumulants")
    elif args.verb == "s-transform":
        seq = _load_sequence(args.infile)
        out = transforms.s_transform(seq, _order(args, seq.order))
        _emit(args, _series_payload(args, out))
        return
    elif args.verb == "word-moment":
        variables = _load_variables(args.vars)
        word = []
        for chunk in args.word.split(","):
            try:
                lab, exp = chunk.rsplit(":", 1)
                word.append((lab, int(exp)))
            except ValueError:
                raise ValidationError(f"malformed word letter {chunk!r}") from None
        val = transforms.free_word_moment(variables, word)
        print(json.dumps({"moment": frac_to_str(val)}, sort_keys=True))
        return
    else:
        raise ValidationError(f"unknown transform verb {args.verb!r}")
    _emit(args, payload, rows)


def _ksym(args) -> None:
    if args.verb == "semicircle":
        d = ksym.semicircle_sk(args.k, args.order)
        _emit(args, d.to_json())
    elif args.verb == "bessel":
        out = ksym.compound_poisson(
            args.k, 1, ksym.haar_unitary_law(args.k, args.order), args.order
        )
        seq = out.base
        payload, rows = _seq_payload(args, seq, "moments")
        _emit(args, payload, rows)
    elif args.verb == "compound-poisson":
        jump = KSymmetricDistribution.from_json(_read_json(args.jump))
        d = ksym.compound_poisson(args.k, args.rate, jump, args.order)
        _emit(args, d.to_json())
    elif args.verb == "clt":
        d = KSymmetricDistribution.from_json(_read_json(args.infile))
        out = ksym.clt_scaled_cumulants(d, args.n_samples, args.order)
        payload, rows = _seq_payload(args, out, "cumulants")
        _emit(args, payload, rows)
    elif args.verb == "poisson-limit":
        jump = KSymmetricDistribution.from_json(_read_json(args.jump))
        out = ksym.poisson_limit_gap(args.k, args.rate, jump,
                                     args.n_samples, args.order)
        payload, rows = _seq_payload(args, out, "gaps")
        _emit(args, payload, rows)
    elif args.verb == "stable-check":
        ok = ksym.stable_reproducing_check(args.k, args.t, args.s)
        lhs = ksym.stable_monomial_mul(
            ksym.ksym_stable_monomial(args.k, args.t),
            ksym.positive_stable_monomial(1 / (1 + args.s)),
        )
        print(json.dumps({"holds": ok, "product": lhs.to_json()}, sort_keys=True))


def _matmodel(args) -> None:
    words = [matmodel.parse_word(w) for w in args.word]
    report = matmodel.freeness_experiment(
        args.r, args.N, args.k, words, args.trials, args.seed
    )
    print(json.dumps(report, sort_keys=True))


def build_parser() -> _Parser:
    top = _Parser(prog="freeprob", description=__doc__)
    sub = top.add_subparsers(dest="group", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--decimal", type=int, default=None,
                       help="also render values with this many decimals")

    nc = sub.add_parser("nc").add_subparsers(dest="verb", required=True)
    p = nc.add_parser("count")
    p.add_argument("--kind", default="nc",
                   choices=["nc", "kdivisible", "kequal", "multichains"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p = nc.add_parser("enumerate")
    p.add_argument("--kind", default="nc", choices=["nc", "kdivisible", "kequal"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    add_common(p)
    p = nc.add_parser("kreweras")
    p.add_argument("--partition", required=True, help="text form, e.g. {1,2}{3,4}")

    conv = sub.add_parser("conv").add_subparsers(dest="verb", required=True)
    p = conv.add_parser("zeta-power")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    add_common(p)
    p = conv.add_parser("moebius")
    p.add_argument("--order", type=int, required=True)
    add_common(p)

    ser = sub.add_parser("series").add_subparsers(dest="verb", required=True)
    p = ser.add_parser("invert")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--frac", type=int, default=None,
                   help="fractional-power inverse with this ramification")
    add_common(p)
    p = ser.add_parser("solve-fe")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=None)
    add_common(p)

    tra = sub.add_parser("transform").add_subparsers(dest="verb", required=True)
    for verb in ("m2c", "c2m"):
        p = tra.add_parser(verb)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--order", type=int, default=None)
        add_common(p)
    p = tra.add_parser("boxtimes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--order", type=int, default=None)
    add_common(p)
    p = tra.add_parser("boxplus-power")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", required=True)
    add_common(p)
    p = tra.add_parser("s-transform")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--order", type=int, default=None)
    add_common(p)
    p = tra.add_parser("word-moment")
    p.add_argument("--vars", required=True, help="JSON file of variables")
    p.add_argument("--word", required=True, help="label:exp,label:exp,...")

    ks = sub.add_parser("ksym").add_subparsers(dest="verb", required=True)
    p = ks.add_parser("semicircle")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    add_common(p)
    p = ks.add_parser("bessel")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    add_common(p)
    p = ks.add_parser("compound-poisson")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rate", dest="rate", required=True)
    p.add_argument("--jump", required=True, help="JSON file of the jump law")
    p.add_argument("--order", type=int, required=True)
    add_common(p)
    p = ks.add_parser("clt")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n-samples", dest="n_samples", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    add_common(p)
    p = ks.add_parser("poisson-limit")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rate", required=True)
    p.add_argument("--jump", required=True)
    p.add_argument("--n-samples", dest="n_samples", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    add_common(p)
    p = ks.add_parser("stable-check")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--s", required=True)

    mm = sub.add_parser("matmodel").add_subparsers(dest="verb", required=True)
    p = mm.add_parser("run")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--word", action="append", required=True,
                   help="index:exp,index:exp,... (repeatable)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", choices=["json"], default="json")

    return top


_HANDLERS = {
    "nc": _nc,
    "conv": _conv,
    "series": _series_cmd,
    "transform": _transform,
    "ksym": _ksym,
    "matmodel": _matmodel,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
        _HANDLERS[args.group](args)
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
