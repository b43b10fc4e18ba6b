import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freeprob import cli, ncpart
from freeprob.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nc_count_kinds(capsys):
    code, out, _ = run_cli(capsys, "nc", "count", "--kind", "kdivisible",
                           "--k", "2", "--n", "3")
    assert code == 0 and out.strip() == "12"
    code, out, _ = run_cli(capsys, "nc", "count", "--n", "4")
    assert out.strip() == "14"
    code, out, _ = run_cli(capsys, "nc", "count", "--kind", "kequal",
                           "--k", "2", "--n", "3")
    assert out.strip() == "5"
    code, out, _ = run_cli(capsys, "nc", "count", "--kind", "multichains",
                           "--k", "2", "--n", "2")
    assert out.strip() == "3"


def test_nc_enumerate_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "nc", "enumerate", "--n", "3")
    data = json.loads(out)
    assert data["count"] == 5
    assert "{1,2,3}" in data["partitions"]
    code, out, _ = run_cli(capsys, "nc", "enumerate", "--n", "3",
                           "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "partition" and len(lines) == 6


def test_nc_kreweras(capsys):
    code, out, _ = run_cli(capsys, "nc", "kreweras", "--partition", "{1,2}{3,4}")
    assert code == 0 and out.strip() == "{1}{2,4}{3}"


def test_conv_verbs(tmp_path, capsys):
    seq = tmp_path / "delta.json"
    seq.write_text(json.dumps(["1/1", "0/1", "0/1"]))
    code, out, _ = run_cli(capsys, "conv", "zeta-power", "--in", str(seq),
                           "--k", "2")
    assert code == 0
    vals = json.loads(out)["values"]
    assert vals == ["1/1", "2/1", "5/1"]
    code, out, _ = run_cli(capsys, "conv", "moebius", "--order", "4")
    assert json.loads(out)["values"] == ["1/1", "-1/1", "2/1", "-5/1"]


def test_zeta_power_runs_on_the_series_route(tmp_path, capsys):
    # Catalan * zeta^2 = delta * zeta^4: the Fuss-Catalan numbers
    # binom(4n, n)/(3n + 1).  Walking NC(kn) here took over a minute.
    seq = tmp_path / "catalan.json"
    seq.write_text(json.dumps([str(c) for c in (1, 2, 5, 14, 42, 132, 429, 1430)]))
    code, out, _ = run_cli(capsys, "conv", "zeta-power", "--in", str(seq), "--k", "2",
                           "--order", "8")
    assert code == 0
    assert json.loads(out)["values"] == [
        f"{v}/1" for v in (1, 4, 22, 140, 969, 7084, 53820, 420732)]
    code, out, _ = run_cli(capsys, "conv", "zeta-power", "--in", str(seq), "--k", "3",
                           "--order", "5")
    assert code == 0 and json.loads(out)["values"][-1] == "2530/1"


def test_negative_powers_peel_zeta_factors_off(tmp_path, capsys):
    # Catalan moments times zeta^-1 are the all-ones cumulants; the series
    # 1 + Catalan(z) solves A = B(z A^-1) for B = 1/(1-z) and A = B(z A^-2)
    # for B = 1 + z
    seq = tmp_path / "catalan.json"
    seq.write_text(json.dumps([str(c) for c in (1, 2, 5, 14, 42)]))
    code, out, _ = run_cli(capsys, "conv", "zeta-power", "--in", str(seq), "--k", "-1")
    assert code == 0 and json.loads(out)["values"] == ["1/1"] * 5
    code, out, _ = run_cli(capsys, "conv", "zeta-power", "--in", str(seq), "--k", "-2")
    assert code == 0 and json.loads(out)["values"] == ["1/1"] + ["0/1"] * 4
    ser = tmp_path / "catalan_series.json"
    ser.write_text(json.dumps([str(c) for c in (1, 1, 2, 5, 14)]))
    code, out, _ = run_cli(capsys, "series", "solve-fe", "--in", str(ser), "--k", "-1")
    assert code == 0 and json.loads(out) == ["1/1"] * 5
    code, out, _ = run_cli(capsys, "series", "solve-fe", "--in", str(ser), "--k", "-2")
    assert code == 0 and json.loads(out) == ["1/1", "1/1"] + ["0/1"] * 3


def test_series_verbs(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(json.dumps(["0/1", "1/1", "1/1", "0/1", "0/1"]))
    code, out, _ = run_cli(capsys, "series", "invert", "--in", str(f))
    data = json.loads(out)
    assert data[:4] == ["0/1", "1/1", "-1/1", "2/1"]
    b = tmp_path / "b.json"
    b.write_text(json.dumps(["1/1", "1/1", "0/1", "0/1", "0/1"]))
    code, out, _ = run_cli(capsys, "series", "solve-fe", "--in", str(b),
                           "--k", "2")
    assert json.loads(out) == ["1/1", "1/1", "2/1", "5/1", "14/1"]
    g = tmp_path / "frac.json"
    g.write_text(json.dumps(["0/1", "0/1", "1/1", "1/1", "0/1"]))
    code, out, _ = run_cli(capsys, "series", "invert", "--in", str(g),
                           "--frac", "2")
    data = json.loads(out)
    assert data["ramification"] == 2 and data["lo"] == 1
    assert data["coeffs"][:2] == ["1/1", "-1/2"]


def test_transform_verbs(tmp_path, capsys):
    cat = tmp_path / "catalan.json"
    cat.write_text(json.dumps(["1/1", "2/1", "5/1", "14/1"]))
    code, out, _ = run_cli(capsys, "transform", "m2c", "--in", str(cat))
    assert json.loads(out)["cumulants"] == ["1/1"] * 4
    ones = tmp_path / "ones.json"
    ones.write_text(json.dumps(["1/1"] * 4))
    code, out, _ = run_cli(capsys, "transform", "c2m", "--in", str(ones))
    assert json.loads(out)["moments"] == ["1/1", "2/1", "5/1", "14/1"]
    code, out, _ = run_cli(capsys, "transform", "boxtimes", "--a", str(ones),
                           "--b", str(ones))
    assert json.loads(out)["cumulants"] == ["1/1", "2/1", "5/1", "14/1"]
    code, out, _ = run_cli(capsys, "transform", "boxplus-power", "--in",
                           str(ones), "--t", "3/2")
    assert json.loads(out)["cumulants"] == ["3/2"] * 4
    code, out, _ = run_cli(capsys, "transform", "s-transform", "--in", str(cat))
    assert json.loads(out)[:2] == ["1/1", "-1/1"]
    semi = tmp_path / "semi.json"
    semi.write_text(json.dumps(["0/1", "1/1", "0/1", "2/1", "0/1", "5/1"]))
    code, out, _ = run_cli(capsys, "transform", "s-transform", "--in", str(semi))
    data = json.loads(out)
    assert data["ramification"] == 2 and data["lo"] == -1


def test_transform_word_moment(tmp_path, capsys):
    vars_file = tmp_path / "vars.json"
    vars_file.write_text(json.dumps([
        {"label": "u", "moments": ["0/1", "1/1"], "period": 2},
        {"label": "v", "moments": ["0/1", "1/1"], "period": 2},
    ]))
    code, out, _ = run_cli(capsys, "transform", "word-moment", "--vars",
                           str(vars_file), "--word", "u:1,v:1,u:-1,v:-1")
    assert code == 0 and json.loads(out)["moment"] == "0/1"
    code, out, _ = run_cli(capsys, "transform", "word-moment", "--vars",
                           str(vars_file), "--word", "u:2,v:2")
    assert json.loads(out)["moment"] == "1/1"


def test_ksym_verbs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "ksym", "bessel", "--k", "2", "--order", "4")
    assert json.loads(out)["moments"] == ["1/1", "3/1", "12/1", "55/1"]
    code, out, _ = run_cli(capsys, "ksym", "semicircle", "--k", "3",
                           "--order", "4")
    data = json.loads(out)
    assert data["k"] == 3 and data["base"] == ["1/1", "3/1", "12/1", "55/1"]
    jump = tmp_path / "jump.json"
    jump.write_text(json.dumps({"k": 2, "base": ["1/1", "1/1", "1/1"],
                                "valid": True}))
    code, out, _ = run_cli(capsys, "ksym", "compound-poisson", "--k", "2",
                           "--rate", "1", "--jump", str(jump), "--order", "3")
    assert json.loads(out)["base"] == ["1/1", "3/1", "12/1"]
    sk = tmp_path / "sk.json"
    sk.write_text(json.dumps({"k": 2, "base": ["1/1", "2/1", "5/1", "14/1"],
                              "valid": True}))
    code, out, _ = run_cli(capsys, "ksym", "clt", "--in", str(sk),
                           "--n-samples", "4", "--order", "4")
    assert json.loads(out)["cumulants"] == ["0/1", "1/1", "0/1", "0/1"]
    code, out, _ = run_cli(capsys, "ksym", "poisson-limit", "--k", "2",
                           "--rate", "1", "--jump", str(jump),
                           "--n-samples", "64", "--order", "4")
    gaps = json.loads(out)["gaps"]
    assert gaps[0] == "0/1" and gaps[1] == "0/1"
    code, out, _ = run_cli(capsys, "ksym", "stable-check", "--k", "2",
                           "--t", "1", "--s", "1/2")
    assert json.loads(out)["holds"] is True


def test_matmodel_run(capsys):
    code, out, _ = run_cli(
        capsys, "matmodel", "run", "--r", "2", "--N", "40", "--k", "3",
        "--word", "1:1,2:1,1:-1,2:-1", "--trials", "4", "--seed", "42",
    )
    assert code == 0
    report = json.loads(out)
    assert report["words"][0]["prediction"] == "0/1"
    # --output had one choice, json, and changed nothing; it is gone
    code, out, err = run_cli(capsys, "matmodel", "run", "--r", "2", "--N", "4", "--k", "2",
                             "--word", "1:1", "--trials", "1", "--seed", "0", "--output", "json")
    assert (code, out) == (1, "") and json.loads(err)["kind"] == "usage"


def test_byte_identical_reruns(capsys):
    argv = ["matmodel", "run", "--r", "2", "--N", "25", "--k", "2",
            "--word", "1:1,2:1", "--trials", "3", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_decimal_rendering(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(json.dumps(["1/2", "1/3"]))
    code, out, _ = run_cli(capsys, "transform", "m2c", "--in", str(f),
                           "--decimal", "4")
    data = json.loads(out)
    assert data["cumulants_decimal"][0] == "0.5000"


def test_decimal_rendering_is_exact(tmp_path, capsys):
    # float(v) overflowed past 1e308 and dropped digits past 2^53
    code, out, err = run_cli(capsys, "conv", "moebius", "--order", "600", "--decimal", "2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["values_decimal"][:4] == ["1.00", "-1.00", "2.00", "-5.00"]
    assert data["values_decimal"][-1] == data["values"][-1][:-2] + ".00"
    f = tmp_path / "big.json"
    f.write_text(json.dumps(["300000000000000001/3"]))
    code, out, _ = run_cli(capsys, "transform", "boxplus-power", "--in", str(f),
                           "--t", "1", "--decimal", "2")
    assert code == 0 and json.loads(out)["cumulants_decimal"] == ["100000000000000000.33"]


@pytest.mark.parametrize("value,places,text", [
    ("1/8", 2, "0.12"), ("3/8", 2, "0.38"), ("-1/3", 0, "-0"), ("-1/1000", 2, "-0.00"),
    ("2/3", 0, "1"), ("5/1", 3, "5.000"), ("1/16", 4, "0.0625"), ("-7/2", 1, "-3.5"),
    ("6411/200", 2, "32.06"),
])
def test_decimal_rounds_half_to_even_like_float_formatting(tmp_path, capsys, value, places,
                                                            text):
    # same layout as "%.{places}f"; ties round half to even on the exact value
    f = tmp_path / "v.json"
    f.write_text(json.dumps([value]))
    code, out, _ = run_cli(capsys, "transform", "boxplus-power", "--in", str(f),
                           "--t", "1", "--decimal", str(places))
    assert code == 0 and json.loads(out)["cumulants_decimal"] == [text]


def test_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "nc", "enumerate", "--n", "25")
    assert code == 3 and json.loads(err)["kind"] == "resource-limit"
    code, _, err = run_cli(capsys, "transform", "m2c", "--in",
                           str(tmp_path / "missing.json"))
    assert code == 2 and json.loads(err)["kind"] == "validation"
    code, _, err = run_cli(capsys, "nc", "count")
    assert code == 1 and json.loads(err)["kind"] == "usage"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(["1/1", "0/1"]))
    code, _, err = run_cli(capsys, "series", "invert", "--in", str(bad))
    assert code == 2


@pytest.mark.parametrize("kind", ["nc", "kdivisible", "kequal"])
@pytest.mark.parametrize("cap", ["0", "-1", "-3"])
@pytest.mark.parametrize("via_env", [False, True])
def test_cap_below_one_is_a_validation_error(capsys, monkeypatch, kind, cap, via_env):
    argv = ["nc", "enumerate", "--kind", kind, "--k", "2", "--n", "2"]
    if via_env:
        monkeypatch.setenv("FREEPROB_MAX_N", cap)
    else:
        argv += ["--max-n", cap]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    diag = json.loads(err)
    assert diag["kind"] == "validation" and "must be >= 1" in diag["error"]


@pytest.mark.parametrize("kind", ["nc", "kdivisible", "kequal"])
def test_count_past_the_int_printing_limit_is_a_resource_limit(capsys, kind):
    # each count here has more than 4300 digits
    code, out, err = run_cli(capsys, "nc", "enumerate", "--kind", kind, "--k", "2",
                             "--n", "8000")
    assert code == 3 and out == "" and json.loads(err)["kind"] == "resource-limit"


@pytest.mark.parametrize("kind,k,n", [("kequal", "1", "1000"), ("kdivisible", "1000", "1"),
                                     ("kequal", "1000", "1")])
def test_enumeration_of_a_thousand_points_prints_its_one_partition(capsys, kind, k, n):
    # a thousand points: a walker that recursed per point would pass Python's
    # default recursion limit here
    code, out, err = run_cli(capsys, "nc", "enumerate", "--kind", kind, "--k", k, "--n", n)
    assert code == 0 and err == ""
    one = ncpart.zero_partition(1000) if k == "1" else ncpart.one_partition(1000)
    assert json.loads(out) == {"count": 1, "partitions": [ncpart.format_partition(one)]}


def test_integers_past_4300_digits_print_in_full(capsys):
    # Python refuses int <-> str past 4300 digits unless the limit is lifted;
    # the CLI lifts it, so the expected string below can be built after it
    code, out, err = run_cli(capsys, "nc", "count", "--n", "8000")
    assert code == 0 and err == ""
    assert out == f"{ncpart.catalan(8000)}\n"


def test_input_integers_past_4300_digits_are_read_in_full(tmp_path, capsys):
    f = tmp_path / "big.json"
    f.write_text("[" + "7" * 5000 + "]")
    code, out, err = run_cli(capsys, "transform", "c2m", "--in", str(f))
    assert code == 0 and err == ""
    assert json.loads(out) == {"moments": ["7" * 5000 + "/1"]}


def test_kreweras_of_a_far_point_is_refused_at_once(capsys):
    # two points: the ground set 1..10**12 is never listed
    code, out, err = run_cli(capsys, "nc", "kreweras", "--partition", "{1,1000000000000}")
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "validation"


def test_enumeration_past_the_cap_is_refused_from_n(capsys):
    # Catalan(10**6) has about 600000 digits; the budget never computes it
    code, out, err = run_cli(capsys, "nc", "enumerate", "--n", "1000000")
    assert code == 3 and out == ""
    assert json.loads(err) == {
        "error": "NC(1000000) would enumerate more partitions than the budget Catalan(16)"
                 " (raise max_n or FREEPROB_MAX_N to override)",
        "kind": "resource-limit"}


def test_roundtrip_through_documented_schema(tmp_path, capsys):
    # emissions parse back through the same schema they are documented in
    code, out, _ = run_cli(capsys, "ksym", "semicircle", "--k", "2",
                           "--order", "5")
    d = json.loads(out)
    f = tmp_path / "sk.json"
    f.write_text(json.dumps(d))
    code, out, _ = run_cli(capsys, "ksym", "clt", "--in", str(f),
                           "--n-samples", "4", "--order", "2")
    assert code == 0


def _validation_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code == 2 and out == "" and json.loads(err)["kind"] == "validation"


def test_order_zero_is_rejected_not_read_as_full_order(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(json.dumps(["1/1", "2/1", "5/1", "14/1"]))
    for verb in ("m2c", "c2m", "s-transform"):
        assert _validation_error(capsys, "transform", verb, "--in", str(f), "--order", "0")
    assert _validation_error(capsys, "transform", "m2c", "--in", str(f), "--order", "-2")
    assert _validation_error(capsys, "series", "solve-fe", "--in", str(f), "--k", "1",
                             "--order", "0")
    code, out, _ = run_cli(capsys, "transform", "m2c", "--in", str(f), "--order", "2")
    assert code == 0 and json.loads(out)["cumulants"] == ["1/1", "1/1"]


def test_negative_count_size_is_a_validation_error(capsys):
    assert _validation_error(capsys, "nc", "count", "--n", "-1")
    code, out, _ = run_cli(capsys, "nc", "count", "--n", "0")
    assert code == 0 and out.strip() == "1"


def test_zero_clt_samples_is_a_validation_error(tmp_path, capsys):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"k": 2, "base": ["1/1", "2/1"], "valid": True}))
    assert _validation_error(capsys, "ksym", "clt", "--in", str(law),
                             "--n-samples", "0", "--order", "3")


def test_negative_decimal_is_a_validation_error(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text(json.dumps(["1/2", "1/3"]))
    assert _validation_error(capsys, "transform", "m2c", "--in", str(f), "--decimal", "-3")


@pytest.mark.parametrize("flag", ["--t", "--rate", "--s"])
@pytest.mark.parametrize("text", ["abc", "1/0"])
def test_malformed_rational_option_is_a_validation_error(tmp_path, capsys, flag, text):
    seq = tmp_path / "ones.json"
    seq.write_text(json.dumps(["1/1"] * 3))
    jump = tmp_path / "jump.json"
    jump.write_text(json.dumps({"k": 2, "base": ["1/1", "1/1", "1/1"], "valid": True}))
    argv = {
        "--t": ["transform", "boxplus-power", "--in", str(seq), "--t", text],
        "--rate": ["ksym", "compound-poisson", "--k", "2", "--rate", text,
                   "--jump", str(jump), "--order", "3"],
        "--s": ["ksym", "stable-check", "--k", "2", "--t", "1", "--s", text],
    }[flag]
    assert _validation_error(capsys, *argv)


@pytest.mark.parametrize("argv,payload", [
    (["transform", "word-moment", "--vars", "{f}", "--word", "x:1"],
     [{"moments": ["1/2"]}]),
    (["transform", "word-moment", "--vars", "{f}", "--word", "x:1"], "x"),
    (["ksym", "clt", "--in", "{f}", "--n-samples", "4", "--order", "2"], {"k": 2}),
    (["ksym", "clt", "--in", "{f}", "--n-samples", "4", "--order", "2"],
     {"k": "a", "base": ["1/1", "2/1"]}),
    (["ksym", "clt", "--in", "{f}", "--n-samples", "4", "--order", "2"],
     {"k": 2.5, "base": ["1/1", "2/1"]}),
    (["transform", "m2c", "--in", "{f}"], [[1]]),
    (["transform", "m2c", "--in", "{f}"], [True, False, True]),
    (["transform", "word-moment", "--vars", "{f}", "--word", "x:1"],
     [{"label": "x", "moments": ["1/1"], "period": True}]),
], ids=["vars-without-label", "vars-not-an-array", "law-without-base",
        "law-k-not-an-integer", "law-k-not-integral", "nested-sequence",
        "sequence-of-booleans", "vars-period-boolean"])
def test_malformed_json_input_is_a_validation_error(tmp_path, capsys, argv, payload):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(payload))
    assert _validation_error(capsys, *(a.format(f=f) for a in argv))


@pytest.mark.parametrize("argv", [
    ["transform", "word-moment", "--vars", "{vars}", "--word", "x"],
    ["transform", "word-moment", "--vars", "{vars}", "--word", "x:a"],
    ["series", "invert", "--in", "{psi}", "--frac", "0"],
    ["series", "invert", "--in", "{psi}", "--frac", "-2"],
], ids=["word-without-exponent", "word-exponent-not-an-integer", "frac-zero",
        "frac-negative"])
def test_malformed_word_or_ramification_is_a_validation_error(tmp_path, capsys, argv):
    paths = {"vars": tmp_path / "vars.json", "psi": tmp_path / "psi.json"}
    paths["vars"].write_text(json.dumps([{"label": "x", "moments": ["0/1", "1/1"]}]))
    # an input the ordinary inverse accepts, so a silent fallback would exit 0
    paths["psi"].write_text(json.dumps(["0/1", "1/1", "1/1"]))
    assert _validation_error(capsys, *(a.format(**paths) for a in argv))
    code, out, _ = run_cli(capsys, "transform", "word-moment", "--vars", str(paths["vars"]),
                           "--word", "x:2")
    assert code == 0 and json.loads(out) == {"moment": "1/1"}


def test_series_file_reads_like_a_sequence_file(tmp_path, capsys):
    # plain JSON numbers are exact values, as in every other sequence input
    ints, strs = tmp_path / "ints.json", tmp_path / "strs.json"
    ints.write_text(json.dumps([0, 1, 1]))
    strs.write_text(json.dumps(["0/1", "1/1", "1/1"]))
    code, out, _ = run_cli(capsys, "series", "invert", "--in", str(ints))
    assert code == 0 and out == run_cli(capsys, "series", "invert", "--in", str(strs))[1]
    strs.write_text(json.dumps({"c0": "0/1"}))
    assert _validation_error(capsys, "series", "invert", "--in", str(strs))


@pytest.mark.parametrize("flag,value", [("--s", "-1"), ("--s", "0"), ("--t", "0")])
def test_stable_check_validates_before_it_divides(capsys, flag, value):
    # the printed product holds 1/(1 + s), so s = -1 must be refused first
    options = {"--k": "2", "--t": "1", "--s": "1/2", flag: value}
    argv = [x for option in options.items() for x in option]
    assert _validation_error(capsys, "ksym", "stable-check", *argv)


@pytest.mark.parametrize("argv", [
    ["matmodel", "run", "--r", "2", "--N", "4", "--k", "2", "--trials", "1", "--seed", "0",
     "--word"],
    ["transform", "word-moment", "--vars", "{vars}", "--word"],
], ids=["matmodel-run", "word-moment"])
@pytest.mark.parametrize("word,letter", [
    ("1:x", "1:x"), ("x", "x"), ("1:2:3", "1:2:3"), ("", ""), ("1:1,2", "2")])
def test_both_word_options_refuse_the_same_letters(tmp_path, capsys, argv, word, letter):
    vars_file = tmp_path / "vars.json"
    vars_file.write_text(json.dumps([{"label": "1", "moments": ["1/1"]}]))
    code, out, err = run_cli(capsys, *(a.format(vars=vars_file) for a in argv), word)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": f"malformed word letter {letter!r}",
                               "kind": "validation"}


# the verbs that print one sequence, with its JSON key, and the verbs that
# print anything else; only the first take --format and --decimal
SEQUENCE_VERBS = [
    (["conv", "zeta-power", "--in", "{seq}", "--k", "2"], "values"),
    (["conv", "moebius", "--order", "3"], "values"),
    (["transform", "m2c", "--in", "{seq}"], "cumulants"),
    (["transform", "c2m", "--in", "{seq}"], "moments"),
    (["transform", "boxtimes", "--a", "{seq}", "--b", "{seq}"], "cumulants"),
    (["transform", "boxplus-power", "--in", "{seq}", "--t", "2"], "cumulants"),
    (["ksym", "bessel", "--k", "2", "--order", "3"], "moments"),
    (["ksym", "clt", "--in", "{law}", "--n-samples", "4", "--order", "3"], "cumulants"),
    (["ksym", "poisson-limit", "--k", "2", "--rate", "1", "--jump", "{law}",
      "--n-samples", "8", "--order", "3"], "gaps"),
]
OTHER_VERBS = [
    ["series", "invert", "--in", "{series}"],
    ["series", "solve-fe", "--in", "{seq}", "--k", "2"],
    ["transform", "s-transform", "--in", "{seq}"],
    ["ksym", "semicircle", "--k", "2", "--order", "3"],
    ["ksym", "compound-poisson", "--k", "2", "--rate", "1", "--jump", "{law}", "--order", "3"],
]


def _verb_files(tmp_path) -> dict:
    files = {"seq": ["1/1", "2/1", "5/1"], "series": ["0/1", "1/1", "1/1"],
             "law": {"k": 2, "base": ["1/1", "2/1", "5/1"], "valid": True}}
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, payload in files.items():
        paths[name].write_text(json.dumps(payload))
    return paths


@pytest.mark.parametrize("argv,name", SEQUENCE_VERBS,
                         ids=[" ".join(argv[:2]) for argv, _ in SEQUENCE_VERBS])
def test_sequence_verbs_take_format_and_decimal(tmp_path, capsys, argv, name):
    argv = [a.format(**_verb_files(tmp_path)) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    values = json.loads(out)[name]
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""
    assert out.splitlines() == [f"n,{name}"] + [f"{n},{v}" for n, v in enumerate(values, 1)]
    code, out, err = run_cli(capsys, *argv, "--decimal", "2")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data.keys() == {name, name + "_decimal"} and data[name] == values
    assert len(data[name + "_decimal"]) == len(values)


@pytest.mark.parametrize("argv", [argv for argv, _ in SEQUENCE_VERBS],
                         ids=[" ".join(argv[:2]) for argv, _ in SEQUENCE_VERBS])
def test_sequence_verbs_refuse_decimal_with_csv(tmp_path, capsys, argv):
    # CSV rows carry the exact values only, so a --decimal there would be dropped
    argv = [a.format(**_verb_files(tmp_path)) for a in argv]
    for extra in (["--decimal", "2", "--format", "csv"], ["--format", "csv", "--decimal", "0"]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert json.loads(err) == {
            "error": "argument --decimal: not allowed with argument --format csv",
            "kind": "usage"}


REFUSED = [(argv, extra) for argv in OTHER_VERBS
           for extra in (["--format", "csv"], ["--format", "json"], ["--decimal", "2"])]
REFUSED.append((["nc", "enumerate", "--n", "3"], ["--decimal", "2"]))


@pytest.mark.parametrize("argv,extra", REFUSED,
                         ids=[" ".join(argv[:2] + extra) for argv, extra in REFUSED])
def test_other_verbs_refuse_format_and_decimal(tmp_path, capsys, argv, extra):
    argv = [a.format(**_verb_files(tmp_path)) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": f"unrecognized arguments: {' '.join(extra)}",
                               "kind": "usage"}


# ---------------------------------------------------------------------------
# argv fuzzing: every verb, small and out-of-range integers, junk rationals,
# valid and malformed JSON files.  Sizes stay small (order, n <= 8, k * n <= 8
# where `nc enumerate` walks NC(kn), matmodel N <= 20 and trials <= 3) so
# each call is quick; stdin (-) and -h are never passed.

FUZZ_FILES = {
    "seq": ["1/1", "2/1", "5/1", "14/1", "42/1", "132/1", "429/1", "1430/1"],
    "seq-short": ["1/2", "1/3"],
    "seq-zero-led": ["0/1", "1/1", "0/1", "2/1", "0/1", "5/1"],
    "seq-numbers": [0, 1, 1, -2],
    "seq-empty": [],
    "seq-nested": [[1]],
    "seq-junk": ["x", "1/0"],
    "law": {"k": 2, "base": ["1/1", "2/1", "5/1", "14/1", "42/1", "132/1", "429/1", "1430/1"],
            "valid": True},
    "law-k3": {"k": 3, "base": ["1/1", "3/1", "12/1"], "valid": None},
    "law-bad-k": {"k": "2", "base": ["1/1"]},
    "law-no-base": {"k": 2},
    "vars": [{"label": "x", "moments": ["1/2", "1/1", "2/1"]},
             {"label": "y", "moments": ["0/1", "1/1"], "period": 2}],
    "vars-dup": [{"label": "x", "moments": ["1/1"]}, {"label": "x", "moments": ["1/1"]}],
    "vars-bad": [{"moments": ["1/1"]}],
    "object": {"a": 1},
}

# each option is valid about half the time or more, so that every verb
# also reaches its exit-0 path
small_ints = st.one_of(st.integers(1, 8), st.integers(-2, 8))
junk_rationals = st.one_of(
    st.sampled_from(["1", "1/2", "7/3", "2.5"]),
    st.sampled_from(["0", "-1", "-3/4", "1e2", "abc", "1/0", "", "nan", "inf"]))
words = st.one_of(st.sampled_from(["x:1", "x:1,y:1", "x:2,y:-1,x:1", "y:3"]),
                  st.sampled_from(["z:1", "x:5", "x", "x:a", ""]))
matrix_words = st.one_of(st.sampled_from(["1:1,2:1", "1:1,2:1,1:-1,2:-1", "1:2"]),
                         st.sampled_from(["0:1", "9:1", "1:x", ""]))
partitions = st.one_of(st.sampled_from(["{1,2}{3,4}", "{1,3}{2}", "{1}"]),
                       st.sampled_from(["{1,2", "{0}", "{1}{1}", ""]))
SEQS = ("seq-short", "seq-zero-led", "seq-numbers", "seq-empty", "seq-nested", "seq-junk",
        "object", "missing")
LAWS = ("law-k3", "law-bad-k", "law-no-base", "seq", "missing")
VARS = ("vars-dup", "vars-bad", "seq", "missing")


@st.composite
def size_pair(draw):
    """(k, n) with k * n <= 8 whenever both are positive."""
    n = draw(small_ints)
    top = max(1, 8 // max(n, 1))
    return draw(st.one_of(st.integers(1, top), st.integers(-2, top))), n


def verb(*parts):
    """One argv: each part is a fixed string or a strategy for one."""
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


def file(good, others):
    return st.sampled_from((good,) * len(others) + others).map(lambda name: "@" + name)


num = small_ints.map(str)
nc_enumerate = st.tuples(st.sampled_from(["nc", "kdivisible", "kequal"]), size_pair(), num).map(
    lambda t: ["nc", "enumerate", "--kind", t[0], "--k", str(t[1][0]), "--n", str(t[1][1]),
               "--max-n", t[2]])

# one strategy per verb, so an example draws only the values of the verb it runs
fuzz_argv = st.tuples(st.one_of(
    verb("nc", "count", "--kind", st.sampled_from(["nc", "kdivisible", "kequal", "multichains"]),
         "--k", num, "--n", num),
    nc_enumerate,
    verb("nc", "kreweras", "--partition", partitions),
    verb("conv", "zeta-power", "--in", file("seq", SEQS), "--k", num, "--order", num),
    verb("conv", "moebius", "--order", num),
    verb("series", "invert", "--in", file("seq-zero-led", SEQS)),
    verb("series", "invert", "--in", file("seq-zero-led", SEQS), "--frac", num),
    verb("series", "solve-fe", "--in", file("seq", SEQS), "--k", num),
    verb("transform", "m2c", "--in", file("seq", SEQS)),
    verb("transform", "c2m", "--in", file("seq", SEQS), "--order", num),
    verb("transform", "boxtimes", "--a", file("seq", SEQS), "--b", file("seq-numbers", SEQS)),
    verb("transform", "boxplus-power", "--in", file("seq", SEQS), "--t", junk_rationals),
    verb("transform", "s-transform", "--in", file("seq-zero-led", SEQS)),
    verb("transform", "word-moment", "--vars", file("vars", VARS), "--word", words),
    verb("ksym", "semicircle", "--k", num, "--order", num),
    verb("ksym", "bessel", "--k", num, "--order", num),
    verb("ksym", "compound-poisson", "--k", num, "--rate", junk_rationals,
         "--jump", file("law", LAWS), "--order", num),
    verb("ksym", "clt", "--in", file("law", LAWS), "--n-samples", num, "--order", num),
    verb("ksym", "poisson-limit", "--k", num, "--rate", junk_rationals,
         "--jump", file("law", LAWS), "--n-samples", num, "--order", num),
    verb("ksym", "stable-check", "--k", num, "--t", junk_rationals, "--s", junk_rationals),
    verb("matmodel", "run", "--r", num, "--N", st.integers(-2, 20).map(str), "--k", num,
         "--word", matrix_words, "--trials", st.integers(-1, 3).map(str),
         "--seed", st.integers(0, 5).map(str)),
), st.one_of([st.just([])] * 4 + [
    verb("--decimal", num), st.just(["--format", "csv"]), st.just(["--format", "xml"]),
    st.just(["--bogus"])])).map(lambda pair: pair[0] + pair[1])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv)
def test_every_argv_keeps_the_cli_contract(tmp_path, capsys, argv):
    # the files are written once and only read; capsys is drained per call
    paths = {name: tmp_path / f"{name}.json" for name in FUZZ_FILES}
    for name, payload in FUZZ_FILES.items():
        if not paths[name].exists():
            paths[name].write_text(json.dumps(payload))
    paths["missing"] = tmp_path / "missing.json"
    argv = [str(paths[a[1:]]) if a.startswith("@") else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.endswith("\n") and err.count("\n") == 1
        diag = json.loads(err)
        assert isinstance(diag, dict) and {"error", "kind"} <= diag.keys()
    else:
        assert err == ""
    assert run_cli(capsys, *argv) == (code, out, err)


def _parse(parser, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
    except cli.UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    return "parsed", sorted(vars(args))


@pytest.mark.parametrize("group,verb", [(group, verb) for group, verb, *_ in cli._VERBS])
def test_the_parser_built_for_one_verb_reads_it_as_the_full_grammar(group, verb):
    # run() builds only the verb its argv names; --help and a missing
    # required option must read the same as with every verb built
    full = cli.build_parser()
    for argv in ([group, verb, "--help"], [group, verb]):
        assert _parse(cli.build_parser(argv), argv) == _parse(full, argv)
    other = next(v for v in cli._VERBS if v[:2] != (group, verb))
    assert _parse(cli.build_parser([group, verb]), list(other[:2]))[0] == "usage error"
