import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
        "--output", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["words"][0]["prediction"] == "0/1"


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
def test_enumeration_too_deep_to_walk_is_a_resource_limit(capsys, kind, k, n):
    # one partition each, under the budget, but the walk passes the
    # recursion limit
    code, out, err = run_cli(capsys, "nc", "enumerate", "--kind", kind, "--k", k, "--n", n)
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["kind"] == "resource-limit" and "recursion limit" in diag["error"]


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
], ids=["vars-without-label", "vars-not-an-array", "law-without-base",
        "law-k-not-an-integer", "law-k-not-integral", "nested-sequence"])
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


@st.composite
def fuzz_argv(draw):
    def file(good, others):
        return "@" + draw(st.sampled_from((good,) * len(others) + others))

    def i():
        return str(draw(small_ints))

    def r():
        return draw(junk_rationals)
    k, n = draw(size_pair())
    argv = draw(st.sampled_from([
        ["nc", "count", "--kind", draw(st.sampled_from(
            ["nc", "kdivisible", "kequal", "multichains"])), "--k", i(), "--n", i()],
        ["nc", "enumerate", "--kind", draw(st.sampled_from(["nc", "kdivisible", "kequal"])),
         "--k", str(k), "--n", str(n), "--max-n", i()],
        ["nc", "kreweras", "--partition", draw(partitions)],
        ["conv", "zeta-power", "--in", file("seq", SEQS), "--k", i(), "--order", i()],
        ["conv", "moebius", "--order", i()],
        ["series", "invert", "--in", file("seq-zero-led", SEQS)] + draw(st.sampled_from(
            [[], ["--frac", i()]])),
        ["series", "solve-fe", "--in", file("seq", SEQS), "--k", i()],
        ["transform", "m2c", "--in", file("seq", SEQS)],
        ["transform", "c2m", "--in", file("seq", SEQS), "--order", i()],
        ["transform", "boxtimes", "--a", file("seq", SEQS), "--b", file("seq-numbers", SEQS)],
        ["transform", "boxplus-power", "--in", file("seq", SEQS), "--t", r()],
        ["transform", "s-transform", "--in", file("seq-zero-led", SEQS)],
        ["transform", "word-moment", "--vars", file("vars", VARS), "--word", draw(words)],
        ["ksym", "semicircle", "--k", i(), "--order", i()],
        ["ksym", "bessel", "--k", i(), "--order", i()],
        ["ksym", "compound-poisson", "--k", i(), "--rate", r(), "--jump", file("law", LAWS),
         "--order", i()],
        ["ksym", "clt", "--in", file("law", LAWS), "--n-samples", i(), "--order", i()],
        ["ksym", "poisson-limit", "--k", i(), "--rate", r(), "--jump", file("law", LAWS),
         "--n-samples", i(), "--order", i()],
        ["ksym", "stable-check", "--k", i(), "--t", r(), "--s", r()],
        ["matmodel", "run", "--r", i(), "--N", str(draw(st.integers(-2, 20))), "--k", i(),
         "--word", draw(matrix_words), "--trials", str(draw(st.integers(-1, 3))),
         "--seed", str(draw(st.integers(0, 5)))],
    ]))
    extras = draw(st.sampled_from([[]] * 4 + [
        ["--decimal", i()], ["--format", "csv"], ["--format", "xml"], ["--bogus"]]))
    return argv + extras


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv())
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
