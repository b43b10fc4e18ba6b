import json

import pytest

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
