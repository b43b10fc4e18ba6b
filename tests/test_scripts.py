"""Smoke tests of the scripts under scripts/: each main() runs on small
arguments, prints what its docstring promises, and prints it again byte
for byte on a rerun."""

import csv
import importlib.util
import io
import json
import math
from fractions import Fraction
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(capsys, name, *argv):
    main = _load(name).main
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == first
    return first


def _table(capsys, *argv):
    header, *rows = csv.reader(io.StringIO(_run(capsys, "identity_tables", *argv)))
    return header, rows


def test_counts_table_columns_coincide(capsys):
    header, rows = _table(capsys, "counts", "--k", "3", "--n", "5")
    assert header == ["k", "n", "kequal(k+1,n)", "kdivisible(k,n)", "multichains(k,n)"]
    assert len(rows) == 15
    assert all(row[2] == row[3] == row[4] for row in rows)


def test_bessel_moments_are_fuss_catalan(capsys):
    header, rows = _table(capsys, "bessel", "--k", "3", "--n", "4")
    assert header == ["k", "n", "moment", "cumulant"]
    assert len(rows) == 12
    for k, n, moment, _cumulant in rows:
        k, n = int(k), int(n)
        assert Fraction(moment) == math.comb((k + 1) * n, n) // (k * n + 1)


def test_clt_table_has_a_row_per_sample_size_and_cumulant(capsys):
    header, rows = _table(capsys, "clt", "--k", "2", "--n", "3")
    assert header == ["n_samples", "i", "scaled_cumulant"]
    # three sample sizes, k * order = 6 cumulants each
    assert len(rows) == 18
    assert [int(row[0]) for row in rows[::6]] == [4, 16, 64]


def test_permutation_experiment_prints_json(capsys):
    report = json.loads(_run(capsys, "permutation_experiment",
                             "--N", "30", "--trials", "2", "--max-word-len", "2"))
    assert report["N"] == 30 and report["trials"] == 2
    assert report["words"]

