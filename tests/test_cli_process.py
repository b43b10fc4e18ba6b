"""The CLI in a real interpreter: `python -m freeprob` as a child process,
which layers a verb loads, and a reader that closes stdout early."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freeprob
from freeprob.cli import run

# the directory that holds the freeprob package, for the child's sys.path
PACKAGE_ROOT = str(Path(freeprob.__file__).resolve().parent.parent)
LAYERS = ("ncpart", "incidence", "series", "transforms", "ksym", "matmodel")


def _child(*args, stdout=subprocess.PIPE, **env):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=path, **env), timeout=120)


# A layer bound lazily is a module subclass until its first attribute
# access runs it; type() reads the class without such an access.
PROBE = """
import json, sys, types
from freeprob import cli

def ran():
    return sorted(name for name in LAYERS
                  if type(sys.modules.get("freeprob." + name)) is types.ModuleType)

report = {"imported": sorted(name for name in LAYERS + ("sequences", "cli")
                             if "freeprob." + name in sys.modules)}
cli.run(["nc", "count", "--n", "5"])
report["nc_count_ran"] = ran()
report["dataclasses"] = "dataclasses" in sys.modules
cli.run(["transform", "m2c", "--in", sys.argv[1]])
report["m2c_ran"] = ran()
report["public_functions"] = {
    name: sorted(key for key, obj in vars(sys.modules["freeprob." + name]).items()
                 if isinstance(obj, types.FunctionType) and not key.startswith("_"))
    for name in LAYERS + ("sequences", "cli")}
sys.stderr.write(json.dumps(report))
"""


def test_a_verb_runs_only_the_layers_it_reaches(tmp_path):
    moments = tmp_path / "catalan.json"
    moments.write_text(json.dumps(["1", "2", "5"]))
    probe = f"LAYERS = {LAYERS!r}\n" + PROBE
    child = _child("-c", probe, str(moments))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [b"42", b'{"cumulants": ["1/1", "1/1", "1/1"]}']
    report = json.loads(child.stderr)
    # the benchmark's tracing shim reads every layer from sys.modules
    # right after `from freeprob import cli` and wraps what vars() lists
    assert report["imported"] == sorted(LAYERS + ("sequences", "cli"))
    assert report["nc_count_ran"] == ["ncpart"]
    assert report["dataclasses"] is False
    assert "ksym" not in report["m2c_ran"] and "matmodel" not in report["m2c_ran"]
    functions = report["public_functions"]
    assert {"catalan", "kreweras"} <= set(functions["ncpart"])
    assert {"conv", "zeta_power_conv"} <= set(functions["incidence"])
    assert {"mul", "comp_inverse"} <= set(functions["series"])
    assert {"moments_to_cumulants", "s_transform"} <= set(functions["transforms"])
    assert {"compound_poisson", "stable_monomial_mul"} <= set(functions["ksym"])
    assert {"sample_kcycle", "parse_word"} <= set(functions["matmodel"])
    assert {"frac_to_str"} <= set(functions["sequences"])
    assert {"run", "main", "build_parser"} <= set(functions["cli"])


# Eight threads make the first call into one lazily bound layer at once.
THREADS = """
import json, sys, threading
from freeprob import cli
from freeprob.sequences import RationalSequence

sys.setswitchinterval(1e-6)
catalan = RationalSequence([1, 2, 5, 14])
barrier = threading.Barrier(8)
outcomes = []

def first_call():
    barrier.wait()
    try:
        outcomes.append(cli.transforms.moments_to_cumulants(catalan, 4).to_json())
    except Exception as exc:
        outcomes.append(repr(exc))

threads = [threading.Thread(target=first_call) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
sys.stderr.write(json.dumps({"alive": sum(t.is_alive() for t in threads),
                             "outcomes": outcomes}))
"""


def test_a_layer_loads_once_while_other_threads_wait():
    child = _child("-c", THREADS)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stderr)
    assert report["alive"] == 0
    assert report["outcomes"] == [["1/1", "1/1", "1/1", "1/1"]] * 8


# A layer whose first load fails stays unloaded: every access runs it
# again, as a retried import would, until a load succeeds.
FAILED_LOAD = """
import json, sys, types
from freeprob import cli

layer = sys.modules["freeprob.matmodel"]
spec = types.ModuleType.__getattribute__(layer, "__spec__")
real, broken = spec.loader, [True]

class Flaky:
    def exec_module(self, module):
        if broken[0]:
            raise ImportError("the layer failed to load")
        real.exec_module(module)

spec.loader = Flaky()
outcomes = []
for fix in (False, False, True):
    broken[0] = not fix
    try:
        outcomes.append(cli.matmodel.sample_kcycle.__name__)
    except Exception as exc:
        outcomes.append(type(exc).__name__)
    outcomes.append(type(layer).__name__)
sys.stderr.write(json.dumps(outcomes))
"""


def test_a_layer_whose_load_failed_loads_again_on_the_next_access():
    child = _child("-c", FAILED_LOAD)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stderr) == ["ImportError", "_Unloaded", "ImportError", "_Unloaded",
                                        "sample_kcycle", "module"]


def test_the_entry_point_prints_what_run_prints(tmp_path, capsys):
    # one argv per verb group, each through a real interpreter start
    catalan = tmp_path / "catalan.json"
    catalan.write_text(json.dumps([str(c) for c in (1, 2, 5, 14, 42, 132)]))
    for argv in (
        ["nc", "enumerate", "--kind", "kdivisible", "--k", "2", "--n", "3", "--format", "csv"],
        ["conv", "zeta-power", "--in", str(catalan), "--k", "2", "--decimal", "3"],
        ["series", "solve-fe", "--in", str(catalan), "--k", "2"],
        ["transform", "s-transform", "--in", str(catalan)],
        ["ksym", "stable-check", "--k", "2", "--t", "1", "--s", "1/2"],
        ["matmodel", "run", "--r", "2", "--N", "60", "--k", "2", "--word", "1:1,2:1,1:-1,2:-1",
         "--trials", "3", "--seed", "7"],
    ):
        assert run(argv) == 0, argv
        expected = capsys.readouterr().out.encode("utf-8")
        child = _child("-m", "freeprob", *argv)
        assert (child.returncode, child.stdout) == (0, expected), (argv, child.stderr)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_that_closed_stdout_gets_one_diagnostic(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left before the child writes
    try:
        child = _child("-m", "freeprob", "nc", "enumerate", "--n", "6", stdout=write_end,
                       PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    lines = child.stderr.decode("utf-8").splitlines()
    assert child.returncode == 3 and len(lines) == 1, child.stderr
    assert json.loads(lines[0])["kind"] == "broken-pipe"
