import importlib
import inspect
import pkgutil
import re
import shlex
from collections import Counter
from pathlib import Path

import freeprob
from freeprob import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    # a renamed or deleted public name used in the tour fails here
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert tour, "README has no Library tour python block"
    exec(compile(tour.group(1), str(README), "exec"), {})


def test_every_cli_example_parses():
    # a README example that still passes a removed flag or verb fails here
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", text, re.S | re.M)
    assert block, "README has no CLI sh block"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    examples = [shlex.split(line, comments=True) for line in lines if line.startswith("freeprob ")]
    assert len(examples) >= 20
    for argv in examples:
        try:
            cli.build_parser().parse_args(argv[1:])
        except cli.UsageError as exc:
            raise AssertionError(f"{shlex.join(argv)}: {exc}") from None


def test_every_module_name_the_readme_cites_resolves():
    # `series.power`, `incidence.conv(f, g, order)`, ... anywhere in the text
    modules = {m.name: importlib.import_module(f"freeprob.{m.name}")
               for m in pkgutil.iter_modules(freeprob.__path__) if not m.name.startswith("_")}
    text = README.read_text(encoding="utf-8")
    cited = set(re.findall(rf"\b({'|'.join(modules)})\.([A-Za-z_]\w*)", text))
    missing = sorted(f"{mod}.{name}" for mod, name in cited
                     if not hasattr(modules[mod], name))
    assert len(cited) >= 16 and not missing, missing


def test_every_public_name_is_reached_from_the_library_or_the_readme():
    # a public function or class that only the tests call belongs in
    # tests/oracles.py; one that is API gets named in the README
    src = Path(freeprob.__file__).resolve().parent
    code = "\n".join(p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py")))
    uses = Counter(re.findall(r"\w+", code))
    uses.subtract(re.findall(r"^(?:def|class) (\w+)", code, re.M))
    cited = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    unreached = []
    for info in pkgutil.iter_modules(freeprob.__path__):
        if info.name.startswith("_"):
            continue
        mod = importlib.import_module(f"freeprob.{info.name}")
        unreached += [f"{info.name}.{name}" for name, obj in vars(mod).items()
                      if not name.startswith("_") and uses[name] <= 0 and name not in cited
                      and (inspect.isfunction(obj) or inspect.isclass(obj))
                      and obj.__module__ == mod.__name__]
    assert not unreached, unreached
