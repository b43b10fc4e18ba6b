import importlib
import pkgutil
import re
from pathlib import Path

import freeprob

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    # a renamed or deleted public name used in the tour fails here
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert tour, "README has no Library tour python block"
    exec(compile(tour.group(1), str(README), "exec"), {})


def test_every_module_name_the_readme_cites_resolves():
    # `series.power`, `incidence.conv(f, g, order)`, ... anywhere in the text
    modules = {m.name: importlib.import_module(f"freeprob.{m.name}")
               for m in pkgutil.iter_modules(freeprob.__path__) if not m.name.startswith("_")}
    text = README.read_text(encoding="utf-8")
    cited = set(re.findall(rf"\b({'|'.join(modules)})\.([A-Za-z_]\w*)", text))
    missing = sorted(f"{mod}.{name}" for mod, name in cited
                     if not hasattr(modules[mod], name))
    assert len(cited) >= 16 and not missing, missing
