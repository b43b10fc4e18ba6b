import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    # a renamed or deleted public name used in the tour fails here
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert tour, "README has no Library tour python block"
    exec(compile(tour.group(1), str(README), "exec"), {})
