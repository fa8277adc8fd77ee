"""The README's "Library quick tour" must run against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    exec(compile(quick_tour(), "README.md (Library quick tour)", "exec"), {})
