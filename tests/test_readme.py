"""The README's "Library quick tour" runs against the public API, and its
example config is `docs/examples/cat_map.json`."""

import json
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_runs():
    exec(compile(quick_tour(), "README.md (Library quick tour)", "exec"), {})


def test_example_config_is_the_cat_map_example():
    text = README.read_text()
    shown = re.search(r"Example config .*?```json\n(.*?)```", text, re.S).group(1)
    example = README.parent / "docs" / "examples" / "cat_map.json"
    assert json.loads(shown) == json.loads(example.read_text())
