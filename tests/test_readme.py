"""The README's library tour runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S)
    assert block is not None, "README has no python block under 'Library tour'"
    exec(compile(block.group(1), f"{README}:library tour", "exec"), {})
