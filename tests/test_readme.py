"""The README's library quick tour runs against the package as it is, and
gives the values its comments state."""

import re
from pathlib import Path

from burau_lab import b3_kernel, diagram_check, parse_word

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert block is not None, "README.md has no python block"
    tour = {}
    exec(compile(block.group(1), str(README), "exec"), tour)
    assert tour["mat"].is_identity is False
    assert (tour["kd"].d, tour["kd"].j, tour["kd"].l) == (12, 4, 3)
    assert list(tour["kd"].normal_generators()) == [
        parse_word(text, 4) for text in ("s1^12", "T3^4", "T4^3")
    ]
    assert b3_kernel(9).l == 6
    assert diagram_check(tour["word"], 4, 6, tour["mq"])
