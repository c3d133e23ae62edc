"""The README's library quick start runs as written and gives the numbers
its comments state.  A change to those numbers must update the README."""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```\n", 1)[0]


def test_quick_start_states_its_numbers():
    code = quick_start_code()
    assert "row.probability == 1, row.fidelity == 1, row.qfi == 100" in code
    assert "best.value is 943,576 here" in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    row, best = namespace["row"], namespace["best"]
    assert (row.probability, row.fidelity, row.qfi) == (1.0, 1.0, 100.0)
    assert best.value == pytest.approx(943576.1445730602, rel=1e-9)
    assert round(best.value) == 943576
