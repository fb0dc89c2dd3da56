"""The README's quick example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_example_runs(capsys):
    text = README.read_text()
    block = re.search(r"Quick example:\s*```python\n(.*?)```", text, re.S)
    assert block, "README has no python block under 'Quick example'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    # the example prints the geodesic error of its MMSE estimate, in radians
    error = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= error < 0.5
