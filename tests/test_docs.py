"""The README's code runs and shows the values it claims."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs_and_its_values_hold():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(block, namespace)
    # lines such as `expr  # 0.25, ...` claim the value of expr
    claims = []
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        number = re.match(r"\s*(-?\d[\d.]*)(?:,|$)", comment)
        if code.strip() and number:
            claims.append((code.strip(), float(number.group(1))))
    assert [want for _, want in claims] == [0.25, 2.0]
    for code, want in claims:
        assert eval(code, namespace) == pytest.approx(want, abs=1e-12), code
