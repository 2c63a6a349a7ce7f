"""README's Python examples run, in order, against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_python_blocks_run_in_order(capsys):
    blocks = python_blocks()
    # the library example, .replace and the memo example, which asserts
    # that a relaxed call gets the first report back
    assert len(blocks) >= 3
    assert any("is first" in block for block in blocks)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out
