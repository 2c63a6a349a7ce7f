"""README's Python examples run, in order, against the package, and each
line of its command-line block runs through the CLI."""

import re
import shlex
from pathlib import Path

from txsched import cli

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


def command_lines() -> list[list[str]]:
    """The argument lists of the first shell block under ``## Command line``."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.M | re.S).group(1)
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    commands = command_lines()
    assert len(commands) >= 6
    assert {argv[0] for argv in commands} == {"txsched"}
    assert {argv[1] for argv in commands} == {"validate", "run", "sweep", "trace"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        if "--out" in argv:
            out = tmp_path / argv[argv.index("--out") + 1]
            assert out.read_text(encoding="utf-8"), argv
            out.unlink()  # a later line naming the same file must write it again
    assert not list(tmp_path.iterdir())
