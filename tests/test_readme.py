"""The README's examples run as written and print what it says they print."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from gwdesc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_library_quick_start_runs():
    block = README.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_cli_examples_print_their_values(tmp_path, monkeypatch, capsys):
    # every gwdesc line of the command block exits 0, its --out files landing in a
    # temporary directory; a line ending in "# -> value" must print that value
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = re.findall(r"^gwdesc (.+?)(?:\s+# -> (.+))?$", block, flags=re.MULTILINE)
    assert len(examples) == 10 and sum(bool(expected) for _, expected in examples) == 3
    monkeypatch.chdir(tmp_path)
    for argv, expected in examples:
        assert main(shlex.split(argv)) == 0, argv
        out = capsys.readouterr().out
        if expected:
            assert out.strip() == expected, argv
