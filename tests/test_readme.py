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


def test_cli_examples_print_their_values(capsys):
    examples = re.findall(r"^gwdesc (.+?)\s+# -> (.+)$", README, flags=re.MULTILINE)
    assert len(examples) == 3
    for argv, expected in examples:
        assert main(shlex.split(argv)) == 0, argv
        assert capsys.readouterr().out.strip() == expected, argv
