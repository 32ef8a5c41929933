"""Importing the package loads none of the introspection modules that ``dataclasses``
pulls in: every ``gwdesc`` command and every benchmark job imports the package in a
fresh interpreter, so their cost lands on each one."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
INTROSPECTION = ("dataclasses", "inspect", "dis", "ast")

PROBE = """
import json, sys
before = set(sys.modules)
import gwdesc, gwdesc.cli, gwdesc.verify
print(json.dumps({
    "preloaded": sorted(before),
    "added": sorted(set(sys.modules) - before),
    "package": gwdesc.__file__,
}))
"""


def test_importing_the_package_loads_no_introspection_module():
    # -S: no site hook loads a module before the probe's first snapshot, where the
    # difference could not see it
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert Path(found["package"]).resolve().parent == SRC / "gwdesc"
    assert [name for name in INTROSPECTION if name in found["preloaded"]] == []
    assert [name for name in INTROSPECTION if name in found["added"]] == []
