"""Golden bytes: CLI dumps and reports pinned by sha256.

The digests were recorded from the output of an earlier release, so a
refactor that changes any printed value, key order or report line fails
here, not only a run that disagrees with a repeat of itself.
"""

from __future__ import annotations

import hashlib

import pytest

from gwdesc.cli import main

GOLDEN = [
    pytest.param(
        "potential --model P2 --which standard --qmax 2 --xdeg 4 --dmax 2",
        "7a05b67451b7a0bf9b1c8a2105d1724ba875fad7511d4a41f4dac84ad111b745",
        id="potential-standard",
    ),
    pytest.param(
        "potential --model P2 --which modified --qmax 2 --xdeg 4 --dmax 2",
        "874ebc152face74fc6c843c2c272adcb2a3780800ef241c075bf98aee4c08f14",
        id="potential-modified",
    ),
    pytest.param(
        "potential --model P2 --which primary --qmax 3 --xdeg 5 --dmax 0",
        "2221c62c949107e9bd590a442c4724ce3985471cab5ba6a3ee2fcbcc48c89485",
        id="potential-primary",
    ),
    pytest.param(
        "transform --model P2 --qmax 3 --dmax 3",
        "af170b273b970459307a6bd3c8f08fbeabc48963fd53b98c113c6e57c81333d9",
        id="transform",
    ),
    pytest.param(
        "verify --model P2 --suite identities --qmax 2 --count 80",
        "6759d7b063beb966d02d14a9b3d51b71df657464032c2556ba0a23e243273739",
        id="verify-identities",
    ),
    pytest.param(
        "verify --model P2 --suite transform --qmax 2 --xdeg 4 --dmax 2",
        "5d091b462ae09098e53294025b739cc5b9a9a220f7a013c56f40b77f6e8c381e",
        id="verify-transform",
    ),
    pytest.param(
        "verify --model P2 --suite two-point-paths --qmax 6 --dmax 12",
        "4d54c69c59908cf4ebfd6150e08029ba10cf28ef72fea368f7cfbe4d370d24c7",
        id="verify-two-point-paths",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN)
def test_cli_output_matches_golden_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
