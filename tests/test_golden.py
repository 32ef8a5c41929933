"""Golden bytes: CLI dumps and reports pinned by sha256.

The digests were recorded from the output of an earlier release, so a
refactor that changes any printed value, key order or report line fails
here, not only a run that disagrees with a repeat of itself.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from test_quadric import quadric_model, quadric_table

from gwdesc import CorrelatorEngine
from gwdesc.cli import main
from gwdesc.phase import build_transform, potential_modified, potential_standard

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
    # a larger window, in which most standard coefficients have a string, dilaton
    # or divisor insertion
    pytest.param(
        "potential --model P2 --which standard --qmax 4 --xdeg 5 --dmax 4",
        "5b62d98dbdb43cdd79c7f821cd4f9c2f9a3e358fc430151fc95ece6d71aeef89",
        id="potential-standard-454",
    ),
    pytest.param(
        "potential --model P2 --which modified --qmax 4 --xdeg 5 --dmax 4",
        "f27be5c5b3e95d10e2aca56d56111ab3124c3e1a12c8e459d287e53caea96423",
        id="potential-modified-454",
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
        "d36f4db7ab12a13f214a1d7ff4bddcc101fe335b2f966281ecccfc9a92b7e1ed",
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
    # the one report that runs the primary-only route with a rescaled divisor and
    # the dilaton route of the one- and zero-point values
    pytest.param(
        "verify --model P2 --suite divisor-independence",
        "d87109a60255102c5a438d97f9e2ca2a99eb1d83233e911a720559636b56c2a3",
        id="verify-divisor-independence",
    ),
    pytest.param(
        "verify --model P2 --suite point-vanishing",
        "b4b9759729f3b7a74e832457b97238ddf2dc5859dc3371abe6f5e14e247c58aa",
        id="verify-point-vanishing",
    ),
]


@pytest.mark.parametrize("command, digest", GOLDEN)
def test_cli_output_matches_golden_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_quadric_records_match_golden_digest():
    # the fixtures are all of lattice rank <= 1; this pins the two-parameter
    # splittings of the quadric: both potentials, the transform and its inverse
    model = quadric_model()
    engine = CorrelatorEngine(model, quadric_table(model))
    policy = model.policy(2, max_x_degree=3, max_descendant=2)
    transform = build_transform(engine, policy)
    records = [
        potential_standard(engine, policy).to_records(model),
        potential_modified(engine, policy).to_records(model),
        transform.to_records(model),
        transform.inverse().to_records(model),
    ]
    assert [len(r) for r in records] == [78, 5, 29, 29]
    digest = hashlib.sha256(json.dumps(records).encode("utf-8")).hexdigest()
    assert digest == "1a2cb31a311831dd65f5d6316742c552f3e1a062fc70b3f04172dd3f0428d750"
