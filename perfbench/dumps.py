"""Canonical dump bytes, rendered the way ``gwdesc potential`` and
``gwdesc transform`` write them (``test_perfbench.py`` checks the bytes)."""

from __future__ import annotations

import hashlib
import json


def render(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def potential_payload(model, which: str, qmax: int, xdeg: int, dmax: int, potential) -> dict:
    return {
        "model": model.name,
        "which": which,
        "max_beta_degree": qmax,
        "max_x_degree": xdeg,
        "max_descendant": dmax,
        "coefficients": potential.to_records(model),
    }


def transform_payload(model, qmax: int, dmax: int, transform, inverse) -> dict:
    return {
        "model": model.name,
        "max_beta_degree": qmax,
        "max_descendant": dmax,
        "transform": transform.to_records(model),
        "inverse": inverse.to_records(model),
    }


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
