"""The package's export list names each public object once, and each resolves."""

from __future__ import annotations

from collections import Counter

import gwdesc


def test_every_exported_name_resolves_once():
    assert [name for name, count in Counter(gwdesc.__all__).items() if count > 1] == []
    assert [name for name in gwdesc.__all__ if not hasattr(gwdesc, name)] == []
