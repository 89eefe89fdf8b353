"""Tests for the package's public namespace."""

import nmecut


def test_every_exported_name_resolves():
    missing = [name for name in nmecut.__all__ if not hasattr(nmecut, name)]
    assert missing == []
