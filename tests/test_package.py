"""Tests for the package's public surface."""

import elliptic_oam


def test_every_export_resolves():
    missing = [name for name in elliptic_oam.__all__ if not hasattr(elliptic_oam, name)]
    assert missing == []

