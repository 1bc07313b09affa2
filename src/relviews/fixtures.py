"""Shipped model and outline fixtures plus their expected verdicts."""

from __future__ import annotations

import os

FIXTURE_ROOT = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str, filename: str) -> str:
    return os.path.join(FIXTURE_ROOT, name, filename)
