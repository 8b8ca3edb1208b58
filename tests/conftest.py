"""Shared test set-up."""

import pytest


@pytest.fixture(autouse=True)
def _no_seed_from_environment(monkeypatch):
    """Run every test as if TEMPOCODE_SEED were unset, since the library reads it."""
    monkeypatch.delenv("TEMPOCODE_SEED", raising=False)
