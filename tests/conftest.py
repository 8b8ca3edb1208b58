"""Shared test set-up."""

import pytest
from hypothesis import settings

from tempocode import rng

# Every run draws the same examples, so a failure reproduces from its test id alone;
# a test's own max_examples and deadline still apply.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def _no_seed_from_environment(monkeypatch):
    """Run every test as if TEMPOCODE_SEED were unset, since the library reads it."""
    monkeypatch.delenv("TEMPOCODE_SEED", raising=False)


@pytest.fixture(params=["probed route", "math fallback"])
def libm_route(request, monkeypatch):
    """Run a test on the libm route the probe chose, then as if the probe had failed."""
    if request.param == "math fallback":
        monkeypatch.setattr(rng, "_overlap_is_libm", lambda: False)
