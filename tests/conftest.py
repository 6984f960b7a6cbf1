"""Fixtures shared by every test module."""

import pytest

from toomlab import cli


@pytest.fixture(autouse=True)
def no_seed_from_the_environment(monkeypatch):
    """A test sees TOOMLAB_SEED only when it sets the variable itself."""
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
