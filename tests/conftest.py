import random

import pytest
from hypothesis import settings

from octalg import core

# The randomized acceptance suite already runs every identity at 1000 cases;
# hypothesis runs here are for shrinking quality, not volume.
settings.register_profile("octalg", max_examples=50, deadline=None)
settings.load_profile("octalg")


@pytest.fixture
def rng():
    return random.Random("octalg-tests")


@pytest.fixture
def count_products(monkeypatch):
    """A list whose length is the number of octonion products run so far."""
    calls = []
    product = core._product

    def counting(a, b, z):
        calls.append(None)
        return product(a, b, z)

    monkeypatch.setattr(core, "_product", counting)
    return calls
