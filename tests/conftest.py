import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so Tier-1 is reproducible
settings.register_profile("zml", derandomize=True, deadline=None, database=None)
settings.load_profile("zml")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
