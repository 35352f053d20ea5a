import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, so Tier-1 is reproducible
settings.register_profile("zml", derandomize=True, deadline=None, database=None)
# many more examples for the windowed-solve properties: --hypothesis-profile=deep
settings.register_profile("deep", max_examples=500, derandomize=True,
                          deadline=None, database=None)
# every property on fresh random draws, three times as many as in Tier-1
# (a property's own count scales with max_examples):
# --hypothesis-profile=offseed --hypothesis-seed=N reruns the draws of seed N
settings.register_profile("offseed", max_examples=300, derandomize=False,
                          deadline=None, database=None, print_blob=True)
settings.load_profile("zml")


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
