import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and have no deadline, so
# tier-1 stays deterministic and does not flake on a slow or busy machine.
settings.register_profile(
    "ssfgw", derandomize=True, deadline=None, max_examples=200, database=None
)
settings.load_profile("ssfgw")


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
