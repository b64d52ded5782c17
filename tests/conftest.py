import pytest

from qfaulhaber import lgv


@pytest.fixture
def cold_pair_sums():
    """Clear lgv-det's pair-sum memo before and after the test, so a test
    that patches an lgv weight or path helper neither reads sums made
    without the patch nor leaves its own behind for later tests."""
    lgv._pair_sum.cache_clear()
    yield
    lgv._pair_sum.cache_clear()
