import pytest

from qfaulhaber import coeffs, lgv


@pytest.fixture
def cold_pair_sums():
    """Clear lgv-det's pair-sum memo before and after the test, so a test
    that patches an lgv weight or path helper neither reads sums made
    without the patch nor leaves its own behind for later tests."""
    lgv._pair_sum.cache_clear()
    yield
    lgv._pair_sum.cache_clear()


@pytest.fixture
def cold_family_dets():
    """Clear the det route's row and determinant memos before and after the
    test, so a test that patches the determinant kernel computes every row
    under the patch and leaves none of its rows behind."""
    coeffs._family_row.cache_clear()
    coeffs._family_det.cache_clear()
    yield
    coeffs._family_row.cache_clear()
    coeffs._family_det.cache_clear()
