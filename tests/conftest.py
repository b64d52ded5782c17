import pytest

from qfaulhaber import coeffs, identities, lgv


@pytest.fixture
def cold_memos():
    """Clear every memo of the package (the det route's rows and
    determinants, lgv-det's pair sums, ...) before and after the test, so a
    test that patches any layer computes every value under the patch and
    leaves none of its values behind."""
    memos = [f for module in (coeffs, identities, lgv)
             for f in vars(module).values() if hasattr(f, "cache_clear")]
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
