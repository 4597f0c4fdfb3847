import pytest

# Rewrite the oracles' asserts too, so they still check under python -O.
pytest.register_assert_rewrite("helpers")

from skewlat.fixtures import FIXTURE_NAMES, fixture_code, fixture_ring


@pytest.fixture(params=FIXTURE_NAMES)
def fixture_name(request):
    return request.param


@pytest.fixture
def ring(fixture_name):
    return fixture_ring(fixture_name)


@pytest.fixture
def code(fixture_name):
    return fixture_code(fixture_name)
