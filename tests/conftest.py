import pytest

from shufflealg.scalars import ExactDomain


@pytest.fixture(scope="session")
def dom():
    return ExactDomain()
