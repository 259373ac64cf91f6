import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from exact1q.classify import classify_all


@pytest.fixture(scope="session")
def records3():
    return classify_all(3)


@pytest.fixture(scope="session")
def records4():
    """Full 4-bit run (32767 supports, about 1 s); shared by many tests."""
    return classify_all(4)
