import json
import os
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
DATA_DIR = TESTS_DIR / "data"
SYNTHETIC_DIR = DATA_DIR / "synthetic"

# the oracles, and perfbench/workloads for mask_timings, the one timing mask
sys.path[:0] = [str(TESTS_DIR), str(TESTS_DIR.parent / "perfbench")]


@pytest.fixture(scope="session")
def mt_reference():
    """Frozen outputs of the reference C generator, seeds 0..4 x 1000 draws."""
    with open(DATA_DIR / "mt19937_reference.json", encoding="utf-8") as f:
        return {int(k): v for k, v in json.load(f).items()}


@pytest.fixture(scope="session")
def synthetic_dir():
    return SYNTHETIC_DIR


@pytest.fixture
def fresh_env():
    """The environment of a fresh interpreter that imports the hwcsum these
    tests import: the directory holding that package first on PYTHONPATH."""
    import hwcsum

    package_dir = str(Path(hwcsum.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_dir, os.environ.get("PYTHONPATH")])))
