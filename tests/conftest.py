import gc
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trapkit.ingest import Source, parse_deployments, parse_images, unify
from trapkit.taxonomy import parse_taxonomy

FIXTURE_DIR = Path(__file__).parent / "data" / "fixture"
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that leaves the cyclic garbage collector off for the tests after it."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child ``os.fork`` starts in this process, in order."""
    started = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return started


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def taxonomy_table():
    """The bundled 10-species table: 4 genera, 3 families, 2 orders, 1 class."""
    with open(FIXTURE_DIR / "taxonomy.csv", encoding="utf-8") as handle:
        table, issues = parse_taxonomy(handle)
    assert issues == []
    return table


@pytest.fixture(scope="session")
def fixture_dataset(taxonomy_table):
    """The bundled dataset, unified; its known defect rows are reported."""
    with open(FIXTURE_DIR / "deployments.csv", encoding="utf-8") as handle:
        deployments, dep_issues = parse_deployments(handle)
    with open(FIXTURE_DIR / "images.csv", encoding="utf-8") as handle:
        images, image_issues = parse_images(handle)
    dataset, unify_issues = unify([Source("fixture", deployments, images)], taxonomy_table)
    return dataset
