import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))  # makes `import oracles` work

from nsplan import kg
from nsplan.admissible import load_admissible_set
from nsplan.embeddings import HashEmbedding

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(name="fixture_path", scope="session")
def fixture_path_fixture():
    return fixture_path


@pytest.fixture
def sleeps(monkeypatch):
    """Stubs ``time.sleep`` and records each requested delay, in order."""
    delays = []
    monkeypatch.setattr("time.sleep", delays.append)
    return delays


@pytest.fixture(scope="session")
def hash_embedder():
    return HashEmbedding()


@pytest.fixture(scope="session")
def shower_graph():
    return kg.load_graph(fixture_path("shower_graph.tsv"))


@pytest.fixture(scope="session")
def tv_graph():
    return kg.load_graph(fixture_path("tv_graph.jsonl"), fmt="jsonl")


@pytest.fixture(scope="session")
def household_admissible():
    return load_admissible_set(fixture_path("admissible_household.json"))
