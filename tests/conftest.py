from pathlib import Path

import pytest

from injurybench.engine import run_a, run_b
from injurybench.phi import default_registry, registry_from_config

MINIMAL_CONFIG = {
    "slots": [
        {"index": 0, "kind": "identity"},
        {"index": 1, "kind": "double"},
    ]
}


def fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture(scope="session")
def minimal_registry():
    return registry_from_config(MINIMAL_CONFIG)


@pytest.fixture(scope="session")
def traces(registry):
    """Shared default-registry traces for both engines at the acceptance sizes."""
    cache = {}

    def get(engine: str, T: int):
        key = (engine, T)
        if key not in cache:
            runner = run_a if engine == "A" else run_b
            cache[key] = runner(registry, T)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def trace_a_2000(traces):
    return traces("A", 2000)


@pytest.fixture(scope="session")
def trace_b_2000(traces):
    return traces("B", 2000)
