from pathlib import Path

import pytest

from injurybench.dyadic import Dyadic, pow2
from injurybench.engine import run_a, run_b
from injurybench.phi import DEFAULT_CONFIG, registry_from_config
from injurybench.speed import ApproxSequence

MINIMAL_CONFIG = {
    "slots": [
        {"index": 0, "kind": "identity"},
        {"index": 1, "kind": "double"},
    ]
}


def fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures"


def jump_stages(trace) -> list[int]:
    """The set J of stages whose jump is positive, in order."""
    return [rec.t for rec in trace.stages if rec.jump.sign() > 0]


def geometric_sequence(length: int, base_exp: int = 1, limit: Dyadic | None = None) -> ApproxSequence:
    """x_n = limit - 2**(-base_exp * n), the standard increasing example."""
    lim = limit if limit is not None else Dyadic(1)
    values = [lim - pow2(-base_exp * n) for n in range(length)]
    return ApproxSequence(values=values, known_limit=lim,
                          provenance=f"geometric(exp={base_exp})")


def random_synthetic_sequence(rng, length: int, increasing: bool = True) -> ApproxSequence:
    """Mixed-rate dyadic approximation of 1 with an exact tail at every index.

    The tail shrinks by a random dyadic factor in {1/2, 3/4, 7/8} per step
    (increasing mode) or may also stall (non-decreasing mode).
    """
    one = Dyadic(1)
    tail = pow2(-rng.randrange(0, 2))
    values = []
    factors = [Dyadic(1, 1), Dyadic(3, 2), Dyadic(7, 3)]
    if not increasing:
        factors = factors + [Dyadic(1)]
    for _ in range(length):
        values.append(one - tail)
        tail = tail * factors[rng.randrange(len(factors))]
    return ApproxSequence(values=values, known_limit=one,
                          provenance="random_synthetic")


@pytest.fixture(scope="session")
def registry():
    return registry_from_config(DEFAULT_CONFIG)


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
