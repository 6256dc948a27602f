"""Randomised registry configurations: engines and checkers must agree.

Any configuration is fair game for the constructions; the checkers may
report horizon-incomplete items but never a violation on genuine engine
output.  A handful of seeded random families keeps the search honest
without slowing the suite down.
"""

import random

import pytest

from injurybench.engine import new_engine_a, new_engine_b, run_engine
from injurybench.phi import registry_from_config
from injurybench.replay import replay_run
from injurybench.tracekit import deserialize, serialize
from injurybench.verify import run_checks

DOUBLING_PROGRAM = [
    ["dec", 0, 1, 3],
    ["inc", 1, 2],
    ["inc", 1, 0],
    ["dec", 1, 4, 5],
    ["inc", 0, 3],
    ["halt"],
]


def random_config(rng: random.Random) -> dict:
    kinds = ["identity", "double", "affine", "square", "const", "partial",
             "diverge", "program"]
    indices = list(range(8))
    rng.shuffle(indices)
    slots = []
    for index in indices[: rng.randrange(3, 8)]:
        kind = rng.choice(kinds)
        entry = {"index": index, "kind": kind}
        if kind == "affine":
            entry["shift"] = rng.randrange(1, 6)
        elif kind == "const":
            entry["value"] = rng.randrange(0, 7)
        elif kind == "partial":
            graph = {}
            value = rng.randrange(0, 3)
            for n in range(rng.randrange(1, 5)):
                graph[str(n)] = value
                value += rng.randrange(1, 4)
            entry["graph"] = graph
        elif kind == "program":
            entry["code"] = DOUBLING_PROGRAM
            entry["total_increasing"] = True
        slots.append(entry)
    return {"slots": slots}


@pytest.mark.parametrize("seed", [11, 23, 37, 59, 71, 97])
@pytest.mark.parametrize("engine", ["A", "B"])
def test_random_registry_runs_verify_clean(seed, engine):
    config = random_config(random.Random(seed))
    registry = registry_from_config(config)
    factory = new_engine_a if engine == "A" else new_engine_b
    state = factory(registry, record_reads=True)
    trace = run_engine(state, 150)

    oracle = replay_run(registry_from_config(config), engine, 150)
    assert oracle.x == trace.x
    assert oracle.reads == state.read_log

    assert deserialize(serialize(trace)) == trace

    for report in run_checks(trace):
        assert report.status in ("pass", "incomplete"), (seed, report.to_json())


def test_big_trace_round_trip(trace_a_2000, trace_b_2000):
    # scheduled counters in long first-construction runs are hundreds of
    # digits; the JSONL encoding must carry them exactly
    for trace in (trace_a_2000, trace_b_2000):
        assert deserialize(serialize(trace)) == trace
    biggest = max(
        w[2] for rec in trace_a_2000.stages for w in rec.param_writes if w[1] == "c"
    )
    assert biggest > 10**100
