"""Engine versus naive oracle: x values, settlements, and full read logs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from injurybench.engine import EngineState, new_engine_a, new_engine_b, run_engine
from injurybench.phi import DEFAULT_CONFIG, registry_from_config
from injurybench.replay import naive_ell, replay_run
from conftest import MINIMAL_CONFIG
from test_randomized import random_config


def _compare(engine_tag, config, T):
    state = (new_engine_a if engine_tag == "A" else new_engine_b)(
        registry_from_config(config), record_reads=True
    )
    trace = run_engine(state, T)
    oracle = replay_run(registry_from_config(config), engine_tag, T)
    assert oracle.x == trace.x
    assert oracle.settlements == [rec.settled for rec in trace.stages]
    assert oracle.reads == state.read_log


@pytest.mark.parametrize("engine_tag", ["A", "B"])
def test_minimal_registry_replay(engine_tag):
    _compare(engine_tag, MINIMAL_CONFIG, 80)


@pytest.mark.parametrize("engine_tag", ["A", "B"])
def test_default_registry_replay(engine_tag):
    _compare(engine_tag, DEFAULT_CONFIG, 120)


def test_replay_covers_re_split_delegation():
    # this family makes a depth-2 threat get scheduled onto a mid-tree
    # strategy, which then re-delegates upward: the rarest branch of the
    # substage rules must agree with the oracle read for read
    config = {"slots": [
        {"index": 0, "kind": "identity"},
        {"index": 1, "kind": "identity"},
        {"index": 2, "kind": "square"},
    ]}
    state = new_engine_a(registry_from_config(config), record_reads=True)
    trace = run_engine(state, 1000)
    kinds = {rec.action.kind for rec in trace.stages}
    assert "expansion_delegate" in kinds and "threat_schedule" in kinds
    oracle = replay_run(registry_from_config(config), "A", 1000)
    assert oracle.x == trace.x
    assert oracle.reads == state.read_log

    from injurybench.verify import run_checks

    for report in run_checks(trace):
        assert report.status in ("pass", "incomplete"), report.to_json()


# Sparse registries whose deepest slot index lies far beyond their slot
# count: the engine's forced all-ones tail may only start below the deepest
# configured index (and the deepest materialised strategy), never below
# depth len(slots).
SPARSE_DEEP_CONFIGS = {
    "identity0-double12": {"slots": [
        {"index": 0, "kind": "identity"},
        {"index": 12, "kind": "double"},
    ]},
    "identity3-const20": {"slots": [
        {"index": 3, "kind": "identity"},
        {"index": 20, "kind": "const", "value": 4},
    ]},
}


@pytest.mark.parametrize("name", sorted(SPARSE_DEEP_CONFIGS))
@pytest.mark.parametrize("engine_tag", ["A", "B"])
def test_sparse_deep_registry_replay(engine_tag, name):
    _compare(engine_tag, SPARSE_DEEP_CONFIGS[name], 300)


def test_forced_tail_is_fast_forwarded(monkeypatch):
    # the threat test runs once per substage the engine walks; below the
    # forced depth the walk must skip straight to top-out, so a stage costs
    # at most max index + 2 threat tests instead of up to t
    calls = 0
    original = EngineState._threat_info

    def counting(self, sigma, e):
        nonlocal calls
        calls += 1
        return original(self, sigma, e)

    monkeypatch.setattr(EngineState, "_threat_info", counting)
    registry = registry_from_config(DEFAULT_CONFIG)
    T = 300
    trace = run_engine(new_engine_a(registry), T)
    assert sum(rec.action.kind == "top_out" for rec in trace.stages) > T // 2
    assert calls <= T * (max(registry.configured_indices()) + 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_registry_replay(seed):
    config = random_config(random.Random(seed))
    for engine_tag in ("A", "B"):
        _compare(engine_tag, config, 150)


def test_naive_ell_matches_registry():
    reg = registry_from_config(DEFAULT_CONFIG)
    fresh = registry_from_config(DEFAULT_CONFIG)
    for e in sorted(reg.configured_indices()) + [11]:
        for t in (0, 1, 5, 17, 60):
            assert naive_ell(reg, e, t) == fresh.ell(e, t)


def test_replay_rejects_unknown_engine():
    with pytest.raises(ValueError):
        replay_run(registry_from_config(DEFAULT_CONFIG), "C", 5)
