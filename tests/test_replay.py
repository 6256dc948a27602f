"""Engine versus naive oracle: x values, settlements, and full read logs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from injurybench.engine import EngineState, new_engine_a, new_engine_b, run_engine
from injurybench.phi import DEFAULT_CONFIG, _FormulaSlot, _Slot, registry_from_config
from injurybench import replay
from injurybench.replay import _History, naive_ell, replay_run
from injurybench.strings import REL_LEX, REL_LEX_OR_EXT, nu, region_contains, region_start
from injurybench.tracekit import FLAG_FIELDS
from conftest import MINIMAL_CONFIG
from test_phi import _ELL_CONFIGS
from test_randomized import DOUBLING_PROGRAM, random_config


def _compare(engine_tag, config, T):
    state = (new_engine_a if engine_tag == "A" else new_engine_b)(
        registry_from_config(config), record_reads=True
    )
    trace = run_engine(state, T)
    oracle = replay_run(registry_from_config(config), engine_tag, T)
    assert oracle.x == trace.x
    assert oracle.settlements == [rec.settled for rec in trace.stages]
    assert oracle.reads == state.read_log


def test_replay_result_repr_leaves_out_the_read_log():
    result = replay_run(registry_from_config(MINIMAL_CONFIG), "A", 3)
    assert result.reads
    assert repr(result) == (f"ReplayResult(engine='A', x={result.x!r}, "
                            f"settlements={result.settlements!r})")


@pytest.mark.parametrize("engine_tag", ["A", "B"])
def test_minimal_registry_replay(engine_tag):
    _compare(engine_tag, MINIMAL_CONFIG, 80)


@pytest.mark.parametrize("engine_tag", ["A", "B"])
def test_default_registry_replay(engine_tag):
    _compare(engine_tag, DEFAULT_CONFIG, 120)


# this family makes a depth-2 threat get scheduled onto a mid-tree strategy,
# which then re-delegates upward
RESPLIT_CONFIG = {"slots": [
    {"index": 0, "kind": "identity"},
    {"index": 1, "kind": "identity"},
    {"index": 2, "kind": "square"},
]}


def test_replay_covers_re_split_delegation():
    # the rarest branch of the substage rules must agree with the oracle
    # read for read
    config = RESPLIT_CONFIG
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


# The deep-b benchmark family: no slot 0, so the estimated true path stays
# stable to depth ~T.
DEEP_CONFIG = {"slots": [
    {"index": 1, "kind": "identity"},
    {"index": 5, "kind": "const", "value": 6},
    {"index": 6, "kind": "diverge"},
]}


@pytest.mark.parametrize("engine_tag, config, T", [
    ("A", DEFAULT_CONFIG, 300),
    ("A", RESPLIT_CONFIG, 220),
    ("B", DEEP_CONFIG, 250),
], ids=["default-A", "resplit-A", "deep-B"])
def test_read_logs_hold_one_string_per_word(engine_tag, config, T):
    # each side of the cross-check builds a walked word once per run, so
    # its log holds one string object per distinct word, however many
    # reads name it; counting objects, not bytes, gives one answer on
    # every Python
    state = (new_engine_a if engine_tag == "A" else new_engine_b)(
        registry_from_config(config), record_reads=True)
    run_engine(state, T)
    oracle = replay_run(registry_from_config(config), engine_tag, T)
    for log in (state.read_log, oracle.reads):
        words = [read[1] for read in log]
        assert len(words) > 2 * len(set(words))
        assert len({id(word) for word in words}) == len(set(words))
    assert oracle.reads == state.read_log

    # without a read log the engine keeps no word table
    unlogged = (new_engine_a if engine_tag == "A" else new_engine_b)(
        registry_from_config(config))
    run_engine(unlogged, T)
    assert unlogged.words is None
    assert not any(isinstance(value, replay.WordTable) for value in vars(unlogged).values())


# The family test_randomized.random_config draws from random.Random(193):
# by T=250 engine A schedules a counter of more than a hundred digits, a
# branch the default family reaches only past the naive oracle's horizons.
BIG_COUNTER_CONFIG = {"slots": [
    {"index": 5, "kind": "const", "value": 1},
    {"index": 0, "kind": "program", "code": DOUBLING_PROGRAM, "total_increasing": True},
    {"index": 3, "kind": "square"},
]}


def test_replay_covers_a_counter_of_over_a_hundred_digits():
    state = new_engine_a(registry_from_config(BIG_COUNTER_CONFIG), record_reads=True)
    trace = run_engine(state, 250)
    counters = [rec.action.counter for rec in trace.stages if rec.action.counter is not None]
    assert max(len(str(c)) for c in counters) >= 100
    assert {rec.action.kind for rec in trace.stages} == {
        "threat_jump", "threat_schedule", "expansion_jump", "top_out"}
    oracle = replay_run(registry_from_config(BIG_COUNTER_CONFIG), "A", 250)
    assert oracle.x == trace.x
    assert oracle.settlements == [rec.settled for rec in trace.stages]
    assert oracle.reads == state.read_log


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
    _compare(engine_tag, SPARSE_DEEP_CONFIGS[name], 600)


def test_forced_tail_is_fast_forwarded(monkeypatch):
    # every substage the engine walks reads the strategy's flag once; below
    # the forced depth the walk must skip straight to top-out, logging the
    # flag reads it skips without making them, so a stage costs at most
    # max index + 2 flag reads instead of up to t, and its log is the
    # oracle's, whose walk visits every depth
    calls = 0
    original = EngineState._read

    def counting(self, sigma, fld):
        nonlocal calls
        if fld == FLAG_FIELDS[self.engine]:
            calls += 1
        return original(self, sigma, fld)

    monkeypatch.setattr(EngineState, "_read", counting)
    registry = registry_from_config(DEFAULT_CONFIG)
    T = 300
    state = new_engine_a(registry, record_reads=True)
    trace = run_engine(state, T)
    assert sum(rec.action.kind == "top_out" for rec in trace.stages) > T // 2
    assert calls <= T * (max(registry.configured_indices()) + 2)
    assert state.read_log == replay_run(registry_from_config(DEFAULT_CONFIG), "A", T).reads


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_registry_replay(seed):
    config = random_config(random.Random(seed))
    for engine_tag in ("A", "B"):
        _compare(engine_tag, config, 150)


def test_naive_ell_matches_registry():
    for name, config in [("resplit", RESPLIT_CONFIG), *sorted(_ELL_CONFIGS.items())]:
        reg = registry_from_config(config)
        fresh = registry_from_config(config)
        for e in sorted(reg.configured_indices()) + [11, 99]:
            for t in range(-1, 201):
                assert naive_ell(reg, e, t) == fresh.ell(e, t), (name, e, t)


def test_replay_chain_lengths_make_few_gate_calls(monkeypatch):
    # naive_ell rebuilds each chain on every call; an increasing formula
    # slot must answer that by bisection, not by one gate call per input,
    # or default B at T=1000 makes about half a million gate calls
    calls = 0
    for cls in (_Slot, *_Slot.__subclasses__()):
        if "visible" in vars(cls):
            def counting(self, n, t, _original=cls.visible):
                nonlocal calls
                calls += 1
                return _original(self, n, t)

            monkeypatch.setattr(cls, "visible", counting)
    replay_run(registry_from_config(DEFAULT_CONFIG), "B", 1000)
    assert 0 < calls <= 10_000, calls


def test_naive_ell_does_not_walk_an_increasing_formula_slots_values(monkeypatch):
    # the chain query of an increasing formula slot is one bisection of its
    # value list, and naive_ell takes its length: neither calls the gate nor
    # goes through the values, or the oracle's chain lengths cost O(t) each
    # again (counted, so the test does not depend on the clock)
    counts = {"visible": 0, "iterated": 0}

    class CountedValues(list):
        def __iter__(self):
            for v in super().__iter__():
                counts["iterated"] += 1
                yield v

    original = _FormulaSlot.visible_values

    def counted(self, t):
        return CountedValues(original(self, t))

    def gate(self, n, t, _original=_FormulaSlot.visible):
        counts["visible"] += 1
        return _original(self, n, t)

    monkeypatch.setattr(_FormulaSlot, "visible_values", counted)
    monkeypatch.setattr(_FormulaSlot, "visible", gate)
    registry = registry_from_config({"slots": [{"index": 0, "kind": "identity"}]})
    T = 100_000
    assert [naive_ell(registry, 0, t) for t in (-1, 0, T, T)] == [-1, 0, T, T]
    assert counts == {"visible": 0, "iterated": 0}, counts


def test_replay_rejects_unknown_engine():
    with pytest.raises(ValueError):
        replay_run(registry_from_config(DEFAULT_CONFIG), "C", 5)


# ---------------------------------------------------------------------------
# The history's read against the full scan it replaced


def full_scan_read(hist, regions, sigma, fld, time):
    """Reference for _History.read: the latest write at or before ``time``
    and the latest region at or before ``time`` that contains sigma, each
    found by a scan of every event; the region wins ties.  ``regions`` are
    the history's region events as (stage, anchor, rel), and membership is
    decided on them, not on the start words the history keeps."""
    write_time = None
    write_val = None
    for wt, wv in reversed(hist.writes.get((sigma, fld), ())):
        if wt <= time:
            write_time, write_val = wt, wv
            break
    init_time = None
    init_applies = fld in ("c", "w") or (fld == "s" and hist.engine == "A")
    if init_applies:
        for stage, anchor, rel in reversed(regions):
            if stage + 1 > time:
                continue
            if region_contains(anchor, rel, sigma):
                init_time = stage + 1
                break
    if init_time is not None and (write_time is None or init_time >= write_time):
        return nu(sigma) + init_time + 1 if fld == "w" else 0
    if write_time is not None:
        return write_val
    return nu(sigma) if fld == "w" else 0


WORDS = [""] + [format(i, f"0{n}b") for n in range(1, 6) for i in range(2 ** n)]
FIELDS = ("c", "w", "r", "s", "p")


def random_history(rng, engine, stages, committed=False):
    """A history no engine made: any word of length up to 5 and any field
    written at any stage, several writes and regions per stage or none, in
    stage order as replay_run appends them.  Few words and dense stages
    make a write and a containing region at the same time common.  With
    ``committed`` each stage has one region and no write inside it, as
    ``engine.run_stage`` commits a stage.  Returns the history, its words
    and its regions as (stage, anchor, rel)."""
    hist = _History(engine)
    words = rng.sample(WORDS, rng.randint(1, 12))
    regions = []
    for t in range(stages):
        writes = [(rng.choice(words), rng.choice(FIELDS), rng.randint(0, 9))
                  for _ in range(rng.choice((0, 0, 1, 2, 3)))]
        for _ in range(1 if committed else rng.choice((0, 1, 1, 2))):
            anchor, rel = rng.choice(words), rng.choice((REL_LEX, REL_LEX_OR_EXT))
            regions.append((t, anchor, rel))
            hist.inits.append((t, region_start(anchor, rel)))
        for sigma, fld, value in writes:
            if not (committed and region_contains(anchor, rel, sigma)):
                hist.write(sigma, fld, value, t + 1)
    return hist, words, regions


def stage_writes(hist, stages):
    """A history's writes grouped by stage, as (sigma, field, value) in the
    order a stage wrote them to each parameter."""
    writes = [[] for _ in range(stages)]
    for (sigma, fld), events in hist.writes.items():
        for time, value in events:
            writes[time - 1].append((sigma, fld, value))
    return writes


@pytest.mark.parametrize("engine_tag", ["A", "B"])
def test_history_read_matches_the_full_scan_on_random_histories(engine_tag):
    rng = random.Random(20261020)
    ties = later = 0
    for _ in range(400):
        stages = rng.randint(0, 14)
        hist, words, regions = random_history(rng, engine_tag, stages)
        for time in range(stages + 3):
            for sigma in words:
                for fld in FIELDS:
                    want = full_scan_read(hist, regions, sigma, fld, time)
                    got = hist.read(sigma, fld, time)
                    assert got == want, (hist.writes, regions, sigma, fld, time)
                    written = [wt for wt, _ in hist.writes.get((sigma, fld), ())]
                    seen = [wt for wt in written if wt <= time]
                    ties += bool(seen) and any(
                        stage + 1 == seen[-1] and region_contains(anchor, rel, sigma)
                        for stage, anchor, rel in regions)
                    later += len(seen) < len(written) and any(
                        stage + 1 > time for stage, _, _ in regions)
    # the histories reach the cases the stop rule has to get right: a
    # containing region at the time of the latest write, and writes and
    # regions later than the read
    assert ties > 1000 and later > 1000, (ties, later)


def test_oracle_reads_skip_the_regions_that_cannot_change_them(monkeypatch):
    # a full scan examines 443,920 region events here; stopping at the
    # latest write, and not scanning for unwritten counters and flags,
    # about 42,000
    examined = 0

    class CountingEvents(list):
        def __reversed__(self):
            nonlocal examined
            for event in super().__reversed__():
                examined += 1
                yield event

    class CountingHistory(_History):
        def __init__(self, engine):
            super().__init__(engine)
            self.inits = CountingEvents()

    monkeypatch.setattr(replay, "_History", CountingHistory)
    replay_run(registry_from_config(DEFAULT_CONFIG), "A", 120)
    assert 0 < examined <= 60_000, examined
