"""Engine behaviour pinned against hand simulations of the substage rules.

The golden values below were derived by hand-executing the construction
rules on the two-slot registry (identity at 0, doubling at 1) before the
engine existed; they exercise the threat jump, the delegation with an
encoded split counter, the counter drain, and the initialisation regions.
"""

import random

import pytest

from injurybench import replay
from injurybench.dyadic import Dyadic, ZERO, pow2
from injurybench.engine import (
    EngineState,
    new_engine_a,
    new_engine_b,
    run_engine,
    run_stage,
)
from injurybench.phi import DEFAULT_CONFIG, registry_from_config
from injurybench.replay import stage_rules
from injurybench.strings import REL_LEX, REL_LEX_OR_EXT, nu, pair, region_contains, region_start
from injurybench.tracekit import (
    EXPANSION_DELEGATE,
    EXPANSION_JUMP,
    THREAT_JUMP,
    THREAT_SCHEDULE,
    TOP_OUT,
    Action,
    StageRecord,
    Trace,
    TraceCorruption,
    TraceIndex,
    serialize,
)
from injurybench.verify import check_settlement_facts
from conftest import MINIMAL_CONFIG


@pytest.fixture()
def minimal():
    return registry_from_config(MINIMAL_CONFIG)


def test_initial_parameter_defaults(minimal):
    trace = run_engine(EngineState(minimal, "A"), 1)
    index = TraceIndex(trace)
    assert index.value("", "w", 0) == 0
    assert index.value("1", "w", 0) == 2  # nu("1")
    assert index.value("0110", "w", 0) == nu("0110")
    assert index.value("", "c", 0) == 0
    assert index.value("101", "r", 0) == 0
    assert index.value("11", "s", 0) == 0

    # the engine reads the same defaults: stage 0's region (lex-right of the
    # root) is empty, so stage 1 sees the root's flag and witness unchanged,
    # and stage 2 its restraint and counter
    st = new_engine_a(minimal, record_reads=True)
    run_engine(st, 3)
    assert st.read_log[:5] == [
        (1, "", "s", "cur", 0), (1, "", "w", "cur", 0),
        (2, "", "s", "cur", 1), (2, "", "r", "cur", 0), (2, "", "c", "cur", 0),
    ]
    # engine B's threat region misses "0", whose witness is still nu("0")
    st_b = new_engine_b(minimal, record_reads=True)
    run_engine(st_b, 3)
    assert (2, "0", "w", "cur", nu("0")) in st_b.read_log


def test_threat_predicate_examples(minimal):
    st = new_engine_a(minimal, record_reads=True)
    run_stage(st)  # stage 0 tops out
    # identity delivers, witness 0, gap 0 < 1: the root is threatened
    rec = run_stage(st)
    assert (rec.settled, rec.action.kind) == ("", THREAT_JUMP)
    assert st.read_log == [(1, "", "s", "cur", 0), (1, "", "w", "cur", 0)]
    # stage 2: the flag set at stage 1 rules the threat out without further
    # reads; the root is expansionary (restraint and counter read, bit 0)
    rec = run_stage(st)
    assert rec.settled == "01"
    assert rec.param_writes == (("", "r", 1),)
    assert st.read_log[2:] == [
        (2, "", "s", "cur", 1), (2, "", "r", "cur", 0), (2, "", "c", "cur", 0),
        (2, "0", "s", "cur", 0), (2, "0", "w", "cur", 4),
    ]
    # empty slots have chain length -1: a strategy of length 2 or more is
    # neither threatened nor expansionary, so only its flag is read
    run_engine(st, 8)
    stage7 = [(sigma, fld) for t, sigma, fld, _, _ in st.read_log if t == 7]
    assert stage7[-5:] == [(sigma, "s") for sigma in ("01", "011", "0111", "01111", "011111")]
    assert st.records[7].settled == "0111111"


def test_stage_zero(minimal):
    st = new_engine_a(minimal)
    rec = run_stage(st)
    assert rec.settled == ""
    assert rec.action.kind == TOP_OUT
    assert rec.jump == ZERO
    assert rec.init_regions == (("", "lex_gt"),)
    assert st.x == [ZERO, ZERO]


def test_run_a_small_horizons(minimal):
    assert run_engine(EngineState(minimal, "A"), 1).x == [ZERO, ZERO]
    assert run_engine(EngineState(minimal, "A"), 2).x == [ZERO, ZERO, Dyadic(1)]


def test_all_diverge_registry_never_moves():
    reg = registry_from_config({"slots": []})
    trace = run_engine(EngineState(reg, "A"), 40)
    assert all(v == ZERO for v in trace.x)
    assert all(rec.action.kind == TOP_OUT for rec in trace.stages)
    assert [rec.settled for rec in trace.stages] == ["1" * t for t in range(40)]
    trace_b = run_engine(EngineState(reg, "B"), 40)
    assert all(v == ZERO for v in trace_b.x)


def test_engine_a_golden(minimal):
    trace = run_engine(EngineState(minimal, "A"), 18)
    index = TraceIndex(trace)

    assert trace.x[0] == ZERO and trace.x[1] == ZERO
    assert trace.x[2] == Dyadic(1)
    assert trace.x[9] == Dyadic(1)
    assert trace.x[10] == Dyadic(1) + pow2(-7)
    assert trace.x[17] == Dyadic(17, 4)
    assert trace.x[18] == Dyadic(17, 4)

    settled = [rec.settled for rec in trace.stages]
    assert settled[0] == "" and settled[1] == ""
    assert settled[2] == "01"
    assert settled[7] == "0111111"
    assert settled[8] == "0"
    assert settled[9:17] == [""] * 8
    assert settled[17] == "00" + "1" * 15

    assert trace.stages[1].action.kind == THREAT_JUMP
    assert trace.stages[1].action.exponent == 0

    schedule = trace.stages[8].action
    assert schedule.kind == THREAT_SCHEDULE
    assert schedule.gamma == ""
    assert schedule.counter == pair("0", 8) == 53
    assert trace.stages[8].init_regions == (("0", "lex_gt_or_ext"),)

    for t in range(9, 17):
        action = trace.stages[t].action
        assert action.kind == EXPANSION_JUMP
        assert action.alpha == "0"
        assert action.exponent == 7
        assert action.k == 16 - t
        assert trace.stages[t].init_regions == (("0", "lex_gt_or_ext"),)

    # counter drain encoded via the pairing
    assert index.value("", "c", 9) == 53
    assert index.value("", "c", 10) == pair("0", 7)
    assert index.value("", "c", 16) == pair("0", 1)
    assert index.value("", "c", 17) == 0

    # restraint froze while the counter drained, and resumed after
    assert index.value("", "r", 9) == 7
    assert index.value("", "r", 17) == 7
    assert index.value("", "r", 18) == 8

    # the threatened strategy's witness survived its own stage's region
    assert index.value("0", "w", 8) == 4
    assert index.value("0", "w", 18) == 4
    assert index.value("0", "s", 9) == 1

    # stage 1 pays its own threat, stages 9..16 the threat of "0" at stage 8;
    # neither threat is initialised again, so the last stage of each fibre
    # is its cut-off stage
    fibers = index.fibers
    assert fibers == {1: [1], 8: list(range(9, 17))}
    assert index.threats == {"": [1], "0": [8]}
    assert index.first_initialisation_in("", 1, trace.T) is None
    assert index.first_initialisation_in("0", 8, trace.T) is None
    assert [fibers[t][-1] for t in (1, 8)] == [1, 16]


def test_engine_b_golden(minimal):
    trace = run_engine(EngineState(minimal, "B"), 8)
    index = TraceIndex(trace)

    assert [str(v) for v in trace.x] == [
        "0/2^0", "0/2^0", "1/2^0", "1/2^0", "3/2^1", "2/2^0", "9/2^2", "9/2^2", "19/2^3",
    ]
    assert [rec.settled for rec in trace.stages] == [
        "", "", "0", "", "", "", "001111", "",
    ]

    assert trace.stages[2].action.kind == THREAT_SCHEDULE
    assert trace.stages[2].action.counter == pair("0", 1) == 4
    assert trace.stages[2].init_regions == (("0", "lex_gt"),)
    assert trace.stages[4].action.kind == EXPANSION_JUMP
    assert trace.stages[4].init_regions == (("0", "lex_gt"),)

    # pause flag alternates on the root, witnesses bump by one per threat
    assert [index.value("", "p", t) for t in range(2, 9)] == [1, 0, 1, 0, 1, 0, 1]
    assert [index.value("", "w", t) for t in (2, 4, 6, 8)] == [1, 2, 3, 4]

    # the first construction's region would have reset the sibling subtree;
    # here only the lex-right tree is touched and the pause flag never is
    assert index.value("0", "w", 3) == 2  # explicit bump, no region
    assert index.value("1", "w", 3) == nu("1") + 2 + 2
    assert index.value("1", "w", 5) == nu("1") + 4 + 2
    assert index.value("0", "p", 7) == 0

    assert trace.index.fibers == {1: [1], 3: [3], 2: [4], 5: [5], 7: [7]}
    assert index.threats == {"": [1, 3, 5, 7], "0": [2]}


def test_terminal_kinds_only(minimal, registry):
    for trace in (run_engine(EngineState(minimal, "A"), 30), run_engine(EngineState(minimal, "B"), 30), run_engine(EngineState(registry, "A"), 60)):
        for rec in trace.stages:
            assert rec.action.kind in (TOP_OUT, THREAT_JUMP, THREAT_SCHEDULE,
                                       EXPANSION_JUMP, EXPANSION_DELEGATE)
            assert rec.action.sigma == rec.settled
            assert (rec.jump.sign() > 0) == (rec.action.kind in (THREAT_JUMP, EXPANSION_JUMP))


def test_determinism_same_registry_instance(minimal):
    for tag in "AB":
        assert (serialize(run_engine(EngineState(minimal, tag), 60))
                == serialize(run_engine(EngineState(minimal, tag), 60)))


def test_prefix_stability(registry):
    long = run_engine(EngineState(registry, "A"), 150)
    short = run_engine(EngineState(registry, "A"), 75)
    assert short.x == long.x[:76]
    assert [r.settled for r in short.stages] == [r.settled for r in long.stages[:75]]


def test_hooks_receive_every_record(minimal):
    seen = []
    run_engine(new_engine_a(minimal), 25, hooks=seen.append)
    assert [rec.t for rec in seen] == list(range(25))


def test_run_engine_rejects_empty_run(minimal):
    with pytest.raises(ValueError):
        run_engine(new_engine_a(minimal), 0)


@pytest.mark.parametrize("tag", ["C", "a", "", None])
def test_engine_state_rejects_unknown_tag(minimal, tag):
    with pytest.raises(ValueError, match="unknown engine"):
        EngineState(minimal, tag)


def test_expansion_boundary_is_strict():
    # phi(0) = 1 fixes the compared index at x_1 = 0; after the unit jump
    # the gap is exactly 2**-r = 1, which must not count as expansionary
    reg = registry_from_config({"slots": [{"index": 0, "kind": "partial", "graph": {"0": 1}}]})
    st = new_engine_a(reg, record_reads=True)
    run_stage(st)  # top-out
    run_stage(st)  # threat on the root: jump to 1
    assert st.x[2] == Dyadic(1)
    rec = run_stage(st)
    # flag 1 rules out the threat; restraint 0 and the gap of exactly 1 rule
    # out the expansion, so the counter is never read and the root takes bit 1
    assert st.read_log[2:] == [
        (2, "", "s", "cur", 1), (2, "", "r", "cur", 0), (2, "1", "s", "cur", 0),
    ]
    assert rec.settled == "11"

    st_b = new_engine_b(reg, record_reads=True)
    run_stage(st_b)
    run_stage(st_b)
    run_stage(st_b)  # pause blocks the threat; boundary blocks the expansion
    assert st_b.read_log[2:] == [
        (2, "", "p", "cur", 1), (2, "", "r", "cur", 0), (2, "1", "p", "cur", 0),
    ]
    assert [r.settled for r in st_b.records] == ["", "", "11"]


def test_stage_asks_each_chain_length_at_most_once():
    # a substage asks ell(e, t) once and hands it to both predicates, so a
    # stage, whose substages are at distinct depths e, asks no (e, t) twice
    reg = registry_from_config(DEFAULT_CONFIG)
    ell = reg.ell
    asked = []

    def counting_ell(e, t):
        asked.append((e, t))
        return ell(e, t)

    reg.ell = counting_ell
    st = new_engine_b(reg)
    for t in range(4000):
        asked.clear()
        run_stage(st)
        assert len(asked) == len(set(asked)), t


def test_delegation_targets_the_longest_0_predecessor():
    # the one delegation of the pinned corpora from a word with two zeros:
    # stage 1089 schedules 2**1032 jumps on "00" for a threat of "000", and
    # stage 1090 executes none of them but delegates one to "0", the
    # longest 0-predecessor of "00", not its shortest ""
    trace = run_engine(new_engine_a(registry_from_config(DEFAULT_CONFIG)), 1091)
    assert trace.stages[1089].action[:3] == (THREAT_SCHEDULE, "000", "00")
    rec = trace.stages[1090]
    assert rec.action == Action(EXPANSION_DELEGATE, sigma="00", gamma="0",
                                counter=pair("000", 1 << 9), alpha="000", k=(1 << 1032) - 1)
    assert rec.init_regions == (("000", REL_LEX_OR_EXT),)


def test_double_write_raises_trace_corruption(minimal, monkeypatch):
    # the rules write no parameter twice in a stage; a copy of them that
    # did, made here by staging every write twice, must stop the stage
    stage = replay._stage

    def stage_twice(staged, t, sigma, fld, val):
        stage(staged, t, sigma, fld, val)
        stage(staged, t, sigma, fld, val)

    monkeypatch.setattr(replay, "_stage", stage_twice)
    with pytest.raises(TraceCorruption) as raised:
        run_engine(new_engine_a(minimal), 30)
    # stage 1 handles a threat to the root, and its flag is the first write
    assert str(raised.value) == "double write ('', 's') in stage 1"


def test_write_into_own_region_raises_trace_corruption(minimal, monkeypatch):
    # a threatened strategy initialises its proper extensions on engine A;
    # a stray write to one of them must stop the commit
    def rules_with_stray_write(*args):
        sigma, action, jump_exp, region, writes = stage_rules(*args)
        if action[0] == THREAT_JUMP:
            writes += ((sigma + "0", "r", 1),)
        return sigma, action, jump_exp, region, writes

    monkeypatch.setattr("injurybench.engine.stage_rules", rules_with_stray_write)
    with pytest.raises(TraceCorruption, match="own initialisation region"):
        run_engine(new_engine_a(minimal), 30)


@pytest.mark.parametrize("engine", ["A", "B"])
def test_initialisation_resets_exactly_the_blocks_a_full_scan_selects(minimal, engine):
    # the commit resets the sorted keys from the region's start word on; a
    # scan of every block with region_contains must select the same blocks.
    # The first case has a block whose key is the start word itself.
    rng = random.Random(29)
    words = [""] + [format(i, f"0{n}b") for n in range(1, 6) for i in range(1 << n)]
    cases = [("0", REL_LEX_OR_EXT, ["1", "00", "0", "", "01", "000"])]
    cases += [(rng.choice(words), rng.choice((REL_LEX, REL_LEX_OR_EXT)),
               rng.sample(words, rng.randint(0, 16))) for _ in range(300)]
    edge = 0
    for anchor, rel, keys in cases:
        st = EngineState(minimal, engine)
        for sigma in keys:
            block = st._block(sigma)
            block.c, block.r, block.w, block.s, block.p = 7, 8, 9, 1, 1
        start = region_start(anchor, rel)
        edge += start in keys
        st._initialise(5, start)
        for sigma in keys:
            block = st.params[sigma]
            got = (block.c, block.r, block.w, block.s, block.p)
            if region_contains(anchor, rel, sigma):
                # A: initialisation also clears the satisfaction flag
                assert got == (0, 8, nu(sigma) + 7, int(engine == "B"), 1), (anchor, rel, sigma)
            else:
                assert got == (7, 8, 9, 1, 1), (anchor, rel, sigma)
        assert st.init_events == [(5, start)]
    assert edge >= 5, edge


@pytest.mark.parametrize("counter, restraint, error", [
    (pair("0", 0), 0, "counter of '0' decodes to a zero remaining count at stage 6"),
    (pair("0", 2), 3, "restraint of '' fell below '0''s at stage 6"),
], ids=["zero-count", "fallen-restraint"])
def test_stage_refuses_a_counter_that_admits_no_walk(counter, restraint, error):
    # the engine's side of the stage_rules refusals in test_verify: B after
    # stages 0-5 of two identity slots has both pause flags set, so stage 6
    # raises the root's restraint to 2, appends "0" and reads the counter of "0"
    config = {"slots": [{"index": 0, "kind": "identity"}, {"index": 1, "kind": "identity"}]}
    st = new_engine_b(registry_from_config(config))
    for _ in range(6):
        run_stage(st)
    params = st.params["0"]
    assert (st.params[""].p, st.params[""].r, params.p, params.c, params.r) == (1, 1, 1, 0, 0)
    params.c, params.r = counter, restraint
    with pytest.raises(TraceCorruption) as raised:
        run_stage(st)
    assert str(raised.value) == error

    # settlement reports the same text on a trace whose stage 5 writes the
    # same values, with any record at stage 6
    stages = st.records[:6]
    stages[5] = stages[5]._replace(
        param_writes=stages[5].param_writes + (("0", "c", counter), ("0", "r", restraint)))
    stages.append(StageRecord(6, "", Action(TOP_OUT), ZERO, (("", REL_LEX),), ()))
    trace = Trace(engine="B", config=config, stages=stages, x=st.x[:7] + [st.x[6]])
    errors = [found["error"] for found in check_settlement_facts(trace).witnesses
              if found.get("t") == 6 and "error" in found]
    assert errors == [error]


def test_double_write_guard_survives_optimisation(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import injurybench

    src_dir = Path(injurybench.__file__).resolve().parent.parent
    code = (
        "from injurybench import replay\n"
        "from injurybench.engine import new_engine_a, run_engine\n"
        "from injurybench.phi import DEFAULT_CONFIG, registry_from_config\n"
        "from injurybench.tracekit import TraceCorruption\n"
        "stage = replay._stage\n"
        "def stage_twice(staged, t, sigma, fld, val):\n"
        "    stage(staged, t, sigma, fld, val)\n"
        "    stage(staged, t, sigma, fld, val)\n"
        "replay._stage = stage_twice\n"
        "try:\n"
        "    run_engine(new_engine_a(registry_from_config(DEFAULT_CONFIG)), 30)\n"
        "except TraceCorruption as exc:\n"
        "    print(__debug__, exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        check=True, cwd=tmp_path,
        env={**os.environ, "PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_dir)},
    )
    assert result.stdout.strip() == "False double write ('', 's') in stage 1"
