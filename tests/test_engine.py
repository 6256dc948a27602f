"""Engine behaviour pinned against hand simulations of the substage rules.

The golden values below were derived by hand-executing the construction
rules on the two-slot registry (identity at 0, doubling at 1) before the
engine existed; they exercise the threat jump, the delegation with an
encoded split counter, the counter drain, and the initialisation regions.
"""

import pytest

from injurybench.dyadic import Dyadic, ZERO, pow2
from injurybench.engine import (
    EngineState,
    new_engine_a,
    new_engine_b,
    run_a,
    run_b,
    run_engine,
    run_stage,
)
from injurybench.phi import registry_from_config
from injurybench.strings import nu, pair
from injurybench.tracekit import (
    EXPANSION_JUMP,
    THREAT_JUMP,
    THREAT_SCHEDULE,
    TOP_OUT,
    TERMINAL_KINDS,
    TraceCorruption,
    TraceIndex,
)
from conftest import MINIMAL_CONFIG


@pytest.fixture()
def minimal():
    return registry_from_config(MINIMAL_CONFIG)


def test_initial_parameter_defaults(minimal):
    trace = run_a(minimal, 1)
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
    assert run_a(minimal, 1).x == [ZERO, ZERO]
    assert run_a(minimal, 2).x == [ZERO, ZERO, Dyadic(1)]


def test_all_diverge_registry_never_moves():
    reg = registry_from_config({"slots": []})
    trace = run_a(reg, 40)
    assert all(v == ZERO for v in trace.x)
    assert all(rec.action.kind == TOP_OUT for rec in trace.stages)
    assert [rec.settled for rec in trace.stages] == ["1" * t for t in range(40)]
    trace_b = run_b(reg, 40)
    assert all(v == ZERO for v in trace_b.x)


def test_engine_a_golden(minimal):
    trace = run_a(minimal, 18)
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

    assert trace.index.u_map == {1: 1, **{t: 8 for t in range(9, 17)}}
    assert trace.index.cutoff_stage("") == 1
    assert trace.index.cutoff_stage("0") == 16
    assert trace.index.cutoff_stage("11") is None


def test_engine_b_golden(minimal):
    trace = run_b(minimal, 8)
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

    assert trace.index.u_map == {1: 1, 3: 3, 4: 2, 5: 5, 7: 7}
    assert index.threats == {"": [1, 3, 5, 7], "0": [2]}


def test_terminal_kinds_only(minimal, registry):
    for trace in (run_a(minimal, 30), run_b(minimal, 30), run_a(registry, 60)):
        for rec in trace.stages:
            assert rec.action.kind in TERMINAL_KINDS
            assert rec.action.sigma == rec.settled
            assert (rec.jump.sign() > 0) == (rec.action.kind in (THREAT_JUMP, EXPANSION_JUMP))


def test_determinism_same_registry_instance(minimal):
    assert run_a(minimal, 60).digest() == run_a(minimal, 60).digest()
    assert run_b(minimal, 60).digest() == run_b(minimal, 60).digest()


def test_prefix_stability(registry):
    long = run_a(registry, 150)
    short = run_a(registry, 75)
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


def test_double_write_raises_trace_corruption(minimal):
    st = new_engine_a(minimal)
    st._stage_write("", "r", 1)
    with pytest.raises(TraceCorruption, match="double write"):
        st._stage_write("", "r", 2)


def test_write_into_own_region_raises_trace_corruption(minimal):
    # a threatened strategy initialises its proper extensions on engine A;
    # a stray write to one of them must stop the commit
    st = new_engine_a(minimal)
    threat_info = st._threat_info

    def threat_info_with_stray_write(sigma, e):
        info = threat_info(sigma, e)
        if info[0]:
            st._stage_write(sigma + "0", "r", 1)
        return info

    st._threat_info = threat_info_with_stray_write
    with pytest.raises(TraceCorruption, match="own initialisation region"):
        run_engine(st, 30)


def test_double_write_guard_survives_optimisation(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import injurybench

    src_dir = Path(injurybench.__file__).resolve().parent.parent
    code = (
        "from injurybench.engine import new_engine_a\n"
        "from injurybench.phi import DEFAULT_CONFIG, registry_from_config\n"
        "from injurybench.tracekit import TraceCorruption\n"
        "st = new_engine_a(registry_from_config(DEFAULT_CONFIG))\n"
        "st._stage_write('', 'r', 1)\n"
        "try:\n"
        "    st._stage_write('', 'r', 2)\n"
        "except TraceCorruption as exc:\n"
        "    print(__debug__, exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        check=True, cwd=tmp_path,
        env={**os.environ, "PATH": "/usr/bin:/bin", "PYTHONPATH": str(src_dir)},
    )
    assert result.stdout.strip() == "False double write ('', 'r') in stage 0"
