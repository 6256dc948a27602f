"""Checker behaviour on valid traces, plus the documented mutation kills.

Each checker must stay green on engine output and flag its documented
single-field mutation.  Mutations edit one field of one stage record; the
x sequence is rebuilt from the jumps so the mutated trace stays internally
consistent wherever the mutation does not target that consistency.
"""

import json
import random
from bisect import bisect_left
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from injurybench.dyadic import Dyadic, ZERO, gap_cmp, pow2
from injurybench.engine import EngineState, run_engine, run_stage
from injurybench.phi import DEFAULT_CONFIG, PhiRegistry, registry_from_config
from injurybench.strings import (
    lex_less,
    nu,
    pair,
    region_contains,
    region_covers_right_of,
    true_path_estimate,
)
from injurybench.tracekit import (
    EXPANSION_KINDS,
    FLAG_FIELDS,
    THREAT_JUMP,
    THREAT_KINDS,
    Action,
    StageRecord,
    Trace,
    TraceCorruption,
    TraceIndex,
    TraceParseError,
    deserialize,
    serialize,
)
from injurybench import verify
from injurybench.replay import StageRuleError, gap_below, stage_rules
from injurybench.verify import (
    check_convergence_bound,
    check_cutoffs,
    check_expansion_gap_bound,
    check_jump_sums,
    check_monotonicity,
    check_requirement_N,
    check_requirement_P,
    check_settlement_facts,
    run_checks,
)
from conftest import MINIMAL_CONFIG, jump_stages
from mutants import changes_trace, jump_value_edits, single_record_mutants, trace_changing_edits
from test_randomized import DOUBLING_PROGRAM, random_config
from test_replay import DEEP_CONFIG, RESPLIT_CONFIG, SPARSE_DEEP_CONFIGS

ONE = Dyadic(1)


@pytest.fixture(scope="module")
def minimal():
    return registry_from_config(MINIMAL_CONFIG)


@pytest.fixture(scope="module")
def trace_a(minimal):
    return run_engine(EngineState(minimal, "A"), 60)


@pytest.fixture(scope="module")
def trace_b(minimal):
    return run_engine(EngineState(minimal, "B"), 60)


def mutate_record(trace: Trace, t: int, **changes) -> Trace:
    """Replace fields of one stage record and rebuild x from the jumps."""
    stages = list(trace.stages)
    stages[t] = stages[t]._replace(**changes)
    x = [ZERO]
    for rec in stages:
        x.append(x[-1] + rec.jump)
    return Trace(engine=trace.engine, config=trace.config, stages=stages, x=x)


def mutate_write(trace: Trace, t: int, index: int, new_value: int) -> Trace:
    writes = list(trace.stages[t].param_writes)
    sigma, fld, _old = writes[index]
    writes[index] = (sigma, fld, new_value)
    return mutate_record(trace, t, param_writes=tuple(writes))


# ---------------------------------------------------------------------------
# Valid traces stay green


def test_valid_traces_have_no_failures(trace_a, trace_b):
    for trace in (trace_a, trace_b):
        for report in run_checks(trace):
            assert report.status in ("pass", "incomplete"), report.to_json()


def test_all_diverge_trace_vacuously_passes():
    reg = registry_from_config({"slots": []})
    trace = run_engine(EngineState(reg, "A"), 25)
    for report in run_checks(trace):
        assert report.status == "pass", report.to_json()
    assert check_monotonicity(trace).witnesses == []
    assert check_jump_sums(trace).counts == {}
    assert check_cutoffs(trace).counts == {}


def test_report_json_keeps_its_key_order(trace_a):
    forged = mutate_record(trace_a, jump_stages(trace_a)[0], jump=Dyadic(8))
    reports = run_checks(trace_a) + [check_convergence_bound(forged)]
    assert any(report.witnesses for report in reports)
    assert any(report.assumptions for report in reports)
    for report in reports:
        payload = report.to_json()
        assert list(payload) == ["check", "status", "witnesses", "assumptions", "counts"]
        assert payload == {"check": report.check, "status": report.status,
                           "witnesses": report.witnesses,
                           "assumptions": report.assumptions, "counts": report.counts}


def test_checks_give_nontrivial_coverage(trace_a):
    assert check_jump_sums(trace_a).counts.get("pass", 0) >= 5
    assert check_cutoffs(trace_a).counts.get("pass", 0) >= 2


# ---------------------------------------------------------------------------
# Documented mutation kills (one per checker)


def test_mutation_monotonicity(trace_a):
    # documented mutation: lower one recorded restraint write to zero
    target = None
    for rec in trace_a.stages:
        for i, (sigma, fld, value) in enumerate(rec.param_writes):
            if fld == "r" and value >= 2:
                target = (rec.t, i)
    assert target is not None
    mutated = mutate_write(trace_a, target[0], target[1], 0)
    report = check_monotonicity(mutated)
    assert report.status == "fail"
    assert any(w["law"] == "r non-decreasing" for w in report.witnesses)


def test_mutation_convergence_forged_big_jump(trace_a):
    # documented mutation: inflate one jump to 8 (a power of two) -> bound dies
    t = jump_stages(trace_a)[0]
    mutated = mutate_record(trace_a, t, jump=Dyadic(8))
    report = check_convergence_bound(mutated)
    assert report.status == "fail"
    assert any(w["law"] == "x_T < 4" for w in report.witnesses)


def test_mutation_convergence_non_power_jump(trace_a):
    t = jump_stages(trace_a)[0]
    mutated = mutate_record(trace_a, t, jump=Dyadic(3, 2))
    report = check_convergence_bound(mutated)
    assert report.status == "fail"
    assert any(w["law"] == "jump is a power of two" for w in report.witnesses)


def test_mutation_jump_sums(trace_a):
    # documented mutation: double one split jump -> episode sum overshoots
    split = [rec.t for rec in trace_a.stages
             if rec.action.kind == "expansion_jump"][0]
    old = trace_a.stages[split].jump
    mutated = mutate_record(trace_a, split, jump=old + old)
    report = check_jump_sums(mutated)
    assert report.status == "fail"


def test_jump_sums_holds_a_last_stage_threat_jump_to_its_schedule():
    # the stage-59 threat jump of default B at T=60 pays 2^-29; its episode
    # runs past the horizon, where the sum itself is only bounded above
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), "B"), 60)
    head, *records = serialize(trace).decode("utf-8").rstrip("\n").split("\n")
    rec = json.loads(records[59])
    assert rec["action"]["kind"] == "threat_jump" and rec["jump"] == {"k": 29, "m": "1"}
    clean = check_jump_sums(trace)
    assert clean.status == "pass"
    assert {"status": "incomplete", "episode": "threat", "sigma": rec["settled"], "t1": 59,
            "t2": None, "sum": "1/2^29", "bound": "1/2^29",
            "note": "next application beyond horizon; weak bound holds"} in clean.witnesses
    rec["jump"] = {"k": 30, "m": "1"}
    rec["action"]["exponent"] = 30
    records[59] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    halved = deserialize("\n".join([head, *records]).encode("utf-8"))
    report = check_jump_sums(halved)
    assert report.status == "fail"
    assert [w for w in report.witnesses if w["status"] == "fail"] == [
        {"status": "fail", "episode": "threat", "sigma": rec["settled"], "t1": 59, "t2": None,
         "sum": "1/2^30", "bound": "1/2^29",
         "note": "threat jump differs from the scheduled amount"}]


def test_mutation_cutoffs_missing_region(trace_a):
    # documented mutation: drop the initialisation region at a cut-off stage
    t_cut = trace_a.index.fibers[trace_a.index.threats["0"][-1]][-1]
    mutated = mutate_record(trace_a, t_cut, init_regions=())
    report = check_cutoffs(mutated)
    assert report.status == "fail"
    assert any("region" in p for w in report.witnesses for p in w.get("problems", []))


def test_mutation_requirement_n(trace_a, minimal):
    # documented mutation: negate one jump so x is no longer non-decreasing
    t = jump_stages(trace_a)[-1]
    mutated = mutate_record(trace_a, t, jump=-trace_a.stages[t].jump)
    report = check_requirement_N(mutated, 0)
    assert report.status == "fail"
    assert report.witnesses == [{"status": "fail", "error": f"x decreases at stage {t}"}]
    # run_checks finds the stage once on its shared index, for every slot
    shared = run_checks(mutated, ["requirement_n"])
    assert [r.to_json() for r in shared] == [
        check_requirement_N(mutated, e).to_json()
        for e in sorted(minimal.total_increasing_indices())
    ]


def test_run_checks_a_lone_checker_and_fibers_build_one_index(minimal, monkeypatch):
    # the trace owns its index: run_checks, a checker called alone
    # afterwards and the jump attribution all read the same one
    built = []
    init = TraceIndex.__init__

    def counting_init(self, trace):
        built.append(trace)
        init(self, trace)

    monkeypatch.setattr(TraceIndex, "__init__", counting_init)
    trace = run_engine(EngineState(minimal, "A"), 60)
    run_checks(trace)
    assert check_cutoffs(trace).status == "pass"
    assert trace.index.fibers[trace.index.threats["0"][-1]]
    assert len(built) == 1 and built[0] is trace


def test_run_checks_a_lone_checker_and_trace_registry_build_one_registry(minimal, monkeypatch):
    # the trace owns its registry: run_checks, a checker called alone
    # afterwards and trace.registry all read the one built from its config
    trace = run_engine(EngineState(minimal, "A"), 60)
    built = []
    init = PhiRegistry.__init__

    def counting_init(self, config=None):
        built.append(config)
        init(self, config)

    monkeypatch.setattr(PhiRegistry, "__init__", counting_init)
    run_checks(trace)
    assert check_settlement_facts(trace).status == "pass"
    assert trace.registry.configured_indices() == minimal.configured_indices()
    assert len(built) == 1 and built[0] is trace.config


def test_mutation_requirement_p(minimal):
    # documented mutation: enlarge one late recorded jump past the modulus bound
    trace = run_engine(EngineState(minimal, "A"), 18)
    mutated = mutate_record(trace, 14, jump=Dyadic(2))
    report = check_requirement_P(mutated, 0)
    assert report.status == "fail"
    assert any("difference_exceeds" in w for w in report.witnesses)
    assert check_requirement_P(trace, 0).status == "pass"


def test_mutation_settlement(trace_a):
    # documented mutation: rewrite the settled word of a threat stage
    t = next(rec.t for rec in trace_a.stages if rec.action.kind == "threat_jump")
    mutated = mutate_record(trace_a, t, settled=trace_a.stages[t].settled + "1")
    report = check_settlement_facts(mutated)
    assert report.status == "fail"


def test_mutation_expansion_gap(trace_b):
    # documented mutation: inflate a mid-run jump between expansionary visits
    stages = jump_stages(trace_b)
    t = stages[len(stages) // 2]
    assert t + 1 < trace_b.T
    mutated = mutate_record(trace_b, t, jump=Dyadic(4))
    report = check_expansion_gap_bound(mutated)
    assert report.status == "fail"
    assert check_expansion_gap_bound(trace_b).status in ("pass", "incomplete")


def test_mutation_pause_alternation(trace_b):
    # documented mutation: erase the pause write of a handled threat
    rec = next(r for r in trace_b.stages if r.action.kind in
               ("threat_jump", "threat_schedule") and r.t >= 3)
    idx = next(i for i, (s, f, v) in enumerate(rec.param_writes) if f == "p")
    mutated = mutate_write(trace_b, rec.t, idx, 0)
    report = check_settlement_facts(mutated)
    assert report.status == "fail"


# ---------------------------------------------------------------------------
# Findings that only an edited trace reaches


def test_monotonicity_finds_a_restraint_past_its_stage(trace_a):
    rec = next(r for r in trace_a.stages if any(f == "r" for _, f, _ in r.param_writes))
    i = next(i for i, (_, f, _) in enumerate(rec.param_writes) if f == "r")
    report = check_monotonicity(mutate_write(trace_a, rec.t, i, rec.t + 10))
    # a write at stage t holds from t + 1
    assert {"status": "fail", "law": "r<=t", "sigma": rec.param_writes[i][0],
            "t": rec.t + 1, "value": rec.t + 10} in report.witnesses


def test_monotonicity_finds_a_witness_above_an_extension(trace_a):
    # engine A writes no witness: the root keeps nu("") = 0, and regions set
    # the witness of "0" to nu("0") + s + 2, so a root witness of 100 from
    # stage 11 on exceeds it
    assert set(trace_a.index.written) == {"", "0"}
    rec = trace_a.stages[10]
    mutated = mutate_record(trace_a, 10, param_writes=rec.param_writes + (("", "w", 100),))
    report = check_monotonicity(mutated)
    assert [w for w in report.witnesses if w["law"] == "w prefix-monotone"] == [
        {"status": "fail", "law": "w prefix-monotone", "sigma": "", "tau": "0", "t": 11}]


def test_convergence_finds_a_negative_jump(trace_a):
    # the loader refuses a negative jump, so the edit is made in memory
    t = jump_stages(trace_a)[0]
    jump = -trace_a.stages[t].jump
    report = check_convergence_bound(mutate_record(trace_a, t, jump=jump))
    assert report.witnesses == [
        {"status": "fail", "law": "x non-decreasing", "t": t, "jump": str(jump)}]


def test_jump_sums_finds_a_counter_episode_with_no_prior_threat():
    # re-split B at T=60 delegates at stage 46 for alpha "00"; a delegation
    # (no jump, so outside every fibre) for an alpha never threatened has no
    # episode to belong to
    trace = run_engine(EngineState(registry_from_config(RESPLIT_CONFIG), "B"), 60)
    rec = trace.stages[46]
    assert (rec.action.kind, rec.action.alpha) == ("expansion_delegate", "00")
    mutated = mutate_record(trace, 46, action=rec.action._replace(alpha="0000000"))
    report = check_jump_sums(mutated)
    assert [w for w in report.witnesses if w["status"] == "fail"] == [
        {"status": "fail", "episode": "counter", "t1": 46,
         "error": "no prior threat of '0000000'"}]


def test_jump_attribution_refuses_a_jump_on_a_non_jump_action(trace_a):
    # the loader refuses a jump on a kind that takes none, so the edit is
    # made in memory; fibers then raises, and each reader of it reports that
    t = next(rec.t for rec in trace_a.stages if rec.action.kind == "top_out")
    mutated = mutate_record(trace_a, t, jump=pow2(-t))
    error = f"jump at stage {t} with non-jump action top_out"
    assert check_jump_sums(mutated).witnesses == [{"status": "fail", "error": error}]
    assert check_cutoffs(mutated).witnesses == [{"status": "fail", "error": error}]
    assert {"status": "fail", "law": "jump attribution",
            "error": error} in check_settlement_facts(mutated).witnesses


def _cut_off_of_0(trace: Trace) -> tuple[int, int]:
    """The stage of the last threat of "0" and the last stage of its fibre."""
    t1 = trace.index.threats["0"][-1]
    return t1, trace.index.fibers[t1][-1]


def test_cutoffs_find_a_positive_counter_not_lex_left(trace_a):
    # the cut-off stage of "0" clears the root's counter; a positive counter
    # there is not lex-left of "0", and the stage's region does not reach it
    t1, t_cut = _cut_off_of_0(trace_a)
    i = trace_a.stages[t_cut].param_writes.index(("", "c", 0))
    report = check_cutoffs(mutate_write(trace_a, t_cut, i, 3))
    assert report.witnesses == [{"status": "fail", "sigma": "0", "t1": t1, "t_cut": t_cut,
                                 "problems": ["positive counter at '' not lex-left"]}]


def test_cutoffs_hold_the_tail_to_its_bound(trace_a):
    # x_T = x_{t+1} after the cut-off stage t of "0": x_T raised by exactly
    # 2^-(t+1) keeps the tail bound, and raised by more breaks it
    t1, t_cut = _cut_off_of_0(trace_a)
    assert trace_a.x[trace_a.T] == trace_a.x[t_cut + 1]

    def raised(extra: Dyadic) -> Trace:
        return Trace(engine="A", config=trace_a.config, stages=trace_a.stages,
                     x=trace_a.x[:-1] + [trace_a.x[-1] + extra])

    assert check_cutoffs(raised(pow2(-(t_cut + 1)))).status == "pass"
    assert check_cutoffs(raised(pow2(-(t_cut + 1)) + pow2(-80))).witnesses == [
        {"status": "fail", "sigma": "0", "t1": t1, "t_cut": t_cut,
         "problems": ["tail bound x_T - x_{t+1} <= 2^-(t+1) violated"]}]


def test_requirement_n_is_not_yet_certified_after_one_stage(minimal):
    # x is still flat after stage 0, so x_T - x_phi(m) = 0 for every m
    report = check_requirement_N(run_engine(EngineState(minimal, "A"), 1), 0)
    assert report.status == "incomplete"
    assert report.witnesses == [
        {"status": "incomplete", "e": 0, "note": "not yet", "searched_up_to": 1}]


def test_requirement_p_on_b_ends_at_a_witness_past_its_bound(trace_b):
    # the root's witness, set to 10^6 by its stage-7 write until the next
    # write at stage 9, is read by the sweep at the expansionary stage 9,
    # where it is at most nu("") + 9 + 2
    i = trace_b.stages[7].param_writes.index(("", "w", 4))
    report = check_requirement_P(mutate_write(trace_b, 7, i, 10**6), 0)
    assert report.witnesses == [{"status": "fail", "law": "w<=nu(sigma)+t+2", "sigma": "",
                                 "t": 9, "value": 10**6, "bound": 11}]


# ---------------------------------------------------------------------------
# Refusals and selection


def test_requirement_checks_refuse_undeclared_slots(trace_a):
    with pytest.raises(ValueError):
        check_requirement_N(trace_a, 5)
    with pytest.raises(ValueError):
        check_requirement_P(trace_a, 9)


def test_requirement_refuses_unclassified_program():
    config = {
        "slots": [
            {"index": 0, "kind": "identity"},
            {"index": 1, "kind": "program", "code": [["halt"]]},
        ]
    }
    reg = registry_from_config(config)
    trace = run_engine(EngineState(reg, "A"), 10)
    with pytest.raises(ValueError):
        check_requirement_N(trace, 1)


def test_requirement_p_on_b_refuses_a_prefix_slot_without_classification():
    # the B condition sums the witnesses of the prefixes whose slot is
    # declared increasing; slot 0 declares nothing, so slot 1 is refused
    config = {"slots": [{"index": 0, "kind": "program", "code": [["halt"]]},
                        {"index": 1, "kind": "identity"}]}
    trace = run_engine(EngineState(registry_from_config(config), "B"), 30)
    assert trace.index.true_path.stable_upto >= 1
    assert check_requirement_P(trace, 1).witnesses == [
        {"status": "incomplete", "e": 1,
         "note": "slot 0 lacks a declared classification; refusing"}]


def test_engine_specific_checks_reject_wrong_engine(trace_a, trace_b):
    with pytest.raises(ValueError):
        check_cutoffs(trace_b)
    with pytest.raises(ValueError):
        check_expansion_gap_bound(trace_a)
    # selected by name, an inapplicable check reaches its checker's refusal
    with pytest.raises(ValueError, match="engine A traces only"):
        run_checks(trace_b, checks=["cutoffs"])
    with pytest.raises(ValueError, match="engine B traces"):
        run_checks(trace_a, checks=["monotonicity", "expansion_gap"])


def test_benchmark_tracer_sees_every_checker_run_checks_runs():
    # perfbench/tracing.py times each checker by rebinding its module global;
    # run_checks must reach the checkers through those globals, or every
    # verify.<check>_s of a traced benchmark run reads 0
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import injurybench

    root = Path(__file__).resolve().parent.parent
    script = f"""
import json, sys
sys.path.insert(0, {str(root / "perfbench")!r})
from tracing import CHECKS, Tracer
tracer = Tracer()
tracer.install()
from injurybench import DEFAULT_CONFIG, registry_from_config
from injurybench.engine import EngineState, run_engine
from injurybench.verify import CHECK_NAMES, run_checks
assert tuple(CHECKS) == tuple(CHECK_NAMES), (CHECKS, CHECK_NAMES)
calls = {{}}
for engine in "AB":
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), engine), 40)
    before = dict(tracer.calls)
    run_checks(trace)
    calls[engine] = {{name: tracer.calls["verify." + name] - before.get("verify." + name, 0)
                     for name in CHECKS}}
print(json.dumps(calls))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(injurybench.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    calls = json.loads(result.stdout.strip().splitlines()[-1])
    for engine, skipped in (("A", "expansion_gap"), ("B", "cutoffs")):
        assert calls[engine][skipped] == 0
        assert all(n > 0 for name, n in calls[engine].items() if name != skipped), calls


def test_unknown_check_name_rejected(trace_a):
    with pytest.raises(ValueError):
        run_checks(trace_a, checks=["monotonicity", "nonsense"])


def test_requirement_p_refuses_unstable_path(trace_b):
    report = check_requirement_P(trace_b, 1)
    assert report.status == "incomplete"
    assert any("unstable" in w.get("note", "") for w in report.witnesses)


def test_reports_serialise(trace_a):
    import json

    payload = [r.to_json() for r in run_checks(trace_a)]
    json.dumps(payload)


def test_checkers_are_order_independent(trace_a):
    names = ["settlement", "jump_sums", "monotonicity", "convergence", "cutoffs"]
    first = [r.to_json() for r in run_checks(trace_a, checks=names)]
    second = [r.to_json() for r in run_checks(trace_a, checks=names[::-1])]
    assert sorted(first, key=lambda r: r["check"]) == sorted(
        second, key=lambda r: r["check"]
    )


def test_mutation_single_threat_per_witness(trace_b):
    # a duplicated threat stage record reuses the same witness value
    src = next(rec for rec in trace_b.stages
               if rec.action.kind == "threat_jump" and rec.t >= 4)
    earlier = next(rec.t for rec in trace_b.stages
                   if rec.action.kind == "threat_jump" and rec.t < src.t)
    mutated = mutate_record(
        trace_b, earlier,
        param_writes=trace_b.stages[earlier].param_writes[:-1],
    )
    # removing the witness bump makes the later threat reuse the value
    report = check_settlement_facts(mutated)
    assert report.status == "fail"
    assert any(w["law"] == "single threat per witness value" for w in report.witnesses)


def test_settlement_rejects_descend_as_terminal_kind(trace_a):
    # an intra-stage move is never a stage-terminal action
    rec = next(r for r in trace_a.stages if r.action.kind == "top_out" and r.t >= 5)
    mutated = mutate_record(trace_a, rec.t,
                            action=rec.action._replace(kind="descend"))
    report = check_settlement_facts(mutated)
    assert report.status == "fail"
    assert {"status": "fail", "t": rec.t, "law": "record follows the substage rules",
            "field": "action"} in report.witnesses


# ---------------------------------------------------------------------------
# The modulus sweep of requirement_p against the per-n rescan it replaced


def rescan_requirement_p(trace: Trace, registry, e: int):
    """Reference for check_requirement_P: for every n, rescan all
    expansionary stages for t(n) and the whole chain for the first bad gap.

    Reads parameter values and threats from a public ``TraceIndex`` only,
    never from the checker's sweep.  Returns the report's
    (counts, witnesses), or None where the checker refuses before the scan.
    A restraint past r <= t at an expansionary stage is one fail finding.
    """
    est = true_path_estimate([rec.settled for rec in trace.stages])
    if len(est.path) < e or est.stable_upto < e:
        return None
    if trace.engine == "B" and any(
        registry.classification(i) is None for i in range(e + 1)
    ):
        return None
    sigma = est.path[:e]
    S = registry.total_increasing_indices()
    index = TraceIndex(trace)
    inits = [rec.t for rec in trace.stages for anchor, rel in rec.init_regions
             if region_contains(anchor, rel, sigma)]
    t0 = inits[-1] + 1 if inits else 0
    if trace.engine == "B":
        for length in range(e + 1):
            if length not in S:
                for t_thr in index.threats.get(est.path[:length], []):
                    t0 = max(t0, t_thr + 1)

    def expansionary(t):
        if trace.engine == "A" and index.value(sigma, "s", t) != 1:
            return False
        l = registry.ell(e, t)
        if l < 0:
            return False
        gap = trace.x[t] - trace.x[registry.step(e, l, t)]
        return gap < pow2(-index.value(sigma, "r", t))

    exp_stages = [t for t in range(t0, trace.T)
                  if trace.stages[t].settled.startswith(sigma) and expansionary(t)]
    r = {t: index.value(sigma, "r", t) for t in exp_stages}
    past_bound = [t for t in exp_stages if r[t] > t]
    if past_bound:
        t = past_bound[0]
        return {"fail": 1}, [{"status": "fail", "law": "r<=t", "e": e, "t": t,
                              "value": r[t], "bound": t}]
    witness_sum = {}
    for t in exp_stages:
        total = Dyadic(0)
        for length in range(e + 1):
            if length in S:
                total = total + pow2(-index.value(est.path[:length], "w", t) + 1)
        witness_sum[t] = total

    def meets(n, t):
        if trace.engine == "A":
            return r[t] >= n + 2
        return r[t] >= n + 3 and witness_sum[t] <= pow2(-(n + 1))

    l_max = registry.ell(e, trace.T)
    phi = [registry.step(e, i, trace.T) for i in range(l_max + 1)]
    findings = []
    n = 0
    while True:
        t_n = next((t for t in exp_stages if meets(n, t)), None)
        if t_n is None:
            findings.append(("incomplete", {"n": n, "note": "t(n) beyond horizon"}))
            break
        v_n = registry.ell(e, t_n)
        bad = next((i for i in range(v_n, l_max)
                    if not trace.x[phi[i + 1]] - trace.x[phi[i]] < pow2(-n)), None)
        if bad is None:
            findings.append(("pass", {}))
        else:
            findings.append(("fail", {"n": n, "v_n": v_n, "i": bad,
                                      "difference_exceeds": f"2^-{n}"}))
        n += 1
    counts = dict(Counter(status for status, _ in findings))
    witnesses = [{"status": status, **detail} for status, detail in findings
                 if status != "pass"]
    return counts, witnesses


def assert_sweep_matches_rescan(trace, registry) -> int:
    compared = 0
    for e in sorted(registry.total_increasing_indices()):
        expected = rescan_requirement_p(trace, registry, e)
        if expected is None:
            continue
        report = check_requirement_P(trace, e)
        assert (report.counts, report.witnesses) == expected, (e, report.to_json())
        compared += 1
    return compared


@pytest.mark.parametrize("seed", [11, 23, 37, 59, 71, 97])
@pytest.mark.parametrize("engine", ["A", "B"])
def test_requirement_p_sweep_matches_rescan_on_random_registries(seed, engine):
    registry = registry_from_config(random_config(random.Random(seed)))
    trace = run_engine(EngineState(registry, engine), 150)
    assert_sweep_matches_rescan(trace, registry)


def test_requirement_p_sweep_matches_rescan_on_late_bad_gap(minimal):
    # one inflated jump after v(n): the first bad i lies strictly past v(n)
    mutated = mutate_record(run_engine(EngineState(minimal, "A"), 18), 12, jump=Dyadic(1, 3))
    report = check_requirement_P(mutated, 0)
    fails = [w for w in report.witnesses if w["status"] == "fail"]
    assert fails and all(w["i"] == 12 and w["i"] > w["v_n"] for w in fails)
    assert assert_sweep_matches_rescan(mutated, minimal) >= 1


@pytest.mark.parametrize("engine", ["A", "B"])
def test_requirement_p_sweep_matches_rescan_on_lowered_restraint(minimal, engine):
    # raise one early restraint write of the root, so the next write lowers it
    trace = run_engine(EngineState(minimal, engine), 60)
    t, i, value = [(rec.t, i, v) for rec in trace.stages
                   for i, (s, f, v) in enumerate(rec.param_writes)
                   if s == "" and f == "r"][2]
    mutated = mutate_write(trace, t, i, value + 20)
    index = TraceIndex(mutated)
    restraints = [index.value("", "r", u) for u in range(mutated.T)]
    assert any(b < a for a, b in zip(restraints, restraints[1:]))
    assert check_requirement_P(mutated, 0).status == "fail"
    assert assert_sweep_matches_rescan(mutated, minimal) >= 1


@pytest.mark.parametrize("engine", ["A", "B"])
def test_requirement_p_sweep_matches_rescan_on_raised_restraint_within_bound(minimal, engine):
    # raise each restraint write of the root to t + 1, the most that
    # r <= t allows: the next write lowers it, and the sweep still runs
    trace = run_engine(EngineState(minimal, engine), 60)
    writes = [(rec.t, i, v) for rec in trace.stages
              for i, (s, f, v) in enumerate(rec.param_writes) if s == "" and f == "r"]
    statuses = Counter()
    for t, i, _ in writes:
        mutated = mutate_write(trace, t, i, t + 1)
        report = check_requirement_P(mutated, 0)
        assert all(w.get("law") != "r<=t" for w in report.witnesses)
        statuses[report.status] += 1
        assert assert_sweep_matches_rescan(mutated, minimal) >= 1
    assert statuses["fail"] >= 1


# ---------------------------------------------------------------------------
# The expansion-gap walk against the per-prefix loop it replaced

# An undeclared program at index 9 under two identity slots: prefixes of
# length 1 and 4 are checked, every prefix from length 9 on is refused.
UNDECLARED_BELOW_CONFIG = {"slots": [
    {"index": 1, "kind": "identity"},
    {"index": 4, "kind": "identity"},
    {"index": 9, "kind": "program", "code": DOUBLING_PROGRAM},
]}


def gap_bound_past_bound(index: TraceIndex, registry, path, length, t):
    """The first restraint or witness the gap bound at t reads outside the
    values the engine writes (0 <= r <= t, nu <= w <= nu + t + 2), as the
    fail finding's detail; None when all are within."""
    sigma = path[:length]
    r = index.value(sigma, "r", t)
    if not 0 <= r <= t:
        law, bound = ("r>=0", 0) if r < 0 else ("r<=t", t)
        return {"law": law, "sigma": sigma, "t": t, "value": r, "bound": bound}
    for sub in sorted(registry.total_increasing_indices()):
        tau = path[:sub]
        w = index.value(tau, "w", t)
        if sub <= length and not nu(tau) <= w <= nu(tau) + t + 2:
            law, bound = (("w>=nu(sigma)", nu(tau)) if w < nu(tau)
                          else ("w<=nu(sigma)+t+2", nu(tau) + t + 2))
            return {"law": law, "sigma": tau, "t": t, "value": w, "bound": bound}
    return None


def per_prefix_expansion_gap(trace: Trace, registry) -> dict:
    """Reference for check_expansion_gap_bound: every prefix of the stable
    path on its own, rescanning the shorter slots for an undeclared
    classification and asking every prefix, configured or not, for its
    expansionary stages.  A restraint or witness past its bound is one fail
    finding."""
    index = TraceIndex(trace)
    est = index.true_path
    assumptions = [f"true-path estimate stable to length {est.stable_upto}"]
    findings = []
    for length in range(est.stable_upto + 1):
        sigma = est.path[:length]
        if any(registry.classification(i) is None for i in range(length + 1)):
            findings.append(("incomplete", {"sigma": sigma,
                                            "note": "undeclared program slot in "
                                            "scope; refusing this prefix"}))
            continue
        t0 = verify._stability_start(trace, est.path, length)
        exp_stages = trace.index.expansionary_stages(sigma, t0)
        pairs = 0
        for t1, t2 in zip(exp_stages, exp_stages[1:]):
            past = gap_bound_past_bound(index, registry, est.path, length, t1)
            if past is not None:
                return verify._make_report("expansion_gap", [("fail", past)],
                                           assumptions).to_json()
            bound = pow2(-index.value(sigma, "r", t1) + 1) + verify._witness_sum(
                trace, est.path, length, t1
            )
            if not (trace.x[t2] - trace.x[t1]) <= bound:
                findings.append(("fail", {"sigma": sigma, "t1": t1, "t2": t2,
                                          "gap": str(trace.x[t2] - trace.x[t1]),
                                          "bound": str(bound)}))
            pairs += 1
        if pairs:
            findings.append(("pass", {"sigma": sigma, "pairs": pairs, "t0": t0}))
    return verify._make_report("expansion_gap", findings, assumptions).to_json()


def assert_gap_walk_matches_reference(trace, config) -> dict:
    expected = per_prefix_expansion_gap(trace, registry_from_config(config))
    got = check_expansion_gap_bound(trace).to_json()
    assert got == expected
    return got


@pytest.mark.parametrize("T", [250, 500])
def test_expansion_gap_matches_per_prefix_loop_on_deep_family(T):
    trace = run_engine(EngineState(registry_from_config(DEEP_CONFIG), "B"), T)
    report = assert_gap_walk_matches_reference(trace, DEEP_CONFIG)
    assert report["counts"].get("pass", 0) >= 2


@pytest.mark.parametrize("name", sorted(SPARSE_DEEP_CONFIGS))
def test_expansion_gap_matches_per_prefix_loop_on_sparse_deep_registries(name):
    config = SPARSE_DEEP_CONFIGS[name]
    assert_gap_walk_matches_reference(run_engine(EngineState(registry_from_config(config), "B"), 300), config)


def test_expansion_gap_matches_per_prefix_loop_below_undeclared_slot():
    trace = run_engine(EngineState(registry_from_config(UNDECLARED_BELOW_CONFIG), "B"), 200)
    report = assert_gap_walk_matches_reference(trace, UNDECLARED_BELOW_CONFIG)
    assert report["counts"]["pass"] == 2 and report["counts"]["incomplete"] > 50


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), st.booleans(),
       st.integers(min_value=20, max_value=150))
def test_expansion_gap_matches_per_prefix_loop_on_random_registries(
    seed, drop_slot_zero, undeclare_programs, T
):
    # without slot 0 the path runs deep; an undeclared program refuses
    # every prefix from its index on
    config = random_config(random.Random(seed))
    slots = [dict(entry) for entry in config["slots"]
             if not (drop_slot_zero and entry["index"] == 0)]
    if undeclare_programs:
        for entry in slots:
            entry.pop("total_increasing", None)
    config = {"slots": slots}
    assert_gap_walk_matches_reference(run_engine(EngineState(registry_from_config(config), "B"), T), config)


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, DEEP_CONFIG], ids=["default", "deep"])
def test_expansion_gap_matches_per_prefix_loop_on_trace_mutants(config):
    trace = run_engine(EngineState(registry_from_config(config), "B"), 60)
    original = assert_gap_walk_matches_reference(trace, config)
    changed = 0
    for mutant in single_record_mutants(trace, 100, seed=8):
        changed += assert_gap_walk_matches_reference(mutant, config) != original
    assert changed >= 3


def test_expansion_gap_asks_only_configured_prefixes(monkeypatch):
    # a work count, not a timing: prefixes of empty slots never reach the
    # expansionary test, and initialisations are built for configured
    # lengths only
    registry = registry_from_config(DEEP_CONFIG)
    trace = run_engine(EngineState(registry, "B"), 500)
    configured = registry.configured_indices()
    asked = Counter()
    initialised = []
    expansionary_stages = TraceIndex.expansionary_stages
    initialisations = TraceIndex.initialisations

    def counting_expansionary_stages(self, sigma, t0):
        asked[len(sigma)] += 1
        return expansionary_stages(self, sigma, t0)

    def counting_initialisations(self, sigma):
        initialised.append(sigma)
        return initialisations(self, sigma)

    monkeypatch.setattr(TraceIndex, "expansionary_stages", counting_expansionary_stages)
    monkeypatch.setattr(TraceIndex, "initialisations", counting_initialisations)
    report = check_expansion_gap_bound(trace)
    assert report.counts["pass"] >= 2
    assert TraceIndex(trace).true_path.stable_upto > 400
    assert asked and set(asked) <= configured
    assert len(set(initialised)) <= len(configured)
    assert all(len(sigma) in configured for sigma in initialised)


# The rules and the index each write the gate of the expansion test (A's
# flag, a chain length of at least 0) and share the gap test; the rule walk
# recorded in a trace pins the two gates together.
@pytest.mark.parametrize("config, engine, T", [
    (DEFAULT_CONFIG, "A", 500),
    (DEFAULT_CONFIG, "B", 1000),
    (DEEP_CONFIG, "B", 250),
    (RESPLIT_CONFIG, "A", 220),
], ids=["default-A-500", "default-B-1000", "deep-B-250", "resplit-A-220"])
def test_expansion_gates_of_the_rules_and_the_index_agree(config, engine, T):
    # every configured length lies above the forced tail, so the walk left
    # each strategy it passed by its expansion test: by "0" or an expansion
    # action where it held, by "1" where it did not.  A threat stop never
    # reaches that test; on A it is never expansionary (a threat needs the
    # flag at 0), on B it is exactly where the gap test holds
    trace = run_engine(EngineState(registry_from_config(config), engine), T)
    index, registry = trace.index, trace.registry
    lengths = sorted(registry.configured_indices())
    listed = {}
    reached = threat_stops = 0
    for t, settled, action, _, _, _ in trace.stages:
        for e in lengths:
            if e > len(settled):
                break
            sigma = settled[:e]
            if sigma not in listed:
                listed[sigma] = set(index.expansionary_stages(sigma, 0))
            expansionary = t in listed[sigma]
            if e < len(settled) or action.kind in EXPANSION_KINDS:
                reached += 1
                assert expansionary is (e == len(settled) or settled[e] == "0"), (t, sigma)
            elif action.kind in THREAT_KINDS:
                threat_stops += 1
                holds = engine == "B" and gap_below(
                    registry.step, trace.x, e, registry.ell(e, t), t, index.value(sigma, "r", t))
                assert expansionary is holds, (t, sigma)
    assert reached and threat_stops


# ---------------------------------------------------------------------------
# The settlement check re-derives every record with the substage rules, so
# it passes engine traces and fails exactly the edits that change a trace.
# The tests keep the names and inputs of the per-depth loop that the check
# once was compared with.

RULES_LAW = "record follows the substage rules"


def assert_settlement_fails_iff_changed(trace: Trace, mutant: Trace) -> bool:
    """Whether the mutant changes the trace, asserting that its settlement
    report fails exactly then."""
    changed = changes_trace(trace, mutant)
    assert (check_settlement_facts(mutant).status == "fail") is changed
    return changed


_SETTLEMENT_FAMILIES = {
    "default-A-300": ("A", DEFAULT_CONFIG, 300),
    # engine A's counter reaches 622 digits by this horizon
    "default-A-8000": ("A", DEFAULT_CONFIG, 8000),
    "resplit-A-220": ("A", RESPLIT_CONFIG, 220),
    "deep-B-250": ("B", DEEP_CONFIG, 250),
    "sparse-A-200": ("A", SPARSE_DEEP_CONFIGS["identity0-double12"], 200),
    "sparse-B-200": ("B", SPARSE_DEEP_CONFIGS["identity0-double12"], 200),
    "empty-A-60": ("A", {"slots": []}, 60),
    "empty-B-60": ("B", {"slots": []}, 60),
}


@pytest.mark.parametrize("name", sorted(_SETTLEMENT_FAMILIES))
def test_settlement_matches_per_depth_loop(name):
    engine, config, T = _SETTLEMENT_FAMILIES[name]
    trace = run_engine(EngineState(registry_from_config(config), engine), T)
    assert check_settlement_facts(trace).to_json() == {
        "check": "settlement", "status": "pass", "witnesses": [], "assumptions": [],
        "counts": {"pass": 1}}


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, SPARSE_DEEP_CONFIGS["identity0-double12"]],
                         ids=["default", "sparse"])
def test_settlement_matches_per_depth_loop_on_trace_mutants(config):
    trace = run_engine(EngineState(registry_from_config(config), "A"), 60)
    changed = 0
    for mutant in single_record_mutants(trace, 100, seed=9):
        changed += assert_settlement_fails_iff_changed(trace, mutant)
    assert changed >= 10


@pytest.mark.parametrize("engine", ["A", "B"])
@pytest.mark.parametrize("config", [DEFAULT_CONFIG, SPARSE_DEEP_CONFIGS["identity0-double12"]],
                         ids=["default", "sparse"])
def test_settlement_matches_per_depth_loop_on_flipped_bits(engine, config):
    # one "1" of a settled word turned "0", below and beyond the deepest
    # configured index; the acting strategy follows the settled word
    trace = run_engine(EngineState(registry_from_config(config), engine), 80)
    head = max(trace.registry.configured_indices()) + 1
    rng = random.Random(21)
    for below in [True, False] * 8:
        # a bounded search, so a run whose settled words lack such a "1"
        # fails here instead of drawing for ever
        for _ in range(10_000):
            rec = trace.stages[rng.randrange(20, 80)]
            ones = [d for d, bit in enumerate(rec.settled) if bit == "1" and (d < head) == below]
            if ones:
                break
        else:
            pytest.fail(f"no settled word of stages 20-79 has a 1 "
                        f"{'below' if below else 'at or past'} depth {head}")
        depth = rng.choice(ones)
        word = rec.settled[:depth] + "0" + rec.settled[depth + 1:]
        mutant = mutate_record(trace, rec.t, settled=word,
                               action=rec.action._replace(sigma=word))
        assert assert_settlement_fails_iff_changed(trace, mutant)
        assert {"status": "fail", "t": rec.t, "law": RULES_LAW,
                "field": "settled"} in check_settlement_facts(mutant).witnesses


def state_forgery(engine: str, T: int, rng: random.Random) -> tuple[int, bytes]:
    """The engine run to a random stage s, one piece of its state changed,
    and the run continued to T: one written strategy's c, r or w moved by
    -1, +1 or +2, or its flag flipped, stored as an explicit value, or else
    x[s] raised by 2^-(s+j).  Returns s and the trace file, whose header is
    the run's unchanged one."""
    st = EngineState(registry_from_config(DEFAULT_CONFIG), engine)
    s = rng.randrange(1, T)
    for _ in range(s):
        run_stage(st)
    written = sorted(st.params)
    if written and rng.random() < 0.8:
        sigma = rng.choice(written)
        fld = rng.choice(("c", "r", "w", FLAG_FIELDS[engine]))
        value = st._read(sigma, fld)
        st.params[sigma][fld] = (1 - value if fld == FLAG_FIELDS[engine]
                                 else value + rng.choice((-1, 1, 2)))
    else:
        st.x[s] = st.x[s] + pow2(-(s + rng.randrange(4)))
    return s, serialize(run_engine(st, T))


@pytest.mark.parametrize("engine, T", [("A", 120), ("B", 200)])
def test_a_trace_that_passes_settlement_is_the_run(engine, T):
    # a run whose state was tampered with writes either the engine's own
    # trace or one that fails settlement, whose first rules finding is the
    # first record that differs; a forgery the engine raises on or the
    # loader refuses is no trace and is only counted
    run = serialize(run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), engine), T))
    stages = deserialize(run).stages
    rng = random.Random(29)
    outcomes = Counter()
    for _ in range(40):
        try:
            s, data = state_forgery(engine, T, rng)
            forged = deserialize(data)
        except (TraceCorruption, TraceParseError, ValueError):
            outcomes["refused"] += 1
            continue
        if data == run:
            outcomes["equal"] += 1
            continue
        report = check_settlement_facts(forged)
        first = next(t for t in range(T) if forged.stages[t] != stages[t])
        rules = [w["t"] for w in report.witnesses if w["law"] == RULES_LAW]
        assert report.status == "fail" and rules[:1] == [first], (s, first, rules[:3])
        outcomes["failed"] += 1
    assert outcomes["equal"] >= 5 and outcomes["failed"] >= 5, outcomes


def test_settlement_walks_below_a_strategy_written_past_the_configured_depths():
    # a pause flag written past every configured index fails its own record,
    # and each later walk through that strategy lifts it, as the engine's
    # would: the forced walk starts below the deepest written strategy
    trace = run_engine(EngineState(registry_from_config(DEEP_CONFIG), "B"), 60)
    deep, s = "10111111", 20
    assert len(deep) > max(trace.registry.configured_indices())
    mutant = mutate_record(trace, s,
                           param_writes=trace.stages[s].param_writes + ((deep, "p", 1),))
    failed = [w["t"] for w in check_settlement_facts(mutant).witnesses if w["law"] == RULES_LAW]
    later = [t for t in range(s + 1, trace.T) if trace.stages[t].settled.startswith(deep)]
    assert later and failed == [s, *later]


def test_settlement_asks_only_configured_depths(monkeypatch):
    # a work count, not a timing: past the deepest configured index the
    # settled word is forced, not walked depth by depth, so the chain length
    # is asked at most once per depth below it
    T = 500
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), "A"), T)
    asked = 0
    ell = PhiRegistry.ell

    def counting_ell(self, e, t):
        nonlocal asked
        asked += 1
        return ell(self, e, t)

    monkeypatch.setattr(PhiRegistry, "ell", counting_ell)
    assert check_settlement_facts(trace).status == "pass"
    assert 0 < asked <= T * (max(trace.registry.configured_indices()) + 2)


# ---------------------------------------------------------------------------
# Episode payments: the summing loops that check_jump_sums and check_cutoffs
# used before every payment was read from the running sums of a fibre, kept
# as references


def summing_jump_sums(trace: Trace) -> dict:
    # also holds an immediate threat jump's own stage to the scheduled amount
    findings = []
    index = trace.index
    try:
        fibers = index.fibers
    except TraceCorruption as exc:
        return verify._make_report("jump_sums", [("fail", {"error": str(exc)})]).to_json()
    for rec in trace.stages:
        kind = rec.action.kind
        if kind in THREAT_KINDS:
            sigma, t1 = rec.settled, rec.t
            origin = t1
            bound = pow2(-index.value(sigma, "w", t1))
            label = "threat"
        elif kind in EXPANSION_KINDS:
            sigma, t1 = rec.settled, rec.t
            origin = index.episode_origin(rec)
            if origin is None:
                findings.append(("fail", {"episode": "counter", "t1": t1,
                                          "error": f"no prior threat of {rec.action.alpha!r}"}))
                continue
            bound = pow2(-index.value(sigma, "r", t1))
            label = "counter"
        else:
            continue
        t2 = index.next_application(sigma, t1)
        end = t2 if t2 is not None else trace.T
        interrupted_at = index.first_initialisation_in(sigma, t1, end)
        fiber = fibers.get(origin, [])
        total = Dyadic(0)
        for t in fiber[bisect_left(fiber, t1):bisect_left(fiber, end)]:
            total = total + index.jumps[t]
        if total > bound:
            status, note = "fail", "sum exceeds the scheduled amount"
        elif t2 is None:
            status, note = "incomplete", "next application beyond horizon; weak bound holds"
        elif interrupted_at is not None or total == bound:
            status, note = "pass", None
        else:
            status, note = "fail", "episode complete but sum falls short"
        if status != "fail" and kind == THREAT_JUMP:
            own = Dyadic(0)
            for t in fiber[bisect_left(fiber, t1):bisect_left(fiber, t1 + 1)]:
                own = own + index.jumps[t]
            if own != bound:
                status, note = "fail", "threat jump differs from the scheduled amount"
        findings.append(
            (status, {"episode": label, "sigma": sigma, "t1": t1, "t2": t2,
                      "sum": str(total), "bound": str(bound), "note": note})
        )
    return verify._make_report("jump_sums", findings).to_json()


def summing_cutoffs(trace: Trace) -> dict:
    findings = []
    index = trace.index
    try:
        fibers = index.fibers
    except TraceCorruption as exc:
        return verify._make_report("cutoffs", [("fail", {"error": str(exc)})]).to_json()
    for rec in trace.stages:
        if rec.action.kind not in THREAT_KINDS:
            continue
        sigma, t1 = rec.settled, rec.t
        if index.first_initialisation_in(sigma, t1, trace.T) is not None:
            continue
        bound = pow2(-index.value(sigma, "w", t1))
        fiber = fibers.get(t1, [])
        total = Dyadic(0)
        for t in fiber:
            total = total + index.jumps[t]
        if total > bound:
            findings.append(("fail", {"sigma": sigma, "t1": t1,
                                      "error": "fiber sum exceeds scheduled amount"}))
            continue
        if total < bound:
            findings.append(("incomplete", {"sigma": sigma, "t1": t1,
                                            "note": "episode not completed in horizon"}))
            continue
        t_cut = max(fiber)
        problems = []
        if not any(region_covers_right_of(anchor, rel, sigma)
                   for anchor, rel in trace.stages[t_cut].init_regions):
            problems.append("initialisation region does not cover extensions "
                            "and lex-right strategies")
        for tau in index.written:
            if index.value(tau, "c", t_cut + 1) > 0 and not lex_less(tau + "0", sigma):
                problems.append(f"positive counter at {tau!r} not lex-left")
        if gap_cmp(trace.x[trace.T], trace.x[t_cut + 1], t_cut + 1) > 0:
            problems.append("tail bound x_T - x_{t+1} <= 2^-(t+1) violated")
        if problems:
            findings.append(("fail", {"sigma": sigma, "t1": t1, "t_cut": t_cut,
                                      "problems": problems}))
        else:
            findings.append(("pass", {"sigma": sigma, "t1": t1, "t_cut": t_cut}))
    return verify._make_report(
        "cutoffs", findings,
        ["stability of each threat approximated by the absence of later "
         "in-horizon initialisations"]).to_json()


_CLOSURE_LAWS = ("jump attribution", "fiber sum bounded by schedule",
                 "fiber closed after completion")


def summing_fiber_closure(trace: Trace) -> list[dict]:
    """Reference for the fibre-closure findings of check_settlement_facts:
    each fibre's jumps summed one at a time and compared with its schedule."""
    index = trace.index
    findings = []
    try:
        fibers = index.fibers
    except TraceCorruption as exc:
        return [{"status": "fail", "law": "jump attribution", "error": str(exc)}]
    for origin, members in fibers.items():
        sigma = trace.stages[origin].settled
        bound = pow2(-index.value(sigma, "w", origin))
        total = Dyadic(0)
        done_at = None
        for t in members:
            if done_at is not None:
                findings.append({"status": "fail", "law": "fiber closed after completion",
                                 "origin": origin, "late_jump": t})
                break
            total = total + index.jumps[t]
            if total == bound:
                done_at = t
            elif total > bound:
                findings.append({"status": "fail", "law": "fiber sum bounded by schedule",
                                 "origin": origin, "t": t})
                break
    return findings


def assert_payment_reports_match_reference(trace: Trace) -> dict[str, dict]:
    """The jump_sums, settlement and (engine A) cutoffs reports, each equal
    to its reference's (for settlement, its fibre-closure findings); each
    side reads its own copy of the trace."""
    data = serialize(trace)
    pairs = {"jump_sums": (check_jump_sums, summing_jump_sums)}
    if trace.engine == "A":
        pairs["cutoffs"] = (check_cutoffs, summing_cutoffs)
    reports = {}
    for name, (check, reference) in pairs.items():
        reports[name] = check(deserialize(data)).to_json()
        assert reports[name] == reference(deserialize(data)), name
    reports["settlement"] = check_settlement_facts(deserialize(data)).to_json()
    closure = [w for w in reports["settlement"]["witnesses"] if w.get("law") in _CLOSURE_LAWS]
    assert closure == summing_fiber_closure(deserialize(data))
    return reports


_PAYMENT_FAMILIES = {
    "default-A-500": ("A", DEFAULT_CONFIG, 500),
    "default-B-500": ("B", DEFAULT_CONFIG, 500),
    "resplit-A-300": ("A", RESPLIT_CONFIG, 300),
    "resplit-B-300": ("B", RESPLIT_CONFIG, 300),
}


@pytest.mark.parametrize("name", sorted(_PAYMENT_FAMILIES))
def test_payment_reports_match_summing_loops(name):
    engine, config, T = _PAYMENT_FAMILIES[name]
    reports = assert_payment_reports_match_reference(
        run_engine(EngineState(registry_from_config(config), engine), T))
    assert reports["jump_sums"]["counts"].get("pass", 0) > 0


@pytest.mark.parametrize("engine", ["A", "B"])
def test_payment_reports_match_summing_loops_on_mutants(engine):
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), engine), 60)
    original = assert_payment_reports_match_reference(trace)
    edits = jump_value_edits(trace)
    changed = {"records": Counter(), "jumps": Counter()}
    for kind, mutants in [("records", single_record_mutants(trace, 100, seed=10)),
                          ("jumps", edits)]:
        for mutant in mutants:
            reports = assert_payment_reports_match_reference(mutant)
            changed[kind].update(name for name in reports if reports[name] != original[name])
    # every report is moved by a few of each kind of mutant
    for kind in changed:
        assert set(changed[kind]) == set(original), kind
        assert min(changed[kind].values()) >= 3, (kind, changed[kind])


@pytest.mark.parametrize("engine,count", [("A", 19), ("B", 101)])
def test_every_accepted_jump_value_edit_fails_a_check(engine, count):
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), engine), 60)
    edits = jump_value_edits(trace)
    assert len(edits) == count
    for mutant in edits:
        failed = [r.check for r in run_checks(mutant) if r.status == "fail"]
        assert failed, [rec.t for rec, old in zip(mutant.stages, trace.stages) if rec != old]
    # settlement re-derives every record, so it alone fails each edit, of a
    # jump value or of any one leaf, that writes another trace
    changing = 0
    for mutant in trace_changing_edits(trace, 300, 7):
        assert check_settlement_facts(mutant).status == "fail"
        changing += 1
    assert changing >= 250 + count


@pytest.mark.parametrize("engine", ["A", "B"])
def test_paid_is_the_direct_sum_over_every_range(minimal, engine):
    # paid_cmp, the integer test the checkers decide episodes with, against
    # a Dyadic comparison of the direct sum with every power 2**-e in range
    trace = run_engine(EngineState(minimal, engine), 20)
    exponents = range(-1, trace.T + 3)
    signs = {}  # the Dyadic comparisons of one sum with every 2**-e
    for variant in [trace, *jump_value_edits(trace)]:
        index = variant.index
        for origin in range(-1, variant.T + 1):
            members = index.fibers.get(origin, [])
            for lo in range(-1, variant.T + 2):
                for hi in range(lo, variant.T + 2):
                    direct = sum((index.jumps[t] for t in members if lo <= t < hi), ZERO)
                    assert str(index.paid(origin, lo, hi)) == str(direct)
                    if direct not in signs:
                        signs[direct] = [(direct > pow2(-e)) - (direct < pow2(-e))
                                         for e in exponents]
                    assert [index.paid_cmp(origin, lo, hi, e) for e in exponents] == signs[direct]


# ---------------------------------------------------------------------------
# The expansion predicate, evaluated once per (sigma, t) of a trace


def _applicable(engine: str) -> list[str]:
    return [name for name, engines, _, _ in verify._CHECKS if engine in engines]


@pytest.mark.parametrize("engine, config", [
    ("A", DEFAULT_CONFIG), ("B", DEFAULT_CONFIG), ("B", DEEP_CONFIG),
], ids=["default-A", "default-B", "deep-B"])
def test_each_checker_alone_matches_run_checks_on_one_shared_trace(engine, config):
    # the memo on the shared index changes no finding: each check run alone
    # on a freshly loaded trace reports what it reports after the others
    data = serialize(run_engine(EngineState(registry_from_config(config), engine), 300))
    shared = [r.to_json() for r in run_checks(deserialize(data))]
    alone = [r.to_json() for name in _applicable(engine)
             for r in run_checks(deserialize(data), [name])]
    assert alone == shared


def test_run_checks_evaluates_the_expansion_predicate_once_per_strategy_and_stage(
    monkeypatch,
):
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), "B"), 500)
    evaluated = Counter()
    asked = 0
    body, stages = TraceIndex._expansion_test, TraceIndex.expansionary_stages

    def counting_body(self, sigma, t):
        evaluated[sigma, t] += 1
        return body(self, sigma, t)

    def counting_stages(self, sigma, t0):
        nonlocal asked
        asked += 1
        return stages(self, sigma, t0)

    monkeypatch.setattr(TraceIndex, "_expansion_test", counting_body)
    monkeypatch.setattr(TraceIndex, "expansionary_stages", counting_stages)
    reports = run_checks(trace)
    assert all(r.status != "fail" for r in reports)
    assert evaluated and set(evaluated.values()) == {1}
    index = trace.index
    assert evaluated.keys() == {(sigma, t) for sigma, t0 in index._expansions
                                for t in index.applications(sigma) if t >= t0}
    # requirement_p and expansion_gap ask for the same strategies and t0
    assert asked > len(index._expansions)


def _hide_chain_at(registry: PhiRegistry, t_bad: int) -> PhiRegistry:
    """The registry with its slot values unknown at stage t_bad: every gap
    test there raises TraceCorruption."""
    step = registry.step
    registry.step = lambda e, n, t: None if t == t_bad else step(e, n, t)
    return registry


def _corrupt_at(trace: Trace, t_bad: int) -> Trace:
    """The trace with a registry whose slot values are unknown at stage
    t_bad, as if checked against a registry its run did not use."""
    _hide_chain_at(trace.registry, t_bad)
    return trace


def test_expansion_memo_keeps_no_trace_corruption():
    data = serialize(run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), "B"), 120))
    index = deserialize(data).index
    # the root's pause flag is set at t_bad, so the threat test returns
    # before its gap test and the expansion test alone meets the corruption
    t_bad = next(t for t in range(40, 120) if index.value("", "p", t) == 1)
    trace = _corrupt_at(deserialize(data), t_bad)
    for _ in range(2):
        with pytest.raises(TraceCorruption) as raised:
            trace.index.expansionary_stages("", 0)
        assert str(raised.value) == f"slot 0 chain inconsistent at stage {t_bad}"
    assert not trace.index._expansions

    def outcome(trace, name):
        try:
            return [r.to_json() for r in run_checks(trace, [name])]
        except TraceCorruption as exc:
            return f"TraceCorruption: {exc}"

    names = _applicable("B")
    alone = [outcome(_corrupt_at(deserialize(data), t_bad), name) for name in names]
    shared = _corrupt_at(deserialize(data), t_bad)
    assert [outcome(shared, name) for name in names] == alone
    raised = [name for name, out in zip(names, alone) if isinstance(out, str)]
    assert "requirement_p" in raised and "settlement" not in raised
    settlement = alone[names.index("settlement")][0]
    assert {"status": "fail", "t": t_bad, "law": RULES_LAW,
            "error": f"slot 0 chain inconsistent at stage {t_bad}"} in settlement["witnesses"]


def test_engine_stops_with_the_gap_test_error_that_settlement_reports():
    # the engine and the checkers share one gap test: where the registry
    # hides the chain, a run stops with the error settlement reports there
    data = serialize(run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), "B"), 120))
    index = deserialize(data).index
    t_bad = next(t for t in range(40, 120) if index.value("", "p", t) == 1)
    state = EngineState(_hide_chain_at(registry_from_config(DEFAULT_CONFIG), t_bad), "B")
    run_engine(state, t_bad)
    with pytest.raises(TraceCorruption) as raised:
        run_stage(state)
    settlement = check_settlement_facts(_corrupt_at(deserialize(data), t_bad))
    assert {"status": "fail", "t": t_bad, "law": RULES_LAW,
            "error": str(raised.value)} in settlement.witnesses


# ---------------------------------------------------------------------------
# Gap tests at the boundary x_a - x_b = 2**-e

# slot 0 has phi(0) = 0 and phi(1) = 2, so from stage 2 on its chain length
# is 1 and every gap test reads x_t - x_2
_BOUNDARY_CONFIG = {"slots": [{"index": 0, "kind": "partial", "graph": {"0": 0, "1": 2}}]}


def _top_out_trace(engine: str, config: dict, x: list[Dyadic], writes=()) -> Trace:
    """A trace of top-out records with the given x and stage-0 writes, for
    gap tests with exactly chosen values."""
    stages = [StageRecord(t, "", Action("top_out", ""), ZERO, (), tuple(writes) if t == 0 else ())
              for t in range(len(x) - 1)]
    return Trace(engine=engine, config=config, stages=stages, x=x)


# from stage 1 the root's witness is 1 and its restraint 2: a threat needs
# x_t - x_2 < 1/2 and an expansion x_t - x_2 < 1/4
_BOUNDARY_X = [ZERO, ZERO, ZERO, pow2(-1), pow2(-2), pow2(-1) - pow2(-10),
               pow2(-2) - pow2(-10), ZERO]
_BOUNDARY_WRITES = [("", "w", 1), ("", "r", 2)]


def test_threat_and_expansion_tests_are_strict_at_the_boundary():
    x = _BOUNDARY_X
    trace = _top_out_trace("B", _BOUNDARY_CONFIG, x, _BOUNDARY_WRITES)
    expected = {3: (False, False),  # x_3 - x_2 = 2**-1 exactly
                4: (True, False),  # x_4 - x_2 = 2**-2 exactly
                5: (True, False),
                6: (True, True)}
    registry = trace.registry

    def root_walk(t, pause):
        # the rules at stage t with the root's pause flag read as given: a
        # flag of 1 skips the threat test, so the expansion test decides
        def read(sigma, fld):
            return pause if fld == "p" else trace.index.value(sigma, fld, t)
        return stage_rules(t, x, read, None, registry.ell, registry.step, "B", 1)

    for t, (threatened, expansionary) in expected.items():
        assert (x[t] - x[2] < pow2(-1), x[t] - x[2] < pow2(-2)) == (threatened, expansionary)
        assert (root_walk(t, 0)[1][0] == THREAT_JUMP) is threatened, t
        assert root_walk(t, 1)[0].startswith("0") is expansionary, t
        assert (t in trace.index.expansionary_stages("", 0)) is expansionary, t


def test_index_lists_no_engine_a_expansion_while_the_flag_is_clear():
    # the boundary trace on engine A, with the root's flag written at stage
    # 0: the gap test passes at stages 0, 1, 2 and 6, and the index lists
    # those of them where the flag reads 1, that is from stage 1 on
    def listed(engine, writes):
        trace = _top_out_trace(engine, _BOUNDARY_CONFIG, _BOUNDARY_X, writes)
        return trace.index.expansionary_stages("", 0)

    assert listed("B", _BOUNDARY_WRITES) == [0, 1, 2, 6]
    assert listed("A", _BOUNDARY_WRITES + [("", "s", 1)]) == [1, 2, 6]
    assert listed("A", _BOUNDARY_WRITES + [("", "s", 0)]) == []
    assert listed("A", _BOUNDARY_WRITES) == []


@pytest.mark.parametrize("values, error", [
    ({("0", "c"): pair("0", 0)}, "counter of '0' decodes to a zero remaining count at stage 5"),
    ({("0", "c"): pair("0", 2)}, "restraint of '' fell below '0''s at stage 5"),
    ({("0", "r"): 6}, "restraint of '0' passes stage 5"),
], ids=["zero-count", "fallen-restraint", "restraint-past-t"])
def test_stage_rules_refuses_inputs_that_admit_no_walk(values, error):
    # B at stage 5 with both pause flags set and x flat: the root and "0"
    # are expansionary, the root's counter is clear, so the walk raises the
    # root's restraint to 1, appends "0", and reads the counter of "0"
    registry = registry_from_config({"slots": [{"index": 0, "kind": "identity"},
                                               {"index": 1, "kind": "identity"}]})
    state = {("", "p"): 1, ("0", "p"): 1, ("0", "r"): 3, **values}

    def read(sigma, fld):
        return state.get((sigma, fld), nu(sigma) if fld == "w" else 0)

    with pytest.raises(StageRuleError) as raised:
        stage_rules(5, [ZERO] * 6, read, None, registry.ell, registry.step, "B", 5)
    assert str(raised.value) == error


@pytest.mark.parametrize("engine", ["A", "B"])
def test_requirement_n_holds_at_the_boundary(engine):
    # slot 0 doubles, so phi(2) = 4, and x_8 - x_4 = 2**-2 exactly: the
    # inequality x_T - x_phi(m) >= 2**-m holds at m = 2 and nowhere else
    config = {"slots": [{"index": 0, "kind": "double"}]}
    x = [ZERO] * 5 + [pow2(-2)] * 4
    trace = _top_out_trace(engine, config, x)
    holds = [x[8] - x[2 * m] >= pow2(-m) for m in range(5)]
    assert holds == [False, False, True, False, False]
    report = check_requirement_N(trace, 0)
    assert (report.status, report.counts, report.witnesses) == ("pass", {"pass": 1}, [])


def dyadics_built(monkeypatch, check, trace):
    """The report of check(trace) and the number of Dyadic objects built
    while it ran."""
    built = 0
    init = Dyadic.__init__

    def counting_init(self, m, k=0):
        nonlocal built
        built += 1
        init(self, m, k)

    with monkeypatch.context() as patch:
        patch.setattr(Dyadic, "__init__", counting_init)
        report = check(trace)
    return report, built


# slot 0 is the identity, so the root's chain reaches x_t itself at every
# stage t: every stage is expansionary and the gap pairs are (t, t + 1)
_IDENTITY_CONFIG = {"slots": [{"index": 0, "kind": "identity"}]}


def _gap_trace(gap: Dyadic, w: int = 3) -> Trace:
    """Top-out records whose root has r = 1 and witness w from stage 1, and
    whose x grows by gap from stage 1 to stage 2 only: the pair (1, 2) has
    the short bound 2**(1 - r) = 1 and the full bound 1 + 2**(1 - w)."""
    return _top_out_trace("B", _IDENTITY_CONFIG, [ZERO, ZERO, gap, gap],
                          [("", "r", 1), ("", "w", w)])


@pytest.mark.parametrize("gap, status, exact_path", [
    (ONE, "pass", False),  # exactly 2**(1 - r)
    (Dyadic(9, 3), "pass", True),  # between 2**(1 - r) and the bound
    (Dyadic(5, 2), "pass", True),  # exactly the bound
    (Dyadic(5, 2) + pow2(-10), "fail", True),
], ids=["short-bound", "between", "full-bound", "over"])
def test_expansion_gap_at_its_bounds(monkeypatch, gap, status, exact_path):
    trace = _gap_trace(gap)
    report, built = dyadics_built(monkeypatch, check_expansion_gap_bound, trace)
    assert report.to_json() == per_prefix_expansion_gap(trace, trace.registry)
    assert report.status == status and report.counts["pass"] == 1
    assert (built > 0) is exact_path
    if status == "fail":
        assert report.witnesses == [{"status": "fail", "sigma": "", "t1": 1, "t2": 2,
                                     "gap": str(gap), "bound": "5/2^2"}]


def test_expansion_gap_reads_every_witness_before_the_short_bound():
    # the gap 1/2 is under 2**(1 - r), but the witness 4 at stage 1 is past
    # nu("") + 1 + 2: the bound check still ends the check
    trace = _gap_trace(Dyadic(1, 1), w=4)
    report = check_expansion_gap_bound(trace)
    assert report.to_json() == per_prefix_expansion_gap(trace, trace.registry)
    assert report.witnesses == [{"status": "fail", "law": "w<=nu(sigma)+t+2", "sigma": "",
                                 "t": 1, "value": 4, "bound": 3}]


@pytest.mark.parametrize("jump", ["unit", "zero", "two"])
@pytest.mark.parametrize("sign", [1, -1])
def test_convergence_sees_x_off_its_jump_by_the_finest_step(minimal, jump, sign):
    trace = run_engine(EngineState(minimal, "B"), 60)
    if jump == "two":
        t = 30
        trace = mutate_record(trace, t, jump=Dyadic(2))
    else:
        t = next(rec.t for rec in trace.stages
                 if (rec.jump.m == 1) is (jump == "unit") and rec.t > 10)
    # a jump of 2 also takes x_T past 4, a finding of its own
    before = check_convergence_bound(trace).witnesses
    assert before == ([] if jump != "two" else [{"status": "fail", "law": "x_T < 4",
                                                   "x_T": str(trace.x[-1])}])
    # x from stage t + 1 on moves by 2**-(T + 3), so only stage t disagrees
    off = pow2(-(trace.T + 3)) * Dyadic(sign)
    x = trace.x[:t + 1] + [v + off for v in trace.x[t + 1:]]
    after = check_convergence_bound(Trace(engine="B", config=trace.config,
                                          stages=trace.stages, x=x)).witnesses
    assert after[0] == {"status": "fail", "law": "x consistent with jumps", "t": t}
    assert [w["law"] for w in after[1:]] == [w["law"] for w in before]


@pytest.mark.parametrize("T", [300, 4000])
def test_passing_bounds_build_no_dyadic(monkeypatch, T):
    # a work count, not a timing: passing stages, pairs and episodes are
    # decided in integers, and only a finding the report shows builds its
    # sum and bound
    trace = run_engine(EngineState(registry_from_config(DEFAULT_CONFIG), "B"), T)
    trace.index.fiber_sums
    convergence, built = dyadics_built(monkeypatch, check_convergence_bound, trace)
    assert convergence.status == "pass" and built == 0
    gap, built = dyadics_built(monkeypatch, check_expansion_gap_bound, trace)
    assert gap.status == "pass" and gap.counts["pass"] >= 1 and built == 0
    sums, built = dyadics_built(monkeypatch, check_jump_sums, trace)
    assert sums.status == "pass" and sums.counts["pass"] > 50
    assert built <= 2 * len(sums.witnesses)
    settlement, built = dyadics_built(monkeypatch, check_settlement_facts, trace)
    assert settlement.status == "pass" and built == 0
