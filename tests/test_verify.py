"""Checker behaviour on valid traces, plus the documented mutation kills.

Each checker must stay green on engine output and flag its documented
single-field mutation.  Mutations edit one field of one stage record; the
x sequence is rebuilt from the jumps so the mutated trace stays internally
consistent wherever the mutation does not target that consistency.
"""

import dataclasses
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from injurybench.dyadic import Dyadic, ZERO, pow2
from injurybench.engine import run_a, run_b
from injurybench.phi import DEFAULT_CONFIG, PhiRegistry, registry_from_config
from injurybench.strings import nu, region_contains, true_path_estimate
from injurybench.tracekit import (
    Trace,
    TraceIndex,
    TraceParseError,
    deserialize,
    serialize,
)
from injurybench import verify
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
from test_randomized import DOUBLING_PROGRAM, random_config
from test_replay import SPARSE_DEEP_CONFIGS


@pytest.fixture(scope="module")
def minimal():
    return registry_from_config(MINIMAL_CONFIG)


@pytest.fixture(scope="module")
def trace_a(minimal):
    return run_a(minimal, 60)


@pytest.fixture(scope="module")
def trace_b(minimal):
    return run_b(minimal, 60)


def mutate_record(trace: Trace, t: int, **changes) -> Trace:
    """Replace fields of one stage record and rebuild x from the jumps."""
    stages = list(trace.stages)
    stages[t] = dataclasses.replace(stages[t], **changes)
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
    trace = run_a(reg, 25)
    for report in run_checks(trace):
        assert report.status == "pass", report.to_json()
    assert check_monotonicity(trace).witnesses == []
    assert check_jump_sums(trace).counts == {}
    assert check_cutoffs(trace).counts == {}


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


def test_mutation_cutoffs_missing_region(trace_a):
    # documented mutation: drop the initialisation region at a cut-off stage
    t_cut = trace_a.index.cutoff_stage("0")
    assert t_cut is not None
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


def test_run_checks_a_lone_checker_and_cutoff_stage_build_one_index(minimal, monkeypatch):
    # the trace owns its index: run_checks, a checker called alone
    # afterwards and the cut-off lookup all read the same one
    built = []
    init = TraceIndex.__init__

    def counting_init(self, trace):
        built.append(trace)
        init(self, trace)

    monkeypatch.setattr(TraceIndex, "__init__", counting_init)
    trace = run_a(minimal, 60)
    run_checks(trace)
    assert check_cutoffs(trace).status == "pass"
    assert trace.index.cutoff_stage("0") is not None
    assert len(built) == 1 and built[0] is trace


def test_run_checks_a_lone_checker_and_trace_registry_build_one_registry(minimal, monkeypatch):
    # the trace owns its registry: run_checks, a checker called alone
    # afterwards and trace.registry all read the one built from its config
    trace = run_a(minimal, 60)
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
    trace = run_a(minimal, 18)
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
    trace = run_a(reg, 10)
    with pytest.raises(ValueError):
        check_requirement_N(trace, 1)


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
from injurybench import DEFAULT_CONFIG, registry_from_config, run_a, run_b
from injurybench.verify import CHECK_NAMES, run_checks
assert tuple(CHECKS) == tuple(CHECK_NAMES), (CHECKS, CHECK_NAMES)
calls = {{}}
for engine, runner in (("A", run_a), ("B", run_b)):
    trace = runner(registry_from_config(DEFAULT_CONFIG), 40)
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


def test_settlement_rejects_descend_as_terminal_kind(trace_a):
    # an intra-stage move is never a stage-terminal action
    rec = next(r for r in trace_a.stages if r.action.kind == "top_out" and r.t >= 5)
    mutated = mutate_record(trace_a, rec.t,
                            action=dataclasses.replace(rec.action, kind="descend"))
    report = check_settlement_facts(mutated)
    assert report.status == "fail"
    assert {"status": "fail", "t": rec.t, "law": "terminal action kind",
            "kind": "descend"} in report.witnesses


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
    trace = (run_a if engine == "A" else run_b)(registry, 150)
    assert_sweep_matches_rescan(trace, registry)


def test_requirement_p_sweep_matches_rescan_on_late_bad_gap(minimal):
    # one inflated jump after v(n): the first bad i lies strictly past v(n)
    mutated = mutate_record(run_a(minimal, 18), 12, jump=Dyadic(1, 3))
    report = check_requirement_P(mutated, 0)
    fails = [w for w in report.witnesses if w["status"] == "fail"]
    assert fails and all(w["i"] == 12 and w["i"] > w["v_n"] for w in fails)
    assert assert_sweep_matches_rescan(mutated, minimal) >= 1


@pytest.mark.parametrize("engine", ["A", "B"])
def test_requirement_p_sweep_matches_rescan_on_lowered_restraint(minimal, engine):
    # raise one early restraint write of the root, so the next write lowers it
    trace = (run_a if engine == "A" else run_b)(minimal, 60)
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
    trace = (run_a if engine == "A" else run_b)(minimal, 60)
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

# The deep-b benchmark family: no slot 0, so the estimated true path stays
# stable to depth ~T.
DEEP_CONFIG = {"slots": [
    {"index": 1, "kind": "identity"},
    {"index": 5, "kind": "const", "value": 6},
    {"index": 6, "kind": "diverge"},
]}

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
        exp_stages = verify._expansionary_stages(trace, sigma, t0)
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
    trace = run_b(registry_from_config(DEEP_CONFIG), T)
    report = assert_gap_walk_matches_reference(trace, DEEP_CONFIG)
    assert report["counts"].get("pass", 0) >= 2


@pytest.mark.parametrize("name", sorted(SPARSE_DEEP_CONFIGS))
def test_expansion_gap_matches_per_prefix_loop_on_sparse_deep_registries(name):
    config = SPARSE_DEEP_CONFIGS[name]
    assert_gap_walk_matches_reference(run_b(registry_from_config(config), 300), config)


def test_expansion_gap_matches_per_prefix_loop_below_undeclared_slot():
    trace = run_b(registry_from_config(UNDECLARED_BELOW_CONFIG), 200)
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
    assert_gap_walk_matches_reference(run_b(registry_from_config(config), T), config)


_LEAF_VALUES = [-1, 0, 1, 2, 3, 5, 9, 30, 61, "", "0", "1", "01", "10", "11", "110",
                "lex_gt", "lex_gt_or_ext", "top_out", "threat_jump", None, []]


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def single_record_mutants(trace: Trace, count: int, seed: int):
    """Seeded mutants of one leaf of one stage record that the loader accepts."""
    head, *records = serialize(trace).decode("utf-8").rstrip("\n").split("\n")
    rng = random.Random(seed)
    for _ in range(100 * count):
        t = rng.randrange(len(records))
        rec = json.loads(records[t])
        *parents, leaf = rng.choice(list(_leaf_paths(rec)))
        target = rec
        for key in parents:
            target = target[key]
        target[leaf] = rng.choice(_LEAF_VALUES)
        lines = list(records)
        lines[t] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        try:
            mutant = deserialize("\n".join([head, *lines]).encode("utf-8"))
        except TraceParseError:
            continue
        yield mutant
        count -= 1
        if count == 0:
            return
    raise AssertionError("too few mutants accepted by the loader")


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, DEEP_CONFIG], ids=["default", "deep"])
def test_expansion_gap_matches_per_prefix_loop_on_trace_mutants(config):
    trace = run_b(registry_from_config(config), 60)
    original = assert_gap_walk_matches_reference(trace, config)
    changed = 0
    for mutant in single_record_mutants(trace, 50, seed=8):
        changed += assert_gap_walk_matches_reference(mutant, config) != original
    assert changed >= 3


def test_expansion_gap_asks_only_configured_prefixes(monkeypatch):
    # a work count, not a timing: prefixes of empty slots never reach the
    # expansionary test, and initialisations are built for configured
    # lengths only
    registry = registry_from_config(DEEP_CONFIG)
    trace = run_b(registry, 500)
    configured = registry.configured_indices()
    asked = Counter()
    initialised = []
    expansionary = verify._expansionary
    initialisations = TraceIndex.initialisations

    def counting_expansionary(trace, sigma, t):
        asked[len(sigma)] += 1
        return expansionary(trace, sigma, t)

    def counting_initialisations(self, sigma):
        initialised.append(sigma)
        return initialisations(self, sigma)

    monkeypatch.setattr(verify, "_expansionary", counting_expansionary)
    monkeypatch.setattr(TraceIndex, "initialisations", counting_initialisations)
    report = check_expansion_gap_bound(trace)
    assert report.counts["pass"] >= 2
    assert TraceIndex(trace).true_path.stable_upto > 400
    assert asked and set(asked) <= configured
    assert len(set(initialised)) <= len(configured)
    assert all(len(sigma) in configured for sigma in initialised)
