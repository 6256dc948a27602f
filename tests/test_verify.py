"""Checker behaviour on valid traces, plus the documented mutation kills.

Each checker must stay green on engine output and flag its documented
single-field mutation.  Mutations edit one field of one stage record; the
x sequence is rebuilt from the jumps so the mutated trace stays internally
consistent wherever the mutation does not target that consistency.
"""

import dataclasses
import random
from collections import Counter

import pytest

from injurybench.dyadic import Dyadic, ZERO, pow2
from injurybench.engine import run_a, run_b
from injurybench.phi import registry_from_config
from injurybench.strings import region_contains, true_path_estimate
from injurybench.tracekit import Trace, TraceIndex, cutoff_stages
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
from test_randomized import random_config


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


def test_valid_traces_have_no_failures(trace_a, trace_b, minimal):
    for trace in (trace_a, trace_b):
        for report in run_checks(trace, minimal):
            assert report.status in ("pass", "incomplete"), report.to_json()


def test_all_diverge_trace_vacuously_passes():
    reg = registry_from_config({"slots": []})
    trace = run_a(reg, 25)
    for report in run_checks(trace, reg):
        assert report.status == "pass", report.to_json()
    assert check_monotonicity(trace).witnesses == []
    assert check_jump_sums(trace, reg).counts == {}
    assert check_cutoffs(trace, reg).counts == {}


def test_checks_give_nontrivial_coverage(trace_a, minimal):
    assert check_jump_sums(trace_a, minimal).counts.get("pass", 0) >= 5
    assert check_cutoffs(trace_a, minimal).counts.get("pass", 0) >= 2


# ---------------------------------------------------------------------------
# Documented mutation kills (one per checker)


def test_mutation_monotonicity(trace_a, minimal):
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


def test_mutation_jump_sums(trace_a, minimal):
    # documented mutation: double one split jump -> episode sum overshoots
    split = [rec.t for rec in trace_a.stages
             if rec.action.kind == "expansion_jump"][0]
    old = trace_a.stages[split].jump
    mutated = mutate_record(trace_a, split, jump=old + old)
    report = check_jump_sums(mutated, minimal)
    assert report.status == "fail"


def test_mutation_cutoffs_missing_region(trace_a, minimal):
    # documented mutation: drop the initialisation region at a cut-off stage
    t_cut = cutoff_stages(trace_a, "0")
    assert t_cut is not None
    mutated = mutate_record(trace_a, t_cut, init_regions=())
    report = check_cutoffs(mutated, minimal)
    assert report.status == "fail"
    assert any("region" in p for w in report.witnesses for p in w.get("problems", []))


def test_mutation_requirement_n(trace_a, minimal):
    # documented mutation: negate one jump so x is no longer non-decreasing
    t = jump_stages(trace_a)[-1]
    mutated = mutate_record(trace_a, t, jump=-trace_a.stages[t].jump)
    report = check_requirement_N(mutated, minimal, 0)
    assert report.status == "fail"
    assert report.witnesses == [{"status": "fail", "error": f"x decreases at stage {t}"}]
    # run_checks finds the stage once on its shared index, for every slot
    shared = run_checks(mutated, minimal, ["requirement_n"])
    assert [r.to_json() for r in shared] == [
        check_requirement_N(mutated, minimal, e).to_json()
        for e in sorted(minimal.total_increasing_indices())
    ]


def test_mutation_requirement_p(minimal):
    # documented mutation: enlarge one late recorded jump past the modulus bound
    trace = run_a(minimal, 18)
    mutated = mutate_record(trace, 14, jump=Dyadic(2))
    report = check_requirement_P(mutated, minimal, 0)
    assert report.status == "fail"
    assert any("difference_exceeds" in w for w in report.witnesses)
    assert check_requirement_P(trace, minimal, 0).status == "pass"


def test_mutation_settlement(trace_a, minimal):
    # documented mutation: rewrite the settled word of a threat stage
    t = next(rec.t for rec in trace_a.stages if rec.action.kind == "threat_jump")
    mutated = mutate_record(trace_a, t, settled=trace_a.stages[t].settled + "1")
    report = check_settlement_facts(mutated, minimal)
    assert report.status == "fail"


def test_mutation_expansion_gap(trace_b, minimal):
    # documented mutation: inflate a mid-run jump between expansionary visits
    stages = jump_stages(trace_b)
    t = stages[len(stages) // 2]
    assert t + 1 < trace_b.T
    mutated = mutate_record(trace_b, t, jump=Dyadic(4))
    report = check_expansion_gap_bound(mutated, minimal)
    assert report.status == "fail"
    assert check_expansion_gap_bound(trace_b, minimal).status in ("pass", "incomplete")


def test_mutation_pause_alternation(trace_b, minimal):
    # documented mutation: erase the pause write of a handled threat
    rec = next(r for r in trace_b.stages if r.action.kind in
               ("threat_jump", "threat_schedule") and r.t >= 3)
    idx = next(i for i, (s, f, v) in enumerate(rec.param_writes) if f == "p")
    mutated = mutate_write(trace_b, rec.t, idx, 0)
    report = check_settlement_facts(mutated, minimal)
    assert report.status == "fail"


# ---------------------------------------------------------------------------
# Refusals and selection


def test_requirement_checks_refuse_undeclared_slots(trace_a, minimal):
    with pytest.raises(ValueError):
        check_requirement_N(trace_a, minimal, 5)
    with pytest.raises(ValueError):
        check_requirement_P(trace_a, minimal, 9)


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
        check_requirement_N(trace, reg, 1)


def test_engine_specific_checks_reject_wrong_engine(trace_a, trace_b, minimal):
    with pytest.raises(ValueError):
        check_cutoffs(trace_b, minimal)
    with pytest.raises(ValueError):
        check_expansion_gap_bound(trace_a, minimal)
    # selected by name, an inapplicable check reaches its checker's refusal
    with pytest.raises(ValueError, match="engine A traces only"):
        run_checks(trace_b, minimal, checks=["cutoffs"])
    with pytest.raises(ValueError, match="engine B traces"):
        run_checks(trace_a, minimal, checks=["monotonicity", "expansion_gap"])


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
from injurybench import default_registry, run_a, run_b
from injurybench.verify import CHECK_NAMES, run_checks
assert tuple(CHECKS) == tuple(CHECK_NAMES), (CHECKS, CHECK_NAMES)
calls = {{}}
for engine, runner in (("A", run_a), ("B", run_b)):
    trace = runner(default_registry(), 40)
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


def test_unknown_check_name_rejected(trace_a, minimal):
    with pytest.raises(ValueError):
        run_checks(trace_a, minimal, checks=["monotonicity", "nonsense"])


def test_requirement_p_refuses_unstable_path(trace_b, minimal):
    report = check_requirement_P(trace_b, minimal, 1)
    assert report.status == "incomplete"
    assert any("unstable" in w.get("note", "") for w in report.witnesses)


def test_reports_serialise(trace_a, minimal):
    import json

    payload = [r.to_json() for r in run_checks(trace_a, minimal)]
    json.dumps(payload)


def test_checkers_are_order_independent(trace_a, minimal):
    names = ["settlement", "jump_sums", "monotonicity", "convergence", "cutoffs"]
    first = [r.to_json() for r in run_checks(trace_a, minimal, checks=names)]
    second = [r.to_json() for r in run_checks(trace_a, minimal, checks=names[::-1])]
    assert sorted(first, key=lambda r: r["check"]) == sorted(
        second, key=lambda r: r["check"]
    )


def test_mutation_single_threat_per_witness(trace_b, minimal):
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
    report = check_settlement_facts(mutated, minimal)
    assert report.status == "fail"


def test_settlement_rejects_descend_as_terminal_kind(trace_a, minimal):
    # an intra-stage move is never a stage-terminal action
    rec = next(r for r in trace_a.stages if r.action.kind == "top_out" and r.t >= 5)
    mutated = mutate_record(trace_a, rec.t,
                            action=dataclasses.replace(rec.action, kind="descend"))
    report = check_settlement_facts(mutated, minimal)
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
        report = check_requirement_P(trace, registry, e)
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
    report = check_requirement_P(mutated, minimal, 0)
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
    assert check_requirement_P(mutated, minimal, 0).status == "fail"
    assert assert_sweep_matches_rescan(mutated, minimal) >= 1
