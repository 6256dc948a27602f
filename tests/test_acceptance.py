"""Acceptance suite: one test per criterion, exact tolerances, one line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
PASS lines of successful tests in the summary.
"""

import random
import time
from fractions import Fraction

import pytest

from injurybench.dyadic import Dyadic, pow2
from injurybench.engine import EngineState, new_engine_a, new_engine_b, run_engine
from injurybench.phi import DEFAULT_CONFIG, registry_from_config
from injurybench.replay import replay_run
from injurybench.speed import (
    ModulusFn,
    ApproxSequence,
    regain_to_speed,
    speed_ratio,
    speed_to_regain,
    speedup_indices,
)
from injurybench.strings import cantor_pair, nu, nu_inv, pair, unpair
from injurybench.tracekit import serialize
from injurybench.verify import (
    check_convergence_bound,
    check_cutoffs,
    check_jump_sums,
    check_monotonicity,
    check_requirement_N,
    check_requirement_P,
    check_settlement_facts,
)
from conftest import jump_stages, random_synthetic_sequence
from test_speed import complement_speedup_indices

ONE = Dyadic(1)


def report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS: {text}")


def test_c01_determinism_and_replay(registry):
    elapsed = {}
    for tag in "AB":
        start = time.monotonic()
        first = run_engine(EngineState(registry, tag), 500)
        elapsed[tag] = time.monotonic() - start
        second = run_engine(EngineState(registry, tag), 500)
        assert serialize(first) == serialize(second)
    assert elapsed["A"] < 10.0 and elapsed["B"] < 10.0, elapsed

    # B's oracle runs to pipeline-b's horizon
    for tag, factory, T in (("A", new_engine_a, 2000), ("B", new_engine_b, 4000)):
        state = factory(registry_from_config(DEFAULT_CONFIG), record_reads=True)
        trace = run_engine(state, T)
        oracle = replay_run(registry_from_config(DEFAULT_CONFIG), tag, T)
        assert oracle.x == trace.x
        assert oracle.settlements == [rec.settled for rec in trace.stages]
        assert oracle.reads == state.read_log
        assert len(state.read_log) > 0

    report(1, f"bit-identical T=500 runs (A {elapsed['A']:.2f}s, "
              f"B {elapsed['B']:.2f}s < 10s); naive replay reproduces x and "
              f"every parameter read at T=2000 (A) and T=4000 (B)")


@pytest.mark.parametrize("engine", ["A", "B"])
def test_c02_global_bound(engine, traces):
    four = Dyadic(4)
    for T in (100, 500, 2000):
        trace = traces(engine, T)
        for t, rec in enumerate(trace.stages):
            assert rec.jump.sign() >= 0
            if rec.jump.sign() > 0:
                assert rec.jump.is_pow2(), (engine, T, t)
            assert trace.x[t] <= trace.x[t + 1]
        assert trace.x[T] < four, (engine, T)
    report(2, f"engine {engine}: x non-decreasing, power-of-two jumps, "
              f"x_T < 4 exactly at T in {{100, 500, 2000}}")


def test_c03_monotonicity_suite(trace_a_2000, trace_b_2000):
    for trace in (trace_a_2000, trace_b_2000):
        rep = check_monotonicity(trace)
        assert rep.status == "pass"
        assert rep.witnesses == []
    report(3, "zero monotonicity violations (r <= t, r and w non-decreasing, "
              "witness prefix-monotone on engine A) over both T=2000 traces")


def test_c04_jump_sum_identities(trace_a_2000, trace_b_2000):
    totals = {}
    for trace in (trace_a_2000, trace_b_2000):
        rep = check_jump_sums(trace)
        assert rep.status == "pass", rep.witnesses[:3]
        assert rep.counts.get("fail", 0) == 0
        assert rep.counts.get("pass", 0) > 0
        totals[trace.engine] = dict(rep.counts)
    report(4, f"jump-sum identities exact on every complete episode "
              f"(A: {totals['A']}, B: {totals['B']}; incompletes satisfy the bound)")


def test_c05_cutoff_certification(trace_a_2000):
    rep = check_cutoffs(trace_a_2000)
    assert rep.status == "pass", rep.witnesses[:3]
    certified = rep.counts.get("pass", 0)
    assert certified >= 1
    report(5, f"{certified} cut-off stages certified: region coverage, counter "
              f"condition, and exact tail bound x_T - x_(t+1) <= 2^-(t+1)")


def test_c06_requirement_certification(trace_a_2000, trace_b_2000):
    ms = {}
    for e in (0, 1):
        rep = check_requirement_N(trace_a_2000, e)
        assert rep.status == "pass", rep.witnesses
        ms[e] = rep.counts
        rep_p = check_requirement_P(trace_a_2000, e)
        assert rep_p.counts.get("fail", 0) == 0, rep_p.witnesses[:3]
        assert rep_p.counts.get("pass", 0) > 0
    for e in (0, 1):
        rep = check_requirement_N(trace_b_2000, e)
        assert rep.status == "pass", rep.witnesses
        rep_p = check_requirement_P(trace_b_2000, e)
        assert rep_p.counts.get("fail", 0) == 0, rep_p.witnesses[:3]
    report(6, "N_0 and N_1 certified on both T=2000 runs (A least-m form, "
              "B windowed form); P-checker passes every realisable n and "
              "never fails")


def test_c07_pause_dynamics(trace_b_2000):
    rep = check_settlement_facts(trace_b_2000)
    assert rep.status == "pass", rep.witnesses[:3]
    pause_laws = {"pause alternation", "no consecutive threats",
                  "witness grows by one per threat"}
    assert not any(w.get("law") in pause_laws for w in rep.witnesses)
    threats = sum(1 for rec in trace_b_2000.stages
                  if rec.action.kind in ("threat_jump", "threat_schedule"))
    assert threats > 0
    report(7, f"engine B: pause alternation, no consecutive threats, and "
              f"+1 witness growth hold over {threats} handled threats")


def test_c08_transforms():
    quarter = ApproxSequence(
        values=[ONE - pow2(-2 * n) for n in range(8)], known_limit=ONE
    )
    shifted = regain_to_speed(quarter)
    assert speed_ratio(shifted, 1) == Fraction(7, 12)

    rng = random.Random(20260810)
    checked = 0
    for _ in range(20):
        seq = random_synthetic_sequence(rng, 24, increasing=False)
        out = regain_to_speed(seq)
        limit = seq.require_limit()
        for n in range(len(seq) - 1):
            if (limit - seq.values[n]) < pow2(-n):
                assert speed_ratio(out, n) > Fraction(1, 4)
                checked += 1
    assert checked >= 20

    res = speed_to_regain(ModulusFn.affine(2, 0), Dyadic(1, 2))
    assert res.k == 2 and res.m == 4
    assert [res.g(n) for n in range(10)] == [n // 2 for n in range(10)]
    assert [res.h(n) for n in range(10)] == [max(0, n // 2 - 2) for n in range(10)]

    rng = random.Random(42)
    for _ in range(50):
        seq = random_synthetic_sequence(rng, 16, increasing=True)
        k = rng.randrange(1, 7)
        rho = Dyadic(rng.randrange(1, 2**k), k)
        assert speedup_indices(seq, rho) == complement_speedup_indices(seq, rho)

    report(8, "transforms exact: ratio 7/12 at n=1; ratio > 1/4 at every "
              f"regaining index over 20 synthetic sequences ({checked} indices); "
              "doubling modulus maps to (g=n//2, k=2, h, m=4); ratio-form "
              "equivalence on 50 randomised instances")


def test_c09_bijection_laws():
    for n in range(1 << 16):
        assert nu(nu_inv(n)) == n
    for code in range(1 << 16):
        sigma, k = unpair(code)
        assert pair(sigma, k) == code
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(2, 1) == 7
    assert cantor_pair(1, 2) == 8
    report(9, "nu and pairing bijections round-trip exhaustively below 2^16; "
              "Cantor spot values P(0,0)=0, P(2,1)=7, P(1,2)=8")


def test_c10_mutation_kill(minimal_registry):
    from injurybench.tracekit import Trace
    from injurybench.dyadic import ZERO
    from injurybench.verify import (
        check_expansion_gap_bound,
        check_requirement_P,
    )

    def rebuild(trace, t, **changes):
        stages = list(trace.stages)
        stages[t] = stages[t]._replace(**changes)
        x = [ZERO]
        for rec in stages:
            x.append(x[-1] + rec.jump)
        return Trace(engine=trace.engine, config=trace.config, stages=stages, x=x)

    trace_a = run_engine(EngineState(minimal_registry, "A"), 60)
    trace_b = run_engine(EngineState(minimal_registry, "B"), 60)
    killed = []

    # monotonicity: a restraint write lowered to zero
    t_r, i_r = next(
        (rec.t, i) for rec in trace_a.stages
        for i, (s, f, v) in enumerate(rec.param_writes) if f == "r" and v >= 2
    )
    writes = list(trace_a.stages[t_r].param_writes)
    writes[i_r] = (writes[i_r][0], "r", 0)
    assert check_monotonicity(rebuild(trace_a, t_r, param_writes=tuple(writes))).status == "fail"
    assert check_monotonicity(trace_a).status == "pass"
    killed.append("monotonicity")

    # convergence: one jump forged to 8
    t_j = jump_stages(trace_a)[0]
    assert check_convergence_bound(rebuild(trace_a, t_j, jump=Dyadic(8))).status == "fail"
    assert check_convergence_bound(trace_a).status == "pass"
    killed.append("convergence")

    # jump sums: one split jump doubled
    t_s = next(rec.t for rec in trace_a.stages if rec.action.kind == "expansion_jump")
    doubled = trace_a.stages[t_s].jump + trace_a.stages[t_s].jump
    assert check_jump_sums(rebuild(trace_a, t_s, jump=doubled)).status == "fail"
    assert check_jump_sums(trace_a).status == "pass"
    killed.append("jump_sums")

    # cutoffs: initialisation region removed at the cut-off stage
    t_cut = trace_a.index.fibers[trace_a.index.threats["0"][-1]][-1]
    assert check_cutoffs(rebuild(trace_a, t_cut, init_regions=())).status == "fail"
    assert check_cutoffs(trace_a).status == "pass"
    killed.append("cutoffs")

    # requirement N: a negated jump breaks monotone x
    t_n = jump_stages(trace_a)[-1]
    neg = rebuild(trace_a, t_n, jump=-trace_a.stages[t_n].jump)
    assert check_requirement_N(neg, 0).status == "fail"
    assert check_requirement_N(trace_a, 0).status == "pass"
    killed.append("requirement_n")

    # requirement P: one late jump inflated past the modulus bound
    small = run_engine(EngineState(minimal_registry, "A"), 18)
    assert check_requirement_P(rebuild(small, 14, jump=Dyadic(2)), 0).status == "fail"
    assert check_requirement_P(small, 0).status == "pass"
    killed.append("requirement_p")

    # settlement: the settled word of a threat stage rewritten
    t_t = next(rec.t for rec in trace_a.stages if rec.action.kind == "threat_jump")
    grown = trace_a.stages[t_t].settled + "1"
    assert check_settlement_facts(rebuild(trace_a, t_t, settled=grown)).status == "fail"
    assert check_settlement_facts(trace_a).status == "pass"
    killed.append("settlement")

    # expansion gap: a mid-run jump inflated to 4
    jumps_b = jump_stages(trace_b)
    t_g = jumps_b[len(jumps_b) // 2]
    assert check_expansion_gap_bound(rebuild(trace_b, t_g, jump=Dyadic(4))).status == "fail"
    assert check_expansion_gap_bound(trace_b).status in ("pass", "incomplete")
    killed.append("expansion_gap")

    report(10, f"every checker kills its documented single-field mutation and "
               f"stays green unmutated ({', '.join(killed)})")
