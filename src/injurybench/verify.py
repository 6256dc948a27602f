"""Mechanical checkers for the constructions' laws and certificates.

Each checker is a pure function of an immutable trace, its only input, and
returns a structured report.  Most of the verified statements quantify over
the infinite run, so conclusions are three-valued: "pass" and "fail" where
the finite trace decides the statement, "incomplete" where the horizon
truncates it.  A report's overall status is "fail" if any item failed,
"incomplete" only when nothing could be confirmed, and "pass" otherwise
(vacuous checks pass).

Where a checker needs the stage after which a strategy is never initialised
again -- unobservable at a finite horizon -- it substitutes the last
initialisation seen in the trace and says so in the report's assumptions.

Every trace fact a checker reads -- parameter values, initialisations,
applications, threats by strategy, jump attribution, the expansion predicate
(``TraceIndex.expansionary``) -- comes from the trace's own
``tracekit.TraceIndex`` (``trace.index``), so the checkers share one index
whether ``run_checks`` runs them or a caller runs one alone.  What an
episode paid comes from the running sums of the jumps attributed to its
threat (``TraceIndex.paid``, ``TraceIndex.fiber_sums``).  Bounds are decided
integer-first: a law comparing a difference or a sum with a power of two
asks ``gap_cmp`` (``TraceIndex.paid_cmp`` for a sum), so a passing item
builds no ``Dyadic``, and only a finding the report shows builds its exact
values and text.  Slot values come from the registry that the trace's
embedded configuration builds (``trace.registry``), likewise built once per
trace.  The loader (``tracekit.deserialize``) has already checked that
configuration against its digest, and every parameter value to be a natural
number, as the engine writes them.

The settlement check re-derives every stage record with
``replay.stage_rules``, the one implementation of the substage rules, which
the engine runs too, so the checkers keep no copy of those rules.  ``run_checks``
runs the checkers from one table of (name, engines, per-slot, checker).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from typing import NamedTuple

from .dyadic import ZERO, Dyadic, gap_cmp, pow2
from .phi import PhiRegistry
from .replay import StageRuleError, stage_rules
from .strings import BinStr, lex_less, nu, region_covers_right_of
from .tracekit import (
    EXPANSION_KINDS,
    FLAG_FIELDS,
    THREAT_KINDS,
    THREAT_JUMP,
    Trace,
    TraceCorruption,
    TraceIndex,
)

__all__ = [
    "Report",
    "check_monotonicity",
    "check_convergence_bound",
    "check_jump_sums",
    "check_cutoffs",
    "check_requirement_N",
    "check_requirement_P",
    "check_settlement_facts",
    "check_expansion_gap_bound",
    "CHECK_NAMES",
    "run_checks",
]

_FOUR = Dyadic(4)
# the law of a settlement finding for a record the substage rules disown
_RULES_LAW = "record follows the substage rules"
_RECORD_FIELDS = ("settled", "action", "init_regions", "param_writes")


class Report(NamedTuple):
    check: str
    status: str  # "pass" | "fail" | "incomplete"
    witnesses: list[dict]
    assumptions: list[str]
    counts: dict[str, int]

    def to_json(self) -> dict:
        """The report as a JSON object, its keys in field order."""
        return self._asdict()


def _make_report(check: str, findings: list[tuple[str, dict | None]],
                 assumptions=None) -> Report:
    """The report of one check from its (status, detail) findings.

    Only the counts keep a pass finding: its detail is never written, so a
    checker may pass None for it and skip building one.
    """
    counts = Counter(status for status, _ in findings)
    if counts.get("fail"):
        status = "fail"
    elif counts.get("pass") or not counts.get("incomplete"):
        status = "pass"
    else:
        status = "incomplete"
    witnesses = [
        {"status": status_, **detail}
        for status_, detail in findings
        if status_ != "pass"
    ]
    return Report(
        check=check,
        status=status,
        witnesses=witnesses,
        assumptions=list(assumptions or []),
        counts=dict(counts),
    )


class _PastBound(Exception):
    """A restraint or witness read from the trace lies outside the values
    the engine writes; ``detail`` is the fail finding naming the law."""

    def __init__(self, detail: dict):
        super().__init__(detail["law"])
        self.detail = detail


def _bounded(index: TraceIndex, sigma: BinStr, fld: str, t: int) -> int:
    """The restraint (``fld`` "r") or witness ("w") of sigma at stage t,
    compared with the values the engine can write before any power of two
    is taken of it; raises _PastBound outside them.

    The engine raises a restraint from 0 by one at most once per stage, so
    0 <= r <= t.  A witness starts at nu(sigma), an initialisation at stage
    s writes nu(sigma) + s + 2, and engine B adds one at most once per
    stage, so nu(sigma) <= w <= nu(sigma) + t + 2.
    """
    v = index.value(sigma, fld, t)
    if fld == "r":
        lo, hi, laws = 0, t, ("r>=0", "r<=t")
    else:
        lo = nu(sigma)
        hi, laws = lo + t + 2, ("w>=nu(sigma)", "w<=nu(sigma)+t+2")
    if v < lo:
        raise _PastBound({"law": laws[0], "sigma": sigma, "t": t, "value": v, "bound": lo})
    if v > hi:
        raise _PastBound({"law": laws[1], "sigma": sigma, "t": t, "value": v, "bound": hi})
    return v


# ---------------------------------------------------------------------------
# Parameter monotonicity


def check_monotonicity(trace: Trace) -> Report:
    """Restraint and witness laws: r <= t, r and w non-decreasing in t,
    and (first construction only) the witness monotone along prefixes."""
    index = trace.index
    findings: list[tuple[str, dict]] = []
    tracked = list(index.written)
    if "" not in tracked:
        tracked.insert(0, "")

    for sigma in tracked:
        for fld in ("r", "w"):
            times, values = index.changepoints(sigma, fld)
            prev = None
            for t_c, v in zip(times, values):
                if fld == "r" and v > t_c:
                    findings.append(
                        ("fail", {"law": "r<=t", "sigma": sigma, "t": t_c, "value": v})
                    )
                if prev is not None and v < prev:
                    findings.append(
                        ("fail", {"law": f"{fld} non-decreasing", "sigma": sigma,
                                  "t": t_c, "value": v, "previous": prev})
                    )
                prev = v

    if trace.engine == "A":
        by_len = sorted(tracked, key=len)
        for i, sigma in enumerate(by_len):
            for tau in by_len[i + 1:]:
                if len(tau) > len(sigma) and tau.startswith(sigma):
                    # both witnesses are step functions: compare where either steps
                    times = sorted({*index.changepoints(sigma, "w")[0],
                                    *index.changepoints(tau, "w")[0]})
                    bad = next((t for t in times if index.value(sigma, "w", t)
                                > index.value(tau, "w", t)), None)
                    if bad is not None:
                        findings.append(
                            ("fail", {"law": "w prefix-monotone", "sigma": sigma,
                                      "tau": tau, "t": bad})
                        )

    assumptions = [
        "prefix-monotonicity checked across explicitly written strategies; "
        "never-written strategies follow the region defaults, which are "
        "monotone by construction"
    ] if trace.engine == "A" else []
    return _make_report("monotonicity", findings, assumptions)


# ---------------------------------------------------------------------------
# Global convergence bound


def check_convergence_bound(trace: Trace) -> Report:
    """x non-decreasing and consistent with the jumps, every jump an exact
    power of two, and x_T below the geometric-series bound of 4."""
    findings: list[tuple[str, dict]] = []
    x = trace.x
    for t, _, _, jump, _, _ in trace.stages:
        m = jump.m
        if m < 0:
            findings.append(("fail", {"law": "x non-decreasing", "t": t,
                                      "jump": str(jump)}))
        elif m > 0 and not jump.is_pow2():
            findings.append(("fail", {"law": "jump is a power of two", "t": t,
                                      "jump": str(jump)}))
        # the engine writes only jumps 0 and 2**-k; any other jump is summed
        if m == 0:
            consistent = x[t] == x[t + 1]
        elif m == 1:
            consistent = gap_cmp(x[t + 1], x[t], jump.k) == 0
        else:
            consistent = x[t] + jump == x[t + 1]
        if not consistent:
            findings.append(("fail", {"law": "x consistent with jumps", "t": t}))
    if not x[trace.T] < _FOUR:
        findings.append(("fail", {"law": "x_T < 4", "x_T": str(x[trace.T])}))
    return _make_report("convergence", findings)


# ---------------------------------------------------------------------------
# Jump-sum identities


def _classify_episode(sign: int, t2, interrupted_at) -> tuple[str, str | None]:
    """Status and note of an episode whose sum is below, equal to or above
    its bound as sign is -1, 0 or 1; a pass has no note."""
    if sign > 0:
        return "fail", "sum exceeds the scheduled amount"
    if t2 is None:
        return "incomplete", "next application beyond horizon; weak bound holds"
    if interrupted_at is not None or sign == 0:
        return "pass", None
    return "fail", "episode complete but sum falls short"


def _scheduled(trace: Trace, t1: int) -> int:
    """The exponent w of the amount 2**-w scheduled for the threat handled
    at stage t1: the witness of its strategy at t1."""
    return trace.index.value(trace.stages[t1].settled, "w", t1)


def check_jump_sums(trace: Trace) -> Report:
    """Exact jump-sum identities per threat and per counter episode.

    A threat handled at t1 with the next application of the strategy at t2
    and no initialisation in between must see jumps attributed to t1 sum to
    exactly 2**-w; a counter episode likewise to 2**-r.  Episodes truncated
    by the horizon only need the one-sided bound.  An immediate threat jump
    pays all of 2**-w at its own stage, so its own jump must be exactly
    that, wherever the episode ends.
    """
    findings: list[tuple[str, dict]] = []
    index = trace.index
    try:
        index.fibers  # a corrupt attribution fails the check before any episode
    except TraceCorruption as exc:
        return _make_report("jump_sums", [("fail", {"error": str(exc)})])

    for rec in trace.stages:
        kind = rec.action.kind
        if kind in THREAT_KINDS:
            sigma, t1 = rec.settled, rec.t
            origin = t1
            e = _scheduled(trace, t1)
            label = "threat"
        elif kind in EXPANSION_KINDS:
            sigma, t1 = rec.settled, rec.t
            origin = index.episode_origin(rec)
            if origin is None:
                findings.append(("fail", {"episode": "counter", "t1": t1,
                                          "error": f"no prior threat of {rec.action.alpha!r}"}))
                continue
            e = index.value(sigma, "r", t1)
            label = "counter"
        else:
            continue
        t2 = index.next_application(sigma, t1)
        end = t2 if t2 is not None else trace.T
        interrupted_at = index.first_initialisation_in(sigma, t1, end)
        status, note = _classify_episode(index.paid_cmp(origin, t1, end, e), t2,
                                         interrupted_at)
        if status != "fail" and kind == THREAT_JUMP and gap_cmp(rec.jump, ZERO, e) != 0:
            status, note = "fail", "threat jump differs from the scheduled amount"
        if status == "pass":
            findings.append(("pass", None))
        else:
            findings.append(
                (status, {"episode": label, "sigma": sigma, "t1": t1, "t2": t2,
                          "sum": str(index.paid(origin, t1, end)), "bound": str(pow2(-e)),
                          "note": note})
            )
    return _make_report("jump_sums", findings)


# ---------------------------------------------------------------------------
# Cut-off stages (first construction)


def check_cutoffs(trace: Trace) -> Report:
    """Cut-off certification: region coverage, counter condition, tail bound.

    A cut-off is identified when a strategy's threat episode completed in
    horizon (attributed jumps sum to exactly the scheduled amount) and the
    strategy is never initialised afterwards within the horizon.
    """
    if trace.engine != "A":
        raise ValueError("cut-off stages are defined for engine A traces only")
    findings: list[tuple[str, dict]] = []
    index = trace.index
    try:
        fibers = index.fibers
    except TraceCorruption as exc:
        return _make_report("cutoffs", [("fail", {"error": str(exc)})])

    for rec in trace.stages:
        if rec.action.kind not in THREAT_KINDS:
            continue
        sigma, t1 = rec.settled, rec.t
        if index.first_initialisation_in(sigma, t1, trace.T) is not None:
            continue  # threat invalidated within horizon; not a stable episode
        sign = index.paid_cmp(t1, t1, trace.T, _scheduled(trace, t1))
        if sign > 0:
            findings.append(("fail", {"sigma": sigma, "t1": t1,
                                      "error": "fiber sum exceeds scheduled amount"}))
            continue
        if sign < 0:
            findings.append(("incomplete", {"sigma": sigma, "t1": t1,
                                            "note": "episode not completed in horizon"}))
            continue
        t_cut = fibers[t1][-1]
        problems = []
        cut_rec = trace.stages[t_cut]
        if not any(
            region_covers_right_of(anchor, rel, sigma)
            for anchor, rel in cut_rec.init_regions
        ):
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
    return _make_report(
        "cutoffs",
        findings,
        ["stability of each threat approximated by the absence of later "
         "in-horizon initialisations"],
    )


# ---------------------------------------------------------------------------
# Negative requirements


def _require_declared_increasing(registry: PhiRegistry, e: int) -> None:
    cls = registry.classification(e)
    if cls is True:
        return
    if cls is None:
        raise ValueError(
            f"slot {e} is a program without a declared classification; refusing"
        )
    raise ValueError(f"slot {e} is not declared total and increasing; refusing")


def check_requirement_N(trace: Trace, e: int = 0) -> Report:
    """One-sided certification of the negative requirement for slot e.

    Engine A form: find the least m with x_T - x_{phi_e(m)} >= 2**-m (sound
    because the limit dominates x_T).  Engine B form: report the widest
    window [m, n_max] on which the inequality holds for every n.
    """
    registry = trace.registry
    _require_declared_increasing(registry, e)
    findings: list[tuple[str, dict]] = []
    x = trace.x
    decrease = trace.index.first_decrease
    if decrease is not None:
        findings.append(("fail", {"error": f"x decreases at stage {decrease}"}))
        return _make_report(f"requirement_n[{e}]", findings)
    T = trace.T
    x_T = x[T]
    chain = registry.visible_values(e, T)
    l_max = len(chain) - 1
    if trace.engine == "A":
        for m, v in enumerate(chain):
            if gap_cmp(x_T, x[v], m) >= 0:
                findings.append(("pass", {"e": e, "m": m, "mode": "A"}))
                break
        else:
            findings.append(("incomplete", {"e": e, "note": "not yet",
                                            "searched_up_to": l_max}))
    else:
        holds = [gap_cmp(x_T, x[v], n) >= 0 for n, v in enumerate(chain)]
        best = (0, -1)  # (start, end) of the longest run, end inclusive
        start = None
        for n, ok in enumerate(holds + [False]):
            if ok and start is None:
                start = n
            elif not ok and start is not None:
                if n - start > best[1] - best[0] + 1:
                    best = (start, n - 1)
                start = None
        if best[1] >= best[0]:
            findings.append(("pass", {"e": e, "m": best[0], "n_max": best[1],
                                      "mode": "B",
                                      "note": "inequality certified on the window; "
                                              "the tail is horizon-conditional"}))
        else:
            findings.append(("incomplete", {"e": e, "note": "not yet",
                                            "searched_up_to": l_max}))
    return _make_report(f"requirement_n[{e}]", findings)


# ---------------------------------------------------------------------------
# Positive requirements


def check_requirement_P(trace: Trace, e: int = 0) -> Report:
    """Modulus extraction and gap verification for the positive requirement.

    Computes the stage t(n) at which the true-path strategy of length e has
    pushed its restraint past the needed level (engine B additionally needs
    the prefix witness sum small enough), takes v(n) as the chain length
    there, and checks every in-horizon difference x_{phi_e(i+1)} - x_{phi_e(i)}
    with i >= v(n) against 2**-n.  Realisable n report pass or fail; the
    first unrealisable n reports incomplete and stops the scan.

    A stage meeting the condition for n also meets the weaker one for
    n - 1, so t(n) never precedes t(n - 1) and one pointer sweep over the
    expansionary stages finds every t(n), whether or not the restraint is
    monotone.  The chain differences are computed once, and a suffix
    maximum decides for each n whether any difference from v(n) on is too
    large; only then is the first such i looked for.

    The engine writes r + 1 at most once per stage, so the restraint read at
    stage t is at most t.  A restraint past that bound at an expansionary
    stage is one fail finding, and the sweep, whose length grows with r, is
    not run.  On engine B a witness the sweep reads outside its bound (see
    ``_bounded``) also ends the check in one fail finding.
    """
    registry = trace.registry
    _require_declared_increasing(registry, e)
    index = trace.index
    est = index.true_path
    if len(est.path) < e or est.stable_upto < e:
        return _make_report(
            f"requirement_p[{e}]",
            [("incomplete", {"e": e,
                             "note": "true-path estimate unstable at this length",
                             "stable_upto": est.stable_upto})],
        )
    sigma = est.path[:e]
    assumptions = [f"true-path prefix {sigma or 'the root'!r} taken from the "
                   f"windowed estimate (stable_upto={est.stable_upto})"]

    if trace.engine == "B":
        for length in range(e + 1):
            if registry.classification(length) is None:
                return _make_report(
                    f"requirement_p[{e}]",
                    [("incomplete", {"e": e, "note": f"slot {length} lacks a "
                                     "declared classification; refusing"})],
                )
    t0 = _stability_start(trace, est.path, e)
    assumptions.append(f"post-stability horizon approximated as t0={t0}")

    def meets(n: int, t: int) -> bool:
        r_here = index.value(sigma, "r", t)
        if trace.engine == "A":
            return r_here >= n + 2
        return (r_here >= n + 3
                and gap_cmp(_witness_sum(trace, est.path, e, t), ZERO, n + 1) <= 0)

    exp_stages = index.expansionary_stages(sigma, t0)
    for t in exp_stages:
        r_here = index.value(sigma, "r", t)
        if r_here > t:
            return _make_report(
                f"requirement_p[{e}]",
                [("fail", {"law": "r<=t", "e": e, "t": t, "value": r_here,
                           "bound": t})],
                assumptions,
            )
    x = trace.x
    phi_vals = registry.visible_values(e, trace.T)
    l_max = len(phi_vals) - 1
    diffs = [x[b] - x[a] for a, b in zip(phi_vals, phi_vals[1:])]
    suffix_max = list(accumulate(reversed(diffs), max))[::-1]
    findings: list[tuple[str, dict]] = []
    p = 0
    n = 0
    while True:
        try:
            while p < len(exp_stages) and not meets(n, exp_stages[p]):
                p += 1
        except _PastBound as exc:
            return _make_report(f"requirement_p[{e}]", [("fail", exc.detail)], assumptions)
        if p == len(exp_stages):
            findings.append(("incomplete", {"n": n, "note": "t(n) beyond horizon"}))
            break
        t_n = exp_stages[p]
        v_n = registry.ell(e, t_n)
        if v_n < l_max and gap_cmp(suffix_max[v_n], ZERO, n) >= 0:
            bad = next(i for i in range(v_n, l_max) if gap_cmp(diffs[i], ZERO, n) >= 0)
            findings.append(("fail", {"n": n, "v_n": v_n, "i": bad,
                                      "difference_exceeds": f"2^-{n}"}))
        else:
            findings.append(("pass", {"n": n, "t_n": t_n, "v_n": v_n,
                                      "checked_i_up_to": l_max - 1}))
        n += 1
    return _make_report(f"requirement_p[{e}]", findings, assumptions)


def _stability_start(trace: Trace, path: BinStr, length: int) -> int:
    """First stage after the last in-horizon initialisation of path[:length]
    and, on engine B, after the last threat handled by any prefix whose slot
    is not declared total and increasing."""
    index = trace.index
    inits = index.initialisations(path[:length])
    t0 = inits[-1] + 1 if inits else 0
    if trace.engine == "B":
        S = trace.registry.total_increasing_indices()
        for sub in range(length + 1):
            if sub not in S and path[:sub] in index.threats:
                t0 = max(t0, index.threats[path[:sub]][-1] + 1)
    return t0


def _witnesses(trace: Trace, path: BinStr, e: int, t: int) -> list[int]:
    """The witnesses w(tau)[t] of the prefixes tau of path[:e] whose length is
    a declared-increasing slot, shortest first; raises _PastBound at the
    first witness outside its bound."""
    S = trace.registry.total_increasing_indices()
    return [_bounded(trace.index, path[:length], "w", t)
            for length in range(e + 1) if length in S]


def _witness_sum(trace: Trace, path: BinStr, e: int, t: int) -> Dyadic:
    """Exact sum of 2**(-w(tau)[t] + 1) over the :func:`_witnesses`."""
    return sum((pow2(1 - w) for w in _witnesses(trace, path, e, t)), ZERO)


# ---------------------------------------------------------------------------
# Settlement facts


def check_settlement_facts(trace: Trace) -> Report:
    """Every stage record re-derived by the substage rules, plus the laws
    the rules imply that are certified here on their own: one threat per
    witness value, threat episodes closed once complete, and (second
    construction) the pause-flag laws.

    Stage t runs ``replay.stage_rules`` on the trace's own state before it:
    parameter values from ``TraceIndex.value`` at t, x, and the registry's
    ``ell`` and ``step``.  The walk is forced from one past the deeper of
    the longest strategy written before t and the deepest configured slot
    index: no strategy from that depth on has a parameter write or a slot,
    so every substage there appends "1" (the forced walk of the engine
    module docstring).  The record's settled word, action, initialisation
    regions and parameter writes must equal the derived ones, and the first
    that differs is named in a fail finding with law "record follows the
    substage rules"; where the stage's inputs admit no walk, the finding
    carries the rule function's error instead.  A stage is derived from the
    records before it alone, so an edited record fails at its own stage.
    """
    index = trace.index
    registry = trace.registry
    deepest = max(registry.configured_indices(), default=-1)
    findings: list[tuple[str, dict]] = []

    def violation(**detail):
        findings.append(("fail", detail))

    value, x, ell, step = index.value, trace.x, registry.ell, registry.step
    longest = -1  # the length of the longest strategy written so far
    for rec in trace.stages:
        t = rec.t
        try:
            derived = stage_rules(t, x, lambda sigma, fld: value(sigma, fld, t), None, ell,
                                  step, trace.engine, max(longest, deepest) + 1)
        except StageRuleError as exc:
            violation(t=t, law=_RULES_LAW, error=str(exc))
        else:
            settled, action, _, region, writes = derived
            want = (settled, action, (region,), writes)
            got = (rec.settled, rec.action, rec.init_regions, rec.param_writes)
            if want != got:
                first = next(i for i in range(4) if want[i] != got[i])
                violation(t=t, law=_RULES_LAW, field=_RECORD_FIELDS[first])
        for sigma, _, _ in rec.param_writes:
            if len(sigma) > longest:
                longest = len(sigma)

    # at most one handled threat per (strategy, witness value): a repeat
    # needs an intervening initialisation or bump, which raises the witness
    threat_witnesses: dict[tuple[BinStr, int], int] = {}
    for rec in trace.stages:
        if rec.action.kind in THREAT_KINDS:
            key = (rec.settled, index.value(rec.settled, "w", rec.t))
            if key in threat_witnesses:
                violation(law="single threat per witness value",
                          sigma=rec.settled, witness=key[1],
                          stages=[threat_witnesses[key], rec.t])
            else:
                threat_witnesses[key] = rec.t

    # fiber closure: once an episode's jumps reach the scheduled amount,
    # nothing further may be attributed to it
    try:
        fiber_sums = index.fiber_sums
    except TraceCorruption as exc:
        violation(law="jump attribution", error=str(exc))
        fiber_sums = {}
    for origin, sums in fiber_sums.items():
        # every indexed jump is positive, so the running sums strictly
        # increase and the first to reach the schedule 2**-w decides both
        # laws, compared in integers
        w = _scheduled(trace, origin)
        i = bisect_left(sums, 0, key=lambda s: gap_cmp(s, ZERO, w))
        members = index.fibers[origin]
        if i == len(sums):
            continue
        if gap_cmp(sums[i], ZERO, w) > 0:
            violation(law="fiber sum bounded by schedule", origin=origin, t=members[i - 1])
        elif i < len(members):
            violation(law="fiber closed after completion", origin=origin,
                      late_jump=members[i])

    if trace.engine == "B":
        _check_pause_facts(trace, index, findings)

    findings_wrapped = findings if findings else [("pass", {"stages": trace.T})]
    return _make_report("settlement", findings_wrapped)


def _check_pause_facts(trace: Trace, index: TraceIndex, findings) -> None:
    """Pause alternation, no consecutive threats, witness bump per threat."""
    pause = FLAG_FIELDS["B"]
    for rec in trace.stages:
        if rec.action.kind in THREAT_KINDS:
            w_before = index.value(rec.settled, "w", rec.t)
            wanted = (rec.settled, "w", w_before + 1)
            if wanted not in rec.param_writes:
                findings.append(("fail", {"law": "witness grows by one per threat",
                                          "sigma": rec.settled, "t": rec.t}))
    for sigma in index.written_to(pause):
        apps = index.applications(sigma)
        threats = set(index.threats.get(sigma, ()))
        for t1, t2 in zip(apps, apps[1:]):
            if index.value(sigma, pause, t1) == 1 and index.value(sigma, pause, t2) == 1:
                findings.append(("fail", {"law": "pause alternation",
                                          "sigma": sigma, "t1": t1, "t2": t2}))
            if t1 in threats and t2 in threats:
                findings.append(("fail", {"law": "no consecutive threats",
                                          "sigma": sigma, "t1": t1, "t2": t2}))


# ---------------------------------------------------------------------------
# Expansion gap bound (second construction)


def check_expansion_gap_bound(trace: Trace) -> Report:
    """Between consecutive expansionary applications of a stable strategy,
    the approximation may grow by at most twice its restraint bound plus the
    witness sum of its declared-increasing prefixes.

    One walk down the stable path: once a prefix has an undeclared program
    slot in scope, so does every longer one.  A prefix whose length is not a
    configured slot index is skipped: its chain length is -1 at every stage,
    so it is never expansionary and has no pair to check.  Only configured
    lengths pay for initialisations and applications.

    The bound is 2**(-r + 1) plus the witness sum at t1.  Before it is
    computed, r and every witness it sums are compared with their bounds
    (0 <= r <= t1 and nu(tau) <= w <= nu(tau) + t1 + 2, see ``_bounded``):
    a value outside ends the check in one fail finding naming the law, with
    no arithmetic on it.  A gap of at most 2**(-r + 1) is within the bound
    whatever the witnesses add, so only a larger gap has the bound built
    and compared exactly.
    """
    if trace.engine != "B":
        raise ValueError("the witness-sum gap bound applies to engine B traces")
    registry = trace.registry
    index = trace.index
    est = index.true_path
    configured = registry.configured_indices()
    x = trace.x
    findings: list[tuple[str, dict]] = []
    assumptions = [f"true-path estimate stable to length {est.stable_upto}"]

    undeclared = False
    for length in range(est.stable_upto + 1):
        sigma = est.path[:length]
        undeclared = undeclared or registry.classification(length) is None
        if undeclared:
            findings.append(("incomplete", {"sigma": sigma,
                                            "note": "undeclared program slot in "
                                            "scope; refusing this prefix"}))
            continue
        if length not in configured:
            continue  # ell is -1 for an empty slot: never expansionary
        t0 = _stability_start(trace, est.path, length)
        exp_stages = index.expansionary_stages(sigma, t0)
        pairs = 0
        for t1, t2 in zip(exp_stages, exp_stages[1:]):
            try:
                r = _bounded(index, sigma, "r", t1)
                witnesses = _witnesses(trace, est.path, length, t1)
            except _PastBound as exc:
                return _make_report("expansion_gap", [("fail", exc.detail)], assumptions)
            if gap_cmp(x[t2], x[t1], r - 1) > 0:
                bound = sum((pow2(1 - w) for w in witnesses), pow2(1 - r))
                gap = x[t2] - x[t1]
                if gap > bound:
                    findings.append(("fail", {"sigma": sigma, "t1": t1, "t2": t2,
                                              "gap": str(gap), "bound": str(bound)}))
            pairs += 1
        if pairs:
            findings.append(("pass", {"sigma": sigma, "pairs": pairs, "t0": t0}))
    return _make_report("expansion_gap", findings, assumptions)


# ---------------------------------------------------------------------------
# Orchestration

# (name, engines it applies to, one report per declared-increasing slot,
# checker).  A checker reaches its check_* function through the module
# global at call time, so a wrapper installed over that name (as
# perfbench/tracing.py does to time each checker) sees every call.
_CHECKS = (
    ("monotonicity", "AB", False, lambda trace, e: check_monotonicity(trace)),
    ("convergence", "AB", False, lambda trace, e: check_convergence_bound(trace)),
    ("jump_sums", "AB", False, lambda trace, e: check_jump_sums(trace)),
    ("cutoffs", "A", False, lambda trace, e: check_cutoffs(trace)),
    ("requirement_n", "AB", True, lambda trace, e: check_requirement_N(trace, e)),
    ("requirement_p", "AB", True, lambda trace, e: check_requirement_P(trace, e)),
    ("settlement", "AB", False, lambda trace, e: check_settlement_facts(trace)),
    ("expansion_gap", "B", False, lambda trace, e: check_expansion_gap_bound(trace)),
)

CHECK_NAMES = tuple(name for name, _, _, _ in _CHECKS)


def run_checks(trace: Trace, checks: list[str] | None = None) -> list[Report]:
    """Run the selected checkers (default: all that apply to the engine).

    A check selected by name runs even where it does not apply, so that its
    checker's ValueError says why.  An unknown or repeated name is refused.
    """
    if checks is None:
        selected = [c for c in _CHECKS if trace.engine in c[1]]
    else:
        table = {c[0]: c for c in _CHECKS}
        unknown = [name for name in checks if name not in table]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(map(repr, unknown))}")
        repeated = list(dict.fromkeys(name for name in checks if checks.count(name) > 1))
        if repeated:
            raise ValueError(f"repeated checks: {', '.join(map(repr, repeated))}")
        selected = [table[name] for name in checks]
    reports: list[Report] = []
    for _, _, per_slot, checker in selected:
        slots = sorted(trace.registry.total_increasing_indices()) if per_slot else [None]
        reports.extend(checker(trace, e) for e in slots)
    return reports
