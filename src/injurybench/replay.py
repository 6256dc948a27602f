"""Naive replay oracle for the stage constructions, and the substage rules.

:func:`stage_rules` is the substage rules of one stage written out from
their prose description, with none of the engine's sparse or incremental
machinery: it takes a stage's inputs (the parameter values at stage t, the
approximation x, the slot queries) and returns the stage's settled word,
action, jump, initialisation region and parameter writes.  It is the one
implementation of the rules besides the engine, and it has two callers.

* :func:`replay_run`, the oracle, feeds it a flat history: every
  parameter read scans the explicit writes and initialisation events from
  the latest back (:class:`_History`), and the chain length is recomputed
  from scratch by querying the slot on 0, 1, 2, ... (:func:`naive_ell`).
  The oracle exists so the optimised engine can be checked against an
  implementation whose state handling is too simple to share its bugs; the
  test suite compares the x sequences, the settlements, and the complete
  parameter read logs value for value.
* ``verify.check_settlement_facts`` feeds it a finished trace's own state
  before each stage and compares the derived record with the recorded one.

The substage read protocol is the one documented in :mod:`injurybench.engine`;
both implementations follow it so the logs line up positionally.

To stay independent, this module imports only the primitives
:mod:`~injurybench.strings`, :mod:`~injurybench.dyadic` and
:mod:`~injurybench.phi`, never the engine or the trace model; it even spells
the flag fields and the action kinds itself (a test pins this boundary).

The oracle stays naive on purpose.  Its history keeps no index, cache or
engine structure, only two lists in stage order, and a read stops scanning
only where the precedence rule of :meth:`_History.read` says that no
earlier event can change its value.  Beyond that it gets faster only when
a shared primitive does, such as the step query (``naive_ell`` takes a
slot's gate once from :meth:`~injurybench.phi.PhiRegistry.stepper` and
queries it on 0, 1, 2, ...), the gap test (``dyadic.gap_cmp``) or region
membership.  The engine calls the same primitives, so the cross-check
cannot see a fault in them; each therefore has a test against its
written-out definition instead (``test_phi`` for the convergence gate,
``test_tracekit`` for region membership, ``test_strings`` for the tree
order, ``test_dyadic`` for the arithmetic).  The reads' full-scan form is
kept the same way, as ``test_replay.full_scan_read``.
"""

from __future__ import annotations

from typing import NamedTuple

from .dyadic import ZERO, Dyadic, gap_cmp, pow2
from .phi import PhiRegistry
from .strings import REL_LEX, REL_LEX_OR_EXT, BinStr, nu, pair, region_contains, unpair

__all__ = ["ReplayResult", "StageRuleError", "replay_run", "stage_rules", "naive_ell"]

# Stage-terminal action kinds, spelled as the trace model spells them
TOP_OUT = "top_out"
THREAT_JUMP = "threat_jump"
THREAT_SCHEDULE = "threat_schedule"
EXPANSION_JUMP = "expansion_jump"
EXPANSION_DELEGATE = "expansion_delegate"


class StageRuleError(ValueError):
    """A stage's inputs admit no substage walk (see :func:`stage_rules`)."""


class ReplayResult(NamedTuple):
    engine: str
    x: list[Dyadic]
    settlements: list[BinStr]
    reads: list[tuple]

    def __repr__(self) -> str:
        # the read log is long and is compared whole, so the repr leaves it out
        return (f"ReplayResult(engine={self.engine!r}, x={self.x!r}, "
                f"settlements={self.settlements!r})")


def naive_ell(registry: PhiRegistry, e: int, t: int) -> int:
    """Chain length computed per definition, using only step queries.

    Slot values are natural numbers, so a first ``prev`` of -1 lets every
    visible value on 0 start the chain."""
    step = registry.stepper(e)
    l = -1
    prev = -1
    for k in range(t + 1):
        v = step(k, t)
        if v is None or v <= prev:
            break
        prev = v
        l = k
    return l


class _History:
    """Parameter storage as two flat lists: explicit writes and region events.

    Both lists grow in stage order.  A read of (sigma, fld) at ``time`` takes
    the latest write at or before ``time``, and the latest region at or
    before ``time`` that contains sigma and resets the field; the region wins
    when it comes at or after the write, ties included.  A region resets c
    and w, and the flag only on engine A; r and B's pause flag keep their
    writes.  So the read scans the regions backward and stops at the first
    one older than the write: no earlier region can win.  Unwritten c and A
    flags read 0 with no scan, since the region's reset value is their
    default 0 too.  An unwritten w still scans, since its reset value
    nu(sigma) + stage + 2 depends on the stage of the region.
    """

    def __init__(self, engine: str):
        self.engine = engine
        # (sigma, field) -> [(effective_time, value)] in append order
        self.writes: dict[tuple[BinStr, str], list[tuple[int, int]]] = {}
        # [(stage, anchor, rel)]; effects land at stage + 1
        self.inits: list[tuple[int, BinStr, str]] = []

    def write(self, sigma: BinStr, fld: str, value: int, time: int) -> None:
        self.writes.setdefault((sigma, fld), []).append((time, value))

    def read(self, sigma: BinStr, fld: str, time: int) -> int:
        write_time = None
        write_val = None
        for wt, wv in reversed(self.writes.get((sigma, fld), ())):
            if wt <= time:
                write_time, write_val = wt, wv
                break
        resets = fld in ("c", "w") or (fld == "s" and self.engine == "A")
        if resets and (write_time is not None or fld == "w"):
            for stage, anchor, rel in reversed(self.inits):
                if stage + 1 > time:
                    continue
                if write_time is not None and stage + 1 < write_time:
                    break
                if region_contains(anchor, rel, sigma):
                    return nu(sigma) + stage + 2 if fld == "w" else 0
        if write_time is not None:
            return write_val
        return nu(sigma) if fld == "w" else 0


def replay_run(registry: PhiRegistry, engine: str, T: int) -> ReplayResult:
    """Run T stages of the named construction naively: each stage is
    :func:`stage_rules` on the flat history, with no forced tail."""
    if engine not in ("A", "B"):
        raise ValueError(f"unknown engine {engine!r}")
    hist = _History(engine)
    x: list[Dyadic] = [ZERO]
    settlements: list[BinStr] = []
    reads: list[tuple] = []

    def ell(e: int, t: int) -> int:
        return naive_ell(registry, e, t)

    for t in range(T):
        def read(sigma: BinStr, fld: str) -> int:
            return hist.read(sigma, fld, t)

        sigma, _, jump_exp, region, writes = stage_rules(
            t, x, read, reads.append, ell, registry.step, engine, t)
        for s, fld, val in writes:
            hist.write(s, fld, val, t + 1)
        x.append(x[t] + (pow2(-jump_exp) if jump_exp is not None else ZERO))
        hist.inits.append((t, region[0], region[1]))
        settlements.append(sigma)

    return ReplayResult(engine=engine, x=x, settlements=settlements, reads=reads)


def stage_rules(t: int, x: list[Dyadic], read, log, ell, step, engine: str,
                forced: int):
    """Stage t of the named construction by the substage rules.

    ``read(sigma, fld)`` is a parameter's value at stage t, before any
    write of this stage; ``log``, unless None, receives the tuple (t, sigma,
    fld, "cur"|"next", value) of every read in the order of the engine's
    read protocol, as the engine's read log holds it.  ``ell(e, t)`` and
    ``step(e, n, t)`` query the slots, and x needs entries up to x[t].  From
    depth ``forced`` on the walk appends "1" up to depth t in one step,
    logging the flag reads of 0 it skips (the forced walk of the engine
    module docstring); a ``forced`` of t walks every depth.

    Returns (settled, action, jump exponent, region, writes): the action
    is the tuple (kind, sigma, gamma, counter, alpha, k, exponent) in the
    field order of the trace model's ``Action``, the jump exponent is None
    for no jump, the region is (anchor, relation), and the writes are the
    (sigma, field, value) triples in substage order.  The writes are staged
    here, so a "next" read sees this stage's earlier writes.

    Raises :class:`StageRuleError` where the inputs admit no walk: a chain
    value not visible by stage t, a restraint read past t, a counter that
    decodes to no remaining jump, or a delegation target whose restraint
    lies below the delegating strategy's.  Bounding the restraint bounds
    every shift the walk takes: a restraint read "next" is always one this
    stage wrote, one above a restraint it read at t.
    """
    variant_b = engine == "B"
    flag_fld = "p" if variant_b else "s"
    staged: dict[tuple[BinStr, str], int] = {}

    def logged(sigma: BinStr, fld: str) -> int:
        val = read(sigma, fld)
        log((t, sigma, fld, "cur", val))
        return val

    cur = read if log is None else logged

    def nxt_restraint(sigma: BinStr) -> int:
        # the walk appends "0" only after staging the strategy's raised
        # restraint, so the restraint of a 0-predecessor is always staged
        val = staged[sigma, "r"]
        if log is not None:
            log((t, sigma, "r", "next", val))
        return val

    def gap_below(e: int, l: int, exponent: int) -> bool:
        v = step(e, l, t)
        if v is None or v > t:
            raise StageRuleError(f"slot {e} chain inconsistent at stage {t}")
        return gap_cmp(x[t], x[v], exponent) < 0

    sigma = ""
    while True:
        e = len(sigma)
        if forced <= e < t:
            if log is not None:
                for k in range(t - e):
                    log((t, sigma + "1" * k, flag_fld, "cur", 0))
            sigma += "1" * (t - e)
            e = t
        if e == t:
            # top-out: keep the value, initialise everything lex-right
            action = (TOP_OUT, sigma, None, None, None, None, None)
            jump_exp = None
            region = (sigma, REL_LEX)
            break

        # negative requirement: threat test; the chain length is asked once
        # per substage, and only where a predicate needs it
        flag = cur(sigma, flag_fld)
        l = None
        threatened = False
        if flag == 0:
            l = ell(e, t)
            if l >= 0:
                w = cur(sigma, "w")
                threatened = l >= w and gap_below(e, l, w)
        # B: an unthreatened visit lifts the pause flag
        if variant_b and not threatened and flag != 0:
            staged[sigma, flag_fld] = 0
        if threatened:
            # the longest 0-predecessor whose raised restraint blocks the jump
            gamma = None
            for j in range(e - 1, -1, -1):
                if sigma[j] == "0":
                    r_next = nxt_restraint(sigma[:j])
                    if r_next >= w:
                        gamma = sigma[:j]
                        break
            if gamma is None:
                action = (THREAT_JUMP, sigma, None, None, None, None, w)
                jump_exp = w
            else:
                counter = pair(sigma, 1 << (r_next - w))
                staged[gamma, "c"] = counter
                action = (THREAT_SCHEDULE, sigma, gamma, counter, None, None, None)
                jump_exp = None
            staged[sigma, flag_fld] = 1
            # B: every handled threat bumps the witness; its region spares
            # the threatened strategy's extensions
            if variant_b:
                staged[sigma, "w"] = w + 1
            region = (sigma, REL_LEX if variant_b else REL_LEX_OR_EXT)
            break

        # positive requirement: expansion test (A: only while the flag is 1)
        expansionary = False
        if variant_b or flag == 1:
            if l is None:
                l = ell(e, t)
            if l >= 0:
                r = cur(sigma, "r")
                if r > t:
                    raise StageRuleError(f"restraint of {sigma!r} passes stage {t}")
                expansionary = gap_below(e, l, r)
        if not expansionary:
            sigma += "1"
            continue

        c = cur(sigma, "c")
        if c == 0:
            staged[sigma, "r"] = r + 1
            sigma += "0"
            continue

        # execute or delegate one scheduled jump
        alpha, second = unpair(c)
        if second == 0:
            raise StageRuleError(
                f"counter of {sigma!r} decodes to a zero remaining count at stage {t}")
        k = second - 1
        j = sigma.rfind("0")
        if j < 0:
            action = (EXPANSION_JUMP, sigma, None, None, alpha, k, r)
            jump_exp = r
        else:
            gamma = sigma[:j]
            r_next = nxt_restraint(gamma)
            if r_next < r:
                raise StageRuleError(
                    f"restraint of {gamma!r} fell below {sigma!r}'s at stage {t}")
            counter = pair(alpha, 1 << (r_next - r))
            staged[gamma, "c"] = counter
            action = (EXPANSION_DELEGATE, sigma, gamma, counter, alpha, k, None)
            jump_exp = None
        staged[sigma, "c"] = 0 if k == 0 else pair(alpha, k)
        # B: a counter stage initialises right of sigma's 0-branch; A
        # initialises around the decoded label
        region = (sigma + "0", REL_LEX) if variant_b else (alpha, REL_LEX_OR_EXT)
        break

    # the rules write no (sigma, field) twice in a stage, so the staging
    # map holds the writes in substage order
    writes = tuple([(s, fld, val) for (s, fld), val in staged.items()])
    return sigma, action, jump_exp, region, writes
