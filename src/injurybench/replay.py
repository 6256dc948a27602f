"""The substage rules of the stage constructions, and a naive replay oracle.

:func:`stage_rules` is the substage rules of one stage written out from
their prose description, with none of the engine's sparse or incremental
machinery: it takes a stage's inputs (the parameter values at stage t, the
approximation x, the slot queries) and returns the stage's settled word,
action, jump, initialisation region and parameter writes.  It is the one
implementation of the rules, and it has three callers, which differ only
in the state they feed it.

* ``engine.run_stage`` feeds it the engine's sparse parameter store and
  the registry's chain state (``PhiRegistry.ell``), with the forced tail
  of the engine module docstring, and commits what it returns.
* :func:`replay_run`, the oracle, feeds it a flat history: every
  parameter read scans the explicit writes and initialisation events from
  the latest back (:class:`_History`), and the chain length is recomputed
  from scratch as the length of the slot's visible increasing chain on
  inputs 0, 1, 2, ... (:func:`naive_ell`).
  The oracle exists so the engine's state handling and chain lengths can
  be checked against an implementation too simple to share their bugs;
  the test suite compares the x sequences, the settlements, and the
  complete parameter read logs value for value.
* ``verify.check_settlement_facts`` feeds it a finished trace's own state
  before each stage and compares the derived record with the recorded one.

The rules' gap test and chain-consistency guard, :func:`gap_below`, has one
caller outside them: ``tracekit.TraceIndex.expansionary_stages``.

To stay independent, this module imports only the primitives
:mod:`~injurybench.strings`, :mod:`~injurybench.dyadic` and
:mod:`~injurybench.phi`, never the engine or the trace model; it even spells
the flag fields and the action kinds itself (a test pins this boundary).

The oracle stays naive on purpose.  Its history keeps no index, cache or
engine structure, only two lists in stage order, and a read stops scanning
only where the precedence rule of :meth:`_History.read` says that no
earlier event can change its value.  Beyond that it gets faster only when
a shared primitive does: the step query, the gap test (``dyadic.gap_cmp``),
region membership (one comparison with the region's start word,
``strings.region_start``) or the ranged chain query
:meth:`~injurybench.phi.PhiRegistry.visible_values`, which ``naive_ell``
asks afresh on each call.  That query answers as a loop of ``step`` calls
would; an increasing formula slot answers by one bisection of its value
list, exact because its values are strictly increasing naturals.  The
engine takes its chain lengths from ``PhiRegistry.ell``, which keeps chain
state over the slots' raw semantics, so the cross-check compares the two.
The rules and the other primitives are the same code on both sides, so it
cannot see a fault in them: the rules are pinned by hand-simulated stages
(``test_engine``) and the benchmark pins, and each primitive by a test
against its written-out definition (``test_phi`` for the convergence gate
and the ranged query, ``test_tracekit`` for region membership and start
words, ``test_strings`` for the tree order, ``test_dyadic`` for the
arithmetic); the reads' full-scan form is ``test_replay.full_scan_read``.
The oracle's logged walk takes its words from a :class:`WordTable` of its
own run, as the engine's from the engine state's, so a word read a
thousand times is one string in each log; a table holds words and nothing
else, the two sides share none, and the oracle's walk still visits every
depth.
"""

from __future__ import annotations

from typing import NamedTuple

from .dyadic import ZERO, Dyadic, gap_cmp, pow2
from .phi import PhiRegistry
from .strings import REL_LEX, REL_LEX_OR_EXT, BinStr, nu, pair, region_start, unpair

__all__ = ["ReplayResult", "StageRuleError", "WordTable", "gap_below", "replay_run",
           "stage_rules", "naive_ell"]

# Stage-terminal action kinds, spelled as the trace model spells them
TOP_OUT = "top_out"
THREAT_JUMP = "threat_jump"
THREAT_SCHEDULE = "threat_schedule"
EXPANSION_JUMP = "expansion_jump"
EXPANSION_DELEGATE = "expansion_delegate"


class StageRuleError(ValueError):
    """A stage's inputs admit no substage walk (see :func:`stage_rules`)."""


class _Children(dict):
    """Word -> its child by one bit, built and stored on first lookup."""

    __slots__ = ("bit",)

    def __init__(self, bit: str):
        super().__init__()
        self.bit = bit

    def __missing__(self, sigma: BinStr) -> BinStr:
        child = self[sigma] = sigma + self.bit
        return child


class WordTable:
    """The words a run's logged walks have built, each built once.

    ``zero[sigma]`` and ``one[sigma]`` are sigma's children by that bit.  A
    lookup hashes only the parent, and a string keeps its hash once
    computed, so finding a child seen before neither rebuilds it nor
    hashes it anew, and every read logged of a word holds the one string.
    """

    __slots__ = ("zero", "one")

    def __init__(self):
        self.zero = _Children("0")
        self.one = _Children("1")


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
    """Chain length computed per definition: the number of values in the
    visible strictly increasing chain at t on inputs 0, 1, 2, ...
    (``PhiRegistry.visible_values``), less one."""
    return len(registry.visible_values(e, t)) - 1


class _History:
    """Parameter storage as two flat lists: explicit writes and region events.

    Both lists grow in stage order.  A read of (sigma, fld) at ``time`` takes
    the latest write at or before ``time``, and the latest region at or
    before ``time`` that contains sigma and resets the field; the region wins
    when it comes at or after the write, ties included.  A region resets c
    and w, and the flag only on engine A; r and B's pause flag keep their
    writes.  So the read scans the regions backward and stops at the first
    one older than the write: no earlier region can win.  A region is kept
    as its start word (``strings.region_start``), so it contains sigma iff
    the start word is at most sigma.  Unwritten c and A flags read 0 with
    no scan, since the region's reset value is their default 0 too.  An
    unwritten w still scans, since its reset value nu(sigma) + stage + 2
    depends on the stage of the region.
    """

    def __init__(self, engine: str):
        self.engine = engine
        # (sigma, field) -> [(effective_time, value)] in append order
        self.writes: dict[tuple[BinStr, str], list[tuple[int, int]]] = {}
        # [(stage, start word of the region)]; effects land at stage + 1
        self.inits: list[tuple[int, BinStr]] = []

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
            for stage, start in reversed(self.inits):
                if stage + 1 > time:
                    continue
                if write_time is not None and stage + 1 < write_time:
                    break
                if start <= sigma:
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
    words = WordTable()

    def ell(e: int, t: int) -> int:
        return naive_ell(registry, e, t)

    for t in range(T):
        def read(sigma: BinStr, fld: str) -> int:
            return hist.read(sigma, fld, t)

        sigma, _, jump_exp, region, writes = stage_rules(
            t, x, read, reads.append, ell, registry.step, engine, t, words)
        for s, fld, val in writes:
            hist.write(s, fld, val, t + 1)
        x.append(x[t] + (pow2(-jump_exp) if jump_exp is not None else ZERO))
        hist.inits.append((t, region_start(*region)))
        settlements.append(sigma)

    return ReplayResult(engine=engine, x=x, settlements=settlements, reads=reads)


def gap_below(step, x: list[Dyadic], e: int, l: int, t: int, exponent: int) -> bool:
    """The exact test x_t - x_{phi_e(l)} < 2**-exponent, with l the chain
    length of slot e at stage t; a chain value not visible by t raises."""
    v = step(e, l, t)
    if v is None or v > t:
        raise StageRuleError(f"slot {e} chain inconsistent at stage {t}")
    return gap_cmp(x[t], x[v], exponent) < 0


def _stage(staged: dict, t: int, sigma: BinStr, fld: str, val: int) -> None:
    """Stage a write of stage t.  The rules write no (sigma, field) twice in
    a stage, so the staging map holds the writes in substage order."""
    key = (sigma, fld)
    if key in staged:
        raise StageRuleError(f"double write {key} in stage {t}")
    staged[key] = val


def _next_restraint(staged: dict, log, t: int, sigma: BinStr) -> int:
    """sigma's restraint at stage t + 1.  The walk appends "0" only after
    staging the strategy's raised restraint, so the restraint of a
    0-predecessor is always staged."""
    val = staged[sigma, "r"]
    if log is not None:
        log((t, sigma, "r", "next", val))
    return val


def stage_rules(t: int, x: list[Dyadic], read, log, ell, step, engine: str,
                forced: int, words: WordTable | None = None):
    """Stage t of the named construction by the substage rules.

    ``read(sigma, fld)`` is a parameter's value at stage t, before any
    write of this stage; ``log``, unless None, receives the tuple (t, sigma,
    fld, "cur"|"next", value) of every read in the order of the read
    protocol below.  ``ell(e, t)`` and ``step(e, n, t)`` query the slots,
    and x needs entries up to x[t].  From depth ``forced`` on the walk
    appends "1" up to depth t in one step, logging the flag reads of 0 it
    skips (the forced walk of the engine module docstring); a ``forced`` of
    t walks every depth.

    ``words``, a :class:`WordTable`, is required with a log and unused
    without one.  A logged walk takes every word it steps onto from it,
    the forced tail's included, and the 0-predecessors it reads are words
    it stepped off by "0", so the log holds one string per distinct word,
    not one per read.  Without a log the walk concatenates, and the forced
    tail is one concatenation.
    The owner of the log owns the table, the engine state or the oracle's
    run, and keeps it for the whole run, so equal words of different
    stages are one string too, and the engine and the oracle keep one
    each.  It is a table of the run and not ``sys.intern``: interning
    hashes every new word, and on CPython 3.12 interned strings are never
    freed.

    The read protocol: each substage at depth e < t

      1. reads the strategy's flag once (it feeds both predicates);
      2. asks the slot's chain length at most once, where a predicate needs it;
      3. threat test: flag must be 0 and the chain length >= 0; then the
         witness is read and the exact gap test decides;
      4. B: an unthreatened visit lifts the pause flag;
      5. on a threat, candidate restraints are read next-slot from the longest
         0-predecessor downward until one blocks, and the stage ends;
      6. expansion test (variant A only when the flag is 1): when the chain
         length is >= 0 the restraint is read and the gap test decides;
      7. when expansionary, the counter is read; a delegation reads the
         target's restraint next-slot.

    A next-slot read is always of a restraint this stage staged.  Apart
    from the flag field (satisfaction flag ``s`` for A, pause flag ``p``
    for B) the two variants differ in six places.  Five are here, each a
    branch on the engine tag at its one use site with a comment naming the
    delta; the sixth is in the state the caller keeps, where an
    initialisation clears engine A's flag but not B's.

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
    stage wrote, one above a restraint it read at t.  A second write of one
    (sigma, field) in a stage raises it too.
    """
    variant_b = engine == "B"
    flag_fld = "p" if variant_b else "s"
    staged: dict[tuple[BinStr, str], int] = {}
    # the words the walk left by "0", in walk order: sigma's 0-predecessors
    preds: list[BinStr] = []
    if log is None:
        cur = read
    else:
        zeros, ones = words.zero, words.one

        def cur(sigma: BinStr, fld: str) -> int:
            val = read(sigma, fld)
            log((t, sigma, fld, "cur", val))
            return val

    sigma = ""
    while True:
        e = len(sigma)
        if forced <= e < t:
            if log is None:
                sigma += "1" * (t - e)
            else:
                for _ in range(t - e):
                    log((t, sigma, flag_fld, "cur", 0))
                    sigma = ones[sigma]
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
                threatened = l >= w and gap_below(step, x, e, l, t, w)
        # B: an unthreatened visit lifts the pause flag
        if variant_b and not threatened and flag != 0:
            _stage(staged, t, sigma, flag_fld, 0)
        if threatened:
            # the longest 0-predecessor whose raised restraint blocks the jump
            gamma = None
            for pred in reversed(preds):
                r_next = _next_restraint(staged, log, t, pred)
                if r_next >= w:
                    gamma = pred
                    break
            if gamma is None:
                action = (THREAT_JUMP, sigma, None, None, None, None, w)
                jump_exp = w
            else:
                counter = pair(sigma, 1 << (r_next - w))
                _stage(staged, t, gamma, "c", counter)
                action = (THREAT_SCHEDULE, sigma, gamma, counter, None, None, None)
                jump_exp = None
            _stage(staged, t, sigma, flag_fld, 1)
            # B: every handled threat bumps the witness; its region spares
            # the threatened strategy's extensions
            if variant_b:
                _stage(staged, t, sigma, "w", w + 1)
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
                expansionary = gap_below(step, x, e, l, t, r)
        if not expansionary:
            if log is None:
                sigma += "1"
            else:
                sigma = ones[sigma]
            continue

        c = cur(sigma, "c")
        if c == 0:
            _stage(staged, t, sigma, "r", r + 1)
            preds.append(sigma)
            if log is None:
                sigma += "0"
            else:
                sigma = zeros[sigma]
            continue

        # execute or delegate one scheduled jump
        alpha, second = unpair(c)
        if second == 0:
            raise StageRuleError(
                f"counter of {sigma!r} decodes to a zero remaining count at stage {t}")
        k = second - 1
        if not preds:
            action = (EXPANSION_JUMP, sigma, None, None, alpha, k, r)
            jump_exp = r
        else:
            gamma = preds[-1]
            r_next = _next_restraint(staged, log, t, gamma)
            if r_next < r:
                raise StageRuleError(
                    f"restraint of {gamma!r} fell below {sigma!r}'s at stage {t}")
            counter = pair(alpha, 1 << (r_next - r))
            _stage(staged, t, gamma, "c", counter)
            action = (EXPANSION_DELEGATE, sigma, gamma, counter, alpha, k, None)
            jump_exp = None
        _stage(staged, t, sigma, "c", 0 if k == 0 else pair(alpha, k))
        # B: a counter stage initialises right of sigma's 0-branch; A
        # initialises around the decoded label
        region = (sigma + "0", REL_LEX) if variant_b else (alpha, REL_LEX_OR_EXT)
        break

    writes = tuple([(s, fld, val) for (s, fld), val in staged.items()])
    return sigma, action, jump_exp, region, writes
