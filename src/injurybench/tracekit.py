"""Trace data model, serialisation, parameter replay and jump attribution.

A run of either engine produces one stage record per stage plus the exact
approximation sequence.  The trace is the single substrate every checker
consumes, so it is stored as diffable line-oriented JSON: a header object
followed by one record object per line.  Dyadics are serialised as
``{"m": "<int>", "k": <int>}`` string/int pairs so no precision is lost.
Every line is the compact, key-sorted JSON of ``json.dumps(obj,
sort_keys=True, separators=(",", ":"))``.  The JSON encoder writes the
header; a record's keys never change, so its line is one format string
(:func:`_record_line`) that writes the encoder's bytes for a fraction of
the encoder's cost.

Initialisations touch infinitely many strategies, so records store them as
symbolic regions (anchor word plus relation) rather than memberships, and
the per-strategy parameter timelines are reconstructed on demand from the
defaults, the regions, and the explicit writes.

The facts about a finished run are read through one :class:`TraceIndex`,
built in a single pass over the records: the stages that handled a threat
of each strategy, the stages whose initialisation region covers a
strategy, every parameter's timeline (``TraceIndex.value``), and the
attribution of every jump to the threat that caused it (``fibers``), with
each fibre's running sums, so that what any range of stages paid to one
threat is one subtraction (``paid``), and whether it reaches a power of
two one integer comparison (``paid_cmp``).  The index lists a strategy's
expansionary stages (``expansionary_stages``) for ``requirement_p`` and
``expansion_gap`` by the rules' gap test (``replay.gap_below``); the
settlement check re-derives whole stages with ``replay.stage_rules`` on a
:class:`ParamStore`, the engine's store, rebuilt from the records.  A trace
owns its index: ``Trace.index`` builds it on first use, so every reader of
one trace shares it.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right, insort
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

from .dyadic import MAX_EXPONENT, ZERO, Dyadic, gap_cmp
from .phi import PhiRegistry, config_digest, validate_config
from .replay import StageRuleError, gap_below
# perfbench/tracing.py counts the index's region tests as tracekit.region_contains
from .strings import (
    REL_LEX,
    REL_LEX_OR_EXT,
    BinStr,
    TruePathEstimate,
    nu,
    region_contains,
    true_path_estimate,
)

__all__ = [
    "TOP_OUT",
    "THREAT_JUMP",
    "THREAT_SCHEDULE",
    "EXPANSION_JUMP",
    "EXPANSION_DELEGATE",
    "JUMP_KINDS",
    "THREAT_KINDS",
    "EXPANSION_KINDS",
    "FLAG_FIELDS",
    "RESET_FIELDS",
    "ParamStore",
    "Action",
    "StageRecord",
    "Trace",
    "TraceCorruption",
    "TraceParseError",
    "serialize",
    "serialize_stamped",
    "deserialize",
    "TraceIndex",
    "write_sequence_csv",
    "read_sequence_csv",
    "read_csv_table",
]

# Stage-terminal actions.  The loader takes any string as a kind; a record
# with any other kind (say, the name of an intra-stage move such as
# "descend") fails the settlement check, as the substage rules end a stage
# only with one of these five.
TOP_OUT = "top_out"
THREAT_JUMP = "threat_jump"
THREAT_SCHEDULE = "threat_schedule"
EXPANSION_JUMP = "expansion_jump"
EXPANSION_DELEGATE = "expansion_delegate"

JUMP_KINDS = frozenset({THREAT_JUMP, EXPANSION_JUMP})
THREAT_KINDS = frozenset({THREAT_JUMP, THREAT_SCHEDULE})
EXPANSION_KINDS = frozenset({EXPANSION_JUMP, EXPANSION_DELEGATE})

# The satisfaction (A) or pause (B) flag's parameter field, by engine.
FLAG_FIELDS = {"A": "s", "B": "p"}
# The fields an initialisation resets, by engine: counter and witness, and
# on A the satisfaction flag; restraints and B's pause flag keep their writes.
RESET_FIELDS = {"A": ("c", "w", FLAG_FIELDS["A"]), "B": ("c", "w")}
TRACE_VERSION = 1


class ParamStore:
    """A run's parameter values at its present stage, advanced a stage at a
    time by :meth:`commit`: the engine's state, and what the settlement
    check rebuilds from a trace's records to feed ``replay.stage_rules``.

    It keeps explicit values only, so stages that descend thousands of
    levels stay cheap: a strategy's dict of them appears at its first write
    and is never removed.  Any other value is derived: 0, or for a witness
    nu(sigma) + s + 2 from the latest initialisation at a stage s covering
    sigma, else nu(sigma).  An initialisation makes the written strategies
    of its region forget what it resets (``RESET_FIELDS``).  They are kept
    sorted, so those are one slice, and a derived witness compares its word
    with each initialisation's start word once, kept beside its scan position.
    """

    def __init__(self, engine: str, registry: PhiRegistry):
        # sigma -> its explicit values by field name, from its first write
        # on; a field an initialisation forgot is absent, and reads derived
        self.params: dict[BinStr, dict[str, int]] = {}
        # the keys of params in native order
        self._keys: list[BinStr] = []
        # the fields an initialisation forgets
        self._forgets = RESET_FIELDS[engine]
        # (stage, start word of the stage's initialisation)
        self.init_events: list[tuple[int, BinStr]] = []
        # sigma -> [position in init_events scanned to, derived witness there]
        self._w_scan: dict[BinStr, list] = {}
        self._max_param_len = -1
        self._deepest = max(registry.configured_indices(), default=-1)

    def forced_depth(self) -> int:
        """The depth from which every substage of this stage's walk appends
        "1": one past the deeper of the longest written strategy and the
        deepest configured slot index.  A strategy that deep has no explicit
        value and no slot, so its flag reads 0 and its chain length -1: the
        threat and expansion tests fail with no further read, and a B
        strategy has no pause to lift."""
        return max(self._max_param_len, self._deepest) + 1

    def _lazy_w(self, sigma: BinStr) -> int:
        """sigma's derived witness: nu(sigma) + s + 2 for the latest
        initialisation at stage s that covers it, else nu(sigma)."""
        events = self.init_events
        scan = self._w_scan.get(sigma)
        if scan is None:
            scan = self._w_scan[sigma] = [0, nu(sigma)]
        cover = None
        for stage, start in events[scan[0]:]:
            if sigma >= start:
                cover = stage
        if cover is not None:
            scan[1] = nu(sigma) + cover + 2
        scan[0] = len(events)
        return scan[1]

    def _read(self, sigma: BinStr, fld: str) -> int:
        """The value at the present stage, before any write of it: the
        explicit value, else the derived one."""
        p = self.params.get(sigma) if len(sigma) <= self._max_param_len else None
        if p is not None and fld in p:
            return p[fld]
        return self._lazy_w(sigma) if fld == "w" else 0

    def commit(self, t: int, writes, starts) -> None:
        """Store stage t's result: its (sigma, field, value) writes, then
        the initialisation of its regions, given by their start words
        (``strings.region_start``): together every word from the least on,
        and none initialise nothing.  The written strategies there forget
        what an initialisation resets, also a field the stage wrote: the
        region wins, as in :meth:`TraceIndex.changepoints`."""
        params = self.params
        for s, fld, val in writes:
            p = params.get(s)
            if p is None:
                p = params[s] = {}
                insort(self._keys, s)
                if len(s) > self._max_param_len:
                    self._max_param_len = len(s)
            p[fld] = val
        if not starts:
            return
        start = min(starts)
        self.init_events.append((t, start))
        forgets = self._forgets
        for s in self._keys[bisect_left(self._keys, start):]:
            p = params[s]
            for fld in forgets:
                p.pop(fld, None)


class TraceCorruption(Exception):
    """A structurally well-formed trace violates a construction invariant."""


class TraceParseError(Exception):
    """The byte stream is not a well-formed trace file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class Action(NamedTuple):
    """Stage-terminal action with the fields its kind uses.

    sigma: strategy the stage settled on (all kinds);
    exponent: jump size log for the jump kinds (jump = 2**-exponent);
    gamma/counter: delegation target and scheduled counter value;
    alpha/k: decoded counter label and remaining-jump count for the
    expansion kinds.

    An immutable named tuple: assigning a field raises AttributeError, and
    ``_replace`` gives a copy with some fields changed.  The loader and the
    engine build one per stage, and building a named tuple is one
    ``tuple.__new__`` call, with no per-field ``__setattr__``.
    """

    kind: str
    sigma: BinStr = ""
    gamma: BinStr | None = None
    counter: int | None = None
    alpha: BinStr | None = None
    k: int | None = None
    exponent: int | None = None


class StageRecord(NamedTuple):
    """Complete audit record of one stage, an immutable named tuple like
    :class:`Action`.

    The substage path is not stored: the applied strategies of a stage are
    exactly the prefixes of the settled word, so ``applied`` is derived.
    ``param_writes`` lists the explicit (strategy, field, new value) writes
    in substage order; carried-over values and region effects are not
    repeated here.
    """

    t: int
    settled: BinStr
    action: Action
    jump: Dyadic
    init_regions: tuple[tuple[BinStr, str], ...]
    param_writes: tuple[tuple[BinStr, str, int], ...]

    @property
    def applied(self) -> list[BinStr]:
        return [self.settled[:i] for i in range(len(self.settled) + 1)]


class Trace:
    """Immutable-by-convention record of a whole run.

    ``index`` is built from the stages and x, and ``registry`` from
    ``config``, on first use and kept, so a trace must not be changed once
    it has been read.  Two traces are equal when their engine, config,
    stages and x are; a trace is unhashable, as its lists are.
    """

    def __init__(self, engine: str, config: dict, stages: list[StageRecord],
                 x: list[Dyadic]):
        self.engine = engine  # "A" | "B"
        self.config = config  # registry configuration the run used
        self.stages = stages
        self.x = x  # length T + 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.engine, self.config, self.stages, self.x)
                == (other.engine, other.config, other.stages, other.x))

    @property
    def T(self) -> int:
        return len(self.stages)

    @cached_property
    def index(self) -> TraceIndex:
        """The one :class:`TraceIndex` of this trace, built on first use."""
        return TraceIndex(self)

    @cached_property
    def registry(self) -> PhiRegistry:
        """The one :class:`PhiRegistry` of ``config``, built on first use."""
        return PhiRegistry(self.config)


# ---------------------------------------------------------------------------
# Serialisation


# One encoder writes the header line and one decoder reads every line:
# json.dumps with non-default arguments would build a new encoder on each
# call.  _record_line writes the record lines and quotes their strings with
# the function this encoder quotes strings with.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_DECODE = json.JSONDecoder().decode
_QUOTE = json.encoder.encode_basestring_ascii


def _header_line(trace: Trace, created_at: str | None) -> str:
    header = {
        "engine": trace.engine,
        "T": trace.T,
        "phi_config_digest": config_digest(trace.config),
        "version": TRACE_VERSION,
        "phi_config": trace.config,
    }
    if created_at is not None:
        header["created_at"] = created_at
    return _ENCODE(header)


def _record_line(rec: StageRecord) -> str:
    """A record's line: the JSON object ``_ENCODE`` writes for it, with an
    action key only for a field the action uses.

    The line is one format string with the keys in sorted order.  Every
    ``str`` leaf is quoted by ``_QUOTE``, as the encoder quotes it, and
    every ``int`` (the jump's mantissa inside its quotes) is written as
    ``int.__repr__`` writes it, as the encoder writes it.  So the bytes are
    the encoder's for every record whose leaves are ``str`` and ``int``:
    every record the engine or the loader builds.  A ``bool`` leaf, which
    the encoder would write as ``true``, is written as ``True``, which is
    no JSON.
    """
    # unpacked once: a named tuple's field read costs more than a local
    t, settled, act, jump, regions, writes = rec
    kind, sigma, gamma, counter, alpha, k, exponent = act
    q = _QUOTE
    head = ""
    if alpha is not None:
        head += f'"alpha":{q(alpha)},'
    if counter is not None:
        head += f'"counter":{counter},'
    if exponent is not None:
        head += f'"exponent":{exponent},'
    if gamma is not None:
        head += f'"gamma":{q(gamma)},'
    if k is not None:
        head += f'"k":{k},'
    pairs = ",".join([f"[{q(anchor)},{q(rel)}]" for anchor, rel in regions])
    triples = ",".join([f"[{q(s)},{q(fld)},{v}]" for s, fld, v in writes])
    return (f'{{"action":{{{head}"kind":{q(kind)},"sigma":{q(sigma)}}},'
            f'"init_regions":[{pairs}],"jump":{{"k":{jump.k},"m":"{jump.m}"}},'
            f'"param_writes":[{triples}],"settled":{q(settled)},"t":{t}}}')


def serialize(trace: Trace) -> bytes:
    """Lossless line-oriented encoding: header object, then one record per line.

    The header is encoded by ``_ENCODE`` and each record by
    :func:`_record_line`, which writes the bytes ``_ENCODE`` would write for
    every trace the engine or the loader builds.
    A trace's digest is the sha256 of this canonical form; a written trace
    file adds the informational ``created_at`` header field
    (:func:`serialize_stamped`, which returns the file and the digest).
    """
    lines = [_header_line(trace, None)]
    lines += map(_record_line, trace.stages)
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_stamped(trace: Trace, created_at: str) -> tuple[bytes, str]:
    """The trace file, whose header also holds ``created_at``, and the
    trace's digest, encoding the records once: the digest is the sha256 of
    :func:`serialize`'s bytes, and the stamped header line is spliced in
    front of their records."""
    data = serialize(trace)
    records = data[data.index(b"\n"):]
    stamped = _header_line(trace, created_at).encode("utf-8") + records
    return stamped, hashlib.sha256(data).hexdigest()


# The header keys every trace file has; a written file adds ``created_at``.
_HEADER_KEYS = ("engine", "T", "version", "phi_config", "phi_config_digest")


def _check_header(header: dict, line: int = 1) -> None:
    """Reject a key the writer never writes, a missing key, an unknown
    engine or version, a ``T`` below 1 (a run has at least one stage), a
    ``created_at`` that is not a string and a ``phi_config`` that does not
    match its recorded digest: a trace is checked against the registry it
    names, so a tampered registry must not reach the checkers.  ``line`` is
    the header's line in the file."""
    if not isinstance(header, dict):
        raise TraceParseError("header is not an object", line=line)
    for key in header:
        if key not in _HEADER_KEYS and key != "created_at":
            raise TraceParseError(f"unknown header key {key!r}", line=line)
    for key in _HEADER_KEYS:
        if key not in header:
            raise TraceParseError(f"header missing {key!r}", line=line)
    engine = header["engine"]
    if not isinstance(engine, str) or engine not in FLAG_FIELDS:
        raise TraceParseError(f"unknown engine {engine!r}", line=line)
    version = header["version"]
    if type(version) is not int or version != TRACE_VERSION:
        raise TraceParseError(f"unsupported trace version {version!r}", line=line)
    T = header["T"]
    if type(T) is not int or T < 1:
        raise TraceParseError(f"T={T!r} is not a positive integer", line=line)
    if not isinstance(header.get("created_at", ""), str):
        raise TraceParseError(f"created_at {header['created_at']!r} is not a string", line=line)
    if config_digest(header["phi_config"]) != header["phi_config_digest"]:
        raise TraceParseError("phi_config does not match phi_config_digest", line=line)


def _binary_word(word) -> bool:
    """Whether ``word`` is a string over {0,1}: the answer of
    ``not word.strip("01")`` in linear time.  ``strip`` with a character
    set costs several times more than two ``replace`` scans on a word
    hundreds of characters long, and a stage-t word of engine A is about t
    characters long."""
    return isinstance(word, str) and not word.replace("0", "").replace("1", "")


def _key_fault(obj: dict, act: dict) -> str:
    """The first key of a record, or else of its action, that the record's
    line would not be written with: a key that is no field, or a null
    optional action field."""
    for key in obj:
        if key not in StageRecord._fields:
            return f"unknown record key {key!r}"
    key = next(key for key, value in act.items() if key not in Action._fields
               or (value is None and key not in ("kind", "sigma")))
    if key not in Action._fields:
        return f"unknown action key {key!r}"
    return f"action field {key!r} is null"


def _repeated_key(text: str) -> str | None:
    """The first key that one object of a line repeats, in the order the
    decoder closes the objects, or None."""
    repeated = []

    def pairs(items: list) -> dict:
        obj = dict(items)
        if len(obj) < len(items):
            keys = [key for key, _ in items]
            repeated.append(next(key for i, key in enumerate(keys) if key in keys[:i]))
        return obj

    json.JSONDecoder(object_pairs_hook=pairs).decode(text)
    return repeated[0] if repeated else None


def _read_record(text: str, t_next: int, T: int, fields: tuple[str, ...],
                 line: int) -> StageRecord:
    """The record on one line, checked leaf by leaf from its raw JSON and
    built from the checked leaves, in the order :func:`deserialize` lists."""
    try:
        obj = _DECODE(text)
        t, settled, act = obj["t"], obj["settled"], obj["action"]
        kind, sigma = act["kind"], act["sigma"]
        gamma, counter = act.get("gamma"), act.get("counter")
        alpha, k, exponent = act.get("alpha"), act.get("k"), act.get("exponent")
        jump = Dyadic.from_json(obj["jump"])
        pairs, triples = obj["init_regions"], obj["param_writes"]
        regions = tuple([(anchor, rel) for anchor, rel in pairs])
        writes = tuple([(s, fld, v) for s, fld, v in triples])
    except (KeyError, ValueError, TypeError) as exc:
        if text.startswith("\ufeff"):
            # worded as json.loads words it; the decoder alone does not
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raise TraceParseError(f"bad stage record: {exc}", line=line) from None

    # the decoder keeps a repeated key's last value alone.  Every key on the
    # line is followed by a literal ":", and a canonical jump has two keys,
    # so a line with no more colons than its record, action and jump have
    # keys repeats none.  A line with more (a nested object, a colon inside
    # a string, a repeated key) has its keys listed
    if text.count(":") != len(obj) + len(act) + 2:
        key = _repeated_key(text)
        if key is not None:
            raise TraceParseError(f"repeated key {key!r}", line=line)
    # all six record keys, kind and sigma were read above, and an optional
    # action field read as None is absent or null, so the count exceeds
    # 6 + 7 by the unknown keys and the null fields
    if len(obj) + len(act) + (gamma, counter, alpha, k, exponent).count(None) != 13:
        raise TraceParseError(_key_fault(obj, act), line=line)
    if type(pairs) is not list or type(triples) is not list:
        raise TraceParseError("init_regions or param_writes is not a list", line=line)
    # a write triple that is no list puts a string where its value goes,
    # which the integer test below rejects
    for pair in pairs:
        if type(pair) is not list:
            raise TraceParseError(f"region pair {pair!r} is not a list", line=line)
    if not isinstance(kind, str):
        raise TraceParseError(f"action kind {kind!r} is not a string", line=line)
    if type(t) is not int:
        raise TraceParseError(f"{t!r} is not an integer", line=line)
    for _, _, v in writes:
        if type(v) is not int:
            raise TraceParseError(f"{v!r} is not an integer", line=line)
    for v in (counter, k, exponent):
        if v is not None and type(v) is not int:
            raise TraceParseError(f"{v!r} is not an integer", line=line)
    # an absent gamma or alpha passes as the empty word
    for word in (settled, sigma, "" if gamma is None else gamma, "" if alpha is None else alpha):
        if not _binary_word(word):
            raise TraceParseError(f"{word!r} is not a binary word", line=line)
    for word, _ in regions:
        if not _binary_word(word):
            raise TraceParseError(f"{word!r} is not a binary word", line=line)
    for word, _, _ in writes:
        if not _binary_word(word):
            raise TraceParseError(f"{word!r} is not a binary word", line=line)
    for _, rel in regions:
        if rel not in (REL_LEX, REL_LEX_OR_EXT):
            raise TraceParseError(f"unknown region relation {rel!r}", line=line)
    for _, fld, v in writes:
        if fld not in fields:
            raise TraceParseError(f"unknown parameter field {fld!r}", line=line)
        if v < 0:
            raise TraceParseError(f"parameter value {v} of {fld!r} is negative", line=line)
    if t != t_next:
        raise TraceParseError(f"stage {t} out of order", line=line)
    if (jump.m > 0) != (kind in JUMP_KINDS):
        raise TraceParseError(f"jump/action mismatch at stage {t}", line=line)
    if jump.m < 0:
        raise TraceParseError(f"negative jump at stage {t}", line=line)
    if kind in JUMP_KINDS and (jump.m != 1 or jump.k != exponent):
        raise TraceParseError(f"jump at stage {t} is not 2**-exponent "
                              f"(exponent {exponent!r})", line=line)
    if jump.k > T:
        raise TraceParseError(f"jump exponent {jump.k} at stage {t} exceeds T={T}", line=line)
    return StageRecord(t, settled, Action(kind, sigma, gamma, counter, alpha, k, exponent),
                       jump, regions, writes)


def deserialize(data: bytes) -> Trace:
    """Parse a trace file, rebuilding the x sequence from the jumps.

    The header is checked first: no object on its line repeats a key, it
    passes :func:`_check_header`, its ``phi_config`` passes
    ``phi.validate_config`` (rejected with that function's message and no
    line number, so every verb refuses a registry its checks could not
    build), and it must announce exactly as many records as follow.  Then
    each record line is read in one pass that checks its raw JSON in this
    order, each rejection a one-line :class:`TraceParseError` naming the
    line (its number in the file: blank lines are skipped but counted):

    1. the line is a JSON object with ``t``, ``settled``, an ``action``
       object with a ``kind`` and a ``sigma``, a ``jump``, ``init_regions``
       pairs and ``param_writes`` triples, and the jump is written in its
       value's one canonical encoding (``Dyadic.from_json``); the object
       has no other key, the action no key but its optional ``gamma``,
       ``counter``, ``alpha``, ``k`` and ``exponent``, none of them null,
       and ``init_regions``, ``param_writes`` and every region pair are
       JSON lists, and no object on the line repeats a key (the decoder
       would keep only its last value).  So an accepted record
       re-serialises to the same JSON value as the decoder reads it: its
       bytes can differ only in whitespace, key order or string escapes,
       or where the decoder is lenient (``-0`` is 0);
    2. the action kind is a string;
    3. the stage number, every parameter value and the action's counter,
       ``k`` and exponent are JSON integers (not ``true`` or ``1.5``);
    4. the settled word, the action's sigma, gamma and alpha, every region
       anchor and every written strategy are strings over {0,1}, on which
       alone the native-order membership tests hold;
    5. every region relation is ``lex_gt`` or ``lex_gt_or_ext``;
    6. every written field is c, r, w or the engine's flag, and its value
       is natural, as the engine writes them: the checkers take powers of
       two of minus a restraint or witness;
    7. the stage number is the record's position;
    8. the jump is positive exactly on a jump action, and never negative,
       and a jump action's integer exponent states its jump:
       jump == 2**-exponent;
    9. the jump's exponent is at most T: a positive jump at stage t is
       2**-w with w <= l <= t, or 2**-r with r <= t, and x aligns
       mantissas by it when it adds the jump.
    """
    text = data.decode("utf-8")
    # blank lines are skipped, but each line keeps its number in the file
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    if not lines:
        raise TraceParseError("empty trace file")
    head_line, head = lines[0]
    try:
        header = json.loads(head)
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"bad header: {exc}", line=head_line) from None
    key = _repeated_key(head)
    if key is not None:
        raise TraceParseError(f"repeated key {key!r}", line=head_line)
    _check_header(header, head_line)
    try:
        validate_config(header["phi_config"])
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None
    T = header["T"]
    if len(lines) - 1 != T:
        raise TraceParseError(f"header says T={T} but {len(lines) - 1} records present")
    fields = ("c", "r", "w", FLAG_FIELDS[header["engine"]])
    stages: list[StageRecord] = []
    x = [ZERO]
    for i, ln in lines[1:]:
        rec = _read_record(ln, len(stages), T, fields, i)
        stages.append(rec)
        x.append(x[-1] + rec.jump if rec.jump.m else x[-1])
    return Trace(
        engine=header["engine"],
        config=header["phi_config"],
        stages=stages,
        x=x,
    )


# ---------------------------------------------------------------------------
# The trace index


class TraceIndex:
    """What the analyses of a finished trace look up, gathered in one pass.

    The pass collects the settled strategies, the handled threats grouped by
    strategy, the positive jumps, the initialisation regions and the
    explicit parameter writes.  The per-strategy facts -- the stages that
    apply a strategy, the stages whose initialisation region covers it, its
    parameter timelines and its expansionary stages (by ``replay.gap_below``)
    -- are derived on first use and only for the strategies asked about:
    materialising them for every prefix would cost O(T * depth).
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self.settlements: list[BinStr] = []
        self.threats: dict[BinStr, list[int]] = {}  # handled threats by strategy
        self.jumps: dict[int, Dyadic] = {}  # positive jumps by stage
        # each distinct region, as (anchor, rel), with its stages ascending
        self.regions: dict[tuple[BinStr, str], list[int]] = {}
        self.writes: dict[tuple[BinStr, str], list[tuple[int, int]]] = {}
        for t, settled, action, jump, regions, writes in trace.stages:
            self.settlements.append(settled)
            if action.kind in THREAT_KINDS:
                self.threats.setdefault(settled, []).append(t)
            if jump.sign() > 0:
                self.jumps[t] = jump
            for region in regions:
                self.regions.setdefault(region, []).append(t)
            for s, f, v in writes:
                self.writes.setdefault((s, f), []).append((t, v))
        # strategies with an explicit write, in order of their first write
        self.written = list(dict.fromkeys(s for s, _ in self.writes))
        self._inits: dict[BinStr, list[int]] = {}
        self._apps: dict[BinStr, list[int]] = {}
        self._cp: dict[tuple[BinStr, str], tuple[list[int], list[int]]] = {}
        self._expansions: dict[tuple[BinStr, int], list[int]] = {}

    def written_to(self, fld: str) -> list[BinStr]:
        """Sorted strategies with an explicit write to one field."""
        return sorted(s for s, f in self.writes if f == fld)

    # -- initialisations and applications ----------------------------------

    def initialisations(self, sigma: BinStr) -> list[int]:
        """Stages whose initialisation region contains sigma, ascending and
        without repeats.  Each distinct region is tested once."""
        inits = self._inits.get(sigma)
        if inits is None:
            inits = self._inits[sigma] = sorted(set().union(*[
                stages for (anchor, rel), stages in self.regions.items()
                if region_contains(anchor, rel, sigma)]))
        return inits

    def first_initialisation_in(self, sigma: BinStr, lo: int, hi: int) -> int | None:
        """First stage in [lo, hi) whose region covers sigma, else None."""
        inits = self.initialisations(sigma)
        i = bisect_left(inits, lo)
        return inits[i] if i < len(inits) and inits[i] < hi else None

    def applications(self, sigma: BinStr) -> list[int]:
        """Stages whose settled strategy extends sigma, ascending."""
        apps = self._apps.get(sigma)
        if apps is None:
            apps = self._apps[sigma] = [
                t for t, settled in enumerate(self.settlements) if settled.startswith(sigma)
            ]
        return apps

    def next_application(self, sigma: BinStr, after: int) -> int | None:
        apps = self.applications(sigma)
        i = bisect_right(apps, after)
        return apps[i] if i < len(apps) else None

    # -- parameter timelines -----------------------------------------------

    def changepoints(self, sigma: BinStr, fld: str) -> tuple[list[int], list[int]]:
        """Changepoint timeline of one parameter as (times, values): the
        default from time 0, then every value change.

        A value comes from the explicit writes (the last write of a stage
        wins) and from the initialisation regions covering sigma.  A region
        resets the fields ``RESET_FIELDS`` names: counters and witnesses in
        both constructions and the satisfaction flag only in the first;
        restraints and pause flags are never touched by regions.  A write and a region effect from the same
        stage cannot collide for engine-produced traces, but if a
        hand-mutated trace makes them collide the region effect wins, as
        :meth:`ParamStore.commit` stores them.
        """
        key = (sigma, fld)
        cached = self._cp.get(key)
        if cached is None:
            if fld not in ("c", "r", "w", *FLAG_FIELDS.values()):
                raise ValueError(f"unknown parameter field {fld!r}")
            inits = self.initialisations(sigma)
            effects = dict(self.writes.get(key, ()))
            default = nu(sigma) if fld == "w" else 0
            if fld in RESET_FIELDS[self.trace.engine]:
                for t in inits:
                    effects[t] = default + t + 2 if fld == "w" else 0
            times, values = [0], [default]
            for t in sorted(effects):
                if effects[t] != values[-1]:
                    times.append(t + 1)
                    values.append(effects[t])
            cached = self._cp[key] = (times, values)
        return cached

    def value(self, sigma: BinStr, fld: str, t: int) -> int:
        """Value of a parameter at time t."""
        times, values = self._cp.get((sigma, fld)) or self.changepoints(sigma, fld)
        return values[bisect_right(times, t) - 1]

    # -- the expansion predicate -------------------------------------------

    def expansionary_stages(self, sigma: BinStr, t0: int) -> list[int]:
        """Applications of sigma from stage t0 on at which it is expansionary,
        kept per (sigma, t0) and shared, so never to be modified; both
        checkers ask with ``verify._stability_start``'s t0, so each (sigma,
        t) is evaluated once.  A TraceCorruption is not kept but raised
        again at the next query, whatever checks ran before.

        A threat stop of sigma is tested too, though the rule walk ends
        before its expansion test there.  On engine A no threat passes the
        gate (it needs the flag at 0); on default B at T=4000 the index
        calls all 2,015 threat or top-out stops on configured lengths
        expansionary, and the walk's reading would change ``requirement_p[1]``
        of the deep family at T=249 and T=251 (121 and 122 realised n become
        120 and 121).  PAPER.md's excerpt ends before the paper defines an
        expansionary stage, so the pinned benchmark reports fix this reading."""
        found = self._expansions.get((sigma, t0))
        if found is None:
            apps = self.applications(sigma)
            found = self._expansions[sigma, t0] = [
                t for t in apps[bisect_left(apps, t0):] if self._expansion_test(sigma, t)]
        return found

    def _expansion_test(self, sigma: BinStr, t: int) -> bool:
        """The rules' expansion gate (A: flag set), then their gap test."""
        trace = self.trace
        if trace.engine == "A" and self.value(sigma, FLAG_FIELDS["A"], t) != 1:
            return False
        e = len(sigma)
        l = trace.registry.ell(e, t)
        if l < 0:
            return False
        try:
            return gap_below(trace.registry.step, trace.x, e, l, t, self.value(sigma, "r", t))
        except StageRuleError as exc:
            raise TraceCorruption(str(exc)) from exc

    # -- jump attribution --------------------------------------------------

    def episode_origin(self, rec: StageRecord) -> int | None:
        """The threat stage a counter episode belongs to: the latest stage
        before ``rec.t`` at which the decoded label ``rec.action.alpha`` was
        threatened, or None if there is none."""
        origins = self.threats.get(rec.action.alpha, ())
        i = bisect_left(origins, rec.t)
        return origins[i - 1] if i else None

    @cached_property
    def fibers(self) -> dict[int, list[int]]:
        """Jump attribution: each threat stage mapped to its fibre, the
        ascending stages of the jumps it caused.  An immediate threat jump
        belongs to its own stage, a scheduled jump executed while handling a
        counter to its :meth:`episode_origin`; a positive jump matching
        neither case marks a corrupt trace and raises TraceCorruption."""
        fibers: dict[int, list[int]] = {}
        for t in self.jumps:
            rec = self.trace.stages[t]
            kind = rec.action.kind
            if kind == THREAT_JUMP:
                origin = t
            elif kind == EXPANSION_JUMP:
                origin = self.episode_origin(rec)
                if origin is None:
                    raise TraceCorruption(
                        f"jump at stage {t} refers to {rec.action.alpha!r}, never threatened"
                    )
            else:
                raise TraceCorruption(f"jump at stage {t} with non-jump action {kind}")
            fibers.setdefault(origin, []).append(t)
        return fibers

    @cached_property
    def fiber_sums(self) -> dict[int, list[Dyadic]]:
        """Running sums of each fibre: ``fiber_sums[o][i]`` is the sum of the
        jumps at ``fibers[o][:i]``.  Every jump in :attr:`jumps` is positive,
        so each list strictly increases.  Raises as :attr:`fibers` does."""
        jumps = self.jumps
        return {origin: list(accumulate((jumps[t] for t in members), initial=ZERO))
                for origin, members in self.fibers.items()}

    def paid(self, origin: int, lo: int, hi: int) -> Dyadic:
        """Sum of the jumps attributed to the threat at stage ``origin`` at
        stages in [lo, hi), for lo <= hi; zero when there are none.  Raises
        as :attr:`fibers` does."""
        hi_sum, lo_sum = self._sums_at(origin, lo, hi)
        return hi_sum - lo_sum

    def paid_cmp(self, origin: int, lo: int, hi: int, e: int) -> int:
        """-1, 0 or 1 as :meth:`paid` over the same range is below, equal to
        or above 2**-e, decided by ``gap_cmp`` on the running sums with no
        ``Dyadic`` built.  Raises as :attr:`fibers` does."""
        hi_sum, lo_sum = self._sums_at(origin, lo, hi)
        return gap_cmp(hi_sum, lo_sum, e)

    def _sums_at(self, origin: int, lo: int, hi: int) -> tuple[Dyadic, Dyadic]:
        """The running sums of the fibre of ``origin`` over its members
        before hi and over its members before lo."""
        members = self.fibers.get(origin, ())
        sums = self.fiber_sums.get(origin, (ZERO,))
        return sums[bisect_left(members, hi)], sums[bisect_left(members, lo)]

    # -- whole-run facts ---------------------------------------------------

    @cached_property
    def true_path(self) -> TruePathEstimate:
        return true_path_estimate(self.settlements)

    @cached_property
    def first_decrease(self) -> int | None:
        """First stage t with x[t + 1] < x[t], or None if x never decreases."""
        x = self.trace.x
        return next((t for t in range(self.trace.T) if x[t + 1] < x[t]), None)


# ---------------------------------------------------------------------------
# User CSV tables: the sequence CSV (shared with the speed module) and the
# modulus table


def write_sequence_csv(x: list[Dyadic], path: str) -> None:
    """Write the exact sequence as rows ``t,mantissa,exponent``.

    Every mantissa is written in full.  Engine B's mantissa grows by about
    one bit per two stages, past the 4300 decimal digits to which Python
    limits int-to-text conversion by default; such a mantissa goes through
    :func:`_decimal`, and the limit, a process-wide setting, is left alone.
    The reader keeps the limit as a guard on its input.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,mantissa,exponent\n")
        for t, val in enumerate(x):
            try:
                row = f"{t},{val.m},{val.k}\n"
            except ValueError:  # the mantissa is past the int-to-text limit
                row = f"{t},{_decimal(val.m)},{val.k}\n"
            fh.write(row)


# a power of ten with fewer digits than the least int-to-text limit (640)
_DIGIT_CHUNK = 10 ** 600


def _decimal(n: int) -> str:
    """Decimal text of ``n`` however many digits it has, converted 600 digits
    at a time, so whatever int-to-text limit is set never applies."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n >= _DIGIT_CHUNK:
        n, low = divmod(n, _DIGIT_CHUNK)
        chunks.append(f"{low:0600d}")
    chunks.append(str(n))
    return sign + "".join(reversed(chunks))


def read_sequence_csv(path: str) -> list[Dyadic]:
    """Read rows ``t,mantissa,exponent`` (see :func:`read_csv_table`); every
    exponent must lie in [0, MAX_EXPONENT]."""
    out = []
    for t, (m, k) in enumerate(read_csv_table(path, "t,mantissa,exponent")):
        if not 0 <= k <= MAX_EXPONENT:
            raise ValueError(f"{path}: row {t}: exponent {k} outside [0, {MAX_EXPONENT}]")
        out.append(Dyadic(m, k))
    return out


def read_csv_table(path: str, header: str) -> list[list[int]]:
    """The integer cells of a CSV table after its first column, one list per
    row.

    The first line must be ``header``.  Every other non-blank line must hold
    one integer cell per header column, and its first cell must number the
    row: 0, 1, 2, ...  A violation raises ValueError with a one-line message
    naming the file and line.
    """
    columns = len(header.split(","))
    rows: list[list[int]] = []
    with open(path, encoding="utf-8") as fh:
        found = fh.readline().strip()
        if found != header:
            raise ValueError(f"{path}: header {found!r} is not {header!r}")
        for line, text in enumerate(fh, start=2):
            cells = text.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) != columns:
                raise ValueError(f"{path}: line {line}: {len(cells)} cells, not {columns}")
            try:
                values = [int(cell) for cell in cells]
            except ValueError as exc:
                raise ValueError(f"{path}: line {line}: {exc}") from None
            if values[0] != len(rows):
                raise ValueError(f"{path}: line {line}: row {values[0]} out of order")
            rows.append(values[1:])
    return rows
