"""Trace data model, serialisation, parameter replay and jump attribution.

A run of either engine produces one stage record per stage plus the exact
approximation sequence.  The trace is the single substrate every checker
consumes, so it is stored as diffable line-oriented JSON: a header object
followed by one record object per line.  Dyadics are serialised as
``{"m": "<int>", "k": <int>}`` string/int pairs so no precision is lost.

Initialisations touch infinitely many strategies, so records store them as
symbolic regions (anchor word plus relation) rather than memberships, and
the per-strategy parameter timelines are reconstructed on demand from the
defaults, the regions, and the explicit writes.

The facts about a finished run are read through one :class:`TraceIndex`,
built in a single pass over the records: the stages that handled a threat
of each strategy, the stages whose initialisation region covers a
strategy, every parameter's timeline (``TraceIndex.value``), the
attribution of every jump to the threat that caused it (``u_map``) and the
cut-off stage of a strategy (``cutoff_stage``).  A trace owns its index:
``Trace.index`` builds it on first use, so every reader of one trace shares
it.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .dyadic import MAX_EXPONENT, ZERO, Dyadic
from .phi import PhiRegistry, config_digest
# perfbench/tracing.py also counts region membership as tracekit.region_contains
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
    "TERMINAL_KINDS",
    "THREAT_KINDS",
    "EXPANSION_KINDS",
    "FLAG_FIELDS",
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

# Stage-terminal actions.  Any other kind (say, the name of an intra-stage
# move such as "descend") as a terminal action marks a corrupt trace.
TOP_OUT = "top_out"
THREAT_JUMP = "threat_jump"
THREAT_SCHEDULE = "threat_schedule"
EXPANSION_JUMP = "expansion_jump"
EXPANSION_DELEGATE = "expansion_delegate"

JUMP_KINDS = frozenset({THREAT_JUMP, EXPANSION_JUMP})
THREAT_KINDS = frozenset({THREAT_JUMP, THREAT_SCHEDULE})
EXPANSION_KINDS = frozenset({EXPANSION_JUMP, EXPANSION_DELEGATE})
TERMINAL_KINDS = frozenset(
    {TOP_OUT, THREAT_JUMP, THREAT_SCHEDULE, EXPANSION_JUMP, EXPANSION_DELEGATE}
)

# The satisfaction (A) or pause (B) flag's parameter field, by engine.
FLAG_FIELDS = {"A": "s", "B": "p"}
TRACE_VERSION = 1


class TraceCorruption(Exception):
    """A structurally well-formed trace violates a construction invariant."""


class TraceParseError(Exception):
    """The byte stream is not a well-formed trace file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class Action:
    """Stage-terminal action with the fields its kind uses.

    sigma: strategy the stage settled on (all kinds);
    exponent: jump size log for the jump kinds (jump = 2**-exponent);
    gamma/counter: delegation target and scheduled counter value;
    alpha/k: decoded counter label and remaining-jump count for the
    expansion kinds.
    """

    kind: str
    sigma: BinStr = ""
    gamma: BinStr | None = None
    counter: int | None = None
    alpha: BinStr | None = None
    k: int | None = None
    exponent: int | None = None

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "sigma": self.sigma}
        for key in ("gamma", "counter", "alpha", "k", "exponent"):
            val = getattr(self, key)
            if val is not None:
                obj[key] = val
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Action":
        return cls(
            kind=obj["kind"],
            sigma=obj.get("sigma", ""),
            gamma=obj.get("gamma"),
            counter=obj.get("counter"),
            alpha=obj.get("alpha"),
            k=obj.get("k"),
            exponent=obj.get("exponent"),
        )


@dataclass(frozen=True)
class StageRecord:
    """Complete audit record of one stage.

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

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "settled": self.settled,
            "action": self.action.to_json(),
            "jump": self.jump.to_json(),
            "init_regions": [[a, r] for a, r in self.init_regions],
            "param_writes": [[s, f, v] for s, f, v in self.param_writes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "StageRecord":
        return cls(
            t=obj["t"],
            settled=obj["settled"],
            action=Action.from_json(obj["action"]),
            jump=Dyadic.from_json(obj["jump"]),
            init_regions=tuple((a, r) for a, r in obj["init_regions"]),
            param_writes=tuple((s, f, v) for s, f, v in obj["param_writes"]),
        )


@dataclass
class Trace:
    """Immutable-by-convention record of a whole run.

    ``index`` is built from the stages and x, and ``registry`` from
    ``config``, on first use and kept, so a trace must not be changed once
    it has been read.
    """

    engine: str  # "A" | "B"
    config: dict  # registry configuration the run used
    stages: list[StageRecord]
    x: list[Dyadic]  # length T + 1

    @property
    def T(self) -> int:
        return len(self.stages)

    @cached_property
    def flag_field(self) -> str:
        return FLAG_FIELDS[self.engine]

    @cached_property
    def index(self) -> TraceIndex:
        """The one :class:`TraceIndex` of this trace, built on first use."""
        return TraceIndex(self)

    @cached_property
    def registry(self) -> PhiRegistry:
        """The one :class:`PhiRegistry` of ``config``, built on first use."""
        return PhiRegistry(self.config)

    def config_digest(self) -> str:
        return config_digest(self.config)

    def digest(self) -> str:
        """Deterministic digest of the canonical serialisation."""
        return hashlib.sha256(serialize(self)).hexdigest()


# ---------------------------------------------------------------------------
# Serialisation


def _header_line(trace: Trace, created_at: str | None) -> str:
    header = {
        "engine": trace.engine,
        "T": trace.T,
        "phi_config_digest": trace.config_digest(),
        "version": TRACE_VERSION,
        "phi_config": trace.config,
    }
    if created_at is not None:
        header["created_at"] = created_at
    return json.dumps(header, sort_keys=True, separators=(",", ":"))


def serialize(trace: Trace) -> bytes:
    """Lossless line-oriented encoding: header object, then one record per line.

    This canonical form is what :meth:`Trace.digest` covers; a written trace
    file adds the informational ``created_at`` header field
    (:func:`serialize_stamped`).
    """
    lines = [_header_line(trace, None)]
    for rec in trace.stages:
        lines.append(json.dumps(rec.to_json(), sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_stamped(trace: Trace, created_at: str) -> tuple[bytes, str]:
    """The trace file, whose header also holds ``created_at``, and
    ``trace.digest()``, encoding the records once: the digest is taken over
    :func:`serialize`'s bytes, and the stamped header line is spliced in
    front of their records."""
    data = serialize(trace)
    records = data[data.index(b"\n"):]
    stamped = _header_line(trace, created_at).encode("utf-8") + records
    return stamped, hashlib.sha256(data).hexdigest()


def _check_header(header: dict) -> None:
    """Reject an unknown engine or version, a ``T`` that is not a natural
    number and a ``phi_config`` that does not match its recorded digest: a
    trace is checked against the registry it names, so a tampered registry
    must not reach the checkers."""
    if not isinstance(header, dict):
        raise TraceParseError("header is not an object", line=1)
    for key in ("engine", "T", "version", "phi_config", "phi_config_digest"):
        if key not in header:
            raise TraceParseError(f"header missing {key!r}", line=1)
    engine = header["engine"]
    if not isinstance(engine, str) or engine not in FLAG_FIELDS:
        raise TraceParseError(f"unknown engine {engine!r}", line=1)
    version = header["version"]
    if type(version) is not int or version != TRACE_VERSION:
        raise TraceParseError(f"unsupported trace version {version!r}", line=1)
    T = header["T"]
    if type(T) is not int or T < 0:
        raise TraceParseError(f"T={T!r} is not a natural number", line=1)
    if config_digest(header["phi_config"]) != header["phi_config_digest"]:
        raise TraceParseError("phi_config does not match phi_config_digest", line=1)


def _check_record(rec: StageRecord, fields: tuple[str, ...], line: int) -> None:
    """Reject a non-string action kind, any word that is not a string over
    {0,1}, any unknown region relation, any parameter field outside
    ``fields``, a stage number, parameter value or action number that is
    not a JSON integer, and a negative parameter value: the native-order
    membership tests hold only on binary words, ``true`` or ``1.5`` must not
    pass for 1, and the engine writes only naturals (c, r, w >= 0 and flags
    in {0, 1}), whose negation the checkers take as a power of two."""
    act = rec.action
    if not isinstance(act.kind, str):
        raise TraceParseError(f"action kind {act.kind!r} is not a string", line=line)
    numbers = [rec.t, *(v for _, _, v in rec.param_writes)]
    numbers += [v for v in (act.counter, act.k, act.exponent) if v is not None]
    for v in numbers:
        if type(v) is not int:
            raise TraceParseError(f"{v!r} is not an integer", line=line)
    words = [rec.settled, act.sigma]
    words += [w for w in (act.gamma, act.alpha) if w is not None]
    words += [anchor for anchor, _ in rec.init_regions]
    words += [sigma for sigma, _, _ in rec.param_writes]
    for word in words:
        if not isinstance(word, str) or word.strip("01"):
            raise TraceParseError(f"{word!r} is not a binary word", line=line)
    for _, rel in rec.init_regions:
        if rel not in (REL_LEX, REL_LEX_OR_EXT):
            raise TraceParseError(f"unknown region relation {rel!r}", line=line)
    for _, fld, v in rec.param_writes:
        if fld not in fields:
            raise TraceParseError(f"unknown parameter field {fld!r}", line=line)
        if v < 0:
            raise TraceParseError(f"parameter value {v} of {fld!r} is negative", line=line)


def deserialize(data: bytes) -> Trace:
    """Parse a trace file, rebuilding the x sequence from the jumps.

    A positive jump at stage t is 2**-w with w <= l <= t, or 2**-r with
    r <= t, so every jump's exponent must lie in [0, T]; it is checked
    before the jump is added to x, whose sums align mantissas by it.
    """
    text = data.decode("utf-8")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise TraceParseError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"bad header: {exc}", line=1) from None
    _check_header(header)
    T = header["T"]
    if len(lines) - 1 != T:
        raise TraceParseError(f"header says T={T} but {len(lines) - 1} records present")
    fields = ("c", "r", "w", FLAG_FIELDS[header["engine"]])
    stages: list[StageRecord] = []
    x = [ZERO]
    for i, ln in enumerate(lines[1:], start=2):
        try:
            rec = StageRecord.from_json(json.loads(ln))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
            raise TraceParseError(f"bad stage record: {exc}", line=i) from None
        _check_record(rec, fields, i)
        if rec.t != len(stages):
            raise TraceParseError(f"stage {rec.t} out of order", line=i)
        if (rec.jump.sign() > 0) != (rec.action.kind in JUMP_KINDS):
            raise TraceParseError(
                f"jump/action mismatch at stage {rec.t}", line=i
            )
        if rec.jump.sign() < 0:
            raise TraceParseError(f"negative jump at stage {rec.t}", line=i)
        if rec.jump.k > T:
            raise TraceParseError(
                f"jump exponent {rec.jump.k} at stage {rec.t} exceeds T={T}", line=i
            )
        stages.append(rec)
        x.append(x[-1] + rec.jump)
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
    apply a strategy, the stages whose initialisation region covers it, and
    its parameter timelines -- are derived on first use and only for the
    strategies asked about: materialising them for every prefix of every
    settlement would cost O(T * depth).
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self.settlements: list[BinStr] = []
        self.threats: dict[BinStr, list[int]] = {}  # handled threats by strategy
        self.jumps: dict[int, Dyadic] = {}  # positive jumps by stage
        self.init_events: list[tuple[int, BinStr, str]] = []
        self.writes: dict[tuple[BinStr, str], list[tuple[int, int]]] = {}
        for rec in trace.stages:
            t = rec.t
            self.settlements.append(rec.settled)
            if rec.action.kind in THREAT_KINDS:
                self.threats.setdefault(rec.settled, []).append(t)
            if rec.jump.sign() > 0:
                self.jumps[t] = rec.jump
            for anchor, rel in rec.init_regions:
                self.init_events.append((t, anchor, rel))
            for s, f, v in rec.param_writes:
                self.writes.setdefault((s, f), []).append((t, v))
        # strategies with an explicit write, in order of their first write
        self.written = list(dict.fromkeys(s for s, _ in self.writes))
        self._inits: dict[BinStr, list[int]] = {}
        self._apps: dict[BinStr, list[int]] = {}
        self._cp: dict[tuple[BinStr, str], tuple[list[int], list[int]]] = {}

    def written_to(self, fld: str) -> list[BinStr]:
        """Sorted strategies with an explicit write to one field."""
        return sorted(s for s, f in self.writes if f == fld)

    # -- initialisations and applications ----------------------------------

    def initialisations(self, sigma: BinStr) -> list[int]:
        """Stages whose initialisation region contains sigma, ascending and
        without repeats."""
        inits = self._inits.get(sigma)
        if inits is None:
            inits = self._inits[sigma] = []
            for t, anchor, rel in self.init_events:
                if (not inits or inits[-1] != t) and region_contains(anchor, rel, sigma):
                    inits.append(t)
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
        resets counters and witnesses in both constructions and the
        satisfaction flag only in the first; restraints and pause flags are
        never touched by regions.  A write and a region effect from the same
        stage cannot collide for engine-produced traces, but if a
        hand-mutated trace makes them collide the region effect wins
        (matching engine commit order).
        """
        key = (sigma, fld)
        cached = self._cp.get(key)
        if cached is None:
            if fld not in ("c", "r", "w", *FLAG_FIELDS.values()):
                raise ValueError(f"unknown parameter field {fld!r}")
            inits = self.initialisations(sigma)
            effects = dict(self.writes.get(key, ()))
            if fld in ("c", "w") or (self.trace.engine == "A" and fld == FLAG_FIELDS["A"]):
                for t in inits:
                    effects[t] = nu(sigma) + t + 2 if fld == "w" else 0
            times, values = [0], [nu(sigma) if fld == "w" else 0]
            for t in sorted(effects):
                if effects[t] != values[-1]:
                    times.append(t + 1)
                    values.append(effects[t])
            cached = self._cp[key] = (times, values)
        return cached

    def value(self, sigma: BinStr, fld: str, t: int) -> int:
        """Value of a parameter at time t."""
        times, values = self.changepoints(sigma, fld)
        return values[bisect_right(times, t) - 1]

    # -- jump attribution --------------------------------------------------

    def episode_origin(self, rec: StageRecord) -> int | None:
        """The threat stage a counter episode belongs to: the latest stage
        before ``rec.t`` at which the decoded label ``rec.action.alpha`` was
        threatened, or None if there is none."""
        origins = self.threats.get(rec.action.alpha, ())
        i = bisect_left(origins, rec.t)
        return origins[i - 1] if i else None

    @cached_property
    def u_map(self) -> dict[int, int]:
        """Each jump stage mapped to the stage of the threat that caused it.

        An immediate threat jump maps to itself; a scheduled jump executed
        while handling a counter maps to its :meth:`episode_origin`.  A jump
        matching neither case marks a corrupt trace.
        """
        u: dict[int, int] = {}
        for rec in self.trace.stages:
            if rec.jump.sign() <= 0:
                continue
            kind = rec.action.kind
            if kind == THREAT_JUMP:
                u[rec.t] = rec.t
            elif kind == EXPANSION_JUMP:
                origin = self.episode_origin(rec)
                if origin is None:
                    raise TraceCorruption(
                        f"jump at stage {rec.t} refers to {rec.action.alpha!r}, never threatened"
                    )
                u[rec.t] = origin
            else:
                raise TraceCorruption(f"jump at stage {rec.t} with non-jump action {kind}")
        return u

    @cached_property
    def fibers(self) -> dict[int, list[int]]:
        """Jump stages grouped by the threat stage :attr:`u_map` attributes
        them to, ascending; raises TraceCorruption as :attr:`u_map` does."""
        fibers: dict[int, list[int]] = {}
        for t, origin in self.u_map.items():
            fibers.setdefault(origin, []).append(t)
        return fibers

    # -- whole-run facts ---------------------------------------------------

    @cached_property
    def true_path(self) -> TruePathEstimate:
        return true_path_estimate(self.settlements)

    @cached_property
    def first_decrease(self) -> int | None:
        """First stage t with x[t + 1] < x[t], or None if x never decreases."""
        x = self.trace.x
        return next((t for t in range(self.trace.T) if x[t + 1] < x[t]), None)

    def cutoff_stage(self, sigma: BinStr) -> int | None:
        """Largest jump stage attributed to sigma's stability-respecting threat.

        The originating threat stage is the last applied-and-threatened stage
        of sigma that no later in-horizon initialisation of sigma invalidates;
        returns None when there is no such stage or no jump has landed yet.
        Whether the returned stage is the true cut-off (all split jumps
        executed) is a separate completeness question the checkers decide.
        """
        candidates = self.threats.get(sigma)
        if not candidates:
            return None
        t1 = candidates[-1]
        inits = self.initialisations(sigma)
        if inits and inits[-1] >= t1:
            return None
        fiber = self.fibers.get(t1)
        return fiber[-1] if fiber else None


# ---------------------------------------------------------------------------
# User CSV tables: the sequence CSV (shared with the speed module) and the
# modulus table


def write_sequence_csv(x: list[Dyadic], path: str) -> None:
    """Write the exact sequence as rows ``t,mantissa,exponent``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,mantissa,exponent\n")
        for t, val in enumerate(x):
            fh.write(f"{t},{val.m},{val.k}\n")


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
