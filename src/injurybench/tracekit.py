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

The analyses that are facts about a finished run live here too: which
stages handled a threat of each strategy, the attribution of every jump to
the threat that caused it (``u_map``), and the cut-off stages.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .dyadic import ZERO, Dyadic
from .phi import config_digest
# perfbench/tracing.py also counts region membership as tracekit.region_contains
from .strings import REL_LEX, REL_LEX_OR_EXT, BinStr, nu, region_contains

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
    "init_events",
    "covering_stages",
    "replay_params",
    "param_changepoints",
    "changepoints_from",
    "add_threat",
    "threat_stages",
    "episode_origin",
    "u_map",
    "cutoff_stages",
    "write_sequence_csv",
    "read_sequence_csv",
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
            param_writes=tuple((s, f, int(v)) for s, f, v in obj["param_writes"]),
        )


@dataclass
class Trace:
    """Immutable-by-convention record of a whole run."""

    engine: str  # "A" | "B"
    config: dict  # registry configuration the run used
    stages: list[StageRecord]
    x: list[Dyadic]  # length T + 1
    version: int = TRACE_VERSION

    @property
    def T(self) -> int:
        return len(self.stages)

    @property
    def flag_field(self) -> str:
        return FLAG_FIELDS[self.engine]

    def config_digest(self) -> str:
        return config_digest(self.config)

    def digest(self) -> str:
        """Deterministic digest of the canonical serialisation."""
        return hashlib.sha256(serialize(self)).hexdigest()

    def jump_stages(self) -> list[int]:
        """The set J of stages whose jump is positive, in order."""
        return [rec.t for rec in self.stages if rec.jump.sign() > 0]


# ---------------------------------------------------------------------------
# Serialisation


def _header_line(trace: Trace, created_at: str | None) -> str:
    header = {
        "engine": trace.engine,
        "T": trace.T,
        "phi_config_digest": trace.config_digest(),
        "version": trace.version,
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
    """Reject an unknown engine or version and a ``phi_config`` that does not
    match its recorded digest: a trace is checked against the registry it
    names, so a tampered registry must not reach the checkers."""
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
    if config_digest(header["phi_config"]) != header["phi_config_digest"]:
        raise TraceParseError("phi_config does not match phi_config_digest", line=1)


def _check_record(rec: StageRecord, fields: tuple[str, ...], line: int) -> None:
    """Reject a non-string action kind, any word that is not a string over
    {0,1}, any unknown region relation and any parameter field outside
    ``fields``: the native-order membership tests hold only on binary
    words."""
    act = rec.action
    if not isinstance(act.kind, str):
        raise TraceParseError(f"action kind {act.kind!r} is not a string", line=line)
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
    for _, fld, _ in rec.param_writes:
        if fld not in fields:
            raise TraceParseError(f"unknown parameter field {fld!r}", line=line)


def deserialize(data: bytes) -> Trace:
    """Parse a trace file, rebuilding the x sequence from the jumps."""
    text = data.decode("utf-8")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise TraceParseError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceParseError(f"bad header: {exc}", line=1) from None
    _check_header(header)
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
        stages.append(rec)
        x.append(x[-1] + rec.jump)
    if len(stages) != header["T"]:
        raise TraceParseError(
            f"header says T={header['T']} but {len(stages)} records present"
        )
    return Trace(
        engine=header["engine"],
        config=header["phi_config"],
        stages=stages,
        x=x,
        version=header["version"],
    )


# ---------------------------------------------------------------------------
# Parameter replay


def init_events(trace: Trace) -> list[tuple[int, BinStr, str]]:
    """Every initialisation region of a trace as (stage, anchor, relation),
    in stage order."""
    return [(rec.t, anchor, rel) for rec in trace.stages
            for anchor, rel in rec.init_regions]


def covering_stages(events: list[tuple[int, BinStr, str]], sigma: BinStr) -> list[int]:
    """The stages, ascending and without repeats, whose initialisation region
    contains sigma; ``events`` is laid out as :func:`init_events` returns it."""
    out: list[int] = []
    for t, anchor, rel in events:
        if (not out or out[-1] != t) and region_contains(anchor, rel, sigma):
            out.append(t)
    return out


def changepoints_from(
    sigma: BinStr,
    fld: str,
    engine: str,
    writes: list[tuple[int, int]],
    inits: list[int],
) -> list[tuple[int, int]]:
    """Changepoint timeline of one parameter from its explicit writes
    ((stage, value) in stage order) and the stages whose initialisation
    region covers the strategy (see :func:`covering_stages`).

    A write and a region effect from the same stage cannot collide for
    engine-produced traces, but if a hand-mutated trace makes them collide
    the region effect wins (matching engine commit order).  The list starts
    at time 0 and is strictly increasing in time.
    """
    if fld not in ("c", "r", "w", *FLAG_FIELDS.values()):
        raise ValueError(f"unknown parameter field {fld!r}")
    default = nu(sigma) if fld == "w" else 0
    effects = dict(writes)  # the last write of a stage wins
    # initialisation resets counters and witnesses in both constructions,
    # the satisfaction flag only in the first; restraints and pause flags
    # are never touched by regions
    if fld in ("c", "w") or (engine == "A" and fld == FLAG_FIELDS["A"]):
        for t in inits:
            effects[t] = nu(sigma) + t + 2 if fld == "w" else 0
    points = [(0, default)]
    for t in sorted(effects):
        if effects[t] != points[-1][1]:
            points.append((t + 1, effects[t]))
    return points


def param_changepoints(trace: Trace, sigma: BinStr, fld: str) -> list[tuple[int, int]]:
    """Changepoint timeline [(time, value), ...] of one parameter,
    reconstructed from the default, the explicit writes, and the covering
    initialisation regions (see :func:`changepoints_from`)."""
    writes = [(rec.t, v) for rec in trace.stages
              for s, f, v in rec.param_writes if s == sigma and f == fld]
    return changepoints_from(sigma, fld, trace.engine, writes,
                             covering_stages(init_events(trace), sigma))


def replay_params(trace: Trace, sigma: BinStr, t: int, fld: str) -> int:
    """Value of a parameter at time t, reconstructed from the trace."""
    points = param_changepoints(trace, sigma, fld)
    times = [pt for pt, _ in points]
    return points[bisect_right(times, t) - 1][1]


# ---------------------------------------------------------------------------
# Jump attribution and cut-off stages


def add_threat(threats: dict[BinStr, list[int]], rec: StageRecord) -> None:
    """Add one record to a threats-by-strategy grouping: if its terminal
    action handled a threat, append its stage to the threatened strategy's
    list.  Fed records in stage order, each list is ascending."""
    if rec.action.kind in THREAT_KINDS:
        threats.setdefault(rec.settled, []).append(rec.t)


def threat_stages(trace: Trace) -> dict[BinStr, list[int]]:
    """Stages whose terminal action handled a threat, grouped by the
    threatened strategy (see :func:`add_threat`)."""
    threats: dict[BinStr, list[int]] = {}
    for rec in trace.stages:
        add_threat(threats, rec)
    return threats


def episode_origin(threats: dict[BinStr, list[int]], rec: StageRecord) -> int | None:
    """The threat stage a counter episode belongs to: the latest stage
    before ``rec.t`` at which the decoded label ``rec.action.alpha`` was
    threatened, or None if there is none.  ``threats`` is the grouping
    :func:`threat_stages` returns."""
    origins = threats.get(rec.action.alpha, ())
    i = bisect_left(origins, rec.t)
    return origins[i - 1] if i else None


def u_map(trace: Trace) -> dict[int, int]:
    """Map each jump stage back to the stage of the threat that caused it.

    An immediate threat jump maps to itself; a scheduled jump executed while
    handling a counter maps to its :func:`episode_origin`.  A jump matching
    neither case marks a corrupt trace.
    """
    threats = threat_stages(trace)
    u: dict[int, int] = {}
    for rec in trace.stages:
        if rec.jump.sign() <= 0:
            continue
        kind = rec.action.kind
        if kind == THREAT_JUMP:
            u[rec.t] = rec.t
        elif kind == EXPANSION_JUMP:
            origin = episode_origin(threats, rec)
            if origin is None:
                raise TraceCorruption(
                    f"jump at stage {rec.t} refers to {rec.action.alpha!r}, never threatened"
                )
            u[rec.t] = origin
        else:
            raise TraceCorruption(f"jump at stage {rec.t} with non-jump action {kind}")
    return u


def cutoff_stages(trace: Trace, sigma: BinStr) -> int | None:
    """Largest jump stage attributed to sigma's stability-respecting threat.

    The originating threat stage is the last applied-and-threatened stage of
    sigma that no later in-horizon initialisation of sigma invalidates;
    returns None when there is no such stage or no jump has landed yet.
    Whether the returned stage is the true cut-off (all split jumps
    executed) is a separate completeness question the checkers decide.
    """
    candidates = threat_stages(trace).get(sigma)
    if not candidates:
        return None
    t1 = candidates[-1]
    inits = covering_stages(init_events(trace), sigma)
    if inits and inits[-1] >= t1:
        return None
    fiber = [t for t, origin in u_map(trace).items() if origin == t1]
    return max(fiber) if fiber else None


# ---------------------------------------------------------------------------
# Sequence CSV (shared with the speed module)


def write_sequence_csv(x: list[Dyadic], path: str) -> None:
    """Write the exact sequence as rows ``t,mantissa,exponent``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,mantissa,exponent\n")
        for t, val in enumerate(x):
            fh.write(f"{t},{val.m},{val.k}\n")


def read_sequence_csv(path: str) -> list[Dyadic]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,mantissa,exponent":
            raise ValueError(f"unexpected sequence CSV header {header!r}")
        out = []
        for i, ln in enumerate(fh):
            ln = ln.strip()
            if not ln:
                continue
            t_str, m_str, k_str = ln.split(",")
            if int(t_str) != i:
                raise ValueError(f"sequence CSV rows out of order at {i}")
            out.append(Dyadic(int(m_str), int(k_str)))
    return out
