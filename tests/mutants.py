"""Seeded mutants of engine traces, shared by the differential tests and the
hostile-input gate.

``single_record_mutants`` replaces one leaf of one stage record and keeps
the traces the loader accepts.  ``jump_value_edits`` rescales the jump of
one record, keeping the action, so that only the amounts paid to the
threats change.
"""

import json
import random

from injurybench.dyadic import Dyadic
from injurybench.tracekit import Trace, TraceParseError, deserialize, serialize

_LEAF_VALUES = [-1, 0, 1, 2, 3, 5, 9, 30, 61, "", "0", "1", "01", "10", "11", "110",
                "lex_gt", "lex_gt_or_ext", "top_out", "threat_jump", None, []]

# Rescalings of a positive jump.  Lowering the exponent by one is the same
# value as doubling whenever the loader accepts it (the mantissa is odd), so
# the third edit is three halves, which is no longer a power of two.
JUMP_EDITS = {
    "doubled": lambda j: j + j,
    "halved": lambda j: j * Dyadic(1, 1),
    "three-halves": lambda j: j + j * Dyadic(1, 1),
}


def leaf_paths(obj, path=()):
    """Key paths to every leaf of a JSON value; an empty list is a leaf."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def _lines(trace: Trace) -> tuple[str, list[str]]:
    head, *records = serialize(trace).decode("utf-8").rstrip("\n").split("\n")
    return head, records


def _accepted(head: str, records: list[str], t: int, rec: dict) -> Trace | None:
    lines = list(records)
    lines[t] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    try:
        return deserialize("\n".join([head, *lines]).encode("utf-8"))
    except TraceParseError:
        return None


def single_record_mutants(trace: Trace, count: int, seed: int):
    """Seeded mutants of one leaf of one stage record that the loader accepts."""
    head, records = _lines(trace)
    rng = random.Random(seed)
    for _ in range(100 * count):
        t = rng.randrange(len(records))
        rec = json.loads(records[t])
        *parents, leaf = rng.choice(list(leaf_paths(rec)))
        target = rec
        for key in parents:
            target = target[key]
        target[leaf] = rng.choice(_LEAF_VALUES)
        mutant = _accepted(head, records, t, rec)
        if mutant is None:
            continue
        yield mutant
        count -= 1
        if count == 0:
            return
    raise AssertionError("too few mutants accepted by the loader")


def jump_value_edits(trace: Trace) -> list[Trace]:
    """Every :data:`JUMP_EDITS` edit of every positive jump that the loader
    accepts, in stage order.  A halved jump whose exponent passes T is
    rejected."""
    head, records = _lines(trace)
    out = []
    for rec in trace.stages:
        if rec.jump.sign() <= 0:
            continue
        for edit in JUMP_EDITS.values():
            obj = json.loads(records[rec.t])
            obj["jump"] = edit(rec.jump).to_json()
            mutant = _accepted(head, records, rec.t, obj)
            if mutant is not None:
                out.append(mutant)
    return out
