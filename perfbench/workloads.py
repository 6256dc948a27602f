"""Workload definitions: which engine, registry and horizons each one runs.

A workload is a list of parts.  Every part is run with the ``run`` command
at ``run_T`` stages, its trace is checked with the ``verify`` command, and
its first ``cross_T`` stages are cross-checked against the naive replay
oracle.  The seed picks a horizon offset ``delta`` from DELTAS (seed 0, the
default, always gives 0, i.e. exactly the horizons written below); each part
scales it by its own ``run_step`` / ``cross_step``.  The offsets stay under
one percent of the horizon so that no seed changes which layer dominates a
workload, and they are small because a run's timings must not spread much
across seeds.

Stdlib only: run.py imports this module, and run.py must not import the
package under test.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0
DELTAS = (-1, 0, 1)

# Registry with no slot 0: the estimated true path stays stable to depth ~t,
# so the checkers' per-prefix work is on the critical path.
DEEP_CONFIG = {"slots": [
    {"index": 1, "kind": "identity"},
    {"index": 5, "kind": "const", "value": 6},
    {"index": 6, "kind": "diverge"},
]}

# The re-split family of the replay tests: a depth-2 threat is scheduled onto
# a mid-tree strategy, which re-delegates upward (threat_schedule and
# expansion_delegate both occur).
RESPLIT_CONFIG = {"slots": [
    {"index": 0, "kind": "identity"},
    {"index": 1, "kind": "identity"},
    {"index": 2, "kind": "square"},
]}


def _part(name, engine, config, run_T, run_step, cross_T, cross_step=0):
    # config None means the built-in default family (no --phi-config flag)
    return {"name": name, "engine": engine, "config": config,
            "run_T": run_T, "run_step": run_step,
            "cross_T": cross_T, "cross_step": cross_step}


WORKLOADS = {
    "pipeline-a": [_part("a-default", "A", None, 500, 1, 80)],
    "pipeline-b": [_part("b-default", "B", None, 4000, 5, 1000)],
    "deep-b": [_part("b-deep", "B", DEEP_CONFIG, 250, 1, 250, 1)],
    "crosscheck": [
        _part("a-default", "A", None, 120, 0, 120),
        _part("a-resplit", "A", RESPLIT_CONFIG, 220, 1, 220, 1),
        _part("b-default", "B", None, 300, 2, 300, 2),
    ],
}


def delta_for_seed(seed: int) -> int:
    """Horizon offset the seed selects; the default seed selects none."""
    if seed == DEFAULT_SEED:
        return 0
    return random.Random(seed).choice(DELTAS)


def parts_for(workload: str, delta: int) -> list[dict]:
    """The workload's parts with concrete horizons for one offset."""
    out = []
    for part in WORKLOADS[workload]:
        p = dict(part)
        p["run_T"] = part["run_T"] + delta * part["run_step"]
        p["cross_T"] = part["cross_T"] + delta * part["cross_step"]
        out.append(p)
    return out


def tiny_parts(workload: str) -> list[dict]:
    """Same engines and registries at horizons small enough for a self-test."""
    out = []
    for part in WORKLOADS[workload]:
        p = dict(part)
        p["run_T"] = 40
        p["cross_T"] = 30
        out.append(p)
    return out
