"""Naive replay oracle for the stage constructions.

This module re-implements the substage rules directly from their prose
description, with none of the engine's sparse or incremental machinery:
every parameter read scans the full history of explicit writes and
initialisation events, and the chain length is recomputed from scratch by
querying the slot on 0, 1, 2, ... at every use.  It exists so the optimised
engine can be checked against an implementation whose state handling is too
simple to share its bugs; the test suite compares the x sequences, the
settlements, and the complete parameter read logs value for value.

The substage read protocol is the one documented in :mod:`injurybench.engine`;
both implementations follow it so the logs line up positionally.

To stay independent, this module imports only the primitives
:mod:`~injurybench.strings`, :mod:`~injurybench.dyadic` and
:mod:`~injurybench.phi`, never the engine or the trace model; it even spells
the flag fields itself (a test pins this boundary).

The oracle stays naive on purpose: it gets faster only when a shared
primitive does, such as the step query (``naive_ell`` takes a slot's gate
once from :meth:`~injurybench.phi.PhiRegistry.stepper` and queries it on
0, 1, 2, ...) or region membership.  The engine
calls the same primitives, so the cross-check cannot see a fault in them;
each therefore has a test against its written-out definition instead
(``test_phi`` for the convergence gate, ``test_tracekit`` for region
membership, ``test_strings`` for the tree order, ``test_dyadic`` for the
arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dyadic import ZERO, Dyadic, pow2
from .phi import PhiRegistry
from .strings import REL_LEX, REL_LEX_OR_EXT, BinStr, nu, pair, region_contains, unpair

__all__ = ["ReplayResult", "replay_run", "naive_ell"]


@dataclass
class ReplayResult:
    engine: str
    x: list[Dyadic]
    settlements: list[BinStr]
    reads: list[tuple] = field(repr=False)


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
    """Full-scan parameter storage: explicit writes plus region events."""

    def __init__(self, engine: str):
        self.engine = engine
        self.flag_field = "s" if engine == "A" else "p"
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
        init_time = None
        init_applies = fld in ("c", "w") or (fld == "s" and self.engine == "A")
        if init_applies:
            for stage, anchor, rel in reversed(self.inits):
                if stage + 1 > time:
                    continue
                if region_contains(anchor, rel, sigma):
                    init_time = stage + 1
                    break
        if init_time is not None and (write_time is None or init_time >= write_time):
            return nu(sigma) + init_time + 1 if fld == "w" else 0
        if write_time is not None:
            return write_val
        return nu(sigma) if fld == "w" else 0


def replay_run(registry: PhiRegistry, engine: str, T: int) -> ReplayResult:
    """Run T stages of the named construction naively."""
    if engine not in ("A", "B"):
        raise ValueError(f"unknown engine {engine!r}")
    variant_b = engine == "B"
    hist = _History(engine)
    flag_fld = hist.flag_field
    x: list[Dyadic] = [ZERO]
    settlements: list[BinStr] = []
    reads: list[tuple] = []

    def read_cur(t: int, sigma: BinStr, fld: str) -> int:
        val = hist.read(sigma, fld, t)
        reads.append((t, sigma, fld, "cur", val))
        return val

    def read_next(t: int, sigma: BinStr, fld: str) -> int:
        val = hist.read(sigma, fld, t + 1)
        reads.append((t, sigma, fld, "next", val))
        return val

    for t in range(T):
        sigma = ""
        jump_exp = None
        region = None
        while True:
            e = len(sigma)
            if e == t:
                # top-out: keep the value, initialise everything lex-right
                region = (sigma, REL_LEX)
                break

            # negative requirement: threat test
            flag = read_cur(t, sigma, flag_fld)
            threatened = False
            w = None
            if flag == 0:
                l = naive_ell(registry, e, t)
                if l >= 0:
                    w = read_cur(t, sigma, "w")
                    if l >= w:
                        v = registry.step(e, l, t)
                        threatened = (x[t] - x[v]) < pow2(-w)
            if variant_b and not threatened and flag != 0:
                hist.write(sigma, flag_fld, 0, t + 1)
            if threatened:
                gamma = None
                r_next = None
                for j in range(e - 1, -1, -1):
                    if sigma[j] == "0":
                        cand = sigma[:j]
                        r_cand = read_next(t, cand, "r")
                        if r_cand >= w:
                            gamma, r_next = cand, r_cand
                            break
                if gamma is None:
                    jump_exp = w
                else:
                    hist.write(gamma, "c", pair(sigma, 1 << (r_next - w)), t + 1)
                hist.write(sigma, flag_fld, 1, t + 1)
                if variant_b:
                    hist.write(sigma, "w", w + 1, t + 1)
                region = (sigma, REL_LEX if variant_b else REL_LEX_OR_EXT)
                break

            # positive requirement: expansion test
            expansionary = False
            r = None
            if variant_b or flag == 1:
                l = naive_ell(registry, e, t)
                if l >= 0:
                    r = read_cur(t, sigma, "r")
                    v = registry.step(e, l, t)
                    expansionary = (x[t] - x[v]) < pow2(-r)
            if not expansionary:
                sigma += "1"
                continue

            c = read_cur(t, sigma, "c")
            if c == 0:
                hist.write(sigma, "r", r + 1, t + 1)
                sigma += "0"
                continue

            alpha, second = unpair(c)
            k = second - 1
            j = sigma.rfind("0")
            if j < 0:
                jump_exp = r
            else:
                gamma = sigma[:j]
                r_next = read_next(t, gamma, "r")
                hist.write(gamma, "c", pair(alpha, 1 << (r_next - r)), t + 1)
            hist.write(sigma, "c", 0 if k == 0 else pair(alpha, k), t + 1)
            if variant_b:
                region = (sigma + "0", REL_LEX)
            else:
                region = (alpha, REL_LEX_OR_EXT)
            break

        x.append(x[t] + (pow2(-jump_exp) if jump_exp is not None else ZERO))
        hist.inits.append((t, region[0], region[1]))
        settlements.append(sigma)

    return ReplayResult(engine=engine, x=x, settlements=settlements, reads=reads)
