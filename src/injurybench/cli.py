"""Command-line driver: runs, verification, path analysis, and exports.

Exit codes are scripting-friendly: 0 all selected checks pass, 1 at least
one failed, 2 usage or I/O problems, 3 nothing failed but some conclusion
stayed horizon-conditional ("incomplete").

Only the ``speed`` verbs import :mod:`injurybench.speed`, so the other
verbs do not pay for loading it (and ``fractions`` and ``decimal`` with
it).  The modules that ``run`` and ``verify`` execute are imported here,
at load time, so the first call of either verb compiles none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .dyadic import Dyadic
from .engine import EngineState, run_engine
from .phi import DEFAULT_CONFIG, registry_from_config
from .strings import true_path_estimate
from .tracekit import (
    Trace,
    TraceParseError,
    deserialize,
    read_csv_table,
    read_sequence_csv,
    serialize_stamped,
    write_sequence_csv,
)
from .verify import CHECK_NAMES, run_checks

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


def _fmt_word(sigma: str) -> str:
    return sigma if sigma else "λ"


def _load_trace(path: str) -> Trace:
    return deserialize(Path(path).read_bytes())


def _load_modulus(args):
    """The ``speed.ModulusFn`` of ``--affine`` or ``--modulus``, exactly one
    of which must be given."""
    from .speed import ModulusFn

    if (args.affine is None) == (args.modulus is None):
        raise ValueError("need exactly one of --modulus CSV and --affine A B")
    if args.affine is not None:
        a, b = args.affine
        return ModulusFn.affine(a, b)
    return ModulusFn.from_table([f for (f,) in read_csv_table(args.modulus, "n,f")])


def _load_sequence(path: str, limit: str | None):
    """The ``speed.ApproxSequence`` of a sequence CSV and an optional limit."""
    from .speed import ApproxSequence

    values = read_sequence_csv(path)
    known = Dyadic.from_text(limit) if limit else None
    return ApproxSequence(values=values, known_limit=known, provenance=path)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args) -> int:
    if args.phi_config:
        config = json.loads(Path(args.phi_config).read_text(encoding="utf-8"))
    else:
        config = DEFAULT_CONFIG
    registry = registry_from_config(config)
    hooks = None
    if args.progress:
        def hooks(rec):  # pragma: no cover - cosmetic
            if rec.t % 100 == 0:
                print(f"stage {rec.t}: settled on {_fmt_word(rec.settled)}",
                      file=sys.stderr)
    trace = run_engine(EngineState(registry, args.engine), args.stages, hooks)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    data, digest = serialize_stamped(trace, created)
    (out / "trace.jsonl").write_bytes(data)
    write_sequence_csv(trace.x, str(out / "sequence.csv"))
    print(digest)
    return EXIT_PASS


def cmd_verify(args) -> int:
    trace = _load_trace(args.trace)
    checks = args.checks.split(",") if args.checks else None
    reports = run_checks(trace, checks=checks)
    payload = [r.to_json() for r in reports]
    text = json.dumps(payload, indent=2)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    for r in reports:
        print(f"{r.check}: {r.status}", file=sys.stderr)
    statuses = {r.status for r in reports}
    if "fail" in statuses:
        return EXIT_FAIL
    if "incomplete" in statuses:
        return EXIT_INCOMPLETE
    return EXIT_PASS


def cmd_truepath(args) -> int:
    trace = _load_trace(args.trace)
    window = tuple(args.window) if args.window else None
    est = true_path_estimate(
        [rec.settled for rec in trace.stages], window=window, threshold=args.threshold
    )
    print(json.dumps({
        "path": est.path,
        "display": _fmt_word(est.path),
        "stable_upto": est.stable_upto,
        "window": list(est.window),
        "threshold": args.threshold,
    }, indent=2))
    return EXIT_PASS


def cmd_speed(args) -> int:
    from .speed import (
        SEARCH_BUDGET,
        IncompleteSearch,
        ModulusFn,
        certify_regaining,
        regain_to_speed,
        speed_ratio,
        speed_to_regain,
        speedup_indices,
    )

    if args.speed_cmd == "indices":
        seq = _load_sequence(args.sequence, args.limit)
        rho = Dyadic.from_text(args.rho)
        idx = speedup_indices(seq, rho)
        print(json.dumps({"indices": idx, "count": len(idx)}))
        return EXIT_PASS
    if args.speed_cmd == "regain2speed":
        seq = _load_sequence(args.sequence, args.limit)
        shifted = regain_to_speed(seq)
        write_sequence_csv(shifted.values, args.out)
        summary = {"out": args.out, "length": len(shifted)}
        if seq.known_limit is not None and len(seq) > 1:
            regaining = certify_regaining(seq, ModulusFn.affine(1, 0))
            summary["regaining_indices"] = regaining
            summary["ratios"] = {
                str(n): str(speed_ratio(shifted, n))
                for n in regaining if n + 1 < len(shifted)
            }
        print(json.dumps(summary))
        return EXIT_PASS
    if args.speed_cmd == "speed2regain":
        n_max = args.n_max
        if n_max < 0:
            raise ValueError(f"--n-max must be a natural number, got {n_max}")
        if n_max > SEARCH_BUDGET:
            raise ValueError(f"--n-max must be at most {SEARCH_BUDGET}, got {n_max}")
        f = _load_modulus(args)
        rho = Dyadic.from_text(args.rho)
        try:
            res = speed_to_regain(f, rho)
            payload = {
                "k": res.k,
                "m": res.m,
                "g": [res.g(n) for n in range(n_max + 1)],
                "h": [res.h(n) for n in range(n_max + 1)],
            }
        except IncompleteSearch as exc:
            print(json.dumps({"incomplete": str(exc), "budget": exc.budget}))
            return EXIT_INCOMPLETE
        print(json.dumps(payload))
        return EXIT_PASS
    if args.speed_cmd == "certify":
        seq = _load_sequence(args.sequence, args.limit)
        h = _load_modulus(args)
        idx = certify_regaining(seq, h)
        print(json.dumps({"indices": idx, "count": len(idx)}))
        return EXIT_PASS
    raise AssertionError(args.speed_cmd)


def cmd_export(args) -> int:
    trace = _load_trace(args.trace)
    if args.format == "csv":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("t,mantissa,exponent\n")
            for rec in trace.stages:
                if rec.jump.sign() > 0:
                    fh.write(f"{rec.t},{rec.jump.m},{rec.jump.k}\n")
        return EXIT_PASS
    # DOT of the strategy tree restricted to ever-applied nodes
    settle_counts: dict[str, int] = {}
    nodes: dict[str, None] = {}
    for rec in trace.stages:
        settle_counts[rec.settled] = settle_counts.get(rec.settled, 0) + 1
        for node in rec.applied:
            nodes.setdefault(node, None)
    last_init: dict[str, int] = {}
    for node in nodes:
        covering = trace.index.initialisations(node)
        if covering:
            last_init[node] = covering[-1]
    lines = ["digraph strategies {", '  node [shape=box];']
    for node in nodes:
        label = _fmt_word(node)
        notes = [f"settles={settle_counts.get(node, 0)}"]
        if node in last_init:
            notes.append(f"last_init={last_init[node]}")
        lines.append(f'  "{label}" [label="{label}\\n{" ".join(notes)}"];')
    for node in nodes:
        if node:
            parent = _fmt_word(node[:-1])
            lines.append(f'  "{parent}" -> "{_fmt_word(node)}";')
    lines.append("}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# Argument plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call of a process: ``main``
    runs many times in one process, and importing this module builds none."""
    parser = argparse.ArgumentParser(
        prog="injurybench",
        description="Run, verify and analyse the stage constructions.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="execute a construction and write its trace")
    p_run.add_argument("--engine", choices=("A", "B"), required=True)
    p_run.add_argument("--stages", type=int, required=True)
    p_run.add_argument("--phi-config", help="registry config JSON (default: built-in suite)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--progress", action="store_true")
    p_run.set_defaults(fn=cmd_run)

    p_ver = sub.add_parser("verify", help="run checkers over a trace")
    p_ver.add_argument("trace")
    p_ver.add_argument("--checks", help=f"comma list from: {','.join(CHECK_NAMES)}")
    p_ver.add_argument("--report", help="write the JSON report here instead of stdout")
    p_ver.set_defaults(fn=cmd_verify)

    p_tp = sub.add_parser("truepath", help="windowed true-path estimate of a trace")
    p_tp.add_argument("trace")
    p_tp.add_argument("--window", nargs=2, type=int, metavar=("LO", "HI"))
    p_tp.add_argument("--threshold", type=int, default=3)
    p_tp.set_defaults(fn=cmd_truepath)

    p_sp = sub.add_parser("speed", help="sequence transforms and detectors")
    sp_sub = p_sp.add_subparsers(dest="speed_cmd", required=True)
    sp_idx = sp_sub.add_parser("indices")
    sp_idx.add_argument("--sequence", required=True)
    sp_idx.add_argument("--limit", required=True, help='exact limit, e.g. "1/2^0"')
    sp_idx.add_argument("--rho", required=True)
    sp_r2s = sp_sub.add_parser("regain2speed")
    sp_r2s.add_argument("--sequence", required=True)
    sp_r2s.add_argument("--limit")
    sp_r2s.add_argument("--out", required=True)
    sp_s2r = sp_sub.add_parser("speed2regain")
    sp_s2r.add_argument("--modulus", help="CSV table with header n,f")
    sp_s2r.add_argument("--affine", nargs=2, type=int, metavar=("A", "B"),
                        help="closed form f(n) = A*n + B")
    sp_s2r.add_argument("--rho", required=True)
    sp_s2r.add_argument("--n-max", type=int, default=16)
    sp_cert = sp_sub.add_parser("certify")
    sp_cert.add_argument("--sequence", required=True)
    sp_cert.add_argument("--limit", required=True)
    sp_cert.add_argument("--modulus", help="CSV table with header n,f")
    sp_cert.add_argument("--affine", nargs=2, type=int, metavar=("A", "B"))
    p_sp.set_defaults(fn=cmd_speed)

    p_exp = sub.add_parser("export", help="strategy-tree DOT or jump-timeline CSV")
    p_exp.add_argument("trace")
    p_exp.add_argument("--format", choices=("dot", "csv"), required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalise other codes
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (TraceParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
