import json

import pytest

from injurybench.cli import main
from injurybench.dyadic import Dyadic, pow2
from injurybench.speed import SEARCH_BUDGET
from injurybench.tracekit import deserialize, read_sequence_csv, serialize_stamped, write_sequence_csv
from conftest import fixture_dir, jump_stages


@pytest.fixture()
def run_dir(tmp_path):
    out = tmp_path / "run"
    config = fixture_dir() / "minimal_phi.json"
    code = main([
        "run", "--engine", "A", "--stages", "20",
        "--phi-config", str(config), "--out", str(out),
    ])
    assert code == 0
    return out


def test_run_outputs(run_dir, capsys):
    trace = deserialize((run_dir / "trace.jsonl").read_bytes())
    assert trace.T == 20
    seq = read_sequence_csv(str(run_dir / "sequence.csv"))
    assert seq == trace.x
    assert seq[2] == Dyadic(1)  # identity-at-0 hand simulation


def test_run_is_deterministic(tmp_path, capsys):
    config = fixture_dir() / "minimal_phi.json"
    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run", "--engine", "B", "--stages", "30",
                     "--phi-config", str(config), "--out", str(out)]) == 0
        digests.append(capsys.readouterr().out.strip())
    assert digests[0] == digests[1]


def test_run_deterministic_across_processes(tmp_path, capsys):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import injurybench

    src_dir = Path(injurybench.__file__).resolve().parent.parent
    config = fixture_dir() / "minimal_phi.json"
    out = tmp_path / "inproc"
    assert main(["run", "--engine", "A", "--stages", "40",
                 "--phi-config", str(config), "--out", str(out)]) == 0
    in_process = capsys.readouterr().out.strip()
    result = subprocess.run(
        [sys.executable, "-m", "injurybench.cli", "run", "--engine", "A",
         "--stages", "40", "--phi-config", str(config),
         "--out", str(tmp_path / "subproc")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "271828", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(src_dir)},
    )
    assert result.stdout.strip() == in_process


def test_run_empty_config_stays_at_zero(tmp_path, capsys):
    config = tmp_path / "empty.json"
    config.write_text('{"slots": []}', encoding="utf-8")
    out = tmp_path / "b1"
    assert main(["run", "--engine", "B", "--stages", "1",
                 "--phi-config", str(config), "--out", str(out)]) == 0
    rows = (out / "sequence.csv").read_text().strip().split("\n")
    assert rows[1:] == ["0,0,0", "1,0,0"]


def test_run_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["run", "--engine", "A", "--stages", "5",
                 "--phi-config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2


def test_verify_valid_trace(run_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", str(run_dir / "trace.jsonl"),
                 "--checks", "monotonicity,convergence,jump_sums,settlement",
                 "--report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert {entry["check"] for entry in payload} >= {"monotonicity", "convergence"}
    assert all(entry["status"] == "pass" for entry in payload)


def test_verify_corrupted_trace(run_dir, tmp_path):
    data = (run_dir / "trace.jsonl").read_bytes().decode().split("\n")
    data[2] = "{oops"
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(data), encoding="utf-8")
    assert main(["verify", str(broken)]) == 2


def test_verify_mutated_trace_fails(run_dir, tmp_path):
    # inflate every recorded jump to 1 in the raw JSONL, with the exponent
    # that states it: x_T passes 4 and checks must go red
    lines = (run_dir / "trace.jsonl").read_bytes().decode().rstrip("\n").split("\n")
    changed = 0
    for i, line in enumerate(lines[1:], start=1):
        obj = json.loads(line)
        if obj["jump"]["m"] != "0":
            obj["jump"] = {"m": "1", "k": 0}
            obj["action"]["exponent"] = 0
            lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            changed += 1
    assert changed >= 4
    mutated = tmp_path / "mutated.jsonl"
    mutated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(mutated), "--checks", "convergence"]) == 1


def test_verify_non_binary_word_exits_two(run_dir, tmp_path, capsys):
    lines = (run_dir / "trace.jsonl").read_bytes().decode().rstrip("\n").split("\n")
    obj = json.loads(lines[3])
    obj["settled"] = "01" + "2"
    lines[3] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "bad_word.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: line 4:") and "\n" not in err


def test_verify_unknown_check(run_dir):
    assert main(["verify", str(run_dir / "trace.jsonl"), "--checks", "bogus"]) == 2


def test_verify_unknown_check_names_the_empty_name(run_dir, capsys):
    # an empty name between two commas is quoted, so the message shows it
    args = ["verify", str(run_dir / "trace.jsonl"), "--checks", "settlement,,settlement"]
    assert main(args) == 2
    assert "unknown checks: ''" in capsys.readouterr().err


def test_verify_incomplete_only_exits_three(tmp_path, capsys):
    # the default registry at a short horizon leaves some requirement
    # checks horizon-conditional without any failure
    out = tmp_path / "short"
    assert main(["run", "--engine", "A", "--stages", "50", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out / "trace.jsonl")]) == 3


def test_truepath(run_dir, capsys):
    assert main(["truepath", str(run_dir / "trace.jsonl")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) >= {"path", "stable_upto", "window"}
    assert main(["truepath", str(run_dir / "trace.jsonl"),
                 "--window", "0", "999"]) == 2


def test_export_dot_and_csv(run_dir, tmp_path, capsys):
    config = fixture_dir() / "minimal_phi.json"
    tiny = tmp_path / "tiny"
    assert main(["run", "--engine", "A", "--stages", "1",
                 "--phi-config", str(config), "--out", str(tiny)]) == 0
    dot = tmp_path / "tree.dot"
    assert main(["export", str(tiny / "trace.jsonl"),
                 "--format", "dot", "--out", str(dot)]) == 0
    text = dot.read_text()
    assert text.count("->") == 0  # single-node tree at T = 1
    assert "λ" in text

    jumps_csv = tmp_path / "jumps.csv"
    assert main(["export", str(run_dir / "trace.jsonl"),
                 "--format", "csv", "--out", str(jumps_csv)]) == 0
    trace = deserialize((run_dir / "trace.jsonl").read_bytes())
    rows = jumps_csv.read_text().strip().split("\n")[1:]
    assert len(rows) == len(jump_stages(trace))


def test_speed_subcommands(tmp_path, capsys):
    seq_csv = tmp_path / "seq.csv"
    values = [Dyadic(1) - pow2(-n) for n in range(12)]
    write_sequence_csv(values, str(seq_csv))

    assert main(["speed", "indices", "--sequence", str(seq_csv),
                 "--limit", "1/2^0", "--rho", "1/2^1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["indices"] == list(range(11))

    out_csv = tmp_path / "shifted.csv"
    assert main(["speed", "regain2speed", "--sequence", str(seq_csv),
                 "--limit", "1/2^0", "--out", str(out_csv)]) == 0
    assert json.loads(capsys.readouterr().out)["regaining_indices"] == []
    # on 1 - 4**-n every index but 0 regains, each with its shifted ratio
    quarter_csv = tmp_path / "quarter.csv"
    write_sequence_csv([Dyadic(1) - pow2(-2 * n) for n in range(12)], str(quarter_csv))
    assert main(["speed", "regain2speed", "--sequence", str(quarter_csv),
                 "--limit", "1/2^0", "--out", str(out_csv)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regaining_indices"] == list(range(1, 12))
    assert sorted(out["ratios"], key=int) == [str(n) for n in range(1, 11)]
    shifted = read_sequence_csv(str(out_csv))
    assert shifted[0] == Dyadic(-1)

    assert main(["speed", "speed2regain", "--affine", "2", "0",
                 "--rho", "1/2^2", "--n-max", "8"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["k"] == 2 and out["m"] == 4
    assert out["g"] == [n // 2 for n in range(9)]

    # 1 - x_n = 2**-n is not strictly below 2**-n: no index regains
    assert main(["speed", "certify", "--sequence", str(seq_csv),
                 "--limit", "1/2^0", "--affine", "1", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["indices"] == []
    assert main(["speed", "certify", "--sequence", str(seq_csv),
                 "--limit", "1/2^0", "--affine", "0", "0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["indices"] == list(range(1, 12))


def test_speed2regain_rejects_negative_n_max(capsys):
    # -3 exited 0 with empty g and h lists before the check; past the
    # search budget, listing g never ended
    for n_max in (-3, SEARCH_BUDGET + 1):
        assert main(["speed", "speed2regain", "--affine", "2", "0",
                     "--rho", "1/2^2", "--n-max", str(n_max)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("error: --n-max") and "\n" not in err


def test_speed2regain_incomplete_listing_exits_three(capsys):
    # g(n) = n for the identity modulus, so g(SEARCH_BUDGET) exhausts the
    # budget while g and h are listed, after speed_to_regain has returned
    assert main(["speed", "speed2regain", "--affine", "1", "0", "--rho", "1/2^2",
                 "--n-max", str(SEARCH_BUDGET)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "incomplete": f"g evaluation: no result within evaluation budget {SEARCH_BUDGET}",
        "budget": SEARCH_BUDGET,
    }
    assert "Traceback" not in captured.err


def test_speed_precondition_surfaces(tmp_path):
    seq_csv = tmp_path / "flat.csv"
    write_sequence_csv([Dyadic(0), Dyadic(0)], str(seq_csv))
    assert main(["speed", "indices", "--sequence", str(seq_csv),
                 "--limit", "1/2^0", "--rho", "1/2^1"]) == 2
    assert main(["speed", "certify", "--sequence", str(seq_csv),
                 "--limit", "1/2^0"]) == 2  # no modulus given


def _dot_with_nested_region_scan(trace):
    """The DOT export as it was first written, scanning every region against
    every node; kept as an independent reference."""
    from injurybench.strings import region_contains

    settle_counts = {}
    nodes = {}
    for rec in trace.stages:
        settle_counts[rec.settled] = settle_counts.get(rec.settled, 0) + 1
        for node in rec.applied:
            nodes.setdefault(node, None)
    last_init = {}
    for rec in trace.stages:
        for anchor, rel in rec.init_regions:
            for node in nodes:
                if region_contains(anchor, rel, node):
                    last_init[node] = rec.t
    lines = ["digraph strategies {", '  node [shape=box];']
    for node in nodes:
        label = node if node else "λ"
        notes = [f"settles={settle_counts.get(node, 0)}"]
        if node in last_init:
            notes.append(f"last_init={last_init[node]}")
        lines.append(f'  "{label}" [label="{label}\\n{" ".join(notes)}"];')
    for node in nodes:
        if node:
            parent = node[:-1] if node[:-1] else "λ"
            lines.append(f'  "{parent}" -> "{node}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_export_dot_matches_nested_region_scan(tmp_path, capsys):
    out = tmp_path / "a60"
    assert main(["run", "--engine", "A", "--stages", "60", "--out", str(out)]) == 0
    dot = tmp_path / "tree.dot"
    assert main(["export", str(out / "trace.jsonl"),
                 "--format", "dot", "--out", str(dot)]) == 0
    text = dot.read_text(encoding="utf-8")
    assert "last_init=" in text
    trace = deserialize((out / "trace.jsonl").read_bytes())
    assert text == _dot_with_nested_region_scan(trace)


@pytest.fixture(scope="module")
def default_a60(tmp_path_factory):
    out = tmp_path_factory.mktemp("a60")
    assert main(["run", "--engine", "A", "--stages", "60", "--out", str(out)]) == 0
    return (out / "trace.jsonl").read_bytes()


def _tamper_config(header, records):
    header["phi_config"]["slots"][0] = {"index": 0, "kind": "diverge"}


def _unknown_param_field(header, records):
    records[0]["param_writes"].append(["1", "q", 5])


def _list_action_kind(header, records):
    records[5]["action"]["kind"] = []


def _unknown_engine(header, records):
    header["engine"] = "C"


def _unknown_version(header, records):
    header["version"] = 2


def _float_write_value(header, records):
    assert records[1]["param_writes"] == [["", "s", 1]]
    records[1]["param_writes"][0][2] = 1.5


def _first_positive_jump(records):
    return next(rec["jump"] for rec in records if rec["jump"]["m"] != "0")


def _huge_jump_exponent(header, records):
    _first_positive_jump(records)["k"] = 2**70


def _negative_jump_exponent(header, records):
    _first_positive_jump(records)["k"] = -2**70


def _float_horizon(header, records):
    header["T"] = 60.0


@pytest.mark.parametrize("mutate", [
    _tamper_config, _unknown_param_field, _list_action_kind, _unknown_engine,
    _unknown_version, _float_write_value, _huge_jump_exponent, _negative_jump_exponent,
    _float_horizon,
], ids=lambda fn: fn.__name__.lstrip("_"))
def test_verify_rejects_bad_header_or_field_with_exit_two(default_a60, tmp_path, capsys, mutate):
    # each mutant verified with exit 1 or 3 before the loader checked it
    head, *rest = default_a60.decode().rstrip("\n").split("\n")
    header = json.loads(head)
    records = [json.loads(line) for line in rest]
    mutate(header, records)
    lines = [json.dumps(obj, sort_keys=True, separators=(",", ":"))
             for obj in [header, *records]]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: line ") and "\n" not in err


def _verify_under_memory_limit(bad, tmp_path):
    """Run ``verify`` on a trace file in a subprocess limited to 1.5 GiB of
    address space; return the completed process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import injurybench

    limit = 1536 << 20
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from injurybench.cli import main\n"
        f"sys.exit(main(['verify', {str(bad)!r}, '--report', {str(tmp_path / 'r.json')!r}]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(injurybench.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)


def test_verify_of_huge_witness_stays_bounded(default_a60, tmp_path):
    # stage 40 tops out at depth 40; as a threat jump its witness is
    # nu(sigma) + 42 > 2**40, and comparing a sum against 2**-w once shifted
    # a mantissa by w bits (MemoryError under this address-space limit)
    head, *rest = default_a60.decode().rstrip("\n").split("\n")
    rec = json.loads(rest[40])
    assert rec["t"] == 40 and len(rec["settled"]) == 40
    rec["action"] = {"kind": "threat_jump", "sigma": rec["settled"], "exponent": 1}
    rec["jump"] = {"m": "1", "k": 1}
    rest[40] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([head, *rest]) + "\n", encoding="utf-8")
    result = _verify_under_memory_limit(bad, tmp_path)
    assert result.returncode == 1, result.stderr[-2000:]
    assert "Traceback" not in result.stderr
    assert "jump_sums: fail" in result.stderr.splitlines()


def test_verify_of_huge_restraint_stays_bounded(default_a60, tmp_path):
    # a restraint of 2**70 once made requirement_p append one pass finding
    # per n up to about 2**70; r read at stage t is at most t, so it is one
    # fail finding now
    head, *rest = default_a60.decode().rstrip("\n").split("\n")
    rec = json.loads(rest[40])
    assert rec["t"] == 40 and rec["param_writes"][0] == ["", "r", 31]
    rec["param_writes"][0][2] = 2**70
    rest[40] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([head, *rest]) + "\n", encoding="utf-8")
    result = _verify_under_memory_limit(bad, tmp_path)
    assert result.returncode == 1, result.stderr[-2000:]
    assert "Traceback" not in result.stderr
    assert "requirement_p[0]: fail" in result.stderr.splitlines()
    reports = {r["check"]: r for r in json.loads((tmp_path / "r.json").read_text())}
    assert reports["requirement_p[0]"]["witnesses"] == [
        {"status": "fail", "law": "r<=t", "e": 0, "t": 41, "value": 2**70, "bound": 41},
    ]


@pytest.fixture(scope="module")
def default_b60(tmp_path_factory):
    out = tmp_path_factory.mktemp("b60")
    assert main(["run", "--engine", "B", "--stages", "60", "--out", str(out)]) == 0
    return (out / "trace.jsonl").read_bytes()


@pytest.mark.parametrize("t, write, law, first_t, bound", [
    (16, ["", "r", 5], "r<=t", 17, 17),
    (15, ["", "w", 8], "w<=nu(sigma)+t+2", 16, 18),
], ids=["restraint", "witness"])
def test_verify_of_huge_gap_bound_exponent_stays_bounded(default_b60, tmp_path, t, write,
                                                          law, first_t, bound):
    # the witness-sum gap bound once added 2**(-r + 1) to the witness sum
    # with r or w = 2**70, aligning mantissas by 2**70 bits (OverflowError);
    # both are compared with their bounds first now
    head, *rest = default_b60.decode().rstrip("\n").split("\n")
    rec = json.loads(rest[t])
    assert rec["t"] == t and rec["param_writes"][1] == write
    rec["param_writes"][1][2] = 2**70
    rest[t] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([head, *rest]) + "\n", encoding="utf-8")
    result = _verify_under_memory_limit(bad, tmp_path)
    assert result.returncode == 1, result.stderr[-2000:]
    assert "Traceback" not in result.stderr
    assert "expansion_gap: fail" in result.stderr.splitlines()
    reports = {r["check"]: r for r in json.loads((tmp_path / "r.json").read_text())}
    assert reports["expansion_gap"]["witnesses"] == [
        {"status": "fail", "law": law, "sigma": "", "t": first_t, "value": 2**70,
         "bound": bound},
    ]


def test_run_writes_digest_of_unstamped_trace(tmp_path, capsys):
    out = tmp_path / "b40"
    assert main(["run", "--engine", "B", "--stages", "40", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    data = (out / "trace.jsonl").read_bytes()
    header = json.loads(data.split(b"\n", 1)[0])
    trace = deserialize(data)
    assert printed == trace.digest()
    assert data == serialize_stamped(trace, header["created_at"])[0]


def _partial_graph(value):
    return {"slots": [{"index": 0, "kind": "partial", "graph": {"0": value}}]}


@pytest.mark.parametrize("config", [
    [1, 2],
    {"slots": [{"kind": "identity"}]},
    _partial_graph(-1),
    {"slots": [{"index": 0, "kind": "program", "total_increasing": True,
                "code": [["dec", 0, 1, 2], ["inc", "x", 1], ["halt"]]}]},
    {"slots": [{"index": -2, "kind": "identity"}]},
], ids=["top_level_list", "no_index", "negative_graph_value", "register_operand",
        "negative_index"])
def test_run_rejects_invalid_config_with_exit_two(tmp_path, capsys, config):
    # before validation these exited 1 with a traceback, or ran and verified
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["run", "--engine", "A", "--stages", "20",
                 "--phi-config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    assert not (tmp_path / "out").exists()


def test_verify_rejects_invalid_config_with_matching_digest(default_a60, tmp_path, capsys):
    from injurybench.phi import config_digest

    head, rest = default_a60.decode().split("\n", 1)
    header = json.loads(head)
    header["phi_config"] = _partial_graph(-1)
    header["phi_config_digest"] = config_digest(header["phi_config"])
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(header) + "\n" + rest, encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: slot 0: ") and "\n" not in err
