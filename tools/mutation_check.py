"""Run the kept mutation checks: every mutant in the table must fail its tests.

Each row of the table, ``tools/mutants.json``, names a file of the
repository, an exact source snippet that occurs in it once, the replacement
that makes the mutant, and the pytest ids that must catch it.
The script first runs every named test on an unchanged copy of the tree,
where each must pass.  Then, for each row, it applies the mutant to a fresh
copy of the tree in a temporary directory and runs only that row's tests.
It exits 1 if a snippet no longer occurs exactly once, if a named test
fails on the unchanged tree or cannot be collected, or if a mutant survives
(its tests all pass), and 0 when every mutant is caught.  The working tree
is never written.

    python3 tools/mutation_check.py

Only the standard library is needed to run it, and pytest and hypothesis to
run the tests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# what a test run reads: the package, the tests and the benchmark files
# that tier-1 tests load
COPIED = ("src", "tests", "perfbench", "pyproject.toml", "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
TABLE = ROOT / "tools" / "mutants.json"


def load_table() -> list[dict]:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    for row in rows:
        missing = {"name", "file", "snippet", "replacement", "tests"} - set(row)
        if missing:
            raise ValueError(f"mutant {row.get('name')!r} lacks {sorted(missing)}")
        if row["snippet"] == row["replacement"] or not row["tests"]:
            raise ValueError(f"mutant {row['name']!r} changes nothing or names no test")
    return rows


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORED)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tree: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )


def mutated(tree: Path, row: dict) -> str:
    """The text of the row's file in the tree with the mutant applied;
    ValueError if the snippet does not occur there exactly once."""
    path = tree / row["file"]
    if not path.is_file():
        raise ValueError(f"no file {row['file']}")
    text = path.read_text(encoding="utf-8")
    count = text.count(row["snippet"])
    if count != 1:
        raise ValueError(f"snippet occurs {count} times in {row['file']}")
    return text.replace(row["snippet"], row["replacement"])


def main() -> int:
    rows = load_table()
    faults = []
    with tempfile.TemporaryDirectory(prefix="mutation-check-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        tests = sorted({test for row in rows for test in row["tests"]})
        proc = run_tests(base, tests)
        if proc.returncode != 0:
            print(proc.stdout[-3000:], proc.stderr[-2000:], sep="\n")
            print("FAULT: the named tests do not all pass on the unchanged tree")
            return 1
        for i, row in enumerate(rows):
            tree = Path(tmp) / f"mutant-{i}"
            copy_tree(tree)
            try:
                (tree / row["file"]).write_text(mutated(tree, row), encoding="utf-8")
            except ValueError as exc:
                fault = str(exc)
            else:
                code = run_tests(tree, row["tests"]).returncode
                # pytest exits 1 exactly when tests ran and some failed
                fault = {0: "survived", 1: None}.get(code, f"pytest exited {code}")
            shutil.rmtree(tree)
            print(f"{row['name']}: {'caught' if fault is None else fault}", flush=True)
            if fault is not None:
                faults.append(row["name"])
    if faults:
        print(f"FAULT: {len(faults)} of {len(rows)} mutants not caught: {', '.join(faults)}")
        return 1
    print(f"all {len(rows)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
