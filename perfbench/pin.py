"""Record the digests every workload must reproduce, into pins.json.

Usage, from the root of a checkout:  python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload once per horizon offset (see workloads.py) with the
uninstrumented worker and stores, per part, the digests of the canonical
trace, the sequence CSV, the verify report and exit code, and the
cross-check read log.  Re-pin only when a change is meant to alter traces or
reports, and say why in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HERE, Budget, _worker
from workloads import DELTAS, WORKLOADS, parts_for


def main(argv: list[str]) -> int:
    root = Path.cwd()
    path = HERE / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in argv[1:] or sorted(WORKLOADS):
        pins[workload] = {}
        for delta in DELTAS:
            spec = {"parts": parts_for(workload, delta), "trace": False, "probe": False, "batch_s": 0,
                    "out_dir": str(root / ".perfbench_out" / workload)}
            res = _worker(spec, root, Budget())
            if res["failed"]:
                print(f"{workload} delta {delta}: {res['errors']}", file=sys.stderr)
                return 1
            pins[workload][str(delta)] = res["digests"]
            print(f"{workload} delta {delta}: pinned", file=sys.stderr)
    shutil.rmtree(root / ".perfbench_out", ignore_errors=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
