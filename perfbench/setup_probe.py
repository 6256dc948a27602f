"""Set-up cost one CLI invocation pays, measured in a fresh process.

Usage: python3 perfbench/setup_probe.py CONFIG_JSON

Times importing the command-line module (which loads the whole package) and
building the registry from CONFIG_JSON (``null`` for the default family),
and prints [seconds, reference seconds] (see speedprobe.py).  Only the
stdlib clock and the speed probe are loaded before the clock starts.
"""

import sys
from time import perf_counter

from speedprobe import SpeedProbe

# set-up is short, so probe often enough to get a few samples
PROBE_INTERVAL_S = 0.004


def main(argv):
    with SpeedProbe(PROBE_INTERVAL_S) as probe:
        t0 = perf_counter()
        import injurybench.cli  # noqa: F401
        from injurybench.phi import DEFAULT_CONFIG, registry_from_config
        import json  # already loaded by the CLI module

        config = json.loads(argv[1])
        registry_from_config(DEFAULT_CONFIG if config is None else config)
        dt = perf_counter() - t0 - probe.spent
    print(json.dumps([dt, dt * probe.scale()]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
