"""Stage constructions of left-computable reals with verifiable exact traces.

The package runs two deterministic infinite-injury-style constructions to a
finite horizon over a configured family of partial functions, records
complete exact-arithmetic traces, checks the construction's invariants and
requirement certificates mechanically, and provides the constructive
transforms between the speedup, regaining and near-computability notions
for finite sequences.
"""

from .dyadic import Dyadic, pow2
from .engine import run_a, run_b
from .phi import DEFAULT_CONFIG, PhiRegistry, default_registry, registry_from_config
from .tracekit import Trace, deserialize, serialize
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "Dyadic",
    "pow2",
    "run_a",
    "run_b",
    "PhiRegistry",
    "DEFAULT_CONFIG",
    "default_registry",
    "registry_from_config",
    "Trace",
    "serialize",
    "deserialize",
    "run_checks",
    "__version__",
]
