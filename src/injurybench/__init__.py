"""Stage constructions of left-computable reals with verifiable exact traces.

The package runs two deterministic infinite-injury-style constructions to a
finite horizon over a configured family of partial functions, records
complete exact-arithmetic traces, checks the construction's invariants and
requirement certificates mechanically, and provides the constructive
transforms between the speedup, regaining and near-computability notions
for finite sequences.
"""

from .dyadic import Dyadic, pow2
from .phi import DEFAULT_CONFIG, PhiRegistry, registry_from_config
from .tracekit import Trace, deserialize, serialize
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "Dyadic",
    "pow2",
    "PhiRegistry",
    "DEFAULT_CONFIG",
    "registry_from_config",
    "Trace",
    "serialize",
    "deserialize",
    "run_checks",
    "__version__",
]
