"""Constructive transforms between the three approximation-quality notions.

Works over finite exact-dyadic sequences with (for the detectors) a known
limit: the true limit of an arbitrary computable sequence is itself not
computable, and substituting a late term for it would make the speedup
detector unsound, so synthetic test sequences carry their limits
explicitly.  Modulus functions travel either as closed forms or as finite
tables, because the moduli extracted from engine runs exist only as tables
at a finite horizon.

Ratios of dyadics are not dyadic; the detectors therefore compare ratios by
cross-multiplication, and the reporting helper returns exact
``fractions.Fraction`` values.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .dyadic import Dyadic, pow2

__all__ = [
    "ApproxSequence",
    "ModulusFn",
    "IncompleteSearch",
    "SpeedToRegain",
    "GapBoundReport",
    "speedup_indices",
    "speed_ratio",
    "regain_to_speed",
    "speed_to_regain",
    "certify_regaining",
    "modulus_to_gapbound",
    "SEARCH_BUDGET",
]

# Evaluation budget of every unbounded search over a modulus: the search
# for g(n) and the search for m.  ``speed speed2regain --n-max`` is capped
# by it too, since g(n) for n past it may need a longer search.
SEARCH_BUDGET = 100_000


class IncompleteSearch(Exception):
    """A search exhausted its evaluation budget before deciding."""

    def __init__(self, what: str, budget: int):
        self.what = what
        self.budget = budget
        super().__init__(f"{what}: no result within evaluation budget {budget}")


@dataclass
class ApproxSequence:
    """Finite monotone dyadic sequence, optionally with its exact limit."""

    values: list[Dyadic]
    known_limit: Dyadic | None = None
    provenance: str = ""

    def __len__(self) -> int:
        return len(self.values)

    def is_non_decreasing(self) -> bool:
        return all(a <= b for a, b in zip(self.values, self.values[1:]))

    def is_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.values, self.values[1:]))

    def require_limit(self) -> Dyadic:
        if self.known_limit is None:
            raise ValueError(f"sequence {self.provenance!r} has no known limit")
        return self.known_limit


class ModulusFn:
    """Total non-decreasing map on the naturals, closed form or table.

    Evaluations outside a table's range raise; the non-decreasing law is
    asserted against the neighbours of every evaluated point.
    """

    def __init__(self, fn, *, table_len: int | None = None, name: str = "modulus"):
        self._fn = fn
        self._table_len = table_len
        self.name = name
        self._memo: dict[int, int] = {}

    @classmethod
    def affine(cls, a: int, b: int) -> "ModulusFn":
        if a < 0 or b < 0:
            raise ValueError("affine modulus needs non-negative coefficients")
        return cls(lambda n: a * n + b, name=f"{a}n+{b}")

    @classmethod
    def from_table(cls, values: list[int]) -> "ModulusFn":
        vals = list(values)
        if any(v < 0 for v in vals):
            raise ValueError("modulus table holds a negative value")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("modulus table not non-decreasing")
        return cls(lambda n: vals[n], table_len=len(vals), name="table")

    def __call__(self, n: int) -> int:
        if n < 0:
            raise ValueError("modulus argument must be a natural number")
        if self._table_len is not None and n >= self._table_len:
            raise ValueError(f"{self.name}: argument {n} beyond table range")
        v = self._memo.get(n)
        if v is None:
            v = self._memo[n] = self._fn(n)
            left = self._memo.get(n - 1)
            right = self._memo.get(n + 1)
            if (left is not None and v < left) or (right is not None and right < v):
                raise ValueError(f"{self.name}: not non-decreasing at {n}")
        return v


# ---------------------------------------------------------------------------
# Detectors


def speed_ratio(seq: ApproxSequence, n: int) -> Fraction:
    """Exact ratio (x_{n+1} - x_n) / (limit - x_n) for reporting."""
    x = seq.require_limit()
    num = seq.values[n + 1] - seq.values[n]
    den = x - seq.values[n]
    return Fraction(num.m * (1 << den.k), den.m * (1 << num.k))


def speedup_indices(seq: ApproxSequence, rho: Dyadic) -> list[int]:
    """Indices where one step covers at least a rho-fraction of what remains.

    Requires an increasing sequence below its known limit.  The same set is
    recomputed through the complement form (remaining-tail shrinks to at
    most 1-rho) as an internal cross-check; the two characterisations agree
    identically, so any disagreement is an arithmetic bug and raises.
    """
    if not (Dyadic(0) < rho < Dyadic(1)):
        raise ValueError("rho must lie strictly between 0 and 1")
    if not seq.is_increasing():
        raise ValueError("speedup detection needs an increasing sequence")
    x = seq.require_limit()
    if not all(v < x for v in seq.values):
        raise ValueError("known limit must dominate every term")
    rho_c = Dyadic(1) - rho
    out = []
    dual = []
    for n in range(len(seq.values) - 1):
        step = seq.values[n + 1] - seq.values[n]
        rest = x - seq.values[n]
        if step >= rho * rest:
            out.append(n)
        if (x - seq.values[n + 1]) <= rho_c * rest:
            dual.append(n)
    if out != dual:
        raise AssertionError("ratio-form and complement-form sets disagree")
    return out


def certify_regaining(seq: ApproxSequence, h: ModulusFn) -> list[int]:
    """Indices n with limit - x_n <= 2**-h(n), by exact comparison."""
    x = seq.require_limit()
    return [
        n for n in range(len(seq.values))
        if (x - seq.values[n]) <= pow2(-h(n))
    ]


# ---------------------------------------------------------------------------
# Transforms


def regain_to_speed(seq: ApproxSequence) -> ApproxSequence:
    """Shift a non-decreasing approximation down by 2**-n to make it
    increasing with the same limit; at every regaining index the shifted
    sequence covers more than a quarter of what remains."""
    if not seq.is_non_decreasing():
        raise ValueError("transform needs a non-decreasing sequence")
    values = [v - pow2(-n) for n, v in enumerate(seq.values)]
    return ApproxSequence(
        values=values,
        known_limit=seq.known_limit,
        provenance=f"regain_to_speed({seq.provenance})",
    )


@dataclass
class SpeedToRegain:
    g: ModulusFn
    k: int
    h: ModulusFn
    m: int


def _derive_g(f: ModulusFn, search_limit: int) -> ModulusFn:
    """g(n) = 0 below f(0), else max{k : f(k) <= n}.

    f is non-decreasing, so {k : f(k) <= n} is an initial segment that grows
    with n, and g is non-decreasing: the search for g(n) starts at g(n') for
    the largest n' <= n already evaluated, so listing g(0..N) costs
    O(N + g(N)) evaluations of f rather than O(N * g(N)).
    """
    seen_n: list[int] = []  # searched arguments, sorted
    seen_g: list[int] = []  # g at each of them

    def g_eval(n: int) -> int:
        if f(0) > n:
            return 0
        i = bisect_right(seen_n, n)
        k = seen_g[i - 1] if i else 0
        while k + 1 <= search_limit and f(k + 1) <= n:
            k += 1
        if k + 1 > search_limit:
            raise IncompleteSearch("g evaluation", search_limit)
        seen_n.insert(i, n)
        seen_g.insert(i, k)
        return k

    return ModulusFn(g_eval, name="g")


def speed_to_regain(
    f: ModulusFn, rho: Dyadic, search_limit: int = SEARCH_BUDGET
) -> SpeedToRegain:
    """From a gap modulus and a speedup constant to a regaining modulus.

    g(n) is 0 below f(0) and otherwise the largest k with f(k) <= n; k is
    minimal with 1/rho <= 2**k; h(n) = max(0, g(n) - k); and m is the least
    i >= f(0) with g(i) >= k.  Searches are budgeted: a modulus that grows
    too slowly to decide within the budget raises IncompleteSearch.
    """
    if not (Dyadic(0) < rho < Dyadic(1)):
        raise ValueError("rho must lie strictly between 0 and 1")

    g = _derive_g(f, search_limit)

    k = 0
    while not pow2(k) * rho >= Dyadic(1):
        k += 1

    h = ModulusFn(lambda n: max(0, g(n) - k), name="h")

    m = None
    i = f(0)
    while i <= f(0) + search_limit:
        if g(i) >= k:
            m = i
            break
        i += 1
    if m is None:
        raise IncompleteSearch("search for m", search_limit)
    return SpeedToRegain(g=g, k=k, h=h, m=m)


@dataclass
class GapBoundReport:
    f0: int
    checked: list[int]
    violations: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def modulus_to_gapbound(f: ModulusFn, seq: ApproxSequence) -> GapBoundReport:
    """Check the derived gap bound x_{n+1} - x_n < 2**-g(n) for n >= f(0).

    First verifies on the evaluable range that f really is a modulus of
    convergence for the sequence (|limit - x_j| < 2**-n for j >= f(n));
    refuses with the first counterexample otherwise.
    """
    x = seq.require_limit()
    length = len(seq.values)
    n = 0
    while f(n) < length:
        for j in range(f(n), length):
            diff = x - seq.values[j]
            if diff.sign() < 0:
                diff = -diff
            if not diff < pow2(-n):
                raise ValueError(
                    f"not a modulus: |limit - x_{j}| >= 2^-{n} (f({n}) = {f(n)})"
                )
        n += 1

    g = _derive_g(f, SEARCH_BUDGET)
    checked = []
    violations = []
    for i in range(f(0), length - 1):
        checked.append(i)
        if not (seq.values[i + 1] - seq.values[i]) < pow2(-g(i)):
            violations.append(i)
    return GapBoundReport(f0=f(0), checked=checked, violations=violations)
