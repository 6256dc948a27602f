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

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import Dyadic, pow2

__all__ = [
    "ApproxSequence",
    "ModulusFn",
    "IncompleteSearch",
    "SpeedToRegain",
    "speedup_indices",
    "speed_ratio",
    "regain_to_speed",
    "speed_to_regain",
    "certify_regaining",
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


def _checked_limit(seq: ApproxSequence, *, strict: bool = False) -> Dyadic:
    """The sequence's known limit, refused unless it bounds every term, so
    that no limit - x_n is negative; ``strict`` also refuses a term equal to
    it.  Each detector and transform checks it once, before any ratio."""
    x = seq.require_limit()
    for v in seq.values:
        if x < v or (strict and x == v):
            raise ValueError("known limit must dominate every term" if strict
                             else "known limit lies below a term")
    return x


def speed_ratio(seq: ApproxSequence, n: int) -> Fraction:
    """Exact ratio (x_{n+1} - x_n) / (limit - x_n) for reporting."""
    x = seq.require_limit()
    num = seq.values[n + 1] - seq.values[n]
    den = x - seq.values[n]
    return Fraction(num.m * (1 << den.k), den.m * (1 << num.k))


def speedup_indices(seq: ApproxSequence, rho: Dyadic) -> list[int]:
    """Indices n where one step covers at least a rho-fraction of what
    remains: x_{n+1} - x_n >= rho * (limit - x_n).

    Requires an increasing sequence strictly below its known limit.
    """
    if not (Dyadic(0) < rho < Dyadic(1)):
        raise ValueError("rho must lie strictly between 0 and 1")
    if not seq.is_increasing():
        raise ValueError("speedup detection needs an increasing sequence")
    x = _checked_limit(seq, strict=True)
    v = seq.values
    return [n for n in range(len(v) - 1) if v[n + 1] - v[n] >= rho * (x - v[n])]


def certify_regaining(seq: ApproxSequence, h: ModulusFn) -> list[int]:
    """Indices n with limit - x_n < 2**-h(n), by exact comparison.

    The test is strict, as in the paper's characterisation of computable
    left-computable numbers (x - x_s(n) < 2**-n); with h(n) = n these are
    the indices at which :func:`regain_to_speed` covers more than a quarter
    of what remains.
    """
    x = _checked_limit(seq)
    return [
        n for n in range(len(seq.values))
        if (x - seq.values[n]) < pow2(-h(n))
    ]


# ---------------------------------------------------------------------------
# Transforms


def regain_to_speed(seq: ApproxSequence) -> ApproxSequence:
    """Shift a non-decreasing approximation down by 2**-n to make it
    increasing with the same limit; at every regaining index the shifted
    sequence covers more than a quarter of what remains."""
    if not seq.is_non_decreasing():
        raise ValueError("transform needs a non-decreasing sequence")
    if seq.known_limit is not None:
        _checked_limit(seq)
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


def _derive_g(f: ModulusFn) -> ModulusFn:
    """g(n) = 0 below f(0), else max{k : f(k) <= n}.

    f is non-decreasing, so {k : f(k) <= n} is an initial segment that grows
    with n, and g is non-decreasing: the search for g(n) resumes at g(n')
    for the last searched n' when n' <= n, and at 0 otherwise.  The search
    for m and the CLI listing ask in ascending order, so listing g(0..N)
    costs O(N + g(N)) evaluations of f rather than O(N * g(N)).
    """
    last_n = last_g = 0  # the last searched argument and g at it

    def g_eval(n: int) -> int:
        nonlocal last_n, last_g
        if f(0) > n:
            return 0
        k = last_g if n >= last_n else 0
        while k + 1 <= SEARCH_BUDGET and f(k + 1) <= n:
            k += 1
        if k + 1 > SEARCH_BUDGET:
            raise IncompleteSearch("g evaluation", SEARCH_BUDGET)
        last_n, last_g = n, k
        return k

    return ModulusFn(g_eval, name="g")


def speed_to_regain(f: ModulusFn, rho: Dyadic) -> SpeedToRegain:
    """From a gap modulus and a speedup constant to a regaining modulus.

    g(n) is 0 below f(0) and otherwise the largest k with f(k) <= n; k is
    minimal with 1/rho <= 2**k; h(n) = max(0, g(n) - k); and m is the least
    i >= f(0) with g(i) >= k.  Searches are budgeted: a modulus that grows
    too slowly to decide within ``SEARCH_BUDGET`` raises IncompleteSearch.
    """
    if not (Dyadic(0) < rho < Dyadic(1)):
        raise ValueError("rho must lie strictly between 0 and 1")

    g = _derive_g(f)

    # rho = m / 2**e with 2**(b-1) <= m < 2**b for b = m.bit_length(), so
    # 2**k * rho >= 1 first holds at k = e - b + 1 (>= 1, as m < 2**e)
    k = rho.k - rho.m.bit_length() + 1

    h = ModulusFn(lambda n: max(0, g(n) - k), name="h")

    m = None
    i = f(0)
    while i <= f(0) + SEARCH_BUDGET:
        if g(i) >= k:
            m = i
            break
        i += 1
    if m is None:
        raise IncompleteSearch("search for m", SEARCH_BUDGET)
    return SpeedToRegain(g=g, k=k, h=h, m=m)

