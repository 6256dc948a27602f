"""Exact arithmetic on dyadic rationals (integers divided by powers of two).

Every quantity the stage constructions produce -- the approximation values
x_t, the jump sizes 2**-w, the restraint bounds 2**-r -- is a finite sum of
signed powers of two.  Keeping them as exact dyadics means every predicate
comparison and every jump-sum identity can be checked with zero tolerance;
no epsilon appears anywhere in this package.

A value is stored as ``m / 2**k`` with an arbitrary-precision integer
mantissa ``m`` and a non-negative exponent ``k``.  The canonical form keeps
the fraction in lowest terms (``m`` odd, or ``k == 0``) and normalises zero
to ``(0, 0)``.  Negative values are allowed: the sequence transforms of the
speed module subtract powers of two from values starting at zero.
"""

from __future__ import annotations

import re

__all__ = [
    "Dyadic",
    "ZERO",
    "ONE",
    "pow2",
]

_TEXT_RE = re.compile(r"^(-?\d+)/2\^(\d+)$")


class Dyadic:
    """A rational of the form ``m / 2**k``, kept canonical and immutable.

    Supports exact addition, subtraction, multiplication, negation and
    total-order comparison.  Division is deliberately absent: quotients of
    dyadics are not dyadic in general, and the callers that need ratios
    compare via cross-multiplication instead.
    """

    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int = 0):
        if k < 0:
            # normalise 2**j for positive j into the mantissa
            m <<= -k
            k = 0
        if m == 0:
            k = 0
        elif k > 0:
            shift = min(k, (m & -m).bit_length() - 1)
            m >>= shift
            k -= shift
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Dyadic":
        """Parse the textual form ``"m/2^k"`` (e.g. ``"3/2^2"`` for 3/4)."""
        match = _TEXT_RE.match(text.strip())
        if not match:
            raise ValueError(f"not a dyadic literal: {text!r}")
        return cls(int(match.group(1)), int(match.group(2)))

    @classmethod
    def from_json(cls, obj: dict) -> "Dyadic":
        """Parse the JSON object form ``{"m": "<int>", "k": <int>}``; ``k``
        must be a JSON integer, not ``true`` or ``1.0``."""
        try:
            m, k = int(obj["m"]), obj["k"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"not a dyadic JSON object: {obj!r}") from exc
        if type(k) is not int:
            raise ValueError(f"not a dyadic JSON object: {obj!r}")
        return cls(m, k)

    # -- serialisation ---------------------------------------------------

    def to_json(self) -> dict:
        return {"m": str(self.m), "k": self.k}

    def __str__(self) -> str:
        return f"{self.m}/2^{self.k}"

    def __repr__(self) -> str:
        return f"Dyadic({self.m}, {self.k})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        k = max(self.k, other.k)
        return Dyadic((self.m << (k - self.k)) + (other.m << (k - other.k)), k)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        k = max(self.k, other.k)
        return Dyadic((self.m << (k - self.k)) - (other.m << (k - other.k)), k)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        if not isinstance(other, Dyadic):
            return NotImplemented
        return Dyadic(self.m * other.m, self.k + other.k)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.m, self.k)

    # -- comparison ------------------------------------------------------

    def _cmp(self, other: "Dyadic") -> int:
        """-1, 0 or 1 as self is below, equal to or above other.

        Magnitude first: a non-zero ``m / 2**k`` lies in [2**(e - 1), 2**e)
        in absolute value, with e = bit_length(m) - k.  Equal exponents,
        different signs or a zero are decided by the mantissas, different
        e by e; only operands with the same sign and e are aligned, by a
        shift no longer than a mantissa.  So the comparison never allocates
        by the gap between the exponents.
        """
        a, b = self.m, other.m
        if self.k == other.k or not a or not b or (a > 0) != (b > 0):
            return (a > b) - (a < b)
        ea = a.bit_length() - self.k
        eb = b.bit_length() - other.k
        if ea != eb:
            return 1 if (ea > eb) == (a > 0) else -1
        shift = self.k - other.k
        if shift > 0:
            b <<= shift
        else:
            a <<= -shift
        return (a > b) - (a < b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dyadic):
            return NotImplemented
        return self.m == other.m and self.k == other.k

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.m, self.k))

    def __bool__(self) -> bool:
        return self.m != 0

    # -- predicates ------------------------------------------------------

    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    def is_pow2(self) -> bool:
        """True iff the value is exactly 2**j for some integer j."""
        return self.m > 0 and self.m & (self.m - 1) == 0


ZERO = Dyadic(0)
ONE = Dyadic(1)


def pow2(k: int) -> Dyadic:
    """The exact power 2**k, for any (possibly negative) integer k."""
    if k >= 0:
        return Dyadic(1 << k, 0)
    return Dyadic(1, -k)
