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

Every threat and expansion test of the constructions, and most tail bounds
of the checkers, ask whether a difference of two approximation values lies
below one power of two: x_a - x_b < 2**-e.  :func:`gap_cmp` decides that in
integers, with no ``Dyadic`` built.  It aligns the two mantissas at the
larger exponent, the same shift a subtraction does, and then compares the
difference with the threshold by bit length first.  The power of two itself
is shifted into existence only when it lies within one bit of the
difference's width, so an exponent e as far out as 2**70 in either
direction allocates nothing by it.

The engine and the naive replay oracle both call :func:`gap_cmp`, so
their agreement cannot test it; ``test_dyadic`` checks it against the
plain form ``(x[a] - x[b]) < pow2(-e)`` in ordinary dyadic arithmetic.
"""

from __future__ import annotations

import re

__all__ = [
    "Dyadic",
    "ZERO",
    "MAX_EXPONENT",
    "pow2",
    "gap_cmp",
]

_TEXT_RE = re.compile(r"^(-?\d+)/2\^(\d+)$")

# The largest exponent k read from user input: a "m/2^k" literal (--limit,
# --rho) or a sequence CSV cell.  A sum aligns both mantissas to the larger
# exponent, so an unbounded k lets one input claim any amount of memory;
# at 2**24 an aligned mantissa takes 2 MiB.  A run of T stages writes
# exponents of at most T, and regain2speed adds at most the row count, so
# every CSV the command line writes for T < 2**24 stays under the cap.
MAX_EXPONENT = 1 << 24


class Dyadic:
    """A rational of the form ``m / 2**k``, kept canonical and immutable.

    Supports exact addition, subtraction, multiplication, negation and
    total-order comparison.  Division is deliberately absent: quotients of
    dyadics are not dyadic in general, and the callers that need ratios
    compare via cross-multiplication instead.
    """

    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int = 0):
        if k > 0 and m:
            if not m & 1:
                shift = min(k, (m & -m).bit_length() - 1)
                m >>= shift
                k -= shift
        elif k < 0:
            # normalise 2**j for positive j into the mantissa
            m <<= -k
            k = 0
        else:
            k = 0
        # the slot descriptors store past the raising __setattr__
        _set_m(self, m)
        _set_k(self, k)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Dyadic":
        """Parse the textual form ``"m/2^k"`` (e.g. ``"3/2^2"`` for 3/4), with
        k at most :data:`MAX_EXPONENT`."""
        match = _TEXT_RE.match(text.strip())
        if not match:
            raise ValueError(f"not a dyadic literal: {text!r}")
        k = int(match.group(2))
        if k > MAX_EXPONENT:
            raise ValueError(f"exponent of {text!r} exceeds {MAX_EXPONENT}")
        return cls(int(match.group(1)), k)

    @classmethod
    def from_json(cls, obj: dict) -> "Dyadic":
        """Parse the JSON object form ``{"m": "<int>", "k": <int>}``, in the
        one encoding :meth:`to_json` writes for its value.

        ``k`` must be a non-negative JSON integer, not ``true``, ``1.0`` or
        -1 (a negative k would shift m left by |k| bits).  The object must
        then equal the canonical form's own JSON: no other key, m written in
        plain decimal (not ``" 1"``, ``"+1"``, ``"0_1"`` or ``"01"``), m odd
        or k 0, and zero as ``{"m": "0", "k": 0}``.  So one value has one
        encoding, and a dyadic re-serialises to the same JSON object.
        """
        try:
            m, k = int(obj["m"]), obj["k"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"not a dyadic JSON object: {obj!r}") from exc
        if type(k) is not int or k < 0:
            raise ValueError(f"not a dyadic JSON object: {obj!r}")
        value = cls(m, k)
        if value.to_json() != obj:
            raise ValueError(f"not the canonical dyadic JSON object: {obj!r}")
        return value

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


_set_m = Dyadic.m.__set__
_set_k = Dyadic.k.__set__

ZERO = Dyadic(0)


def pow2(k: int) -> Dyadic:
    """The exact power 2**k, for any (possibly negative) integer k."""
    if k >= 0:
        return Dyadic(1 << k, 0)
    return Dyadic(1, -k)


def gap_cmp(hi: Dyadic, lo: Dyadic, e: int) -> int:
    """-1, 0 or 1 as hi - lo is below, equal to or above 2**-e.

    With both mantissas aligned at k = max(hi.k, lo.k), the test is
    d = hi.m * 2**(k - hi.k) - lo.m * 2**(k - lo.k) against 2**(k - e).
    A d <= 0 lies below the positive threshold.  Otherwise d lies in
    [2**(n - 1), 2**n) with n = bit_length(d), so s = k - e decides unless
    s == n - 1, where d equals the threshold exactly when it is 1 << s.
    """
    k = hi.k if hi.k >= lo.k else lo.k
    d = (hi.m << (k - hi.k)) - (lo.m << (k - lo.k))
    if d <= 0:
        return -1
    s = k - e
    n = d.bit_length()
    if s >= n:
        return -1
    if s < n - 1:
        return 1
    return 0 if d == 1 << s else 1
