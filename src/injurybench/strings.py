"""Binary-word combinatorics: orders, initialisation regions, numbering,
pairing, true-path estimates.

Words over {0,1} are plain Python strings of ``'0'``/``'1'`` characters; the
empty word (written lambda in the human-readable output) is ``""``.  The
strict "lexicographically smaller" order used throughout is the tree order:
``sigma <_L tau`` iff some common prefix continues with 0 in ``sigma`` and
with 1 in ``tau``.  Two distinct words are incomparable under it exactly
when one is a proper prefix of the other.

Python's native ``str`` order agrees with the tree order on binary words,
except that it also puts a proper prefix first.  So, for words over {0,1}
only (callers must not pass other characters; the trace loader rejects
them):

* ``sigma <_L tau``  iff  ``sigma < tau and not tau.startswith(sigma)``;
* ``sigma <_L tau`` or sigma is a proper prefix of tau  iff  ``sigma < tau``.

The order and the initialisation regions built on it are therefore one or
two C-level comparisons, not a loop over characters.

An initialisation region is the symbolic set of strategies a stage resets:
an anchor word plus a relation, either everything strictly lex-right of the
anchor (``lex_gt``) or that plus every proper extension of the anchor
(``lex_gt_or_ext``).
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt
from typing import NamedTuple

__all__ = [
    "BinStr",
    "REL_LEX",
    "REL_LEX_OR_EXT",
    "TruePathEstimate",
    "lex_less",
    "region_contains",
    "region_covers_right_of",
    "nu",
    "nu_inv",
    "cantor_pair",
    "cantor_unpair",
    "pair",
    "unpair",
    "true_path_estimate",
]

BinStr = str


def lex_less(sigma: BinStr, tau: BinStr) -> bool:
    """The tree order: true iff some rho has rho0 a prefix of sigma and rho1 of tau.

    Binary words only: native order minus the prefix case (module docstring).
    """
    return sigma < tau and not tau.startswith(sigma)


# Initialisation region relations (module docstring).
REL_LEX = "lex_gt"
REL_LEX_OR_EXT = "lex_gt_or_ext"


def region_contains(anchor: BinStr, rel: str, sigma: BinStr) -> bool:
    """Membership of sigma in a symbolic initialisation region.

    ``lex_gt_or_ext`` holds every tau with anchor <_L tau or anchor a proper
    prefix of tau, which on binary words is native ``anchor < tau``;
    ``lex_gt`` holds anchor <_L tau, that minus the prefix case (module
    docstring).  So membership is the one expression::

        anchor < sigma and (rel == REL_LEX_OR_EXT or not sigma.startswith(anchor))

    written inline rather than through :func:`lex_less`, because the naive
    replay oracle asks it hundreds of thousands of times.
    """
    return anchor < sigma and (rel == REL_LEX_OR_EXT or not sigma.startswith(anchor))


def region_covers_right_of(anchor: BinStr, rel: str, sigma: BinStr) -> bool:
    """True iff the region contains every tau with sigma <_L tau or sigma a
    proper prefix of tau (the set a completed threat must wipe).

    For ``lex_gt_or_ext`` that is anchor <_L sigma or anchor a prefix of
    sigma, native ``anchor <= sigma`` on binary words.
    """
    if rel == REL_LEX_OR_EXT:
        return anchor <= sigma
    return lex_less(anchor, sigma)


def nu(sigma: BinStr) -> int:
    """Position of sigma in the length-lexicographic enumeration of all words.

    The enumeration starts "", "0", "1", "00", "01", ...; so
    nu(sigma) = 2**len(sigma) - 1 + <binary value of sigma>.
    """
    return (1 << len(sigma)) - 1 + (int(sigma, 2) if sigma else 0)


def nu_inv(n: int) -> BinStr:
    """Inverse of :func:`nu`."""
    if n < 0:
        raise ValueError("nu_inv needs a natural number")
    length = (n + 1).bit_length() - 1
    if length == 0:
        return ""
    return format(n - ((1 << length) - 1), f"0{length}b")


def cantor_pair(m: int, n: int) -> int:
    """Cantor's pairing (m + n)(m + n + 1)/2 + n."""
    return (m + n) * (m + n + 1) // 2 + n


def cantor_unpair(z: int) -> tuple[int, int]:
    """Inverse of :func:`cantor_pair`."""
    if z < 0:
        raise ValueError("cantor_unpair needs a natural number")
    w = (isqrt(8 * z + 1) - 1) // 2
    n = z - w * (w + 1) // 2
    return w - n, n


def pair(sigma: BinStr, n: int) -> int:
    """The word/number pairing cantor_pair(nu(sigma), n)."""
    return cantor_pair(nu(sigma), n)


def unpair(code: int) -> tuple[BinStr, int]:
    """Inverse of :func:`pair`."""
    m, n = cantor_unpair(code)
    return nu_inv(m), n


class TruePathEstimate(NamedTuple):
    """Finite-horizon surrogate for the limsup path of a settlement sequence.

    ``path`` is the estimated prefix, never longer than the longest
    settlement observed in the window.  ``stable_upto`` is the length of the
    longest initial segment along which the chosen bit beat the other bit's
    count by at least the threshold; bits past that point are best guesses.
    """

    path: BinStr
    stable_upto: int
    window: tuple[int, int]


def true_path_estimate(
    settlements: list[BinStr],
    window: tuple[int, int] | None = None,
    threshold: int = 3,
) -> TruePathEstimate:
    """Estimate the true path of a settlement sequence by windowed counting.

    Bit e+1 of the estimate is 0 iff the current prefix extended by 0
    prefixes at least ``threshold`` of the settlements in the half-open
    window, else 1 (matching the limsup convention that starves bits
    default to 1).  ``window`` defaults to the second half of the run.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if window is None:
        window = (len(settlements) // 2, len(settlements))
    lo, hi = window
    if not (0 <= lo < hi <= len(settlements)):
        raise ValueError(f"empty or out-of-range window {window}")

    observed = sorted(settlements[lo:hi])

    def extending(p: BinStr) -> int:
        # words are binary, so those extending p form the sorted range [p, p + "2")
        return bisect_left(observed, p + "2") - bisect_left(observed, p)

    max_len = max(len(s) for s in observed)
    path = ""
    stable = 0
    stable_run = True
    for _ in range(max_len):
        zeros, ones = extending(path + "0"), extending(path + "1")
        if zeros >= threshold:
            bit, chosen, other = "0", zeros, ones
        else:
            bit, chosen, other = "1", ones, zeros
        path += bit
        if stable_run and chosen - other >= threshold:
            stable = len(path)
        else:
            stable_run = False
    return TruePathEstimate(path=path, stable_upto=stable, window=window)
