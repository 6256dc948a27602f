import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import injurybench
from injurybench.dyadic import MAX_EXPONENT, Dyadic, ZERO, gap_cmp, pow2

ONE = Dyadic(1)


dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=48),
)


def as_fraction(d: Dyadic) -> Fraction:
    return Fraction(d.m, 2**d.k)


def test_add_examples():
    assert ZERO + ZERO == ZERO
    assert Dyadic(1, 1) + Dyadic(1, 2) == Dyadic(3, 2)
    total = Dyadic(3, 3) + Dyadic(-1, 3)
    assert total == Dyadic(1, 2)
    assert (total.m, total.k) == (1, 2)


def test_pow2_examples():
    assert pow2(0) == ONE
    assert pow2(-3) == Dyadic(1, 3)
    assert pow2(5) == Dyadic(32, 0)


def test_cmp_examples():
    assert Dyadic(1, 1) == Dyadic(1, 1)
    assert Dyadic(1, 1) <= Dyadic(1, 1) and Dyadic(1, 1) >= Dyadic(1, 1)
    assert Dyadic(3, 3) < Dyadic(1, 1)
    assert Dyadic(7, 4) > Dyadic(3, 3)


def test_canonical_zero_and_negative():
    assert (Dyadic(0, 17).m, Dyadic(0, 17).k) == (0, 0)
    assert Dyadic(-4, 4) == Dyadic(-1, 2)
    assert (-Dyadic(1, 0)).sign() == -1


def test_text_and_json_round_trip():
    for d in (ZERO, ONE, Dyadic(-5, 3), Dyadic(12345, 17), pow2(9)):
        assert Dyadic.from_text(str(d)) == d
        assert Dyadic.from_json(d.to_json()) == d
    with pytest.raises(ValueError):
        Dyadic.from_text("1/3")
    with pytest.raises(ValueError):
        Dyadic.from_json({"m": "x", "k": 0})
    # exponents: a literal's is capped, a JSON one is never negative
    assert Dyadic.from_text(f"1/2^{MAX_EXPONENT}") == pow2(-MAX_EXPONENT)
    with pytest.raises(ValueError, match="exceeds"):
        Dyadic.from_text(f"1/2^{MAX_EXPONENT + 1}")
    with pytest.raises(ValueError):
        Dyadic.from_json({"m": "1", "k": -1})


def test_is_pow2():
    assert pow2(-7).is_pow2() and pow2(4).is_pow2()
    assert not Dyadic(3, 2).is_pow2()
    assert not ZERO.is_pow2()
    assert not Dyadic(-1, 1).is_pow2()


def test_mul():
    assert Dyadic(3, 2) * Dyadic(1, 1) == Dyadic(3, 3)
    assert Dyadic(-1, 0) * Dyadic(5, 3) == Dyadic(-5, 3)


@given(dyadics, dyadics)
def test_add_commutes_and_matches_fractions(a, b):
    total = a + b
    assert total == b + a
    assert as_fraction(total) == as_fraction(a) + as_fraction(b)


@given(dyadics, dyadics, dyadics)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(dyadics, dyadics)
def test_results_are_canonical(a, b):
    for value in (a + b, a - b, a * b):
        assert value.k == 0 or value.m % 2 == 1
        if value.m == 0:
            assert value.k == 0


@given(dyadics, dyadics)
def test_cmp_agrees_with_cross_multiplication(a, b):
    lhs = a.m * (1 << b.k)
    rhs = b.m * (1 << a.k)
    assert (a < b, a == b, a > b) == (lhs < rhs, lhs == rhs, lhs > rhs)
    assert (a <= b, a >= b) == (lhs <= rhs, lhs >= rhs)


def test_cmp_matches_fractions_exhaustively():
    # every sign, mantissa bit length and exponent gap up to the canonical
    # form's small cases, zero included
    values = sorted({Dyadic(m, k) for m in range(-17, 18) for k in range(7)},
                    key=as_fraction)
    for a in values:
        for b in values:
            fa, fb = as_fraction(a), as_fraction(b)
            assert (a < b, a <= b, a == b, a >= b, a > b) == (
                fa < fb, fa <= fb, fa == fb, fa >= fb, fa > fb), (a, b)


def test_cmp_of_far_apart_exponents_allocates_nothing_large():
    # 2**-(2**40) against 1: aligning the operands would need a 2**40-bit shift
    tiny, one = pow2(-(1 << 40)), Dyadic(1)
    assert tiny < one and one > tiny and -tiny > -one
    assert Dyadic(3, 1 << 40) < Dyadic(1, (1 << 40) - 2)
    assert ZERO < tiny and -tiny < ZERO


def test_from_json_accepts_only_the_canonical_encoding():
    for obj in ({"m": " 1", "k": 0}, {"m": "0_1", "k": 0}, {"m": "+1", "k": 0},
                {"m": "01", "k": 0}, {"m": "-0", "k": 0}, {"m": "0", "k": 5},
                {"m": "2", "k": 1}, {"m": 1, "k": 0}, {"m": "1", "k": 0, "x": 0}):
        with pytest.raises(ValueError, match="canonical"):
            Dyadic.from_json(obj)
    for obj in ({"m": "0", "k": 0}, {"m": "-3", "k": 5}, {"m": "4", "k": 0}):
        assert Dyadic.from_json(obj).to_json() == obj


# -- the canonical constructor ---------------------------------------------


@given(st.integers(min_value=-(2**70), max_value=2**70),
       st.integers(min_value=-80, max_value=80))
def test_constructor_value_and_canonical_form(m, k):
    d = Dyadic(m, k)
    assert as_fraction(d) == Fraction(m) / Fraction(2) ** k
    assert d.k >= 0
    assert d.k == 0 or d.m % 2 == 1
    if m == 0:
        assert (d.m, d.k) == (0, 0)


def test_slots_stay_immutable():
    d = Dyadic(3, 2)
    for name in ("m", "k", "other"):
        with pytest.raises(AttributeError):
            setattr(d, name, 1)
    assert (d.m, d.k) == (3, 2)


# -- gap_cmp -----------------------------------------------------------------


def sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


@given(st.integers(min_value=-(2**40), max_value=2**40),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=-(2**40), max_value=2**40),
       st.integers(min_value=0, max_value=300),
       st.integers(min_value=-40, max_value=340))
def test_gap_cmp_is_the_sign_of_the_difference_against_a_power_of_two(m1, k1, m2, k2, e):
    # exponents up to 300 apart, and e below, between and above both
    hi, lo = Dyadic(m1, k1), Dyadic(m2, k2)
    expected = sign(as_fraction(hi - lo) - as_fraction(pow2(-e)))
    assert gap_cmp(hi, lo, e) == expected
    assert ((hi - lo) < pow2(-e)) == (expected < 0)


def test_gap_cmp_boundaries():
    # 3/4 - 1/4 is exactly 1/2; just below and above it on either side
    assert gap_cmp(Dyadic(3, 2), Dyadic(1, 2), 1) == 0
    assert gap_cmp(Dyadic(3, 2), Dyadic(1, 2), 0) == -1
    assert gap_cmp(Dyadic(3, 2), Dyadic(1, 2), 2) == 1
    assert gap_cmp(Dyadic(3, 2), Dyadic(1, 1), 2) == 0
    assert gap_cmp(Dyadic(5, 3), Dyadic(1, 1), 2) == -1
    assert gap_cmp(ONE, ZERO, 0) == 0 and gap_cmp(Dyadic(4), ZERO, -2) == 0
    # a difference of zero or below is under every power of two
    assert gap_cmp(ONE, ONE, 0) == -1
    assert gap_cmp(ZERO, ONE, -5) == -1


# Hand-derived: |e| = 2**40 or 2**70, with mantissas and exponents small.
# Shifting 1 by 2**40 would take 128 GiB, so under the 1.5 GiB address
# limit of the hostile-input gate each case returns only if gap_cmp never
# builds the power of two.
FAR_CASES = [
    ("1", 0, "0", 0, 1 << 40, 1),
    ("1", 0, "0", 0, -(1 << 40), -1),
    ("1", 0, "0", 0, 1 << 70, 1),
    ("1", 0, "0", 0, -(1 << 70), -1),
    ("3", 5, "-1", 7, 1 << 70, 1),
    ("-3", 5, "1", 7, 1 << 70, -1),
    ("1", 0, "1", 0, -(1 << 70), -1),
    ("12345678901234567891", 64, "1", 64, -(1 << 40), -1),
]

FAR_RUNNER = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
from injurybench.dyadic import Dyadic, gap_cmp
print(json.dumps([gap_cmp(Dyadic(int(a), ka), Dyadic(int(b), kb), e)
                  for a, ka, b, kb, e, _ in json.loads(sys.argv[1])]))
"""


def test_gap_cmp_far_exponents_allocate_nothing_by_them():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(injurybench.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", FAR_RUNNER, json.dumps(FAR_CASES)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [want for *_, want in FAR_CASES]
