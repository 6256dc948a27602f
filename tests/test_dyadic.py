from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from injurybench.dyadic import MAX_EXPONENT, Dyadic, ZERO, ONE, pow2


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
