import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from injurybench.dyadic import Dyadic, pow2
from injurybench.speed import (
    SEARCH_BUDGET,
    ApproxSequence,
    IncompleteSearch,
    ModulusFn,
    certify_regaining,
    regain_to_speed,
    speed_ratio,
    speed_to_regain,
    speedup_indices,
)
from conftest import geometric_sequence, random_synthetic_sequence

ONE = Dyadic(1)


def quarter_powers(length):
    """x_n = 1 - 4**-n: the worked example with exact ratio 7/12 at n = 1."""
    return ApproxSequence(
        values=[ONE - pow2(-2 * n) for n in range(length)],
        known_limit=ONE,
        provenance="1-4^-n",
    )


def complement_speedup_indices(seq, rho):
    """The reference form of ``speedup_indices``: indices where the remaining
    tail shrinks to at most 1 - rho of itself,
    limit - x_{n+1} <= (1 - rho) * (limit - x_n).  It equals the ratio form
    by an identity of exact arithmetic."""
    x = seq.require_limit()
    v = seq.values
    return [n for n in range(len(v) - 1) if x - v[n + 1] <= (ONE - rho) * (x - v[n])]


def test_speedup_indices_geometric():
    seq = geometric_sequence(20)
    assert seq.is_increasing()
    # every step covers exactly half of what remains
    assert speedup_indices(seq, Dyadic(1, 1)) == list(range(19))
    assert speedup_indices(seq, Dyadic(3, 2)) == []


def test_speedup_indices_preconditions():
    seq = geometric_sequence(5)
    with pytest.raises(ValueError):
        speedup_indices(seq, Dyadic(1))
    with pytest.raises(ValueError):
        speedup_indices(ApproxSequence(values=seq.values), Dyadic(1, 1))
    flat = ApproxSequence(values=[ONE - pow2(-1)] * 3, known_limit=ONE)
    with pytest.raises(ValueError):
        speedup_indices(flat, Dyadic(1, 1))
    # the ratio needs limit - x_n > 0 at every term, the last one included
    reaching = ApproxSequence(values=seq.values, known_limit=seq.values[-1])
    with pytest.raises(ValueError, match="known limit must dominate every term"):
        speedup_indices(reaching, Dyadic(1, 1))


def test_every_verb_refuses_a_limit_below_a_term():
    # three terms of 1 under the limit 0: limit - x_n is negative
    ones = ApproxSequence(values=[ONE] * 3, known_limit=Dyadic(0))
    with pytest.raises(ValueError, match="known limit lies below a term"):
        certify_regaining(ones, ModulusFn.affine(1, 0))
    with pytest.raises(ValueError, match="known limit lies below a term"):
        regain_to_speed(ones)
    rising = ApproxSequence(values=[Dyadic(0), ONE], known_limit=Dyadic(1, 1))
    with pytest.raises(ValueError, match="known limit must dominate every term"):
        speedup_indices(rising, Dyadic(1, 1))
    # a limit equal to a term bounds it: certified, and shifted below it
    at_limit = ApproxSequence(values=[ONE] * 3, known_limit=ONE)
    assert certify_regaining(at_limit, ModulusFn.affine(1, 0)) == [0, 1, 2]
    assert speed_ratio(regain_to_speed(at_limit), 0) == Fraction(1, 2)


def test_regain_to_speed_worked_example():
    seq = quarter_powers(6)
    shifted = regain_to_speed(seq)
    assert shifted.values[1] == Dyadic(1, 2)  # 1 - 1/4 - 1/2
    assert shifted.is_increasing()
    assert speed_ratio(shifted, 1) == Fraction(7, 12)


def test_regain_to_speed_degenerate_constant():
    seq = ApproxSequence(values=[Dyadic(0)] * 5, known_limit=Dyadic(0))
    shifted = regain_to_speed(seq)
    assert shifted.values == [-pow2(-n) for n in range(5)]
    assert shifted.is_increasing()


def test_regain_to_speed_requires_monotone():
    with pytest.raises(ValueError):
        regain_to_speed(ApproxSequence(values=[ONE, Dyadic(0)]))


def test_regain_to_speed_ratio_above_quarter_everywhere_regaining():
    # at every index certify_regaining returns for h(n) = n; the guarantee
    # needs its strict test: on (0, 0) with limit 1 the shifted ratio at
    # index 0 is exactly 1/4, and index 0 is not certified
    ident = ModulusFn.affine(1, 0)
    flat = ApproxSequence(values=[Dyadic(0), Dyadic(0)], known_limit=ONE)
    assert speed_ratio(regain_to_speed(flat), 0) == Fraction(1, 4)
    assert certify_regaining(flat, ident) == []
    rng = random.Random(20260810)
    checked = 0
    for _ in range(20):
        seq = random_synthetic_sequence(rng, 24, increasing=False)
        assert seq.is_non_decreasing()
        shifted = regain_to_speed(seq)
        assert shifted.is_increasing()
        for n in certify_regaining(seq, ident):
            if n + 1 < len(shifted):
                assert speed_ratio(shifted, n) > Fraction(1, 4), n
                checked += 1
    assert checked > 0


def test_speed_to_regain_doubling_modulus():
    res = speed_to_regain(ModulusFn.affine(2, 0), Dyadic(1, 2))
    assert res.k == 2
    assert res.m == 4
    assert [res.g(n) for n in range(9)] == [n // 2 for n in range(9)]
    assert [res.h(n) for n in range(9)] == [max(0, n // 2 - 2) for n in range(9)]


def test_speed_to_regain_identity_modulus():
    res = speed_to_regain(ModulusFn.affine(1, 0), Dyadic(1, 1))
    assert res.k == 1 and res.m == 1
    assert [res.g(n) for n in range(6)] == list(range(6))
    assert [res.h(n) for n in range(6)] == [max(0, n - 1) for n in range(6)]


def test_speed_to_regain_shifted_modulus():
    res = speed_to_regain(ModulusFn.affine(1, 5), Dyadic(1, 1))
    assert [res.g(n) for n in range(8)] == [0, 0, 0, 0, 0, 0, 1, 2]
    assert res.k == 1
    assert res.m == 6


def test_speed_to_regain_sanity_inequality():
    for f, rho in [
        (ModulusFn.affine(2, 0), Dyadic(1, 2)),
        (ModulusFn.affine(1, 3), Dyadic(3, 2)),
        (ModulusFn.from_table([0, 0, 1, 4, 4, 5, 9, 9, 9, 12, 15, 18, 21, 30]), Dyadic(1, 1)),
    ]:
        res = speed_to_regain(f, rho)
        for k in range(6):
            assert res.g(f(k)) >= k


def test_speed_to_regain_k_is_the_least_with_2_to_the_k_times_rho_at_least_one():
    f = ModulusFn.affine(1, 0)
    for e in range(1, 9):
        for m in range(1, 2**e):
            rho = Dyadic(m, e)
            k = 0
            while not pow2(k) * rho >= Dyadic(1):
                k += 1
            assert speed_to_regain(f, rho).k == k, rho


def test_speed_to_regain_budget():
    stuck = ModulusFn(lambda n: 0, name="flat")
    with pytest.raises(IncompleteSearch) as err:
        speed_to_regain(stuck, Dyadic(1, 2))
    assert err.value.budget == SEARCH_BUDGET


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
       st.lists(st.integers(min_value=0, max_value=150), max_size=40))
def test_g_search_resumes_to_the_same_values(steps, queries):
    # g(n) resumes its search at g(n') for the last searched n' <= n;
    # evaluated in any order it equals the search from k = 0
    table = list(accumulate(steps))

    def raw(k):
        return table[k] if k < len(table) else table[-1] + k

    def searched(n):
        if raw(0) > n:
            return 0
        k = 0
        while raw(k + 1) <= n:
            k += 1
        return k

    g = speed_to_regain(ModulusFn(raw), Dyadic(1, 1)).g
    assert [g(n) for n in queries] == [searched(n) for n in queries]


class CountingModulus(ModulusFn):
    asked = 0

    def __call__(self, n):
        self.asked += 1
        return super().__call__(n)


def test_g_search_resumes_only_from_a_smaller_argument():
    f = CountingModulus(lambda k: k)
    g = speed_to_regain(f, Dyadic(1, 1)).g
    assert g(9) == 9
    # g(3) after g(9) searches from 0 again, not from g(9)
    assert g(3) == 3
    # ascending from there, each search resumes at the last: listing 10..19
    # asks f about 3 times per n, where searching from 0 asks it n + 2 times
    before = f.asked
    assert [g(n) for n in range(10, 20)] == list(range(10, 20))
    assert f.asked - before <= 40


def test_certify_regaining_examples():
    seq = quarter_powers(10)
    ident = ModulusFn.affine(1, 0)
    # strict, as in the paper: 1 - x_0 = 1 is not below 2**-0 under either modulus
    assert certify_regaining(seq, ident) == list(range(1, 10))
    assert certify_regaining(seq, ModulusFn(lambda n: 0, name="zero")) == list(range(1, 10))
    slow = geometric_sequence(10)
    assert certify_regaining(slow, ModulusFn.affine(1, 1)) == []
    # limit - x_n = 2**-n exactly: every index under <=, none under <
    assert certify_regaining(slow, ident) == []
    halves = ApproxSequence(values=[Dyadic(0), Dyadic(1, 1), Dyadic(3, 2)], known_limit=ONE)
    assert certify_regaining(halves, ident) == []


def test_ratio_form_equivalence_randomised():
    rng = random.Random(99)
    hits = 0
    for _ in range(50):
        seq = random_synthetic_sequence(rng, 16, increasing=True)
        k = rng.randrange(1, 7)
        rho = Dyadic(rng.randrange(1, 2**k), k)
        assert Dyadic(0) < rho < Dyadic(1)
        found = speedup_indices(seq, rho)
        assert found == complement_speedup_indices(seq, rho)
        hits += bool(found)
    assert hits > 0


def test_modulus_refuses_a_decreasing_closed_form():
    down = ModulusFn(lambda n: 10 - n, name="down")
    assert down(0) == 10
    with pytest.raises(ValueError, match="down: not non-decreasing at 1"):
        down(1)


def test_modulus_table_bounds():
    table = ModulusFn.from_table([0, 1, 2])
    assert table(2) == 2
    with pytest.raises(ValueError):
        table(3)
    with pytest.raises(ValueError):
        ModulusFn.from_table([3, 1])
