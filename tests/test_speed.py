import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from injurybench.dyadic import Dyadic, pow2
from injurybench.speed import (
    ApproxSequence,
    IncompleteSearch,
    ModulusFn,
    certify_regaining,
    modulus_to_gapbound,
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
    rng = random.Random(20260810)
    for _ in range(20):
        seq = random_synthetic_sequence(rng, 24, increasing=False)
        assert seq.is_non_decreasing()
        shifted = regain_to_speed(seq)
        assert shifted.is_increasing()
        limit = seq.require_limit()
        regaining = [
            n for n in range(len(seq) - 1)
            if (limit - seq.values[n]) < pow2(-n)
        ]
        for n in regaining:
            assert speed_ratio(shifted, n) > Fraction(1, 4)


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


def test_speed_to_regain_budget():
    stuck = ModulusFn(lambda n: 0, name="flat")
    with pytest.raises(IncompleteSearch) as err:
        speed_to_regain(stuck, Dyadic(1, 2), search_limit=50)
    assert err.value.budget == 50


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
       st.lists(st.integers(min_value=0, max_value=150), max_size=40))
def test_g_search_resumes_to_the_same_values(steps, queries):
    # g(n) resumes its search at g(n') for the largest n' <= n already
    # evaluated; evaluated in any order it equals the search from k = 0
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


def test_certify_regaining_examples():
    seq = quarter_powers(10)
    ident = ModulusFn.affine(1, 0)
    assert certify_regaining(seq, ident) == list(range(10))
    assert certify_regaining(seq, ModulusFn(lambda n: 0, name="zero")) == list(range(10))
    slow = geometric_sequence(10)
    assert certify_regaining(slow, ModulusFn.affine(1, 1)) == []


def test_modulus_to_gapbound():
    seq = geometric_sequence(12)
    report = modulus_to_gapbound(ModulusFn.affine(1, 1), seq)
    assert report.ok
    assert report.checked[0] == 1
    with pytest.raises(ValueError):
        modulus_to_gapbound(ModulusFn(lambda n: 0, name="zero"), seq)


def test_modulus_to_gapbound_constant_sequence():
    seq = ApproxSequence(values=[Dyadic(3, 2)] * 6, known_limit=Dyadic(3, 2))
    report = modulus_to_gapbound(ModulusFn.affine(1, 0), seq)
    assert report.ok


def test_ratio_form_equivalence_randomised():
    rng = random.Random(99)
    for _ in range(50):
        seq = random_synthetic_sequence(rng, 16, increasing=True)
        k = rng.randrange(1, 7)
        rho = Dyadic(rng.randrange(1, 2**k), k)
        assert Dyadic(0) < rho < Dyadic(1)
        # speedup_indices cross-checks the complement characterisation
        # internally and raises on any disagreement
        speedup_indices(seq, rho)


def test_modulus_table_bounds():
    table = ModulusFn.from_table([0, 1, 2])
    assert table(2) == 2
    with pytest.raises(ValueError):
        table(3)
    with pytest.raises(ValueError):
        ModulusFn.from_table([3, 1])
