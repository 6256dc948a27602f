import pytest
from hypothesis import given, strategies as st

from injurybench.strings import (
    cantor_pair,
    cantor_unpair,
    lex_less,
    nu,
    nu_inv,
    pair,
    true_path_estimate,
    unpair,
)

words = st.text(alphabet="01", max_size=10)


def _lex_less_reference(sigma, tau):
    """The tree order as a loop over characters: an independent reference."""
    n = min(len(sigma), len(tau))
    for i in range(n):
        if sigma[i] != tau[i]:
            return sigma[i] == "0"
    return False


def _all_words(max_len):
    return [format(i, f"0{n}b") if n else "" for n in range(max_len + 1)
            for i in range(1 << n)]


def test_lex_less_examples():
    assert lex_less("0", "1")
    assert not lex_less("", "1")  # prefix-comparable words are incomparable
    assert lex_less("01", "1")
    assert not lex_less("0", "01")  # native order puts the prefix first
    assert not lex_less("1", "10")


def test_lex_less_matches_character_loop_exhaustively():
    words = _all_words(8)
    assert len(words) ** 2 == 261_121
    for sigma in words:
        for tau in words:
            assert lex_less(sigma, tau) == _lex_less_reference(sigma, tau), (sigma, tau)


def test_nu_examples():
    assert nu("") == 0
    assert nu("1") == 2
    assert nu("11") == 6
    assert nu_inv(0) == ""
    assert nu_inv(3) == "00"
    assert nu_inv(6) == "11"


def test_cantor_pair_examples():
    assert cantor_pair(0, 0) == 0
    assert cantor_pair(2, 1) == 7
    assert cantor_pair(1, 2) == 8


def test_pair_examples():
    assert pair("", 0) == 0
    assert pair("1", 1) == cantor_pair(2, 1) == 7
    assert unpair(7) == ("1", 1)


def test_exhaustive_round_trips():
    for n in range(1 << 16):
        assert nu(nu_inv(n)) == n
    for code in range(1 << 16):
        m, n = cantor_unpair(code)
        assert cantor_pair(m, n) == code
        sigma, k = unpair(code)
        assert pair(sigma, k) == code


@given(words, words)
def test_order_trichotomy(sigma, tau):
    if sigma == tau:
        return
    relations = [
        lex_less(sigma, tau),
        lex_less(tau, sigma),
        tau.startswith(sigma),  # proper, since sigma != tau
        sigma.startswith(tau),
    ]
    assert sum(relations) == 1


@given(words)
def test_lex_irreflexive(sigma):
    assert not lex_less(sigma, sigma)


@given(words, words, words)
def test_lex_transitive(a, b, c):
    if lex_less(a, b) and lex_less(b, c):
        assert lex_less(a, c)


def test_true_path_estimate_all_root():
    est = true_path_estimate(["", "", "", ""], (0, 4), threshold=3)
    assert est.path == ""
    assert est.stable_upto == 0


def test_true_path_estimate_counting():
    est = true_path_estimate(["0", "0", "0", "1"], (0, 4), threshold=3)
    assert est.path == "0"
    assert est.stable_upto == 0  # margin 3 - 1 = 2 below the threshold


def test_true_path_estimate_alternating_defaults_to_one():
    est = true_path_estimate(["0", "1"] * 4, (0, 8), threshold=5)
    assert est.path[0] == "1"
    assert est.stable_upto == 0


def test_true_path_estimate_window_validation():
    with pytest.raises(ValueError):
        true_path_estimate(["0"], (1, 1))
    with pytest.raises(ValueError):
        true_path_estimate(["0"], (0, 5))
    with pytest.raises(ValueError):
        true_path_estimate(["0"], (0, 1), threshold=0)


def test_true_path_estimate_fields_keep_their_order():
    est = true_path_estimate(["01"] * 4, (0, 4), threshold=3)
    assert est == type(est)("01", 2, (0, 4))
    assert (est.path, est.stable_upto, est.window) == ("01", 2, (0, 4))


def test_true_path_estimate_stability():
    settlements = ["01"] * 6 + ["00"] * 2
    est = true_path_estimate(settlements, (0, 8), threshold=3)
    assert est.path == "01"
    assert est.stable_upto == 2  # 8-0 then 6-2 margins both meet the threshold


def _true_path_estimate_reference(settlements, window, threshold):
    """The estimate as two list filters per depth: an independent reference."""
    lo, hi = window
    candidates = settlements[lo:hi]
    path, stable, stable_run = "", 0, True
    for depth in range(max(len(s) for s in candidates)):
        zeros = [s for s in candidates if len(s) > depth and s[depth] == "0"]
        ones = [s for s in candidates if len(s) > depth and s[depth] == "1"]
        if len(zeros) >= threshold:
            bit, chosen, other = "0", zeros, ones
        else:
            bit, chosen, other = "1", ones, zeros
        path += bit
        if stable_run and len(chosen) - len(other) >= threshold:
            stable = len(path)
        else:
            stable_run = False
        candidates = chosen
    return path, stable


@given(st.lists(st.text(alphabet="01", max_size=8), min_size=1, max_size=40),
       st.data(), st.integers(min_value=1, max_value=5))
def test_true_path_estimate_matches_reference(settlements, data, threshold):
    lo = data.draw(st.integers(min_value=0, max_value=len(settlements) - 1))
    hi = data.draw(st.integers(min_value=lo + 1, max_value=len(settlements)))
    est = true_path_estimate(settlements, (lo, hi), threshold)
    assert (est.path, est.stable_upto) == _true_path_estimate_reference(
        settlements, (lo, hi), threshold)
    assert est.window == (lo, hi)
