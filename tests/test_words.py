import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from quasidom.errors import MalformedWordError, ResourceCapError
from quasidom.words import (
    can_follow,
    enumerate_suitable,
    is_final,
    is_initial,
    is_suitable,
    successors,
    zeros,
)

LENGTH2_SUITABLE = ("01", "02", "10", "13", "20", "31")


def brute_suitable(m):
    return ["".join(t) for t in itertools.product("0123", repeat=m) if is_suitable("".join(t))]


def test_length2_enumeration_golden():
    table = enumerate_suitable(2)
    assert table.words == LENGTH2_SUITABLE
    assert table.k == 6
    assert [w for w in table if is_initial(w)] == ["01", "10"]
    assert [w for w in table if is_final(w)] == ["01", "02", "10", "20"]


def test_the_dp_path_never_builds_the_word_strings(monkeypatch):
    from quasidom import grids, solver

    monkeypatch.setattr(solver, "_machinery_cache", {})
    monkeypatch.setattr(solver, "_window_cache", {})
    solver.solve_width(7, 40)
    grids.extract_min_set(7, 40)
    solver.detect_period(7)
    table = solver.machinery(7).table
    assert "words" not in vars(table)
    assert table.k == len(table.words) == len(table.digits)
    assert "words" in vars(table)


@pytest.mark.parametrize("m", range(2, 7))
def test_enumeration_matches_brute_force_filter(m):
    assert list(enumerate_suitable(m).words) == brute_suitable(m)


def test_suitability_rule_examples():
    assert not is_suitable("00")
    assert is_suitable("0120")
    assert is_suitable("13")
    assert not is_suitable("23")
    assert not is_suitable("12")
    assert not is_suitable("0121")  # the 21 pair lacks its trailing 0
    assert is_suitable("020")
    assert not is_suitable("010")
    assert not is_suitable("030")
    assert not is_suitable("322")


def test_boundary_rules_fail_without_the_required_neighbor():
    assert not is_suitable("11")  # no side can provide the 0
    assert is_suitable("110")
    assert is_suitable("011")
    assert not is_suitable("3232")  # trailing 32 has no following 0
    assert is_suitable("320")


def test_malformed_words_rejected():
    with pytest.raises(MalformedWordError):
        is_suitable("0")
    with pytest.raises(MalformedWordError):
        is_suitable("014")
    with pytest.raises(MalformedWordError):
        can_follow("01", "012")
    with pytest.raises(MalformedWordError):
        enumerate_suitable(1)


def test_enumeration_cap():
    with pytest.raises(ResourceCapError):
        enumerate_suitable(8, max_words=100)


@pytest.mark.parametrize("m", range(2, 11))
def test_enumeration_cap_is_exact(m):
    k = enumerate_suitable(m).k
    assert enumerate_suitable(m, max_words=k).k == k
    with pytest.raises(ResourceCapError):
        enumerate_suitable(m, max_words=k - 1)


def test_enumeration_cap_raises_before_allocating():
    # width 17 has about 430,000 suitable words; a cap of 1,000 must stop the
    # growth at the first level above it, long before the table's megabytes
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            enumerate_suitable(17, max_words=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_initial_examples():
    assert is_initial("01") and is_initial("10")
    assert not is_initial("13")
    assert is_initial("020")
    assert is_initial("0110")  # each 1 has a 0 on exactly one side
    assert is_initial("013")  # 3s carry no first-column constraint
    assert not is_initial("023")  # the 2 is not flanked by 0s on both sides


def test_zeros_examples():
    assert zeros("01") == 1
    assert zeros("3131") == 0
    assert zeros("020") == 2


def test_can_follow_examples():
    assert can_follow("20", "01")
    assert can_follow("13", "01")
    assert not can_follow("01", "01")
    # a column over-dominated from three sides must be rejected
    assert not can_follow("020", "101")


@pytest.mark.parametrize("m", range(2, 8))
def test_successors_agree_with_can_follow(m):
    table = enumerate_suitable(m)
    for q in table:
        assert successors(q) == [p for p in table if can_follow(p, q)]


@pytest.mark.slow
@pytest.mark.parametrize("m", (8, 9))
def test_successors_agree_with_can_follow_wide(m):
    table = enumerate_suitable(m)
    for q in table:
        assert successors(q) == [p for p in table if can_follow(p, q)]


@pytest.mark.parametrize("m", range(2, 6))
def test_can_follow_consequences(m):
    table = enumerate_suitable(m)
    for q in table:
        for p in successors(q):
            for i in range(m):
                # no horizontally adjacent members
                assert not (p[i] == "0" and q[i] == "0")
                # a 3 is dominated by the next column
                if q[i] == "3":
                    assert p[i] == "0"


def _words_strategy(max_m=6):
    return st.integers(min_value=2, max_value=max_m).flatmap(
        lambda m: st.sampled_from(enumerate_suitable(m).words)
    )


@given(_words_strategy())
def test_reversal_preserves_word_predicates(w):
    r = w[::-1]
    assert is_suitable(r)
    assert is_initial(r) == is_initial(w)
    assert is_final(r) == is_final(w)


@given(st.integers(min_value=2, max_value=5), st.data())
def test_reversal_preserves_can_follow(m, data):
    table = enumerate_suitable(m)
    p = data.draw(st.sampled_from(table.words))
    q = data.draw(st.sampled_from(table.words))
    assert can_follow(p, q) == can_follow(p[::-1], q[::-1])


def test_initial_and_final_are_suitable():
    for m in range(2, 7):
        for w in enumerate_suitable(m):
            if is_initial(w) or is_final(w):
                assert is_suitable(w)
