import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasidom.errors import MalformedWordError, ResourceCapError
from quasidom.tropical import _INF, build_initial_vector
from quasidom.words import (
    _EDGE,
    _END,
    _STEP,
    _follow_ok,
    _window_ok,
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


def test_the_automaton_has_158_states_plus_the_dead_one():
    # the README states this figure
    assert _STEP.shape == (159, 4)
    assert _END.shape == (159,)


def test_the_dp_path_never_builds_the_word_strings(monkeypatch):
    from quasidom import grids, solver

    monkeypatch.setattr(solver, "_machinery_cache", {})
    monkeypatch.setattr(solver, "_window_cache", {})
    solver.solve_width(7, 40)
    grids.extract_min_set(7, 40)
    solver.detect_period(7)
    table = solver.machinery(7).matrix.table
    assert "words" not in vars(table)
    assert table.k == len(table.words) == len(table.digits)
    assert "words" in vars(table)


@pytest.mark.parametrize("m", range(2, 7))
def test_enumeration_matches_brute_force_filter(m):
    assert list(enumerate_suitable(m).words) == brute_suitable(m)


@pytest.mark.parametrize("m", range(2, 7))
def test_live_enumeration_matches_brute_force_filter(m):
    # live: suitable, and initial or following some suitable word, checked
    # word by word with the per-word predicates
    suitable = brute_suitable(m)
    live = [p for p in suitable if is_initial(p) or any(can_follow(p, q) for q in suitable)]
    table = enumerate_suitable(m, live=True)
    assert list(table.words) == live
    assert not table.digits.flags.writeable


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
    # the exact texts: each predicate validates its words before any rule runs
    cases = [
        (lambda: is_suitable("0"), "column word '0' has fewer than 2 labels"),
        (lambda: is_suitable(""), "column word '' has fewer than 2 labels"),
        (lambda: is_suitable("014"), "column word '014' has label '4' outside 0..3"),
        (lambda: is_initial("0"), "column word '0' has fewer than 2 labels"),
        (lambda: is_initial("01x"), "column word '01x' has label 'x' outside 0..3"),
        (lambda: is_final("3"), "column word '3' has fewer than 2 labels"),
        (lambda: is_final("0a"), "column word '0a' has label 'a' outside 0..3"),
        (lambda: can_follow("01", "012"), "length mismatch: '01' vs '012'"),
        (lambda: can_follow("0", "01"), "column word '0' has fewer than 2 labels"),
        (lambda: can_follow("01", "0"), "column word '0' has fewer than 2 labels"),
        (lambda: can_follow("04", "01"), "column word '04' has label '4' outside 0..3"),
        (lambda: can_follow("01", "05"), "column word '05' has label '5' outside 0..3"),
        (lambda: can_follow("014", "01"), "column word '014' has label '4' outside 0..3"),
        (lambda: enumerate_suitable(1), "word length must be at least 2, got 1"),
    ]
    for call, message in cases:
        with pytest.raises(MalformedWordError) as exc:
            call()
        assert str(exc.value) == message


def test_enumeration_cap():
    with pytest.raises(ResourceCapError):
        enumerate_suitable(8, max_words=100)


@pytest.mark.parametrize("m", range(2, 11))
def test_enumeration_cap_is_exact(m):
    # the cap counts the suitable words, whichever table is built
    k = enumerate_suitable(m).k
    for live in (False, True):
        assert enumerate_suitable(m, max_words=k, live=live).k == enumerate_suitable(m, live=live).k
        with pytest.raises(ResourceCapError):
            enumerate_suitable(m, max_words=k - 1, live=live)


def test_enumeration_cap_raises_before_allocating():
    # width 17 has about 430,000 suitable words; a cap of 1,000 must refuse
    # them before the table's megabytes are allocated
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            enumerate_suitable(17, max_words=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("m", [20, 100, 10**9])
def test_widths_over_the_default_cap_are_refused_before_allocating(m):
    # width 20 has more than 2,000,000 suitable words; the count comes from
    # the automaton, not from grown prefixes, and stops once it saturates
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=f"more than 2000000 suitable words of length {m}"):
            enumerate_suitable(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def reference_is_initial(word):
    """The first-column rule stated per label: every 2 sits between two 0s and
    every 1 has a 0 on exactly one side."""
    m = len(word)
    for i, ch in enumerate(word):
        up0 = i > 0 and word[i - 1] == "0"
        dn0 = i + 1 < m and word[i + 1] == "0"
        if ch == "2" and not (up0 and dn0):
            return False
        if ch == "1" and up0 + dn0 != 1:
            return False
    return True


@pytest.mark.parametrize("m", range(2, 8))
def test_is_initial_is_following_a_column_of_ones(m):
    # every word over {0,1,2,3}^m, suitable or not
    for t in itertools.product("0123", repeat=m):
        w = "".join(t)
        assert is_initial(w) == reference_is_initial(w), w


def reference_is_suitable(word):
    """The suitability rules stated as loops over the pairs and triples of a word."""
    m = len(word)
    for i in range(m - 1):
        a, b = word[i], word[i + 1]
        if a == b and a != "1":
            return False
        if (a == "0" and b == "3") or (a == "3" and b == "0"):
            return False
    for i in range(m - 2):
        if word[i] == "0" and word[i + 1] == "1" and word[i + 2] == "0":
            return False
    for i in range(m - 1):
        pair = word[i] + word[i + 1]
        before = word[i - 1] if i > 0 else ""
        after = word[i + 2] if i + 2 < m else ""
        if pair == "11" and before != "0" and after != "0":
            return False
        if pair == "32" and after != "0":
            return False
        if pair == "23" and before != "0":
            return False
        if pair in ("21", "12") and not (before == "0" and after == "0"):
            return False
    return True


def reference_can_follow(p, q):
    """The follow rule stated as a case analysis on each q[i]."""
    m = len(p)
    for i in range(m):
        pi = p[i]
        qi = q[i]
        up0 = i > 0 and p[i - 1] == "0"
        dn0 = i + 1 < m and p[i + 1] == "0"
        if qi == "3":
            if pi != "0":
                return False
        elif qi == "0":
            if pi == "1":
                if up0 or dn0:
                    return False
            elif pi == "2":
                if up0 + dn0 != 1:
                    return False
            else:
                return False
        elif qi == "1":
            if pi == "1":
                if up0 + dn0 != 1:
                    return False
            elif pi == "2":
                if not (up0 and dn0):
                    return False
            # 0 and 3 are always admissible after a 1
        else:  # qi == "2"
            if pi == "1":
                if i == 0 or i == m - 1 or up0 + dn0 != 1:
                    return False
            elif pi != "3":
                return False
    return True


def _all_words(m):
    return ["".join(t) for t in itertools.product("0123", repeat=m)]


def _assert_is_suitable_matches_the_reference(m):
    for w in _all_words(m):
        assert is_suitable(w) == reference_is_suitable(w), w


def _assert_can_follow_matches_the_reference(q_words, p_words):
    for q in q_words:
        for p in p_words:
            assert can_follow(p, q) == reference_can_follow(p, q), (p, q)


@pytest.mark.parametrize("m", range(2, 8))
def test_is_suitable_matches_the_reference_loops(m):
    # every word over {0,1,2,3}^m, so each rule is met at every position
    _assert_is_suitable_matches_the_reference(m)


@pytest.mark.slow
def test_is_suitable_matches_the_reference_loops_wide():
    _assert_is_suitable_matches_the_reference(8)


@pytest.mark.parametrize("m", range(2, 5))
def test_can_follow_matches_the_reference_on_every_pair(m):
    # every p, suitable or not, after each q the rule is stated for: the
    # suitable words and the virtual first column of 1s (is_initial)
    q_words = [*enumerate_suitable(m).words, "1" * m]
    _assert_can_follow_matches_the_reference(q_words, _all_words(m))


@pytest.mark.parametrize("m", (5, 6))
def test_can_follow_matches_the_reference_on_suitable_pairs(m):
    words = enumerate_suitable(m).words
    _assert_can_follow_matches_the_reference(words, words)


@pytest.mark.slow
def test_can_follow_matches_the_reference_on_suitable_pairs_wide():
    words = enumerate_suitable(7).words
    _assert_can_follow_matches_the_reference(words, words)


_NEIGHBORS = (*range(4), _EDGE)


def test_a_boundary_2_has_a_0_beside_it():
    # the facts the _follow_ok docstring uses to drop a boundary exception
    # for q = 2, p = 1, whatever the width
    for b, neighbor in itertools.product(range(4), _NEIGHBORS):
        if _window_ok(_EDGE, 2, b, neighbor):  # a 2 in the top row
            assert b == 0, (b, neighbor)
        if _window_ok(neighbor, b, 2, _EDGE):  # a 2 in the bottom row
            assert b == 0, (neighbor, b)
    for up, down in itertools.product(_NEIGHBORS, repeat=2):
        assert not _follow_ok(0, 0, up, down)


@pytest.mark.parametrize("m", range(2, 14))
def test_initial_vector_matches_the_reference_rule(m):
    table = enumerate_suitable(m)
    want = [zeros(w) if reference_is_initial(w) else _INF for w in table]
    assert np.array_equal(build_initial_vector(table), np.array(want, dtype=np.int64))


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
