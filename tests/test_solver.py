import math
import time

import numpy as np
import pytest

from quasidom.errors import ConstructionError, PeriodNotFoundError, UnsupportedGridError
from quasidom.grids import extract_min_set, verify_set
from quasidom.oracle import profile_dp_min
from quasidom.solver import (
    OFF_INF,
    DPWindow,
    Machinery,
    _machinery_cache,
    _window_cache,
    big_grid_value,
    closed_form,
    detect_period,
    extend_by_period,
    machinery,
    run_dp,
    solve_width,
    value,
)
from quasidom.tropical import (
    _INF,
    TropicalMatrix,
    build_initial_vector,
    build_transition_matrix,
    final_mask,
    mat_vec,
)
from quasidom.words import WordTable, enumerate_suitable
from test_tropical import (
    assert_follow_picks_the_smallest_predecessor,
    predecessors,
    reference_compact,
    reference_mat_vec,
)

# boundary values of the finite-difference recurrences, per published table
TABLE2 = {
    2: {4: 3, 5: 3},
    3: {7: 6, 8: 7, 9: 7, 10: 9},
    4: {11: 11},
    5: {15: 19, 16: 20, 17: 22, 18: 23, 19: 24},
    6: {9: 14, 10: 16, 11: 17, 12: 18, 13: 20, 14: 22, 15: 22},
    7: {12: 21, 13: 22, 14: 24},
    8: {18: 35, 19: 37, 20: 39, 21: 41, 22: 43, 23: 45, 24: 47, 25: 48},
    9: {28: 60, 29: 63, 30: 65, 31: 66, 32: 69, 33: 71, 34: 73, 35: 75, 36: 77, 37: 80},
    10: {46: 108, 47: 111, 48: 113, 49: 115, 50: 118, 51: 120, 52: 122, 53: 125, 54: 127},
    11: {50: 129, 51: 132, 52: 134, 53: 137, 54: 139, 55: 142, 56: 144, 57: 147,
         58: 150, 59: 152, 60: 155},
    12: {27: 76, 28: 79, 29: 82, 30: 85, 31: 88, 32: 90, 33: 93, 34: 96, 35: 99,
         36: 102, 37: 104, 38: 107, 39: 110},
    13: {73: 220, 74: 224, 75: 227, 76: 229, 77: 233, 78: 236, 79: 238, 80: 242,
         81: 245, 82: 247, 83: 251, 84: 254},
}

# published (n0, d, c) per width; d and c are also what the search must find
TABLE1 = {
    2: (4, 2, 1),
    3: (7, 4, 3),
    4: (11, 1, 1),
    5: (15, 5, 6),
    6: (9, 7, 10),
    7: (12, 3, 5),
    8: (18, 8, 15),
    9: (28, 10, 21),
    10: (46, 9, 21),
    11: (50, 11, 28),
    12: (27, 13, 36),
    13: (73, 12, 36),
}


@pytest.mark.parametrize("m", range(2, 9))
def test_solve_width_reproduces_boundary_values(m):
    for n, expected in TABLE2[m].items():
        assert solve_width(m, n) == expected


@pytest.mark.parametrize("m", range(9, 14))
def test_solve_width_reproduces_boundary_values_wide(m):
    for n, expected in TABLE2[m].items():
        assert solve_width(m, n) == expected


@pytest.mark.parametrize("m", range(2, 14))
def test_closed_form_reproduces_boundary_values(m):
    for n, expected in TABLE2[m].items():
        assert closed_form(m, n) == expected


def test_closed_form_spot_values():
    assert closed_form(5, 5) == 7
    assert closed_form(4, 9) == 10
    assert closed_form(13, 73) == 220
    assert closed_form(2, 2) == 2
    assert closed_form(4, 4) == 4
    assert closed_form(8, 8) == 16
    assert closed_form(12, 23) == 66  # 23 = 10 (mod 13), the exceptional branch


def test_closed_form_domain():
    with pytest.raises(UnsupportedGridError):
        closed_form(1, 5)
    with pytest.raises(UnsupportedGridError):
        closed_form(14, 20)
    with pytest.raises(UnsupportedGridError):
        closed_form(5, 4)


@pytest.mark.parametrize("m", range(2, 8))
def test_detect_period_matches_published_certificates(m):
    cert = detect_period(m)
    assert (cert.n0, cert.d, cert.c) == TABLE1[m]
    assert cert.boundary == TABLE2[m]


def test_detect_period_width8():
    cert = detect_period(8)
    assert (cert.n0, cert.d, cert.c) == TABLE1[8]
    assert cert.boundary == TABLE2[8]


@pytest.mark.parametrize("m", range(9, 14))
def test_detect_period_wide(m):
    cert = detect_period(m)
    n0, d, c = TABLE1[m]
    assert cert.d == d
    assert cert.c == c
    # the published n0 need not be the smallest admissible start; the search
    # returns the smallest, so only demand it is no later than published
    assert cert.n0 <= n0
    # soundness regardless: the certificate reproduces the DP from its start
    for n in range(cert.n0, cert.n0 + 2 * cert.d + 1):
        assert extend_by_period(cert, n) == solve_width(m, n)


def test_detect_period_width14_is_pinned():
    cert = detect_period(14)
    assert (cert.n0, cert.d, cert.c) == (90, 5, 16)


def test_period_search_bounds_raise():
    with pytest.raises(PeriodNotFoundError):
        detect_period(5, max_d=2, max_n=20)


def test_max_d_above_the_fold_limit():
    # max_d above its default still gets the minimal period; when the first
    # repeat lies past max_n, the error asks for larger bounds
    assert detect_period(13, max_d=20).d == 12
    with pytest.raises(PeriodNotFoundError, match="raise the bounds"):
        detect_period(13, max_d=20, max_n=50)


def test_extend_by_period_examples():
    cert2 = detect_period(2)
    assert extend_by_period(cert2, 6) == 4
    assert extend_by_period(cert2, 4) == cert2.boundary[4]
    cert3 = detect_period(3)
    assert extend_by_period(cert3, 11) == 9
    with pytest.raises(ValueError):
        extend_by_period(cert3, 5)


@pytest.mark.parametrize("m", range(2, 8))
def test_certificate_extends_to_the_dp(m):
    cert = detect_period(m)
    for n in range(cert.n0, cert.n0 + 3 * cert.d + 1):
        assert extend_by_period(cert, n) == solve_width(m, n)


@pytest.mark.parametrize("m", range(2, 14))
def test_closed_form_agrees_with_dp(m):
    # from column t - d of the first repeat t on, the DP values repeat with
    # period d; the sweep starts at n = m, so it covers every finite exception
    # of the published forms, and ends two periods and 40 columns past t
    cert = detect_period(m)
    t = cert.n0 + cert.d
    for n in range(m, t + 2 * cert.d + 40):
        assert closed_form(m, n) == solve_width(m, n), (m, n)


# (Q, r) of each closed form past its last listed exception (n = 30, at
# m = 10), written from formulas.py: the form is floor((A n + B(n mod r)) / Q)
# there, with r = 1 when no residue selects a branch
CLOSED_FORM_SHAPES = {
    2: (2, 1), 3: (4, 4), 4: (1, 1), 5: (5, 1), 6: (7, 7), 7: (3, 1),
    8: (8, 1), 9: (10, 10), 10: (9, 1), 11: (11, 1), 12: (13, 13), 13: (1, 12),
}


def closed_form_proof_failures(m, form=closed_form, shapes=CLOSED_FORM_SHAPES):
    """The finite check that proves form(m, n) equals the DP for every n >= m.

    The first repeat X^t = X^{t-d} + c makes the DP satisfy f(n + d) = f(n) + c
    from n = t - d on.  Past n = 30, form(n) = floor((A n + B(n mod r)) / Q),
    so with L = lcm(Q, r), form(n + L) = form(n) + A L / Q and the difference
    form(n + d) - form(n) has a period dividing L.  So with
    n1 = max(t - d, 31), agreement on m <= n < n1 + d and the recurrence
    form(n + d) - form(n) = c on n1 <= n < n1 + L give agreement for every
    n >= m, by induction in steps of d from [n1, n1 + d).  Returns the
    failures, and also every n of n1 <= n < n1 + L + d where
    form(n + L) - form(n) is not one constant, so a wrong (Q, r) fails too.
    """
    solve_width(m, 10**6)
    t, d, c = _window_cache[m].repeat
    n1, period = max(t - d, 31), math.lcm(*shapes[m])
    failures = [("dp", n) for n in range(m, n1 + d) if form(m, n) != solve_width(m, n)]
    failures += [("recurrence", n) for n in range(n1, n1 + period)
                 if form(m, n + d) - form(m, n) != c]
    steps = [form(m, n + period) - form(m, n) for n in range(n1, n1 + period + d)]
    failures += [("shape", n1 + i) for i, step in enumerate(steps) if step != steps[0]]
    return failures


@pytest.mark.parametrize("m", range(2, 14))
def test_closed_form_is_proved_for_every_n(m):
    assert closed_form_proof_failures(m) == []


@pytest.mark.parametrize(
    "m,form,shapes",
    [
        # a perturbed constant: 3 n + 2 on every residue
        (13, lambda m, n: 3 * n + 2, CLOSED_FORM_SHAPES),
        # 28 n + 27 for 28 n + 26
        (11, lambda m, n: (28 * n + 27) // 11, CLOSED_FORM_SHAPES),
        # wrong tables: the residue modulus of m = 13 dropped, Q = 7 for m = 11
        (13, closed_form, {13: (1, 1)}),
        (11, closed_form, {11: (7, 1)}),
    ],
)
def test_a_wrong_closed_form_or_shape_fails_the_proof(m, form, shapes):
    assert closed_form_proof_failures(m, form, shapes)


def test_solve_width_small_grids():
    assert solve_width(2, 2) == 2
    assert solve_width(2, 1) == 1
    assert solve_width(2, 4) == 3


def test_solve_width_transpose_invariance():
    for m, n in ((2, 5), (3, 4), (4, 6), (5, 7), (3, 7)):
        assert solve_width(m, n) == solve_width(n, m)


@pytest.mark.parametrize("m", range(2, 7))
def test_monotonicity_in_columns(m):
    prev = 0
    for n in range(1, 16):
        cur = solve_width(m, n)
        assert cur != math.inf
        assert cur >= prev
        prev = cur


def test_big_grid_value():
    assert big_grid_value(14, 14) == 47
    assert big_grid_value(14, 17) == 56
    assert big_grid_value(15, 17) == 60
    with pytest.raises(UnsupportedGridError):
        big_grid_value(13, 14)
    with pytest.raises(UnsupportedGridError):
        big_grid_value(15, 14)


def test_value_dispatch():
    assert value(2, 4) == 3
    assert value(4, 2) == 3  # transpose normalization
    assert value(13, 73) == 220
    assert value(14, 14) == 47
    assert value(30, 14) == big_grid_value(14, 30)
    assert value(1, 3) == 1  # single-row grids: (n + 2) // 3
    assert value(3, 1) == 1
    with pytest.raises(UnsupportedGridError):
        value(0, 5)


def test_single_row_value_matches_the_oracle():
    for n in range(1, 51):
        assert value(1, n) == profile_dp_min(1, n, "i12").value, n
    assert value(1, 10**6) == 333334
    assert value(10**6, 1) == 333334


def test_solve_width_rejects_single_row():
    with pytest.raises(UnsupportedGridError):
        solve_width(1, 5)


# first column t of each width with X^t = X^{t-d} + c for some d <= 15
FIRST_REPEAT = {2: 6, 3: 11, 4: 12, 5: 20, 6: 16, 7: 15, 8: 26, 9: 28, 10: 55, 11: 61, 12: 40, 13: 85}


@pytest.mark.parametrize("m", range(2, 10))
def test_folded_trace_matches_plain_iteration(m):
    for memo in ("cold", "warm"):
        if memo == "cold":
            _window_cache.pop(m, None)
        mach, window = run_dp(m, 300, keep_trace=True)
        assert window is _window_cache[m]
        assert window.repeat[0] == FIRST_REPEAT[m], memo
        assert len(window) == FIRST_REPEAT[m] - 1
        x = mach.initial
        for r in range(300):
            if r:
                x = reference_mat_vec(mach.matrix, x)
            assert np.array_equal(window.column(r + 1), x), (memo, r)
            if r in (0, FIRST_REPEAT[m] - 2, FIRST_REPEAT[m] - 1, 299):
                if memo == "cold":
                    _window_cache.pop(m, None)
                assert np.array_equal(run_dp(m, r + 1)[1][-1], x), (memo, r)
        assert np.array_equal(window.column(300), x)


@pytest.mark.parametrize("m", range(2, 14))
def test_dp_over_live_words_is_lossless(m):
    # the full-table DP, iterated past the first repeat: dropped words stay
    # infinite and the live ones equal the window's columns
    mach = machinery(m)
    table = enumerate_suitable(m)
    full = build_transition_matrix(table)
    x = build_initial_vector(table)
    live = np.flatnonzero((np.diff(full.pred_ptr) > 0) | (x < _INF))
    dropped = np.ones(table.k, bool)
    dropped[live] = False
    assert np.array_equal(mach.matrix.table.digits, table.digits[live])
    assert mach.matrix.table.m == m and not mach.matrix.table.digits.flags.writeable
    _, window = run_dp(m, 10**6, keep_trace=True)
    for r in range(1, 2 * window.repeat[0] + 1):
        if r > 1:
            x = reference_mat_vec(full, x)
        assert (x[dropped] == _INF).all(), r
        assert np.array_equal(x[live], window.column(r)), r
    # each live list is the full list less the dropped words, renumbered,
    # and stays ascending
    new_id = np.cumsum(~dropped) - 1
    for i, p in enumerate(live):
        preds = predecessors(full, p)
        expected = new_id[preds[~dropped[preds]]]
        assert np.array_equal(predecessors(mach.matrix, i), expected), p
        assert (np.diff(expected) > 0).all()
    assert all(b.dtype == np.intp for b in mach.matrix.blocks)
    assert np.array_equal(mach.matrix.row_zeros, full.row_zeros[live])
    assert np.array_equal(mach.finals, final_mask(table)[live])


# (suitable words, live words, live predecessor entries) per width
LIVE_COUNTS = {
    2: (6, 6, 8),
    3: (13, 12, 18),
    4: (27, 23, 38),
    5: (57, 46, 78),
    6: (120, 85, 164),
    7: (253, 165, 342),
    8: (532, 314, 704),
    9: (1121, 602, 1459),
    10: (2360, 1160, 3036),
    11: (4970, 2237, 6351),
    12: (10464, 4326, 13304),
    13: (22036, 8385, 27920),
    14: (46399, 16267, 58684),
    15: (97704, 31606, 123564),
}


@pytest.mark.parametrize("m", range(2, 16))
def test_machinery_keeps_one_table_of_the_live_words(m):
    mach = machinery(m)
    table = mach.matrix.table
    assert (enumerate_suitable(m).k, table.k, mach.matrix.finite_entries) == LIVE_COUNTS[m]
    assert table.k == mach.matrix.k == len(mach.initial) == len(mach.finals)
    assert table.m == m and not table.digits.flags.writeable


@pytest.mark.parametrize("m", [7, 13])
def test_machinery_joins_only_the_live_words(m, monkeypatch):
    from quasidom import solver

    rows = []

    def build_and_watch(table):
        rows.append(table.k)
        return build_transition_matrix(table)

    monkeypatch.setattr(solver, "_machinery_cache", {})
    monkeypatch.setattr(solver, "build_transition_matrix", build_and_watch)
    solver.machinery(m)
    assert rows == [LIVE_COUNTS[m][1]]


def test_runs_before_the_first_repeat_keep_every_column():
    _window_cache.pop(13, None)
    _, window = run_dp(13, 40, keep_trace=True)
    assert window is _window_cache[13]
    assert window.repeat is None
    assert len(window) == 40
    with pytest.raises(IndexError):
        window.column(41)


@pytest.mark.parametrize("m", range(2, 16))
def test_solve_width_reaches_a_million_columns(m):
    # closed forms for m <= 13, floor((m+2)(n+2)/5) - 4 for m = 14, 15
    assert solve_width(m, 10**6) == value(m, 10**6)


# the first repeat (t, d, c) of the wide widths' DPs
WIDE_FIRST_REPEAT = {
    14: (95, 5, 16), 15: (67, 5, 17), 16: (51, 5, 18), 17: (48, 5, 19), 18: (46, 1, 4), 19: (51, 5, 21),
}


@pytest.mark.parametrize(
    "m",
    # at widths 17, 18 and 19 the test takes about 0.4, 0.7 and 1.8 s on
    # 2 shared CPUs; run alone in a fresh pytest process, it peaks (ru_maxrss)
    # near 76, 96 and 140 MB
    [14, 15, 16, 17, 18, 19],
)
def test_big_grid_formula_is_proved_for_every_n(m):
    """The DP proves value(m, n) = floor((m+2)(n+2)/5) - 4 for every n >= m.

    The first repeat X^t = X^{t-d} + c makes the DP values satisfy
    f(n + d) = f(n) + c from n = t - d on.  Since (m + 2) d = 5 c, the
    formula F(n) = floor((m+2)(n+2)/5) - 4 satisfies F(n + d) = F(n) + c
    for every n.  With t - d >= m, agreement on m <= n < t covers every
    n < t - d directly and one full period from t - d, so both sides agree
    for every n >= m at this width.
    """
    try:
        solve_width(m, 10**6)
        t, d, c = _window_cache[m].repeat
        assert (t, d, c) == WIDE_FIRST_REPEAT[m]
        assert t - d >= m
        assert (m + 2) * d == 5 * c
        for n in range(m, t):
            assert solve_width(m, n) == big_grid_value(m, n), n
    finally:
        if m > 15:  # no other test reads these widths; free their tables
            _machinery_cache.pop(m, None)
            _window_cache.pop(m, None)


def test_solve_width_at_a_million_columns_is_fast():
    _window_cache.pop(13, None)
    start = time.perf_counter()
    solve_width(13, 10**6)
    assert time.perf_counter() - start < 1.0


def test_width13_window_holds_84_uint8_columns():
    _window_cache.pop(13, None)
    solve_width(13, 1000)
    window = _window_cache[13]
    assert window.repeat == (85, 12, 36)
    assert len(window) == len(window.offsets) == 84
    # the columns hold the 8,385 live words of the 22,036 in the table
    live = LIVE_COUNTS[13][1]
    assert machinery(13).matrix.k == live
    assert all(off.dtype == np.uint8 and off.shape == (live,) for off in window.offsets)
    assert sum(off.nbytes for off in window.offsets) == 84 * live  # about 0.7 MB
    # each column is held once: its offsets are a read-only view of its index key
    assert all(window.index[off.base] == i for i, off in enumerate(window.offsets))
    assert all(isinstance(off.base, bytes) and not off.flags.writeable for off in window.offsets)



def ring_window(k, cost):
    """A DPWindow over a k-word ring, not a grid DP: word p's only predecessor is p - 1 mod k.

    X^1 is 0 at word 0 and infinite elsewhere, every row costs `cost`, and
    every word is final, so X^r is cost * (r - 1) at word (r - 1) mod k.
    The table is a placeholder; the window reads only its width, in messages.
    """
    ids = np.arange(k, dtype=np.int64)
    matrix = TropicalMatrix(
        WordTable(1, np.zeros((k, 1), np.uint8)),
        np.full(k, cost, np.int64), np.arange(k + 1, dtype=np.int64), (ids - 1) % k,
    )
    initial = np.where(ids == 0, 0, _INF)
    return DPWindow(Machinery(matrix, initial, np.ones(k, bool)))


def test_a_ring_with_period_20_folds_at_its_first_repeat():
    # d = 20 is past DEFAULT_MAX_D; the window still stops at the first repeat
    window = ring_window(20, cost=1)
    window.grow(100)
    assert window.repeat == (21, 20, 20)
    assert len(window) == len(window.offsets) == 20
    x = window.mach.initial
    for r in range(1, 101):
        assert np.array_equal(window.column(r), x), r
        x = reference_mat_vec(window.mach.matrix, x)
    assert window.value(57) == 56
    # t - d = 1, so the fill's id arrays give the whole chain
    assert np.array_equal(periodic_ids(window, 57), [r % 20 for r in range(57)])
    zeros, best = window.backtrack(57)
    assert zeros.shape == (1, 57) and zeros.all() and best == 56  # the ring's one label is 0


def test_a_zero_cost_ring_folds_with_no_increment():
    window = ring_window(5, cost=0)
    window.grow(100)
    assert window.repeat == (6, 5, 0)
    assert len(window) == 5
    assert window.value(100) == 0
    assert np.array_equal(periodic_ids(window, 100), [r % 5 for r in range(100)])
    zeros, best = window.backtrack(100)
    assert zeros.shape == (1, 100) and zeros.all() and best == 0


@pytest.mark.parametrize("m", range(2, 14))
def test_recorded_slots_pick_the_smallest_predecessor(m):
    # backtracking steps back into every stored column, the last one also from
    # column t by the repeat step, and follow finds each step's argmin in its offsets
    _, window = run_dp(m, 10**6, keep_trace=True)
    assert len(window.offsets) == len(window) == window.repeat[0] - 1
    for j, off in enumerate(window.offsets):
        assert_follow_picks_the_smallest_predecessor(window.mach.matrix, window.column(j + 1), off)


@pytest.mark.parametrize("k,cost", [(20, 1), (5, 0)])
def test_ring_slots_name_the_one_predecessor(k, cost):
    window = ring_window(k, cost)
    window.grow(100)
    matrix = window.mach.matrix
    assert len(window.offsets) == k
    for j, off in enumerate(window.offsets):
        assert_follow_picks_the_smallest_predecessor(matrix, window.column(j + 1), off)
        # column j + 2 is finite at word (j + 1) mod k alone, stepped from word j
        assert matrix.follow((j + 1) % k, [memoryview(off)]) == [(j + 1) % k, j], j


def test_warm_solve_width_is_a_lookup():
    solve_width(13, 10**6)
    times = []
    for n in range(1000, 1100):
        start = time.perf_counter()
        solve_width(13, n)
        times.append(time.perf_counter() - start)
    assert sorted(times)[len(times) // 2] < 1e-3


def test_offsets_that_do_not_fit_a_uint8_raise():
    # three words, each its own only predecessor, so a step adds the row costs
    ids = np.arange(3, dtype=np.int64)
    matrix = TropicalMatrix(
        WordTable(1, np.zeros((3, 1), np.uint8)), np.array([0, 254, 0]), np.arange(4), ids
    )
    low, off = mat_vec(matrix, 7, np.array([0, 0, OFF_INF], np.uint8))
    assert low == 7 and off.tolist() == [0, 254, OFF_INF]
    text = "a DP column spreads 255 above its minimum, more than the 254 a uint8 offset holds"
    with pytest.raises(RuntimeError, match=f"^{text}$"):
        mat_vec(matrix, 7, np.array([0, 1, OFF_INF], np.uint8))


def test_a_column_spread_past_the_uint8_offsets_is_a_construction_error():
    # the CLI turns a ConstructionError into an error envelope, not a traceback
    matrix = TropicalMatrix(
        WordTable(1, np.zeros((3, 1), np.uint8)), np.array([0, 254, 0]), np.arange(4),
        np.arange(3, dtype=np.int64),
    )
    with pytest.raises(ConstructionError):
        mat_vec(matrix, 7, np.array([0, 1, OFF_INF], np.uint8))


def test_engine_objects_are_equal_only_to_themselves():
    mach = machinery(4)
    table = mach.matrix.table
    _, window = run_dp(4, 10, keep_trace=True)
    twins = [
        (mach, Machinery(mach.matrix, mach.initial, mach.finals)),
        (window, DPWindow(
            mach, window.mins, window.offsets, window.values, window.repeat, window.ends
        )),
        (mach.matrix, build_transition_matrix(table)),
        (table, WordTable(table.m, table.digits)),
    ]
    for obj, twin in twins:
        assert obj == obj and obj != twin
        assert len({obj, twin}) == 2


def reference_grow(mach):
    """mins, offsets, values and repeat of a width's window, grown by the reference step.

    Each column is reference_mat_vec of the last as an int64 array, then
    reference_compact; the first repeat is found by the same offset lookup.
    """
    mins, offsets, values, index = [], [], [], {}
    x = mach.initial
    while True:
        low, off = reference_compact(x)
        i = index.setdefault(off.tobytes(), len(mins))
        if i < len(mins):
            return mins, offsets, values, (len(mins) + 1, len(mins) - i, low - mins[i])
        mins.append(low)
        offsets.append(off)
        best = x[mach.finals].min()
        values.append(math.inf if best >= _INF else int(best))
        x = reference_mat_vec(mach.matrix, x)


@pytest.mark.parametrize(
    "m", [*range(2, 16), *(pytest.param(m, marks=pytest.mark.slow) for m in (16, 17))]
)
def test_window_matches_a_reference_grow(m):
    try:
        _, window = run_dp(m, 10**6, keep_trace=True)
        mins, offsets, values, repeat = reference_grow(window.mach)
        assert (window.mins, window.values, window.repeat) == (mins, values, repeat)
        assert all(np.array_equal(a, b) for a, b in zip(window.offsets, offsets, strict=True))
    finally:
        if m > 15:  # no other test of the default run reads these widths
            _machinery_cache.pop(m, None)
            _window_cache.pop(m, None)


def walk_backtrack(window, n):
    """Reference chain: the per-column walk from column n down to 1, one step per column.

    Same tie-break as DPWindow.backtrack (smallest final id, then smallest
    predecessor id) but no tiling and a memo that lives for one call.
    """
    matrix, finals, mins, offsets = window.mach.matrix, window.mach.finals, window.mins, window.offsets
    i, shift = window.locate(n)
    low = int(offsets[i][finals].min(initial=OFF_INF))
    p = int(np.flatnonzero(finals & (offsets[i] == low))[0])
    ids = [p]
    steps = {}
    for r in range(n, 1, -1):
        j, prev_shift = window.locate(r - 1)
        q = steps.get((i, j, p))
        if q is None:
            target = (
                mins[i] + shift + int(offsets[i][p]) - int(matrix.row_zeros[p])
                - mins[j] - prev_shift
            )
            row = predecessors(matrix, p)
            q = steps[i, j, p] = int(row[np.flatnonzero(offsets[j][row] == target)[0]])
        ids.append(q)
        p, i, shift = q, j, prev_shift
    ids.reverse()
    return ids, window.value(n)


def cold_window(window, n):
    """The window a cold run_dp(m, n) leaves, cut from a complete one.

    It holds min(n, t - 1) columns, the repeat only when n >= t, and then
    memos filled as grow fills them, else empty ones; building it this way
    skips re-running the DP at every n.
    """
    t = window.repeat[0]
    kept = min(n, t - 1)
    cut = DPWindow(
        window.mach, window.mins[:kept], window.offsets[:kept], window.values[:kept],
        window.repeat if n >= t else None, window.ends[:kept],
    )
    if n >= t:
        cut._fill()
    return cut


def periodic_ids(window, n):
    """The ids over columns t - d..n of backtrack(n)'s chain, from the head and cycle ids of the fill.

    The head ends at column n and whole cycles run down before it.
    """
    t, d, _ = window.repeat
    head, cycle = window.heads[window.locate(n)[0]][:2]
    depth = n - (t - d)
    chain = np.concatenate([np.tile(cycle, depth // len(cycle) + 2), head])
    return chain[len(chain) - depth - 1 :]


def same_set(window, got, want):
    """backtrack's (mask, value) against walk_backtrack's (ids, value): the mask is the ids' 0s."""
    zeros, best = got
    ids, value = want
    expected = window.mach.matrix.table.digits[ids] == 0
    return zeros.dtype == bool and np.array_equal(zeros, expected.T) and best == value


@pytest.mark.parametrize("m", range(2, 14))
def test_tiled_backtrack_matches_the_column_walk(m):
    _, full = run_dp(m, 10**6, keep_trace=True)
    t, d, _ = full.repeat
    s = t - d
    expected = {n: walk_backtrack(full, n) for n in [*range(1, 3 * t + 1), 1500, 10**5]}
    # really cold windows, re-grown from nothing, at the edges of the periodic stretch
    for n in (1, 2, s - 1, s, s + 1, t - 1, t, t + 1, t + d, 3 * t, 1500, 10**5):
        _window_cache.pop(m, None)
        _, window = run_dp(m, n, keep_trace=True)
        cut = cold_window(full, n)
        assert (window.mins, window.repeat, window.ends) == (cut.mins, cut.repeat, cut.ends), n
        assert [off.tobytes() for off in window.offsets] == [off.tobytes() for off in cut.offsets], n
        assert same_set(window, window.backtrack(n), expected[n]), ("popped", n)
    _, warm = run_dp(m, 10**6, keep_trace=True)
    for n, (ids, _) in expected.items():
        assert same_set(warm, cold_window(full, n).backtrack(n), expected[n]), ("cold", n)
        assert same_set(warm, warm.backtrack(n), expected[n]), ("warm", n)
        if n >= s:
            # the fill's ids reach column s, and its tail there is the walk's
            assert np.array_equal(periodic_ids(warm, n), ids[s - 1 :]), n
            tail = warm.tails[ids[s - 1]]
            assert np.array_equal(tail, (warm.mach.matrix.table.digits[ids[:s]] == 0).T), n


def test_backtrack_memo_lives_on_the_window():
    _window_cache.pop(13, None)
    _, window = run_dp(13, 80, keep_trace=True)
    assert window.repeat is None and not window.heads and not window.tails
    _, window = run_dp(13, 10**5, keep_trace=True)
    t, d, _ = window.repeat
    s = t - d
    digits = window.mach.matrix.table.digits
    # complete at the repeat: a head and cycle for every stored column X^n
    # reads from column s on, and a tail for every word they reach at s
    assert sorted(window.heads) == list(range(s - 1, t - 1))
    reached = set()
    for i, (head, cycle, head_zeros, cycle_zeros) in window.heads.items():
        assert len(cycle) % d == 0 and len(head) % d == 0 and len(head) + len(cycle) < 2 * t
        # the cycle mask holds whole cycles, at least 256 columns
        span = cycle_zeros.shape[1]
        assert span % len(cycle) == 0 and 256 <= span < 256 + len(cycle)
        for ids, zeros in ((head, head_zeros), (np.resize(cycle, span), cycle_zeros)):
            assert ids.dtype == np.intp and zeros.dtype == bool
            assert np.array_equal(zeros, (digits[ids] == 0).T)
        reached |= {int(periodic_ids(window, n)[0]) for n in range(i + 1, i + 1 + 4 * t, d)}
    assert window.tails.keys() == reached
    assert all(z.shape == (13, s) and z.flags.c_contiguous for z in window.tails.values())
    heads, tails = dict(window.heads), dict(window.tails)
    for n in (10**5, 1000, 80, 30):  # 30 < t - d = 73 walks straight down
        extract_min_set(13, n)
        assert window.heads.keys() == heads.keys() and window.tails.keys() == tails.keys(), n
        assert all(window.heads[i] is heads[i] for i in heads), n
        assert all(window.tails[w] is tails[w] for w in tails), n


def test_a_complete_window_extracts_without_walking(monkeypatch):
    calls = []
    for m in range(2, 14):
        _, window = run_dp(m, 10**6, keep_trace=True)
        t, d, _ = window.repeat
        heads, tails = set(window.heads), set(window.tails)
        walk = DPWindow._walk
        monkeypatch.setattr(DPWindow, "_periodic_walk", lambda self, i: calls.append((m, "periodic", i)))
        monkeypatch.setattr(
            DPWindow, "_walk", lambda self, r, p: calls.append((m, r, p)) if r == t - d else walk(self, r, p)
        )
        for n in (*range(t - d, 3 * t + 1), 1500, 10**5):
            assert verify_set(extract_min_set(m, n)).ok, (m, n)
        monkeypatch.undo()
        assert (window.heads.keys(), window.tails.keys()) == (heads, tails), m
    assert calls == []


def test_warm_backtrack_does_not_grow_with_n():
    solve_width(13, 300000)
    window = _window_cache[13]
    window.backtrack(300000)
    start = time.perf_counter()
    zeros, best = window.backtrack(300000)
    assert time.perf_counter() - start < 0.1
    assert zeros.shape == (13, 300000) and zeros.sum() == best == value(13, 300000)


@pytest.mark.slow
def test_extraction_at_300000_columns_verifies():
    s = extract_min_set(13, 300000)  # 3.9 M cells, under MAX_CELLS
    assert len(s) == value(13, 300000)
    assert verify_set(s).ok
