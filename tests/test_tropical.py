import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasidom import tropical
from quasidom.tropical import (
    INFINITY,
    _INF,
    build_initial_vector,
    build_transition_matrix,
    final_mask,
    mat_vec,
)
from quasidom.words import (
    WordTable,
    can_follow,
    enumerate_suitable,
    follow_pairs,
    is_final,
    is_initial,
    zeros,
)


def predecessors(matrix, p):
    """The ids q with a finite entry A[p][q]."""
    return matrix.pred_idx[matrix.pred_ptr[p] : matrix.pred_ptr[p + 1]]


def dense(matrix):
    """The full k x k matrix with _INF for missing entries (small k only)."""
    out = np.full((matrix.k, matrix.k), _INF, dtype=np.int64)
    for p in range(matrix.k):
        out[p, predecessors(matrix, p)] = matrix.row_zeros[p]
    return out


def entry(table, x, word):
    """The cost of word in the int64 cost array x, as an int or INFINITY."""
    v = x[table.words.index(word)]
    return INFINITY if v >= _INF else int(v)


@pytest.fixture(scope="module")
def t2():
    table = enumerate_suitable(2)
    return table, build_transition_matrix(table), build_initial_vector(table)


def test_initial_vector_length2(t2):
    table, _, x1 = t2
    assert entry(table, x1, "01") == 1
    assert entry(table, x1, "10") == 1
    for w in ("02", "13", "20", "31"):
        assert entry(table, x1, w) == INFINITY


def test_initial_vector_finite_entries_count_zeros():
    for m in (2, 3, 4):
        table = enumerate_suitable(m)
        x1 = build_initial_vector(table)
        for w in table:
            v = entry(table, x1, w)
            if v != INFINITY:
                assert v == zeros(w)
    table3 = enumerate_suitable(3)
    assert entry(table3, build_initial_vector(table3), "020") == 2


def test_transition_matrix_entries(t2):
    table, matrix, _ = t2
    entries = dense(matrix)
    ids = table.words.index
    assert entries[ids("20"), ids("01")] == 1
    assert entries[ids("01"), ids("01")] == _INF


@pytest.mark.parametrize("m", range(2, 8))
def test_matrix_matches_can_follow(m):
    table = enumerate_suitable(m)
    matrix = build_transition_matrix(table)
    entries = dense(matrix)
    for pi, p in enumerate(table):
        for qi, q in enumerate(table):
            if can_follow(p, q):
                assert entries[pi, qi] == zeros(p)
            else:
                assert entries[pi, qi] == _INF


# width: (k, finite entries, sha256 prefix of pred_ptr || pred_idx as little-endian int64)
MATRIX_FINGERPRINTS = {
    12: (10464, 28376, "e2dc68c7adb81419"),
    13: (22036, 64112, "5a71f862e3dfd89f"),
    14: (46399, 144940, "f2abc24caf51d156"),
    15: (97704, 327611, "372f57ab35ae90ac"),
}


@pytest.mark.parametrize(
    "m", [12, 13, pytest.param(14, marks=pytest.mark.slow), pytest.param(15, marks=pytest.mark.slow)]
)
def test_matrix_fingerprint(m):
    matrix = build_transition_matrix(enumerate_suitable(m))
    blob = matrix.pred_ptr.astype("<i8").tobytes() + matrix.pred_idx.astype("<i8").tobytes()
    digest = hashlib.sha256(blob).hexdigest()[:16]
    assert (matrix.k, matrix.finite_entries, digest) == MATRIX_FINGERPRINTS[m]


def reference_predecessors(table):
    """pred_ptr and pred_idx from one join of the whole table with itself."""
    q, p = follow_pairs(table.digits, table.digits)
    ptr = np.zeros(table.k + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=table.k), out=ptr[1:])
    return ptr, q[np.lexsort((q, p))].astype(np.int64)


@pytest.mark.parametrize("rows", [1, 7, "k"])
@pytest.mark.parametrize("m", range(2, 11))
def test_blocked_build_matches_one_shot_join(m, rows, monkeypatch):
    # 7 leaves a short last block at every width but 8 (k = 532); "k" joins
    # the whole table as one block
    table = enumerate_suitable(m)
    monkeypatch.setattr(tropical, "_BLOCK_ROWS", table.k if rows == "k" else rows)
    matrix = build_transition_matrix(table)
    ptr, idx = reference_predecessors(table)
    assert np.array_equal(matrix.pred_ptr, ptr)
    assert np.array_equal(matrix.pred_idx, idx)
    assert matrix.pred_idx.dtype == np.int64


@pytest.mark.parametrize("m,limit", [(13, 5_000_000), (15, 20_000_000)])
def test_build_peak_memory(m, limit):
    # one join of the whole table peaked at 10.7 MB (width 13) and 54.4 MB
    # (width 15) under tracemalloc
    table = enumerate_suitable(m)
    tracemalloc.start()
    try:
        build_transition_matrix(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


@pytest.mark.parametrize("m", range(2, 10))
def test_vectors_match_word_predicates(m):
    table = enumerate_suitable(m)
    initial = build_initial_vector(table)
    matrix = build_transition_matrix(table)
    assert [entry(table, initial, w) for w in table] == [
        zeros(w) if is_initial(w) else INFINITY for w in table
    ]
    assert final_mask(table).tolist() == [is_final(w) for w in table]
    assert matrix.row_zeros.tolist() == [zeros(w) for w in table]


@pytest.mark.parametrize("m", range(2, 8))
def test_restrict_keeps_the_submatrix_of_the_kept_words(m):
    # a matrix built over a sub-table of the suitable words (as the live words
    # are) is the submatrix of the full matrix on the kept words
    table = enumerate_suitable(m)
    matrix = build_transition_matrix(table)
    full = dense(matrix)
    rng = np.random.default_rng(m)
    live = np.isin(table.digits.view(f"V{m}").ravel(),
                   enumerate_suitable(m, live=True).digits.view(f"V{m}").ravel())
    for keep in (rng.random(table.k) < 0.5, live, np.ones(table.k, bool), np.zeros(table.k, bool)):
        digits = table.digits[keep]
        digits.flags.writeable = False
        kept = build_transition_matrix(WordTable(m, digits))
        ids = np.flatnonzero(keep)
        assert np.array_equal(dense(kept), full[np.ix_(ids, ids)])
        assert np.array_equal(kept.row_zeros, matrix.row_zeros[ids])
        assert kept.pred_idx.dtype == np.int64 and kept.table.m == m
        assert np.array_equal(kept.table.digits, table.digits[ids])
        assert not kept.table.digits.flags.writeable
        for p in range(kept.k):
            assert (np.diff(predecessors(kept, p)) > 0).all()
        x = np.arange(kept.k, dtype=np.int64)
        assert mat_vec(kept, x).shape == (kept.k,)


def test_mat_vec_absorbs_infinity(t2):
    table, matrix, _ = t2
    all_inf = np.full(table.k, _INF, dtype=np.int64)
    out = mat_vec(matrix, all_inf)
    assert all(entry(table, out, w) == INFINITY for w in table)


def test_second_column_value(t2):
    table, matrix, x1 = t2
    x2 = mat_vec(matrix, x1)
    assert entry(table, x2, "20") == 2  # reaches the 2x2 grid minimum
    finals = final_mask(table)
    assert x2[finals].min() == 2


def _vectors(table):
    cost = st.one_of(st.just(INFINITY), st.integers(min_value=0, max_value=30))
    return st.lists(cost, min_size=table.k, max_size=table.k).map(
        lambda vals: np.array([_INF if v == INFINITY else v for v in vals], dtype=np.int64)
    )


TABLE3 = enumerate_suitable(3)
MATRIX3 = build_transition_matrix(TABLE3)


@given(_vectors(TABLE3), _vectors(TABLE3))
def test_mat_vec_monotone(x, y):
    lo = np.minimum(x, y)
    out_lo = mat_vec(MATRIX3, lo)
    out_x = mat_vec(MATRIX3, x)
    assert (out_lo <= out_x).all()


def _plus(x, c):
    """x + c on finite entries; _INF is absorbing."""
    return np.where(x >= _INF, _INF, x + np.int64(c))


@given(_vectors(TABLE3), st.integers(min_value=0, max_value=10))
def test_mat_vec_translation_equivariance(x, c):
    lhs = mat_vec(MATRIX3, _plus(x, c))
    rhs = _plus(mat_vec(MATRIX3, x), c)
    assert np.array_equal(lhs, rhs)


def test_single_predecessor_row_is_translation():
    # any row with exactly one finite entry satisfies out = A[p][q] + x[q]
    for m in (2, 3):
        table = enumerate_suitable(m)
        matrix = build_transition_matrix(table)
        x = np.arange(1, table.k + 1, dtype=np.int64)
        out = mat_vec(matrix, x)
        for p in range(table.k):
            preds = predecessors(matrix, p)
            if len(preds) == 1:
                q = int(preds[0])
                assert out[p] == matrix.row_zeros[p] + x[q]


def test_rows_without_predecessors_stay_infinite():
    table = enumerate_suitable(4)
    matrix = build_transition_matrix(table)
    x = np.zeros(table.k, dtype=np.int64)
    out = mat_vec(matrix, x)
    for p in range(table.k):
        if len(predecessors(matrix, p)) == 0:
            assert out[p] == _INF


@pytest.mark.parametrize("m,depth", [(2, 5), (3, 4), (4, 3)])
def test_iterates_match_exhaustive_chain_enumeration(m, depth):
    # X^r(p) is the minimum zero count over column chains ending at p, where
    # the first column is admissible as a start and consecutive columns obey
    # the can-follow relation; enumerate all chains outright and compare.
    from quasidom.words import is_initial

    table = enumerate_suitable(m)
    matrix = build_transition_matrix(table)
    succ = {
        q: [p for p in table if can_follow(p, q)] for q in table
    }
    best = {
        1: {w: zeros(w) for w in table if is_initial(w)}
    }
    for r in range(2, depth + 1):
        cur = {}
        for q, cost in best[r - 1].items():
            for p in succ[q]:
                c = cost + zeros(p)
                if p not in cur or c < cur[p]:
                    cur[p] = c
        best[r] = cur

    x = build_initial_vector(table)
    for r in range(1, depth + 1):
        if r > 1:
            x = mat_vec(matrix, x)
        for w in table:
            expected = best[r].get(w, INFINITY)
            assert entry(table, x, w) == expected, (m, r, w)
