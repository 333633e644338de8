import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasidom import tropical
from quasidom.tropical import (
    OFF_INF,
    _INF,
    TropicalMatrix,
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
    """The ids q with a finite entry A[p][q], ascending, as an int64 array.

    Read down row p's block column through the record that follow() reads.
    """
    views, block_of, pos, _ = matrix._views
    count = int(matrix.pred_ptr[p + 1] - matrix.pred_ptr[p])
    if not count:
        return np.empty(0, np.int64)
    flat, start, width = views[block_of[p]]
    col = pos[p] - start
    return np.asarray(flat[col : col + count * width : width], np.int64)


def pred_idx(matrix):
    """The CSR predecessor array that goes with matrix.pred_ptr, read back from the blocks."""
    ptr, counts = matrix.pred_ptr, np.diff(matrix.pred_ptr)
    out = np.empty(matrix.finite_entries, dtype=np.int64)
    rows = np.argsort(matrix.block_pos, kind="stable")  # in block order
    start = 0
    for block in matrix.blocks:
        ids = rows[start : start + block.shape[1]]
        slot = np.arange(block.shape[0])[:, None]
        real = slot < counts[ids]
        out[(ptr[ids] + slot)[real]] = block[real]
        start += block.shape[1]
    return out


def dense(matrix):
    """The full k x k matrix with _INF for missing entries (small k only)."""
    out = np.full((matrix.k, matrix.k), _INF, dtype=np.int64)
    for p in range(matrix.k):
        out[p, predecessors(matrix, p)] = matrix.row_zeros[p]
    return out


def entry(table, x, word):
    """The cost of word in the int64 cost array x, as an int or math.inf."""
    v = x[table.words.index(word)]
    return math.inf if v >= _INF else int(v)


def reference_mat_vec(matrix, x):
    """The min-plus step on int64 columns, one np.minimum.reduceat segment per row.

    out[p] = row_zeros[p] + min over p's predecessors q of x[q], _INF where
    p has no predecessor or every x[q] is infinite.
    """
    if matrix.k != len(x):
        raise ValueError("matrix and vector sizes disagree")
    out = np.full(matrix.k, _INF, dtype=np.int64)
    nonempty = np.diff(matrix.pred_ptr) > 0
    idx = pred_idx(matrix)
    if idx.size:
        mins = np.minimum.reduceat(x[idx], matrix.pred_ptr[:-1][nonempty])
        out[nonempty] = np.where(mins >= _INF, _INF, mins + matrix.row_zeros[nonempty])
    return out


def reference_compact(data):
    """Minimum of an int64 column and its entries less that minimum, as uint8 offsets."""
    finite = data < _INF
    low = int(data.min())
    spread = data - low
    top = int(spread[finite].max(initial=0))
    if top >= OFF_INF:
        raise RuntimeError(
            f"a DP column spreads {top} above its minimum, "
            f"more than the {OFF_INF - 1} a uint8 offset holds"
        )
    return low, np.where(finite, spread, OFF_INF).astype(np.uint8)


def assert_follow_picks_the_smallest_predecessor(matrix, x, off):
    """follow's step out of the column x, kept as uint8 offsets off, against the reference step.

    For every row p with a predecessor, matrix.follow(p, [off])[1] must be
    the smallest predecessor id q with row_zeros[p] + x[q] equal to
    reference_mat_vec's entry, or p's first predecessor where that entry
    is infinite.
    """
    y = reference_mat_vec(matrix, x)
    idx, ptr, counts = pred_idx(matrix), matrix.pred_ptr, np.diff(matrix.pred_ptr)
    placed = np.flatnonzero(counts)
    if not placed.size:
        return
    rows = np.repeat(np.arange(matrix.k), counts)
    reach = (x[idx] < _INF) & (matrix.row_zeros[rows] + x[idx] == y[rows])
    slot = np.arange(len(idx)) - ptr[rows]
    first = np.minimum.reduceat(np.where(reach, slot, len(idx)), ptr[placed])
    expected = idx[ptr[placed] + np.where(y[placed] < _INF, first, 0)]
    view = memoryview(np.asarray(off))
    assert [matrix.follow(p, [view])[1] for p in placed.tolist()] == expected.tolist()


def expand(low, off):
    """The int64 column, _INF where infinite, of a column kept as low plus offsets."""
    return np.where(off == OFF_INF, _INF, off + np.int64(low))


def step(matrix, x):
    """mat_vec on an int64 column, as an int64 column."""
    low, off = mat_vec(matrix, *reference_compact(x))
    return expand(low, off)


@pytest.fixture(scope="module")
def t2():
    table = enumerate_suitable(2)
    return table, build_transition_matrix(table), build_initial_vector(table)


def test_initial_vector_length2(t2):
    table, _, x1 = t2
    assert entry(table, x1, "01") == 1
    assert entry(table, x1, "10") == 1
    for w in ("02", "13", "20", "31"):
        assert entry(table, x1, w) == math.inf


def test_initial_vector_finite_entries_count_zeros():
    for m in (2, 3, 4):
        table = enumerate_suitable(m)
        x1 = build_initial_vector(table)
        for w in table:
            v = entry(table, x1, w)
            if v != math.inf:
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
    blob = matrix.pred_ptr.astype("<i8").tobytes() + pred_idx(matrix).astype("<i8").tobytes()
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
    assert np.array_equal(pred_idx(matrix), idx)
    assert all(np.array_equal(predecessors(matrix, p), idx[ptr[p] : ptr[p + 1]]) for p in range(table.k))


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
        zeros(w) if is_initial(w) else math.inf for w in table
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
        assert all(b.dtype == np.intp for b in kept.blocks) and kept.table.m == m
        assert np.array_equal(kept.table.digits, table.digits[ids])
        assert not kept.table.digits.flags.writeable
        for p in range(kept.k):
            assert (np.diff(predecessors(kept, p)) > 0).all()
        x = np.arange(kept.k, dtype=np.int64) % 7
        low, off = mat_vec(kept, 0, x.astype(np.uint8))
        assert off.shape == (kept.k,)
        assert np.array_equal(expand(low, off), reference_mat_vec(kept, x))


def test_mat_vec_absorbs_infinity(t2):
    table, matrix, _ = t2
    low, off = mat_vec(matrix, int(_INF), np.full(table.k, OFF_INF, dtype=np.uint8))
    assert low == _INF and (off == OFF_INF).all()


def test_second_column_value(t2):
    table, matrix, x1 = t2
    x2 = step(matrix, x1)
    assert entry(table, x2, "20") == 2  # reaches the 2x2 grid minimum
    finals = final_mask(table)
    assert x2[finals].min() == 2


def _columns(table):
    """Columns of table's words as (low, uint8 offsets), each offset finite or OFF_INF."""
    offset = st.one_of(st.just(OFF_INF), st.integers(min_value=0, max_value=30))
    return st.tuples(
        st.integers(min_value=0, max_value=50),
        st.lists(offset, min_size=table.k, max_size=table.k).map(lambda v: np.array(v, np.uint8)),
    )


TABLE3 = enumerate_suitable(3)
MATRIX3 = build_transition_matrix(TABLE3)


@given(_columns(TABLE3), _columns(TABLE3))
def test_mat_vec_monotone(x, y):
    lo = reference_compact(np.minimum(expand(*x), expand(*y)))
    assert (expand(*mat_vec(MATRIX3, *lo)) <= expand(*mat_vec(MATRIX3, *x))).all()


@given(_columns(TABLE3), st.integers(min_value=0, max_value=10))
def test_mat_vec_translation_equivariance(x, c):
    low, off = x
    out_low, out = mat_vec(MATRIX3, low, off)
    shifted_low, shifted = mat_vec(MATRIX3, low + c, off)
    assert np.array_equal(shifted, out)
    assert shifted_low == (_INF if out_low == _INF else out_low + c)


@given(_columns(TABLE3))
def test_mat_vec_infinite_only_through_infinite_predecessors(x):
    # out[p] is infinite exactly when every predecessor of p is: rows with
    # none, and the all-infinite column, included
    for low, off in (x, (x[0], np.full(TABLE3.k, OFF_INF, np.uint8))):
        _, out = mat_vec(MATRIX3, low, off)
        for p in range(MATRIX3.k):
            assert (out[p] == OFF_INF) == bool((off[predecessors(MATRIX3, p)] == OFF_INF).all())


def test_single_predecessor_row_is_translation():
    # any row with exactly one finite entry satisfies out = A[p][q] + x[q]
    for m in (2, 3):
        table = enumerate_suitable(m)
        matrix = build_transition_matrix(table)
        x = np.arange(1, table.k + 1, dtype=np.int64)
        out = step(matrix, x)
        for p in range(table.k):
            preds = predecessors(matrix, p)
            if len(preds) == 1:
                q = int(preds[0])
                assert out[p] == matrix.row_zeros[p] + x[q]


def test_rows_without_predecessors_stay_infinite():
    table = enumerate_suitable(4)
    matrix = build_transition_matrix(table)
    low, out = mat_vec(matrix, 0, np.zeros(table.k, dtype=np.uint8))
    assert low == 0
    for p in range(table.k):
        if len(predecessors(matrix, p)) == 0:
            assert out[p] == OFF_INF


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
            x = step(matrix, x)
        for w in table:
            expected = best[r].get(w, math.inf)
            assert entry(table, x, w) == expected, (m, r, w)


def _reference_step(matrix, low, off):
    """reference_mat_vec then reference_compact: (low, offsets as a list), or the RuntimeError text."""
    try:
        low, out = reference_compact(reference_mat_vec(matrix, expand(low, off)))
    except RuntimeError as err:
        return str(err)
    return low, out.tolist()


def _step_or_error(matrix, low, off):
    """mat_vec as (low, offsets as a list), or the RuntimeError text."""
    try:
        low, out = mat_vec(matrix, low, off)
    except RuntimeError as err:
        return str(err)
    assert out.dtype == np.uint8 and out.shape == (matrix.k,)
    return low, out.tolist()


@pytest.mark.parametrize("m", range(2, 16))
def test_mat_vec_matches_the_reference_step(m):
    from quasidom.solver import machinery

    matrices = [machinery(m).matrix]  # from m = 3 on some initial words have no predecessor
    assert m == 2 or (np.diff(matrices[0].pred_ptr) == 0).any()
    if m <= 10:  # the full tables, where thousands of rows have none
        matrices.append(build_transition_matrix(enumerate_suitable(m)))
    rng = np.random.default_rng(m)
    for matrix in matrices:
        k = matrix.k
        columns = [(int(_INF), np.full(k, OFF_INF, np.uint8)), (3, np.zeros(k, np.uint8))]
        for top, inf_share in [(20, 0.0), (20, 0.5), (60, 0.9), (240, 0.3), (254, 0.0), (20, 1.0)]:
            off = rng.integers(0, top + 1, k).astype(np.uint8)
            off[rng.random(k) < inf_share] = OFF_INF
            columns.append((int(rng.integers(0, 1000)), off))
        results = [_reference_step(matrix, low, off) for low, off in columns]
        assert [_step_or_error(matrix, low, off) for low, off in columns] == results
        assert sum(isinstance(r, str) for r in results) < len(columns) - 2


# width: (blocks, their slots); the live entries are LIVE_COUNTS' in test_solver.py
BLOCK_SLOTS = {2: (1, 12), 5: (1, 320), 9: (2, 2956), 12: (5, 16192), 13: (7, 32078)}


@pytest.mark.parametrize("m", sorted(BLOCK_SLOTS))
def test_blocks_hold_each_predecessor_list_once_padded_with_its_first_entry(m):
    from quasidom.solver import machinery

    matrix = machinery(m).matrix
    assert (len(matrix.blocks), sum(b.size for b in matrix.blocks)) == BLOCK_SLOTS[m]
    heights = [b.shape[0] for b in matrix.blocks]
    assert heights == sorted(set(heights)) and all(h & (h - 1) == 0 for h in heights)
    # block_pos lists the rows with a predecessor in block order, then the others
    columns = [col for b in matrix.blocks for col in b.T]
    counts = np.diff(matrix.pred_ptr)
    assert sorted(matrix.block_pos[counts > 0]) == list(range(len(columns)))
    assert (matrix.block_pos[counts == 0] == len(columns)).all()
    for p in range(matrix.k):
        c = counts[p]
        assert len(predecessors(matrix, p)) == c
        if not c:
            continue
        col = columns[matrix.block_pos[p]]
        assert c <= len(col)
        assert np.array_equal(col[:c], predecessors(matrix, p)) and (col[c:] == col[0]).all()
    assert all(b.dtype == np.intp for b in matrix.blocks)
    assert not hasattr(matrix, "pred_idx")  # the lists are kept once, in the blocks


@pytest.mark.parametrize("seed", range(40))
def test_merged_buckets_cost_the_least_of_all_runs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    sizes = (rng.integers(0, 2000, n) * (rng.random(n) < 0.7)).tolist()
    full = [j for j, s in enumerate(sizes) if s]

    def cost(runs):
        return sum(
            tropical._BLOCK_COST + (sum(sizes[j] for j in full if lo <= j <= hi) << hi)
            for lo, hi in runs
        )

    runs = tropical._merge_buckets(sizes)
    # consecutive runs covering every non-empty bucket once, from its first to its last
    assert [j for lo, hi in runs for j in full if lo <= j <= hi] == full
    assert all(lo in full and hi in full for lo, hi in runs)
    best = min(
        cost([(full[a], full[b - 1]) for a, b in zip((0, *cuts), (*cuts, len(full)))])
        for r in range(len(full))
        for cuts in itertools.combinations(range(1, len(full)), r)
    ) if full else 0
    assert cost(runs) == best


def test_mat_vec_rejects_offsets_that_are_not_uint8(t2):
    _, matrix, x1 = t2
    with pytest.raises(ValueError, match="offsets must be uint8, got int64"):
        mat_vec(matrix, 0, x1)
    with pytest.raises(ValueError, match="sizes disagree"):
        mat_vec(matrix, 0, np.zeros(matrix.k + 1, np.uint8))


@pytest.mark.parametrize("m", range(2, 14))
def test_mat_vec_slots_pick_the_smallest_predecessor_on_ties(m):
    # few distinct offsets, so most rows tie between predecessors: follow picks
    # the first block slot, so the smallest id, that reaches the minimum
    from quasidom.solver import machinery

    matrix = machinery(m).matrix
    rng = np.random.default_rng(m)
    for top, inf_share in [(0, 0.0), (2, 0.3), (5, 0.0), (20, 0.8)]:
        off = rng.integers(0, top + 1, matrix.k).astype(np.uint8)
        off[rng.random(matrix.k) < inf_share] = OFF_INF
        assert_follow_picks_the_smallest_predecessor(matrix, expand(4, off), off)


def test_follow_picks_the_smallest_of_300_tied_predecessors():
    # row 0 follows every other row; row p > 0 follows row p - 1 only
    k = 301
    ptr = np.concatenate([[0], 300 + np.arange(k)])
    idx = np.concatenate([np.arange(1, k), np.arange(k - 1)])
    table = WordTable(1, np.zeros((k, 1), np.uint8))
    matrix = TropicalMatrix(table, np.ones(k, np.int64), ptr, idx)
    assert [b.shape for b in matrix.blocks] == [(1, 300), (512, 1)]
    off = np.full(k, 9, np.uint8)
    off[[270, 280, 290]] = 2  # three ties: follow picks the smallest id, 270, at block slot 269
    off[5] = OFF_INF
    low, out = mat_vec(matrix, 0, off)
    assert matrix.blocks[1][269, 0] == 270
    assert matrix.follow(0, [memoryview(off)]) == [0, 270]
    assert (low, out[0]) == (3, 0)
    assert_follow_picks_the_smallest_predecessor(matrix, expand(0, off), off)
    rng = np.random.default_rng(300)
    for _ in range(5):
        off = rng.integers(0, 4, k).astype(np.uint8)
        assert_follow_picks_the_smallest_predecessor(matrix, expand(0, off), off)


def test_follow_picks_the_smallest_predecessor_in_blocks_of_every_height():
    # rows with 1, 2..16, 17..256 and 257..700 predecessors, so blocks of every
    # height class hold rows, and some rows have none
    rng = np.random.default_rng(7)
    counts = np.concatenate([
        np.ones(1500, np.int64), rng.integers(2, 17, 701), rng.integers(17, 257, 40),
        [300, 301, 700], np.zeros(20, np.int64),
    ])
    rng.shuffle(counts)
    k = len(counts)
    ptr = np.concatenate([[0], np.cumsum(counts)])
    idx = np.concatenate([np.sort(rng.choice(k, c, replace=False)) for c in counts])
    table = WordTable(1, np.zeros((k, 1), np.uint8))
    matrix = TropicalMatrix(table, rng.integers(0, 3, k).astype(np.int8), ptr, idx)
    heights = [b.shape[0] for b in matrix.blocks]
    assert heights[0] == 1 and heights[-1] > 256 and any(2 <= h <= 16 for h in heights)
    assert any(16 < h <= 256 for h in heights) and matrix.placed == k - 20
    for top, inf_share in [(0, 0.0), (2, 0.2), (9, 0.5), (200, 0.0)]:
        off = rng.integers(0, top + 1, k).astype(np.uint8)
        off[rng.random(k) < inf_share] = OFF_INF
        low, out = mat_vec(matrix, 0, off)
        assert np.array_equal(expand(low, out), reference_mat_vec(matrix, expand(0, off)))
        assert_follow_picks_the_smallest_predecessor(matrix, expand(0, off), off)
