import functools
import hashlib
import json
from unittest import mock

import pytest

from quasidom import pattern
from quasidom.errors import ConstructionError
from quasidom.grids import verify_set
from quasidom.pattern import (
    CORNER_SIZE,
    _representative,
    build_big_grid_set,
    choose_residue,
    construction_info,
    diagonal_partition,
    project_inner,
    projected_class,
)
from quasidom.solver import big_grid_value


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    # every test starts from an empty memo of repaired blocks and leaves the package's alone
    monkeypatch.setattr(pattern, "_REPAIRS", {})


def _build_afresh(m, n):
    """build_big_grid_set(m, n) from an empty memo; checks that it looked up all four corners."""
    pattern._REPAIRS.clear()
    search, lookups = pattern._corner_block, []

    def counted(*args):
        lookups.append(args)
        return search(*args)

    with mock.patch.object(pattern, "_corner_block", counted):
        result = build_big_grid_set(m, n)
    assert len(lookups) == 4, (m, n)
    return result


def test_partition_small_example():
    # 1x1 inner grid -> 3x3 extended grid
    assert diagonal_partition(1, 1, 0) == frozenset({(0, 0), (2, 1)})


@pytest.mark.parametrize("m,n", [(1, 1), (5, 9), (14, 18), (16, 23)])
def test_partition_covers_extended_grid(m, n):
    classes = [diagonal_partition(m, n, s) for s in range(5)]
    union = set().union(*classes)
    assert len(union) == (m + 2) * (n + 2)
    assert sum(len(c) for c in classes) == (m + 2) * (n + 2)
    total = (m + 2) * (n + 2)
    for c in classes:
        assert total // 5 <= len(c) <= -(-total // 5)


def test_projection_basics():
    m, n = 6, 7
    cells = frozenset({(3, 3), (0, 4), (7, 2), (5, 0), (2, 8), (0, 0), (7, 8)})
    inner = project_inner(cells, m, n)
    assert (3, 3) in inner  # inner vertex kept
    assert (1, 4) in inner  # top edge moves down
    assert (6, 2) in inner  # bottom edge moves up
    assert (5, 1) in inner  # left edge moves right
    assert (2, 7) in inner  # right edge moves left
    assert (1, 1) not in inner and (6, 7) not in inner  # corners dropped
    assert len(inner) <= len(cells)


def test_projected_class_mask_matches_the_tuple_reference():
    for m in range(1, 31):
        for n in range(1, 31):
            for s in range(5):
                rows = projected_class(m, n, s)
                assert len(rows) == m and all(0 <= r < 1 << n for r in rows)
                cells = {(i, j) for i, r in enumerate(rows, 1) for j in range(1, n + 1) if r >> (j - 1) & 1}
                assert cells == project_inner(diagonal_partition(m, n, s), m, n).members, (m, n, s)


def test_projected_class_rows_repeat_with_period_5_except_rows_1_and_m():
    for m in range(1, 41):
        for n in (1, 2, 7, 23, 40):
            for s in range(5):
                rows = projected_class(m, n, s)
                for i in range(2, m - 5):  # rows i and i + 5, both in 2..m-1
                    assert rows[i - 1] == rows[i + 4], (m, n, s, i)


@pytest.mark.parametrize("m,n", [(14, 14), (14, 18), (15, 20), (17, 23)])
def test_projection_never_grows(m, n):
    for s in range(5):
        v = diagonal_partition(m, n, s)
        assert len(project_inner(v, m, n)) <= len(v)


@functools.cache
def _class_sizes(m, n):
    return [len(diagonal_partition(m, n, r)) for r in range(5)]


def test_choose_residue_attains_minimum():
    for m in range(1, 31):
        for n in range(1, 31):
            s = choose_residue(m, n)
            sizes = _class_sizes(m, n)
            assert sizes[s] == min(sizes), (m, n)
            assert sizes[s] <= (m + 2) * (n + 2) // 5, (m, n)


def _reference_choose_residue(m, n):
    """choose_residue as a sum over the m + 2 extended rows."""
    sizes = [sum((n + 6 - (s - 2 * i) % 5) // 5 for i in range(m + 2)) for s in range(5)]
    return min(range(5), key=lambda s: (sizes[s], s))


def test_choose_residue_matches_the_row_sum():
    for m in range(1, 201):
        for n in range(1, 201):
            assert choose_residue(m, n) == _reference_choose_residue(m, n), (m, n)


def test_choose_residue_tie_break():
    # when several classes tie, the smallest residue wins
    for m in range(1, 31):
        for n in range(1, 31):
            sizes = _class_sizes(m, n)
            assert choose_residue(m, n) == sizes.index(min(sizes)), (m, n)


PUBLISHED_SMALL_CASES = {
    (14, 14): 47,
    (14, 15): 50,
    (14, 16): 53,
    (14, 17): 56,
    (15, 15): 53,
    (15, 16): 57,
    (15, 17): 60,
}


@pytest.mark.parametrize("m,n", sorted(PUBLISHED_SMALL_CASES))
def test_small_big_grid_cases(m, n):
    s = build_big_grid_set(m, n)
    assert len(s) == PUBLISHED_SMALL_CASES[(m, n)]
    assert verify_set(s).ok


@pytest.mark.parametrize("m,n", [(14, 18), (16, 16), (17, 19), (18, 22), (21, 25)])
def test_big_grid_target_and_validity(m, n):
    s = build_big_grid_set(m, n)
    assert len(s) == big_grid_value(m, n)
    assert verify_set(s).ok


def test_build_rejects_small_grids():
    with pytest.raises(ValueError):
        build_big_grid_set(13, 20)
    with pytest.raises(ValueError):
        build_big_grid_set(15, 14)
    with pytest.raises(ValueError):
        construction_info(13, 20)


def test_changes_are_localized_for_corner_repairs():
    m, n = 18, 22
    result, info = build_big_grid_set(m, n), construction_info(m, n)
    assert info["s"] is not None
    base = project_inner(diagonal_partition(m, n, info["s"]), m, n)
    touched = set()
    for region in info["regions"]:
        (r1, r2), (c1, c2) = region["rows"], region["cols"]
        touched |= {(i, j) for i in range(r1, r2 + 1) for j in range(c1, c2 + 1)}
    outside_result = {v for v in result.members if v not in touched}
    outside_base = {v for v in base.members if v not in touched}
    assert outside_result == outside_base


@pytest.mark.slow
def test_wider_grids_beyond_the_default_sweep():
    cases = [(22, 33), (25, 40), (31, 31), (34, 45), (40, 40), (14, 40), (16, 37), (17, 51)]
    for m, n in cases:
        s = build_big_grid_set(m, n)
        assert len(s) == big_grid_value(m, n), (m, n)
        assert verify_set(s).ok, (m, n)


# A corner's repaired block is the pattern._CORNER_BLOCKS entry of its window
# (pattern._corner_key): rows at most WINDOW_ROWS from its horizontal border
# and columns at most WINDOW_COLS from its vertical border.  The tests below
# regenerate that table with the sweep and prove it complete.
WINDOW_ROWS = 10
WINDOW_COLS = 11


def _representatives():
    for m in range(16, 25):
        low = max(m, 22)
        for n in [*range(m, 22), *range(low, low + 5)]:
            yield m, n


def _corner_windows(m, n):
    rows = {"top": (1, WINDOW_ROWS), "bottom": (m - WINDOW_ROWS + 1, m)}
    cols = {"left": (1, WINDOW_COLS), "right": (n - WINDOW_COLS + 1, n)}
    return {(r, c): (rows[r], cols[c]) for r in rows for c in cols}


def _inside(members, rows, cols):
    return {(i, j) for i, j in members if rows[0] <= i <= rows[1] and cols[0] <= j <= cols[1]}


def _sweep(rows: list[int], n: int, r1: int, c1: int, net: int) -> tuple[int, ...] | None:
    """Re-choose the corner block with top-left cell (r1, c1) of `projected_class`-style rows.

    The rows are only read.  Returns the repaired CORNER_SIZE x CORNER_SIZE
    block, one bitmask per row with column c1 + k at bit k, with exactly
    `net` fewer members than the block has now, or None if no such choice
    exists.  The sweep runs over columns c1-1..c2+2 as bitmasks of rows
    r1-2..r2+2 (clipped to the grid); a state is (column j, column j-1,
    block members used).  Choosing column j settles column j-1: each of its
    non-member cells in rows r1-1..r2+1 needs one or two of the masks left,
    right, up and down.  States are expanded in sorted order and keep the
    first predecessor found.
    """
    m = len(rows)
    r2, c2 = r1 + CORNER_SIZE - 1, c1 + CORNER_SIZE - 1
    lr1, lr2 = max(1, r1 - 2), min(m, r2 + 2)

    def span(lo: int, hi: int) -> int:
        return ((1 << (hi - lo + 1)) - 1) << (lo - lr1)

    free_mask = span(r1, r2)
    check_mask = span(max(1, r1 - 1), min(m, r2 + 1))

    jstart, jend = max(1, c1 - 1), min(n, c2 + 1)
    # columns jstart-2..jend+1 as bitmasks of rows lr1..lr2; columns off the grid are empty
    window = rows[lr1 - 1 : lr2]
    col_bits = {
        j: sum((row >> (j - 1) & 1) << t for t, row in enumerate(window)) if j > 0 else 0
        for j in range(jstart - 2, jend + 2)
    }

    def candidates(j: int) -> list[tuple[int, int]]:
        """(column, block members it adds) in increasing column order."""
        if not c1 <= j <= c2:
            return [(col_bits[j], 0)]
        fixed = col_bits[j] & ~free_mask
        cols = (fixed | v << (r1 - lr1) for v in range(1 << CORNER_SIZE))
        return [(c, bin(c & free_mask).count("1")) for c in cols if not c & (c >> 1)]

    def search() -> tuple[int, ...] | None:
        target = sum(bin(col_bits[j] & free_mask).count("1") for j in range(c1, c2 + 1)) - net
        if target < 0:
            return None
        sweep = range(jstart, jend + 2)
        layers = [{(col_bits[jstart - 1], col_bits[jstart - 2], 0): None}]
        for j in sweep:
            cands = candidates(j)
            nxt: dict[tuple[int, int, int], tuple] = {}
            for key in sorted(layers[-1]):
                prev, left, used = key
                up, down = prev << 1, prev >> 1
                # column jstart - 1 lies outside the checked stretch
                need = check_mask & ~prev if j > jstart else 0
                if need & left & up & down:
                    continue
                once = left | up | down
                twice = (left & up) | (left & down) | (up & down)
                for mem, cost in cands:
                    ok = not (mem & prev or need & ~(once | mem) or need & twice & mem)
                    if ok and used + cost <= target:
                        nxt.setdefault((mem, prev, used + cost), key)
            if not nxt:
                return None
            layers.append(nxt)
        key = min((k for k in layers[-1] if k[2] == target), default=None)
        if key is None:
            return None
        block = [0] * CORNER_SIZE
        for j, layer in zip(reversed(sweep), reversed(layers)):
            if c1 <= j <= c2:
                for t in range(CORNER_SIZE):
                    block[t] |= (key[0] >> (r1 - lr1 + t) & 1) << (j - c1)
            key = layer[key]
        return tuple(block)

    return search()


def _representatives_and_copies():
    """The grids that test_corner_repair_is_periodic builds.

    Each representative, and its copies shifted by 5 or 20 rows (m >= 20)
    and by 5 or 20 columns (n >= 22).
    """
    for m0, n0 in _representatives():
        for a in (0, 1, 4) if m0 >= 20 else (0,):
            for b in (0, 1, 4) if n0 >= 22 else (0,):
                if m0 + 5 * a <= n0 + 5 * b:
                    yield m0 + 5 * a, n0 + 5 * b


def _generate_corner_blocks():
    """pattern._CORNER_BLOCKS as the sweep gives it.

    Builds every grid of `_representatives_and_copies` from an empty memo and
    sweeps each corner window the first time a grid reads it; the table is
    every window read, with its block.
    """
    table = {}

    def sweep_once(rows, n, r1, c1, net):
        key = pattern._corner_key(rows, n, r1, c1, net)
        if key not in table:
            table[key] = _sweep(rows, n, r1, c1, net)
        return table[key]

    with mock.patch.object(pattern, "_corner_block", sweep_once):
        for m, n in _representatives_and_copies():
            _build_afresh(m, n)
    return table


def test_corner_table_is_the_generated_one():
    """The table is every window `_representatives_and_copies` reads, with its block.

    With test_corner_repair_is_periodic, no grid with m >= 16 reads a window
    outside the table.
    """
    generated = _generate_corner_blocks()
    table = pattern._CORNER_BLOCKS
    assert sorted(generated.keys() - table.keys()) == [], "windows missing from the table"
    assert sorted(table.keys() - generated.keys()) == [], "windows no grid reads"
    assert generated == table
    assert len(table) == 24


def test_corner_blocks_are_the_sweep_of_the_window_alone():
    # the window on its own, as an h x w grid, reads as the same key and sweeps to the same block
    for key, block in pattern._CORNER_BLOCKS.items():
        h, w, dr, dc, net, window = key
        rows = list(window)
        assert len(rows) == h
        assert pattern._corner_key(rows, w, dr + 1, dc + 1, net) == key
        assert _sweep(rows, w, dr + 1, dc + 1, net) == block, key
        assert len(block) == CORNER_SIZE and all(0 <= b < 1 << CORNER_SIZE for b in block)


def test_a_window_missing_from_the_table_names_its_corner(monkeypatch):
    monkeypatch.setattr(pattern, "_CORNER_BLOCKS", {})
    with pytest.raises(ConstructionError, match="top-left corner"):
        build_big_grid_set(16, 16)
    assert pattern._REPAIRS == {}


def test_blocks_are_kept_only_for_a_verified_set(monkeypatch):
    monkeypatch.setattr(pattern, "verify_set", lambda s: mock.Mock(ok=False))
    with pytest.raises(ConstructionError, match="invalid set"):
        build_big_grid_set(23, 31)
    assert pattern._REPAIRS == {}


def test_a_family_reads_no_window_once_its_blocks_are_kept(monkeypatch):
    rep, shift = _representative(33, 46)
    assert (rep, shift) == ((23, 26), (2, 4))
    fresh = {grid: _build_afresh(*grid).bits for grid in (rep, (28, 31), (33, 46))}
    assert list(pattern._REPAIRS) == [rep]  # kept by the last, farthest copy

    def no_lookup(*args):
        raise AssertionError("a kept family read a corner window")

    monkeypatch.setattr(pattern, "_corner_block", no_lookup)
    for grid, bits in fresh.items():
        assert build_big_grid_set(*grid).bits == bits, grid


def test_a_build_from_kept_blocks_is_still_verified(monkeypatch):
    build_big_grid_set(23, 31)
    monkeypatch.setattr(pattern, "verify_set", lambda s: mock.Mock(ok=False))
    with pytest.raises(ConstructionError, match="invalid set"):
        build_big_grid_set(28, 36)


def test_representatives_cover_every_wide_grid():
    reps = set(_representatives())
    assert len(reps) == 66
    assert max(n for _, n in reps) == 28
    for m in range(16, 80):
        for n in range(m, 90):
            rep, (a, b) = _representative(m, n)
            assert rep in reps, (m, n)
            assert (rep[0] + 5 * a, rep[1] + 5 * b) == (m, n)
            assert a == 0 or rep[0] >= 20, (m, n)
            assert b == 0 or rep[1] >= 22, (m, n)


def test_corner_repair_is_periodic():
    """The corner repair gives a verified set for every grid with m >= 16.

    Locality.  A corner's block is the `_CORNER_BLOCKS` entry of its key,
    which holds only its net and the cells of its window: rows at most 10
    from its horizontal border and columns at most 11 from its vertical
    border.  Top and bottom windows are disjoint once m >= 20; left and
    right windows once n >= 22.  The base pattern (the projected class
    V_s) is invariant under shifts by 5 in either direction, and
    `choose_residue` and the nets depend only on (m mod 5, n mod 5).  So
    adding 5 rows (when m >= 20) or 5 columns (when n >= 22) translates
    every corner window, and with it every repair.  Every grid with
    m >= 16 is a copy (m' + 5a, n' + 5b) of one of 66 representatives,
    with m' <= 24 and n' <= 28, where a = 0 when m' < 20 and b = 0 when
    n' < 22 (`pattern._representative`, the key the build keeps its blocks
    under).  Its set is the representative's corner windows, translated,
    over the base pattern, and its blocks are the representative's: this
    is what lets the build take them from `pattern._REPAIRS`.  Each grid
    here is built from an empty memo, so it reads its own windows.

    Validity.  A cell's verdict reads three consecutive rows and columns.
    Outside the 8x8 corner regions the set is the base pattern, so rows
    9..m-8 and columns 9..n-8 repeat with period 5.  Once such a stretch
    holds 7 lines (m or n >= 23), five more lines add no new window.  So
    for a >= 1 copy (a + 1, b) is valid when copy (a, b) is, and likewise
    for b.  Every copy thus follows from the copies with a, b <= 1, which
    are built and verified here; the far copies check the translation.
    The test below searches the far copies afresh with the sweep.
    """
    for m0, n0 in _representatives():
        rep, rep_info = _build_afresh(m0, n0), construction_info(m0, n0)
        assert len(rep) == big_grid_value(m0, n0), (m0, n0)
        assert verify_set(rep).ok, (m0, n0)
        row_shifts = (0, 1, 4) if m0 >= 20 else (0,)
        col_shifts = (0, 1, 4) if n0 >= 22 else (0,)
        for a in row_shifts:
            for b in col_shifts:
                if (a, b) != (0, 0) and m0 + 5 * a <= n0 + 5 * b:
                    copy = _assert_translated_copy(rep, rep_info, a, b)
                    if a <= 1 and b <= 1:
                        assert verify_set(copy).ok, (copy.m, copy.n)


def test_corner_repair_search_reads_only_its_window():
    # the table is keyed by the window, so the test above reads the blocks of
    # the far copies from their representatives' entries; here they are swept
    # afresh (`_build_afresh` checks that each copy searches all four corners)
    for m0, n0 in _representatives():
        if n0 < 22:
            continue
        rep, rep_info = _build_afresh(m0, n0), construction_info(m0, n0)
        with mock.patch.object(pattern, "_corner_block", _sweep):
            _assert_translated_copy(rep, rep_info, 4 if m0 >= 20 else 0, 4)


# first 16 hex digits of sha256(json.dumps([sorted members, s, nets])) for each
# representative; with the periodicity test above they pin every grid m >= 16
PINNED_DIGESTS = {
    (16, 16): "472c709a34445d74", (16, 17): "7f139d6d1f7ebc8a", (16, 18): "6d9220498beb3b00",
    (16, 19): "06101a20a364ce2c", (16, 20): "50bf85066bbc2480", (16, 21): "11f7bf0d8b4f2d78",
    (16, 22): "ff3dcab9a79930b2", (16, 23): "ac1f86b76efff0d6", (16, 24): "33cd83dc72aa43d8",
    (16, 25): "c870f7167530f5ee", (16, 26): "5b821135f258a10a", (17, 17): "00e9c7ba9587f887",
    (17, 18): "b7c3ab0a8d63a2ff", (17, 19): "43c0949578bb81e7", (17, 20): "ea1a297ca807a837",
    (17, 21): "6113bcf40e5bd30b", (17, 22): "bf724dcc03b0eea9", (17, 23): "ca2a80112fd7ff41",
    (17, 24): "db608e181581bed7", (17, 25): "af5565e3c5c400b0", (17, 26): "db5c151bf7505e17",
    (18, 18): "9b22bc12c8ec0391", (18, 19): "f6cfaff07c9b263d", (18, 20): "bb73f1568ffc47e9",
    (18, 21): "1664f7f4a6f46870", (18, 22): "1541564166837158", (18, 23): "c632f39dc7f7570d",
    (18, 24): "7ef481e6d84da778", (18, 25): "4ecb67828e66e3e3", (18, 26): "3b237b57f7b9447b",
    (19, 19): "1165d24c93aef92a", (19, 20): "1ba7f02318bb037f", (19, 21): "e93772a61ba77513",
    (19, 22): "629c7cc9faed2463", (19, 23): "3b7a5c0d8a199dc4", (19, 24): "6416f8c61f2d47ea",
    (19, 25): "038335e5f842730c", (19, 26): "bc571212f3439de7", (20, 20): "cda4f1a69636640f",
    (20, 21): "85afe835d4ace443", (20, 22): "4d523bbbec2f8ae0", (20, 23): "6c00c1069f878b6c",
    (20, 24): "38e65e1ce63b576d", (20, 25): "8cd389d197cde927", (20, 26): "7813add5c773018c",
    (21, 21): "6b07dbe7701e9e58", (21, 22): "e0aa1165e80fcffa", (21, 23): "910e3d87aaa965f5",
    (21, 24): "8483ad2cdf006b9e", (21, 25): "d8230990d99ed367", (21, 26): "544ca986c48c0e3e",
    (22, 22): "968d20c814660489", (22, 23): "41d8ee081c752c6b", (22, 24): "b0f4ded01ecccadd",
    (22, 25): "2ed3fb55978ab3b1", (22, 26): "3958fdf23d3740c8", (23, 23): "8be71a78e86e9180",
    (23, 24): "26b4c767a9dd5ccb", (23, 25): "bb8bca2b05b369f4", (23, 26): "2a6ce5a491c1c2cb",
    (23, 27): "f000bc6e010fe046", (24, 24): "bf43677322f9a668", (24, 25): "789c1de0ce64f73c",
    (24, 26): "32d51fca11af15f6", (24, 27): "259dcd5dddfed1be", (24, 28): "6b36dc00a0f1ba97",
}


def test_representatives_match_pinned_digests(monkeypatch):
    assert set(PINNED_DIGESTS) == set(_representatives())
    # the table, then every corner swept afresh, each grid from an empty memo
    for search in (pattern._corner_block, _sweep):
        monkeypatch.setattr(pattern, "_corner_block", search)
        for (m, n), digest in PINNED_DIGESTS.items():
            result, info = _build_afresh(m, n), construction_info(m, n)
            payload = json.dumps([result.sorted_members(), info["s"], info["nets"]])
            assert hashlib.sha256(payload.encode()).hexdigest()[:16] == digest, (m, n, search)


def _bits_digest(sets):
    """First 16 hex digits of the sha256 of the sets' bits, as little-endian bytes in turn."""
    h = hashlib.sha256()
    for s in sets:
        h.update(s.bits.to_bytes((s.m * s.n + 7) // 8, "little"))
    return h.hexdigest()[:16]


# the 3,655 grids 16 <= m <= n <= 100 and their digest, as the row-by-row build gave them
WIDE_GRIDS = [(m, n) for m in range(16, 101) for n in range(m, 101)]
WIDE_GRIDS_DIGEST = "28542aedf9ad0fe1"


def test_wide_grid_bits_match_the_pinned_sweep_digest():
    # in this order each representative is built before its copies, which read its blocks
    assert len(WIDE_GRIDS) == 3655
    assert _bits_digest(build_big_grid_set(m, n) for m, n in WIDE_GRIDS) == WIDE_GRIDS_DIGEST
    assert set(pattern._REPAIRS) == set(_representatives())


def test_wide_grid_bits_match_the_digest_when_far_copies_are_built_first():
    # in descending order the farthest copy of each family keeps the blocks its nearer
    # copies and its representative then read
    built = {(m, n): build_big_grid_set(m, n) for m, n in reversed(WIDE_GRIDS)}
    assert _bits_digest(built[grid] for grid in WIDE_GRIDS) == WIDE_GRIDS_DIGEST
    assert set(pattern._REPAIRS) == set(_representatives())


# the bits digest of large grids, as the row-by-row build gave them; (16, 250000) has no
# middle band and (2000, 2000) a long one, both at grids.MAX_CELLS
PINNED_BITS_DIGESTS = {
    (200, 300): "1bbcf3eb509f86ba",
    (500, 500): "039485b56f983e49",
    (300, 1000): "5f7d97a5f7f72570",
    (1000, 2000): "5d5f87f6a3c1a109",
    (16, 250_000): "454a7ac1cabb13db",
    (2000, 2000): "62b7e9b1f94baec3",
}


@pytest.mark.parametrize("m,n", sorted(PINNED_BITS_DIGESTS))
def test_large_grids_match_pinned_bits_digests(m, n):
    # build_big_grid_set verifies the set before it returns it
    assert _bits_digest([build_big_grid_set(m, n)]) == PINNED_BITS_DIGESTS[m, n]


@pytest.mark.parametrize("m,n", [(16, 16), (16, 40), (17, 17), (17, 41), (21, 33)])
def test_middle_band_edges_match_the_row_reference(m, n):
    # m = 16 has no row between the repaired top and bottom 8, m = 17 one;
    # the reference joins every repaired row as bit text
    seen = []

    def lookup(rows, n_, r1, c1, net):
        seen.append(rows)
        return pattern._CORNER_BLOCKS.get(pattern._corner_key(rows, n_, r1, c1, net))

    with mock.patch.object(pattern, "_corner_block", lookup):
        result = build_big_grid_set(m, n)
    # the copy of the rows that the lookups repair in place, after the last repair;
    # the build writes the four blocks into its own rows at once
    rows = seen[0]
    assert len(seen) == 4 and all(r is rows for r in seen)
    assert result.bits == int("".join(format(r, f"0{n}b") for r in reversed(rows)), 2)
    k = CORNER_SIZE
    assert rows[k : m - k] == projected_class(m, n, choose_residue(m, n))[k : m - k]
    assert len(result) == big_grid_value(m, n)


def _assert_translated_copy(rep, rep_info, a, b):
    """Build the copy shifted by (5a, 5b) from an empty memo and compare it with `rep`."""
    m, n = rep.m + 5 * a, rep.n + 5 * b
    copy, info = _build_afresh(m, n), construction_info(m, n)
    assert (info["s"], info["nets"]) == (rep_info["s"], rep_info["nets"]), (m, n)
    rep_windows = _corner_windows(rep.m, rep.n)
    for (r, c), (rows, cols) in _corner_windows(m, n).items():
        di = 5 * a if r == "bottom" else 0
        dj = 5 * b if c == "right" else 0
        expected = {(i + di, j + dj) for i, j in _inside(rep.members, *rep_windows[r, c])}
        assert _inside(copy.members, rows, cols) == expected, (m, n, r, c)
    base = project_inner(diagonal_partition(m, n, info["s"]), m, n)
    repaired = {
        (i, j)
        for region in info["regions"]
        for i in range(region["rows"][0], region["rows"][1] + 1)
        for j in range(region["cols"][0], region["cols"][1] + 1)
    }
    assert copy.members - repaired == base.members - repaired, (m, n)
    return copy


def test_interior_is_a_perfect_code():
    # far from the border and the repairs, non-members have one dominator
    m, n = 20, 26
    result = build_big_grid_set(m, n)
    members = result.members
    for i in range(10, m - 8):
        for j in range(10, n - 8):
            if (i, j) in members:
                continue
            count = sum(
                1
                for v in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
                if v in members
            )
            assert count == 1, (i, j)


if __name__ == "__main__":
    # print the table for src/quasidom/pattern.py
    print("_CORNER_BLOCKS: dict[tuple, tuple[int, ...]] = {")
    for key, block in sorted(_generate_corner_blocks().items()):
        print(f"    {key}:\n        {block},")
    print("}")
