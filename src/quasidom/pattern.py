"""Constructive minimum independent [1,2]-sets for grids with 14 <= m <= n.

The extended (m+2) x (n+2) grid is partitioned into five diagonal residue
classes V_s = {(i, j): 2i + j = s (mod 5)}; each is a perfect code of the
infinite grid.  For m >= 16 the smallest class (`choose_residue`) becomes
one bitmask per row (`projected_class`), five distinct rows plus the two
border rows, whose four 8x8 corner blocks are repaired in place.  The
GridSet's bits are one 5-row period of the class tiled over rows 9..m-8
plus the 16 repaired border rows: a valid set of exactly
floor((m+2)(n+2)/5) - 4 vertices, the known lower bound, built without
numpy.  Widths 14 and 15 take the set from the transfer-matrix
extractor instead.  The tests' reference is `diagonal_partition`, V_s as
(i, j) tuples, and `project_inner`.

A repair re-chooses one corner block, keeping the cells outside it fixed
and dropping one member unless the class already misses that extended-grid
corner.  It depends only on the cells of a small window around the block
(`_corner_key`), and the grids with m >= 16 read 24 windows in all, so
`_CORNER_BLOCKS` maps each of them to its repaired block and the build
only looks blocks up.  An exact column sweep in tests/test_pattern.py
generates that table; its tests re-search every window, prove that no
grid with m >= 16 reads any other (`test_corner_repair_is_periodic`), and
pin the output.
"""

from __future__ import annotations

from .errors import ConstructionError, UnsupportedGridError
from .formulas import big_grid_value
from .grids import GridSet, _tile, check_cell_cap, extract_min_set, verify_set

# side of the square corner regions that the repair search re-chooses
CORNER_SIZE = 8


# diagonal_partition and project_inner are the tests' tuple reference for
# projected_class, and the benchmark's tracer wraps them by name
# (pattern.residue_s), so they stay here although the build never calls them.
def diagonal_partition(m: int, n: int, s: int) -> frozenset[tuple[int, int]]:
    """Residue class {(i, j): 2i + j = s (mod 5)} on the extended grid.

    Extended coordinates run 0..m+1 and 0..n+1; the inner grid is 1..m x 1..n.
    """
    if m < 1 or n < 1:
        raise ValueError(f"grid dimensions must be positive, got ({m}, {n})")
    if s not in range(5):
        raise ValueError(f"residue must be in 0..4, got {s}")
    return frozenset(
        (i, j) for i in range(m + 2) for j in range(n + 2) if (2 * i + j) % 5 == s
    )


def project_inner(cells: frozenset[tuple[int, int]], m: int, n: int) -> GridSet:
    """Replace boundary vertices of an extended-grid set by their inner neighbor.

    Side vertices move one step inward; the four extended-grid corners have
    no inner neighbor at distance one and are dropped, which is what makes
    the projected class smaller near the corners it occupies.
    """
    sides = [(i, j) for i, j in cells if 1 <= i <= m or 1 <= j <= n]  # not an extended corner
    return GridSet(m, n, [(min(max(i, 1), m), min(max(j, 1), n)) for i, j in sides])


def projected_class(m: int, n: int, s: int) -> list[int]:
    """The cells of `project_inner(diagonal_partition(m, n, s), m, n)` as row bitmasks.

    Entry i - 1 holds row i, with column j at bit j - 1.  Extended row e of
    V_s is one 5-periodic run of bits shifted by (s - 2e - 1) mod 5.  The
    border lines are ORed one step inward; the extended corners fall outside
    every fold, so they drop out.  So row i depends only on i mod 5, except
    rows 1 and m, which also hold the folded rows 0 and m + 1: five rows are
    built and the list repeats them.
    """
    width = (1 << n) - 1
    every5 = int("00001" * (n // 5 + 1), 2)  # columns 1, 6, 11, ...

    def inner(e: int) -> int:  # extended row e on columns 1..n
        return every5 << (s - 2 * e - 1) % 5 & width

    # extended columns 0 and n + 1 fold onto columns 1 and n
    period = [
        inner(i) | (2 * i % 5 == s) | ((2 * i + n + 1) % 5 == s) << (n - 1) for i in range(1, 6)
    ]
    rows = (period * (m // 5 + 1))[:m]
    rows[0] |= inner(0)
    rows[-1] |= inner(m + 1)
    return rows


def choose_residue(m: int, n: int) -> int:
    """Residue whose class is smallest on the extended grid (ties: smallest s).

    Row i meets V_s in the columns j = (s - 2i) mod 5, +5, +10, ... <= n + 1,
    so V_s counts, for each u mod 5, the extended rows i = u (mod 5) times
    the columns j = s - 2u (mod 5).
    """
    rows = [(m + 6 - u) // 5 for u in range(5)]  # i = u (mod 5) in 0..m+1
    cols = [(n + 6 - r) // 5 for r in range(5)]  # j = r (mod 5) in 0..n+1
    sizes = [sum(rows[u] * cols[(s - 2 * u) % 5] for u in range(5)) for s in range(5)]
    return min(range(5), key=lambda s: (sizes[s], s))


def _corner_key(rows: list[int], n: int, r1: int, c1: int, net: int) -> tuple:
    """The cells that repairing the corner block with top-left cell (r1, c1) depends on.

    The window is rows r1-2..r2+2 and columns c1-3..c2+2 (r2, c2 the
    block's last row and column) clipped to the grid, h x w cells with
    top-left cell (top, left).  The key is (h, w, r1 - top, c1 - left, net,
    rows), with the window's rows as w-bit slices of the row bitmasks.
    """
    top, bottom = max(1, r1 - 2), min(len(rows), r1 + CORNER_SIZE + 1)
    left, right = max(1, c1 - 3), min(n, c1 + CORNER_SIZE + 1)
    w = right - left + 1
    window = tuple(row >> (left - 1) & (1 << w) - 1 for row in rows[top - 1 : bottom])
    return (bottom - top + 1, w, r1 - top, c1 - left, net, window)


def _corner_block(rows: list[int], n: int, r1: int, c1: int, net: int) -> tuple[int, ...] | None:
    """The _CORNER_BLOCKS block at (r1, c1), column c1 + k at bit k; None if the window is new."""
    return _CORNER_BLOCKS.get(_corner_key(rows, n, r1, c1, net))


def _join(rows: list[int], n: int) -> int:
    """The n-bit rows as one int, rows[0] in the lowest n bits."""
    bits = 0
    for row in reversed(rows):
        bits = bits << n | row
    return bits


def _check_wide(m: int, n: int) -> None:
    if not 14 <= m <= n:
        raise UnsupportedGridError(f"diagonal construction needs 14 <= m <= n, got ({m}, {n})")


def _corners(m: int, n: int, s: int) -> list[tuple[str, int, int, int]]:
    """(name, top row, left column, net) of each 8x8 corner block, in repair order.

    net is the number of members the repair drops: 1, unless V_s holds the
    block's extended-grid corner, which the projection already drops.
    """
    r, c = m - CORNER_SIZE + 1, n - CORNER_SIZE + 1
    # (name, top-left cell, extended-grid corner)
    corners = [
        ("top-left", 1, 1, 0, 0),
        ("top-right", 1, c, 0, n + 1),
        ("bottom-left", r, 1, m + 1, 0),
        ("bottom-right", r, c, m + 1, n + 1),
    ]
    return [(name, r1, c1, int((2 * ei + ej) % 5 != s)) for name, r1, c1, ei, ej in corners]


def construction_info(m: int, n: int) -> dict:
    """How build_big_grid_set(m, n) builds its set: {"s", "regions", "nets"}.

    s is the residue class, regions the 8x8 corner blocks in repair order
    and nets the members each block drops: 1, unless V_s already holds its
    extended-grid corner, which the projection drops.  Widths 14 and 15
    give {"s": None, "regions": [], "nets": [], "fallback": "dp"}.  Raises
    UnsupportedGridError outside 14 <= m <= n.
    """
    _check_wide(m, n)
    if m <= 15:
        return {"s": None, "regions": [], "nets": [], "fallback": "dp"}
    s = choose_residue(m, n)
    corners = _corners(m, n, s)
    k = CORNER_SIZE
    return {
        "s": s,
        "regions": [
            {"name": name, "rows": [r1, r1 + k - 1], "cols": [c1, c1 + k - 1]}
            for name, r1, c1, _ in corners
        ],
        "nets": [net for *_, net in corners],
    }


def build_big_grid_set(m: int, n: int) -> GridSet:
    """An independent [1,2]-set of size floor((m+2)(n+2)/5) - 4 for 14 <= m <= n.

    Widths 14 and 15 use the width-m dynamic program.  Wider grids start
    from the `projected_class` rows of `choose_residue(m, n)` and repair
    the corner blocks of `construction_info(m, n)` in its order, writing
    each block back before the next corner reads the rows.  The repairs
    touch only the top and bottom 8 rows; rows 9..m-8 keep the class's
    5-row period, so the set's bits are that period tiled over the middle
    band plus the 16 repaired border rows, joined by shifts.  The set is
    verified before it is returned.

    Raises UnsupportedGridError outside 14 <= m <= n, ConstructionError if
    a corner's window is not in _CORNER_BLOCKS or the result fails
    verification, and ResourceCapError above grids.MAX_CELLS cells.
    """
    _check_wide(m, n)
    check_cell_cap(m, n)
    target = big_grid_value(m, n)

    if m <= 15:
        # the top and bottom 8x8 corners would overlap; the DP is exact here
        result = extract_min_set(m, n)
        if len(result) != target:
            raise ConstructionError(
                f"DP extraction for ({m}, {n}) produced {len(result)} members, expected {target}"
            )
        return result

    s, k = choose_residue(m, n), CORNER_SIZE
    rows = projected_class(m, n, s)
    # rows k+1..k+5 are one period of the middle band k+1..m-k, which no repair touches;
    # taken before the repairs, as the bottom ones rewrite some of them when m <= 20
    band = _tile(_join(rows[k : k + 5], n), 5 * n, (m - 2 * k) * n)
    for name, r1, c1, net in _corners(m, n, s):
        block = _corner_block(rows, n, r1, c1, net)
        if block is None:
            raise ConstructionError(
                f"no repaired block for the {name} corner window of ({m}, {n}) with s={s}"
            )
        outside = ~(((1 << k) - 1) << (c1 - 1))
        for r, b in enumerate(block, start=r1 - 1):
            rows[r] = rows[r] & outside | b << (c1 - 1)
    # row m holds the most significant bits
    bits = _join(rows[:k], n) | band << k * n | _join(rows[-k:], n) << (m - k) * n
    result = GridSet.from_bits(m, n, bits)
    if len(result) != target or not verify_set(result).ok:
        raise ConstructionError(
            f"corner repair of ({m}, {n}) with s={s} gave an invalid set of {len(result)} "
            f"members; target {target}"
        )
    return result


# The repaired block of every corner window that a grid with m >= 16 reads, keyed by
# _corner_key.  The sweep in tests/test_pattern.py generates it (`PYTHONPATH=src python
# tests/test_pattern.py` prints it), and its tests re-search every key and prove it complete.
_CORNER_BLOCKS: dict[tuple, tuple[int, ...]] = {
    (10, 10, 0, 0, 0, (660, 33, 264, 66, 529, 132, 33, 264, 66, 529)):
        (148, 33, 8, 66, 17, 132, 33, 8),
    (10, 10, 0, 0, 1, (165, 264, 66, 529, 132, 33, 264, 66, 529, 132)):
        (68, 17, 68, 17, 132, 33, 8, 66),
    (10, 10, 0, 0, 1, (297, 66, 529, 132, 33, 264, 66, 529, 132, 33)):
        (17, 68, 17, 132, 33, 8, 66, 17),
    (10, 10, 0, 0, 1, (330, 529, 132, 33, 264, 66, 529, 132, 33, 264)):
        (68, 17, 132, 33, 8, 66, 17, 132),
    (10, 10, 0, 0, 1, (595, 132, 33, 264, 66, 529, 132, 33, 264, 66)):
        (81, 132, 33, 8, 66, 17, 132, 33),
    (10, 10, 2, 0, 0, (529, 132, 33, 264, 66, 529, 132, 33, 264, 594)):
        (34, 8, 69, 16, 130, 40, 1, 84),
    (10, 10, 2, 0, 1, (33, 264, 66, 529, 132, 33, 264, 66, 529, 165)):
        (66, 17, 132, 33, 8, 66, 17, 164),
    (10, 10, 2, 0, 1, (66, 529, 132, 33, 264, 66, 529, 132, 33, 330)):
        (132, 33, 8, 66, 16, 133, 32, 74),
    (10, 10, 2, 0, 1, (132, 33, 264, 66, 529, 132, 33, 264, 66, 661)):
        (8, 66, 17, 132, 34, 8, 65, 148),
    (10, 10, 2, 0, 1, (264, 66, 529, 132, 33, 264, 66, 529, 132, 297)):
        (16, 133, 32, 10, 64, 21, 128, 42),
    (10, 11, 0, 3, 0, (594, 132, 1057, 264, 1090, 528, 132, 1057, 264, 1090)):
        (42, 128, 20, 65, 40, 130, 16, 68),
    (10, 11, 0, 3, 1, (660, 1057, 264, 1090, 528, 132, 1057, 264, 1090, 528)):
        (82, 4, 161, 8, 66, 16, 132, 33),
    (10, 11, 0, 3, 1, (1186, 264, 1090, 528, 132, 1057, 264, 1090, 528, 132)):
        (84, 1, 168, 2, 80, 4, 161, 8),
    (10, 11, 0, 3, 1, (1189, 264, 1090, 528, 132, 1057, 264, 1090, 528, 132)):
        (84, 1, 168, 2, 80, 4, 161, 8),
    (10, 11, 0, 3, 1, (1321, 1090, 528, 132, 1057, 264, 1090, 528, 132, 1057)):
        (165, 8, 66, 16, 132, 33, 136, 66),
    (10, 11, 0, 3, 1, (1354, 528, 132, 1057, 264, 1090, 528, 132, 1057, 264)):
        (169, 2, 80, 4, 161, 8, 66, 16),
    (10, 11, 2, 3, 0, (66, 528, 132, 1057, 264, 1090, 528, 132, 1057, 330)):
        (16, 132, 33, 136, 34, 132, 17, 68),
    (10, 11, 2, 3, 0, (1090, 528, 132, 1057, 264, 1090, 528, 132, 1057, 330)):
        (16, 132, 33, 136, 34, 132, 17, 68),
    (10, 11, 2, 3, 1, (132, 545, 264, 1090, 528, 132, 1057, 264, 1090, 660)):
        (33, 136, 66, 16, 132, 33, 136, 34),
    (10, 11, 2, 3, 1, (132, 1057, 264, 1090, 528, 132, 1057, 264, 1090, 660)):
        (33, 136, 66, 16, 132, 33, 136, 34),
    (10, 11, 2, 3, 1, (264, 1090, 528, 132, 1057, 264, 1090, 528, 132, 1321)):
        (66, 16, 132, 33, 136, 34, 136, 34),
    (10, 11, 2, 3, 1, (528, 132, 1057, 264, 1090, 528, 132, 1057, 264, 1618)):
        (132, 33, 136, 66, 16, 132, 33, 74),
    (10, 11, 2, 3, 1, (1057, 264, 1090, 528, 132, 1057, 264, 1090, 528, 1189)):
        (136, 66, 16, 132, 33, 136, 18, 68),
    (10, 11, 2, 3, 1, (1288, 66, 528, 132, 1057, 264, 1090, 528, 132, 1321)):
        (66, 16, 132, 33, 136, 34, 136, 34),
}
