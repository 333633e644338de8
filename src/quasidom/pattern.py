"""Constructive minimum independent [1,2]-sets for grids with 14 <= m <= n.

The extended (m+2) x (n+2) grid is partitioned into five diagonal residue
classes V_s = {(i, j): 2i + j = s (mod 5)}; each is a perfect code of the
infinite grid.  For m >= 16 the set is the smallest class
(`choose_residue`) projected onto the inner grid, its border lines folded
one step inward, with its four 8x8 corner blocks replaced by repaired
ones: a valid set of exactly floor((m+2)(n+2)/5) - 4 vertices, the known
lower bound, built without numpy.  Rows 2..m-1 of the projected class
depend only on the row mod 5, so the build makes three 5-row periods as
one int and cuts three strips from it: the top 8 rows, the middle band
9..m-8, tiled by doubling, and the bottom 8 rows.  Rows 1 and m also take
the folded rows 0 and m + 1, and only the two 8-row strips are masked to
take the corner blocks.  Widths 14 and 15 take the set from the
transfer-matrix extractor instead.  The tests' reference is
`diagonal_partition`, V_s as (i, j) tuples, and `project_inner`.

A repair re-chooses one corner block, keeping the cells outside it fixed
and dropping one member unless the class already misses that extended-grid
corner.  It depends only on the cells of a small window around the block.
The residue s and the nets depend only on (m mod 5, n mod 5) (see
`choose_residue`), the class repeats every 5 rows and columns, and so
adding 5 rows (m >= 20) or 5 columns (n >= 22) translates each window
without changing it: every grid with m >= 16 reads the same four windows
as one of 66 small representative grids.  The representatives of one class all sweep
to the same four blocks, so `_CORNER_BLOCKS` maps each class
(m mod 5, n mod 5) to its blocks and the build reads one entry.
tests/test_pattern.py generates that table with an exact column sweep
over each representative's windows, checks that each representative
sweeps to its class's entry, proves that every grid with m >= 16 reads
its representative's windows (`test_corner_repair_is_periodic`), and
pins the output.
"""

from __future__ import annotations

from .errors import ConstructionError, UnsupportedGridError
from .formulas import big_grid_value
from .grids import GridSet, _tile, check_cell_cap, extract_min_set, verify_set

# side of the square corner regions that the repair search re-chooses
CORNER_SIZE = 8


# diagonal_partition and project_inner are the tests' tuple reference for the
# class's bits, and the benchmark's tracer wraps them by name
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


def choose_residue(m: int, n: int) -> int:
    """Residue whose class is smallest on the extended grid (ties: smallest s).

    Row i meets V_s in the columns j = (s - 2i) mod 5, +5, +10, ... <= n + 1,
    so V_s counts, for each u mod 5, the extended rows i = u (mod 5) times
    the columns j = s - 2u (mod 5).  With m = 5p + a and n = 5q + b those
    counts are p + x_u and q + y_r, where x and y depend only on a and b, and
    |V_s| = 5pq + p * sum(y) + q * sum(x) + sum_u x_u * y_{(s - 2u) mod 5}.
    Only the last sum depends on s, so the choice depends only on
    (m mod 5, n mod 5) and is computed once for each of the 25 pairs.
    """
    return _RESIDUES[m % 5][n % 5]


def _residue(a: int, b: int) -> int:
    """choose_residue for m = a, n = b (mod 5): the s minimising sum_u x_u * y_{(s-2u) mod 5}."""
    x = [(a + 6 - u) // 5 for u in range(5)]  # extended rows i = u (mod 5), less p
    y = [(b + 6 - r) // 5 for r in range(5)]  # extended columns j = r (mod 5), less q
    sizes = [sum(x[u] * y[(s - 2 * u) % 5] for u in range(5)) for s in range(5)]
    return min(range(5), key=lambda s: (sizes[s], s))


_RESIDUES = tuple(tuple(_residue(a, b) for b in range(5)) for a in range(5))


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
    from the projected class of `choose_residue(m, n)` and replace the four
    8x8 corner blocks of `construction_info(m, n)` by the `_CORNER_BLOCKS`
    entry of its class (m mod 5, n mod 5).  Rows 1..15 of the class, three
    5-row periods, give the top 8 rows, the middle band 9..m-8 (tiled by
    doubling) and the bottom 8 rows; the two 8-row strips are masked to
    take the folded border rows and the blocks, and the three strips are
    joined by shifts.  No window is read and nothing is kept between
    calls.  The set is verified before it is returned.

    Raises UnsupportedGridError outside 14 <= m <= n, ConstructionError if
    the result fails verification, and ResourceCapError above
    grids.MAX_CELLS cells.
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
        if not verify_set(result).ok:
            raise ConstructionError(f"DP extraction for ({m}, {n}) produced an invalid set")
        return result

    blocks = _CORNER_BLOCKS[m % 5, n % 5]
    s, k = choose_residue(m, n), CORNER_SIZE
    width = (1 << n) - 1
    every5 = ((1 << 5 * (n // 5 + 1)) - 1) // 31  # columns 1, 6, 11, ...

    def inner(e: int) -> int:  # extended row e of V_s on columns 1..n
        return every5 << (s - 2 * e - 1) % 5 & width

    # rows 1..5 without the folded rows 0 and m + 1, row 1 in the lowest n bits
    period = 0
    for i in range(5, 0, -1):
        period = period << n | inner(i)
    # extended columns 0 and n + 1 fold onto columns 1 and n of the one row i in 1..5
    # with 2i = s, respectively 2i + n + 1 = s (mod 5); 3 is the inverse of 2 mod 5
    period |= 1 << (3 * s - 1) % 5 * n | 1 << ((3 * (s - n - 1) - 1) % 5 + 1) * n - 1
    period |= period << 5 * n | period << 10 * n  # rows 1..15

    def rows_from(first: int) -> int:  # rows first..first+10 at least
        return period >> (first - 1) % 5 * n

    # the blocks fill columns 1..k and n-k+1..n of the top and bottom k rows; a block's
    # big-endian bytes are its rows, the last first
    shift, top, bottom = n - k, 0, 0
    for tl, tr, bl, br in zip(*(block.to_bytes(k, "big") for block in blocks)):
        top = top << n | tl | tr << shift
        bottom = bottom << n | bl | br << shift
    keep = _tile((1 << n - k) - (1 << k), n, k * n)  # k rows, off the blocks' columns
    top |= (rows_from(1) | inner(0)) & keep
    bottom |= (rows_from(m - k + 1) | inner(m + 1) << (k - 1) * n) & keep
    # the unit is 5-periodic, so the copies that _tile overlaps agree
    band = _tile(rows_from(k + 1), 5 * n, (m - 2 * k) * n)
    # row m holds the most significant bits
    bits = top | band << k * n | bottom << (m - k) * n
    result = GridSet.from_bits(m, n, bits)
    if len(result) != target or not verify_set(result).ok:
        raise ConstructionError(
            f"corner repair of ({m}, {n}) with s={s} gave an invalid set of {len(result)} "
            f"members; target {target}"
        )
    return result


# The four repaired corner blocks of each class (m mod 5, n mod 5), in _corners order.  A
# block is one int: its row r in bits 8r..8r+7, with column c1 + j at bit 8r + j.  The sweep
# in tests/test_pattern.py generates the table (`PYTHONPATH=src python tests/test_pattern.py`
# prints it); its tests re-search every block, check that each of the 66 representative
# grids sweeps to its class's entry, and prove that every grid with m >= 16 reads the
# windows of its representative.
_CORNER_BLOCKS: dict[tuple[int, int], tuple[int, int, int, int]] = {
    (0, 0): (0x8411420821841144, 0x2184104208a10452, 0x4a20851042082184, 0x2288218410428821),
    (0, 1): (0x0821841142082194, 0x2184104208a10452, 0x9441082284114208, 0x2288218410428821),
    (0, 2): (0x1142082184114411, 0x2184104208a10452, 0x2a8015400a208510, 0x2288218410428821),
    (0, 3): (0x0821841142082194, 0x08a1045002a80154, 0x9441082284114208, 0x4412882184104288),
    (0, 4): (0x1142082184114411, 0x08a1045002a80154, 0x2a8015400a208510, 0x4412882184104288),
    (1, 0): (0x1142082184114411, 0x441082284114802a, 0x4a20851042082184, 0x2288218410428821),
    (1, 1): (0x4208218411441144, 0x08a1045002a80154, 0x2a8015400a208510, 0x2288228821841042),
    (1, 2): (0x1142082184114411, 0x2184104208a10452, 0x4a20851042082184, 0x4412882184104288),
    (1, 3): (0x0821841142082194, 0x08a1045002a80154, 0xa411420821841142, 0x2288228821841042),
    (1, 4): (0x1142082184114411, 0x08a1045002a80154, 0x4a20851042082184, 0x2288228821841042),
    (2, 0): (0x4208218411441144, 0x104208a1045002a9, 0x4a20851042082184, 0x2288218410428821),
    (2, 1): (0x0821841142082194, 0x2184104208a10452, 0x2a8015400a208510, 0x2288228821841042),
    (2, 2): (0x0821841142082194, 0x104208a1045002a9, 0x2a8015400a208510, 0x2288218410428821),
    (2, 3): (0x0821841142082194, 0x08a1045002a80154, 0x2a8015400a208510, 0x4411842288218410),
    (2, 4): (0x4208218411441144, 0x2184104208a10452, 0x4a20851042082184, 0x2288228821841042),
    (3, 0): (0x0821841142082194, 0x42882184104208a5, 0x4a20851042082184, 0x2288218410428821),
    (3, 1): (0x0821841142082194, 0x2184104208a10452, 0x4a20851042082184, 0x4411842288218410),
    (3, 2): (0x0821841142082194, 0x104208a1045002a9, 0x4a20851042082184, 0x4412882184104288),
    (3, 3): (0x0821841142082194, 0x08a1045002a80154, 0x4a20851042082184, 0x4a21841042882184),
    (3, 4): (0x0821841142082194, 0x441082284114802a, 0x4a20851042082184, 0x2288228821841042),
    (4, 0): (0x2184114208218451, 0x08a1045002a80154, 0x4a20851042082184, 0x2288218410428821),
    (4, 1): (0x4208218411441144, 0x08a1045002a80154, 0x9441082284114208, 0x2288218410428821),
    (4, 2): (0x8411420821841144, 0x08a1045002a80154, 0x2a8015400a208510, 0x2288218410428821),
    (4, 3): (0x0821841142082194, 0x08a1045002a80154, 0x5401288210450822, 0x2288218410428821),
    (4, 4): (0x1142082184114411, 0x08a1045002a80154, 0xa411420821841142, 0x2288218410428821),
}
