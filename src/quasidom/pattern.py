"""Constructive minimum independent [1,2]-sets for grids with 14 <= m <= n.

The extended (m+2) x (n+2) grid is partitioned into five diagonal residue
classes V_s = {(i, j): 2i + j = s (mod 5)}; each is a perfect code of the
infinite grid.  For m >= 16 the smallest class (`choose_residue`) becomes
one bitmask per row (`projected_class`), whose four 8x8 corner blocks are
repaired in place; the rows, joined, are the GridSet's bits: a valid set of
exactly floor((m+2)(n+2)/5) - 4 vertices, the known lower bound, built
without numpy.  Widths 14 and 15 take the set from the transfer-matrix
extractor instead.  The tests' reference is `diagonal_partition`, V_s as
(i, j) tuples, and `project_inner`.

A repair is an exact column sweep over one corner block that keeps the
cells outside it fixed and drops one member unless the class already
misses that extended-grid corner.  Its state is the last two columns as
bitmasks of the rows near the corner plus the members used; choosing a
column settles the one before it, whose non-members each need one or two
of the masks left, right, up and down.  `_region_cache` keeps the repaired
blocks, keyed by the cells read.  A repair reads only the cells near its
corner, so the output of every grid is a translate of one of finitely many
small grids away from the corners; `test_corner_repair_is_periodic` in
tests/test_pattern.py checks this.
"""

from __future__ import annotations

from .errors import ConstructionError, UnsupportedGridError
from .grids import GridSet, check_cell_cap, extract_min_set, verify_set

# side of the square corner regions that the repair search re-chooses
CORNER_SIZE = 8

_CACHE_MAX = 4096


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
    every fold, so they drop out.
    """
    width = (1 << n) - 1
    every5 = int("00001" * (n // 5 + 1), 2)  # columns 1, 6, 11, ...

    def inner(e: int) -> int:  # extended row e on columns 1..n
        return every5 << (s - 2 * e - 1) % 5 & width

    # extended columns 0 and n + 1 fold onto columns 1 and n
    rows = [
        inner(i) | (2 * i % 5 == s) | ((2 * i + n + 1) % 5 == s) << (n - 1)
        for i in range(1, m + 1)
    ]
    rows[0] |= inner(0)
    rows[-1] |= inner(m + 1)
    return rows


def choose_residue(m: int, n: int) -> int:
    """Residue whose class is smallest on the extended grid (ties: smallest s).

    Row i meets V_s in the columns j = (s - 2i) mod 5, +5, +10, ... <= n + 1.
    """
    sizes = [sum((n + 6 - (s - 2 * i) % 5) // 5 for i in range(m + 2)) for s in range(5)]
    return min(range(5), key=lambda s: (sizes[s], s))


_region_cache: dict[tuple, tuple[int, ...] | None] = {}


def _solve_region(rows: list[int], n: int, r1: int, c1: int, net: int) -> tuple[int, ...] | None:
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
    h = lr2 - lr1 + 1

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
    sig = (h, r1 - lr1, check_mask, c1 - jstart, jend - jstart, tuple(col_bits.values()), net)

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

    block = _region_cache[sig] if sig in _region_cache else search()
    if len(_region_cache) < _CACHE_MAX:
        _region_cache.setdefault(sig, block)
    return block


def construction_info(m: int, n: int) -> dict:
    """How build_big_grid_set(m, n) builds its set: {"s", "regions", "nets"}.

    s is the residue class, regions the 8x8 corner blocks in repair order
    and nets the members each block drops: 1, unless V_s already holds its
    extended-grid corner, which the projection drops.  Widths 14 and 15
    give {"s": None, "regions": [], "nets": [], "fallback": "dp"}.  Raises
    UnsupportedGridError outside 14 <= m <= n.
    """
    if not 14 <= m <= n:
        raise UnsupportedGridError(f"diagonal construction needs 14 <= m <= n, got ({m}, {n})")
    if m <= 15:
        return {"s": None, "regions": [], "nets": [], "fallback": "dp"}
    s = choose_residue(m, n)
    k = CORNER_SIZE
    # (name, top-left cell, extended-grid corner)
    corners = [
        ("top-left", (1, 1), (0, 0)),
        ("top-right", (1, n - k + 1), (0, n + 1)),
        ("bottom-left", (m - k + 1, 1), (m + 1, 0)),
        ("bottom-right", (m - k + 1, n - k + 1), (m + 1, n + 1)),
    ]
    return {
        "s": s,
        "regions": [
            {"name": name, "rows": [r1, r1 + k - 1], "cols": [c1, c1 + k - 1]}
            for name, (r1, c1), _ in corners
        ],
        "nets": [int((2 * ei + ej) % 5 != s) for _, _, (ei, ej) in corners],
    }


def build_big_grid_set(m: int, n: int) -> GridSet:
    """An independent [1,2]-set of size floor((m+2)(n+2)/5) - 4 for 14 <= m <= n.

    Widths 14 and 15 use the width-m dynamic program.  Wider grids start
    from the `projected_class` rows of `choose_residue(m, n)` and repair
    the corner blocks of `construction_info(m, n)` in its order, writing
    each block back before the next corner reads the rows.  The rows
    become the GridSet's bits as they are, and the set is verified before
    it is returned.

    Raises UnsupportedGridError outside 14 <= m <= n, ConstructionError if
    a corner has no repair or the result fails verification, and
    ResourceCapError above grids.MAX_CELLS cells.
    """
    info = construction_info(m, n)
    check_cell_cap(m, n)
    target = (m + 2) * (n + 2) // 5 - 4

    if m <= 15:
        # the top and bottom 8x8 corners would overlap; the DP is exact here
        result = extract_min_set(m, n)
        if len(result) != target:
            raise ConstructionError(
                f"DP extraction for ({m}, {n}) produced {len(result)} members, expected {target}"
            )
        return result

    s = info["s"]
    rows = projected_class(m, n, s)
    for region, net in zip(info["regions"], info["nets"]):
        (r1, _), (c1, _) = region["rows"], region["cols"]
        block = _solve_region(rows, n, r1, c1, net)
        if block is None:
            raise ConstructionError(
                f"no repair of the {region['name']} corner of ({m}, {n}) with s={s}"
            )
        outside = ~(((1 << CORNER_SIZE) - 1) << (c1 - 1))
        for r, b in enumerate(block, start=r1 - 1):
            rows[r] = rows[r] & outside | b << (c1 - 1)
    # row m holds the most significant bits
    result = GridSet.from_bits(m, n, int("".join(format(r, f"0{n}b") for r in reversed(rows)), 2))
    if len(result) != target or not verify_set(result).ok:
        raise ConstructionError(
            f"corner repair of ({m}, {n}) with s={s} gave an invalid set of {len(result)} "
            f"members; target {target}"
        )
    return result
