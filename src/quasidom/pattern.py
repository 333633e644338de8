"""Constructive minimum independent [1,2]-sets for grids with 14 <= m <= n.

The extended (m+2) x (n+2) grid is partitioned into five diagonal residue
classes V_s = {(i, j): 2i + j = s (mod 5)}; each is a perfect code of the
infinite grid.  For m >= 16 the smallest class (`choose_residue`) becomes
one m x n bool mask (`projected_class`) whose four 8x8 corner blocks are
repaired in place; that mask becomes the GridSet, a valid set of exactly
floor((m+2)(n+2)/5) - 4 vertices, the known lower bound.  Widths 14 and 15
take the set from the transfer-matrix extractor instead.  The tests' reference
is `diagonal_partition`, V_s as (i, j) tuples, and `project_inner`.

A repair is an exact column sweep over one corner block that keeps the
cells outside it fixed and drops one member unless the class already
misses that extended-grid corner.  Its state is the last two columns as
row bitmasks (read from a mask slice) plus the members used; choosing a
column settles the one before it, whose non-members each need one or two
of the masks left, right, up and down (the bit test of the oracle's
`_BitGrid`).  `_region_cache` keeps the repaired blocks, keyed by the
cells read.  A repair reads only the cells near its corner, so the output
of every grid is a translate of one of finitely many small grids away from
the corners; `test_corner_repair_is_periodic` in tests/test_pattern.py
checks this.
"""

from __future__ import annotations

import numpy as np

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
    i, j = np.array(list(cells), dtype=np.int64).reshape(-1, 2).T
    side = ((1 <= i) & (i <= m)) | ((1 <= j) & (j <= n))  # not an extended corner
    mask = np.zeros((m, n), dtype=bool)
    mask[np.clip(i[side], 1, m) - 1, np.clip(j[side], 1, n) - 1] = True
    return GridSet.from_mask(mask)


def projected_class(m: int, n: int, s: int) -> np.ndarray:
    """The cells of `project_inner(diagonal_partition(m, n, s), m, n)` as a mask.

    An m x n bool array with cell (i, j) at [i - 1, j - 1]: V_s on the
    extended grid, with its four border lines ORed one step inward.  The
    extended corners fall outside every fold, so they drop out.
    """
    i, j = np.ogrid[: m + 2, : n + 2]
    ext = (2 * i + j) % 5 == s
    mask = ext[1:-1, 1:-1].copy()
    mask[0] |= ext[0, 1:-1]
    mask[-1] |= ext[-1, 1:-1]
    mask[:, 0] |= ext[1:-1, 0]
    mask[:, -1] |= ext[1:-1, -1]
    return mask


def choose_residue(m: int, n: int) -> int:
    """Residue whose class is smallest on the extended grid (ties: smallest s).

    Row i meets V_s in the columns j = (s - 2i) mod 5, +5, +10, ... <= n + 1.
    """
    sizes = [sum((n + 6 - (s - 2 * i) % 5) // 5 for i in range(m + 2)) for s in range(5)]
    return min(range(5), key=lambda s: (sizes[s], s))


# ---------------------------------------------------------------------------
# exact region repair search
# ---------------------------------------------------------------------------


_region_cache: dict[tuple, np.ndarray | None] = {}


def _solve_region(mask: np.ndarray, r1: int, c1: int, net: int) -> np.ndarray | None:
    """Re-choose the corner block with top-left cell (r1, c1); the mask is only read.

    Returns the repaired CORNER_SIZE x CORNER_SIZE block as a read-only bool
    array ([0, 0] is cell (r1, c1)) with exactly `net` fewer members than
    the block has now, or None if no such choice exists.  The sweep runs
    over columns c1-1..c2+2 as bitmasks of rows r1-2..r2+2 (clipped to the
    grid), read from one mask slice; a state is (column j, column j-1,
    block members used).  Choosing column j settles column j-1: each of its
    non-member cells in rows r1-1..r2+1 needs one or two of the masks left,
    right, up and down.  States are expanded in sorted order and keep the
    first predecessor found.
    """
    m, n = mask.shape
    r2, c2 = r1 + CORNER_SIZE - 1, c1 + CORNER_SIZE - 1
    lr1, lr2 = max(1, r1 - 2), min(m, r2 + 2)
    h = lr2 - lr1 + 1

    def span(lo: int, hi: int) -> int:
        return ((1 << (hi - lo + 1)) - 1) << (lo - lr1)

    free_mask = span(r1, r2)
    check_mask = span(max(1, r1 - 1), min(m, r2 + 1))

    jstart, jend = max(1, c1 - 1), min(n, c2 + 1)
    # row bitmasks of columns jstart-2..jend+1; columns off the grid are empty
    lo, hi = max(1, jstart - 2), min(n, jend + 1)
    read = (1 << np.arange(h)) @ mask[lr1 - 1 : lr2, lo - 1 : hi]
    bits = [0] * (lo - jstart + 2) + read.tolist() + [0] * (jend + 1 - hi)

    def col_bits(j: int) -> int:
        return bits[j - jstart + 2]

    sig = (h, r1 - lr1, check_mask, c1 - jstart, jend - jstart, tuple(bits), net)

    def candidates(j: int) -> list[tuple[int, int]]:
        """(column, block members it adds) in increasing column order."""
        if not c1 <= j <= c2:
            return [(col_bits(j), 0)]
        fixed = col_bits(j) & ~free_mask
        cols = (fixed | v << (r1 - lr1) for v in range(1 << CORNER_SIZE))
        return [(c, bin(c & free_mask).count("1")) for c in cols if not c & (c >> 1)]

    def search() -> np.ndarray | None:
        target = sum(bin(col_bits(j) & free_mask).count("1") for j in range(c1, c2 + 1)) - net
        if target < 0:
            return None
        sweep = range(jstart, jend + 2)
        layers = [{(col_bits(jstart - 1), col_bits(jstart - 2), 0): None}]
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
        block = np.zeros((CORNER_SIZE, CORNER_SIZE), dtype=bool)
        rows = np.arange(r1 - lr1, r2 - lr1 + 1)
        for j, layer in zip(reversed(sweep), reversed(layers)):
            if c1 <= j <= c2:
                block[:, j - c1] = key[0] >> rows & 1
            key = layer[key]
        block.flags.writeable = False
        return block

    block = _region_cache[sig] if sig in _region_cache else search()
    if len(_region_cache) < _CACHE_MAX:
        _region_cache.setdefault(sig, block)
    return block


# ---------------------------------------------------------------------------
# corner repairs
# ---------------------------------------------------------------------------


def build_big_grid_set(m: int, n: int, with_info: bool = False):
    """An independent [1,2]-set of size floor((m+2)(n+2)/5) - 4 for 14 <= m <= n.

    Widths 14 and 15 use the width-m dynamic program.  Wider grids start
    from the `projected_class` mask of `choose_residue(m, n)` and repair its
    four 8x8 corner blocks in the order top-left, top-right, bottom-left,
    bottom-right, writing each block back before the next corner reads the
    mask; a block drops one member unless V_s already misses its
    extended-grid corner.  The final mask goes to GridSet.from_mask as is,
    and the set is verified before it is returned.

    With `with_info`, also returns {"s", "regions", "nets"} describing the
    repair ({"s": None, "regions": [], "nets": [], "fallback": "dp"} for
    widths 14 and 15).  Raises UnsupportedGridError outside 14 <= m <= n,
    ConstructionError if a corner has no repair or the result fails
    verification, and ResourceCapError above grids.MAX_CELLS cells.
    """
    if not 14 <= m <= n:
        raise UnsupportedGridError(f"diagonal construction needs 14 <= m <= n, got ({m}, {n})")
    check_cell_cap(m, n)
    target = (m + 2) * (n + 2) // 5 - 4

    if m <= 15:
        # the top and bottom 8x8 corners would overlap; the DP is exact here
        result = extract_min_set(m, n)
        if len(result) != target:
            raise ConstructionError(
                f"DP extraction for ({m}, {n}) produced {len(result)} members, expected {target}"
            )
        if with_info:
            return result, {"s": None, "regions": [], "nets": [], "fallback": "dp"}
        return result

    s = choose_residue(m, n)
    k = CORNER_SIZE
    # (name, top-left cell, extended-grid corner); the projection already
    # drops an extended corner that lies in V_s, so that block nets 0
    corners = [
        ("top-left", (1, 1), (0, 0)),
        ("top-right", (1, n - k + 1), (0, n + 1)),
        ("bottom-left", (m - k + 1, 1), (m + 1, 0)),
        ("bottom-right", (m - k + 1, n - k + 1), (m + 1, n + 1)),
    ]
    nets = [int((2 * ei + ej) % 5 != s) for _, _, (ei, ej) in corners]
    mask = projected_class(m, n, s)
    for (name, (r1, c1), _), net in zip(corners, nets):
        block = _solve_region(mask, r1, c1, net)
        if block is None:
            raise ConstructionError(f"no repair of the {name} corner of ({m}, {n}) with s={s}")
        mask[r1 - 1 : r1 - 1 + k, c1 - 1 : c1 - 1 + k] = block
    result = GridSet.from_mask(mask)
    if len(result) != target or not verify_set(result).ok:
        raise ConstructionError(
            f"corner repair of ({m}, {n}) with s={s} gave an invalid set of {len(result)} "
            f"members; target {target}"
        )
    if with_info:
        info = {
            "s": s,
            "regions": [
                {"name": name, "rows": [r1, r1 + k - 1], "cols": [c1, c1 + k - 1]}
                for name, (r1, c1), _ in corners
            ],
            "nets": nets,
        }
        return result, info
    return result
