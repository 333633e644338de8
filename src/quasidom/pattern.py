"""Constructive minimum independent [1,2]-sets for grids with 14 <= m <= n.

The extended (m+2) x (n+2) grid is partitioned into five diagonal residue
classes V_s = {(i, j): 2i + j = s (mod 5)}; each is a perfect code of the
infinite grid.  For m >= 16 the smallest class (`choose_residue`) is
projected onto the inner grid and its four 8x8 corner regions are repaired,
which yields a valid set of exactly floor((m+2)(n+2)/5) - 4 vertices, the
known lower bound.  Widths 14 and 15 take the set from the transfer-matrix
extractor instead.

A repair is an exact column-sweep search over one corner region: cells
outside the region stay fixed, region columns are re-chosen subject to
independence and [1,2]-domination of every affected cell, and the member
count must drop by one unless the class already misses that extended-grid
corner.  A repair reads only the cells near its corner, so the output of
every grid is a translate of one of finitely many small grids away from the
corners; `test_corner_repair_is_periodic` in tests/test_pattern.py checks
this and states the argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConstructionError
from .grids import GridSet, extract_min_set, verify_set

# side of the square corner regions that the repair search re-chooses
CORNER_SIZE = 8

_CACHE_MAX = 4096
_MISS = object()


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
    members = set()
    for i, j in cells:
        inner_i = 1 <= i <= m
        inner_j = 1 <= j <= n
        if inner_i and inner_j:
            members.add((i, j))
        elif inner_i:
            members.add((i, 1 if j == 0 else n))
        elif inner_j:
            members.add((1 if i == 0 else m, j))
        # extended-grid corners are dropped
    return GridSet(m, n, frozenset(members))


def choose_residue(m: int, n: int) -> int:
    """Residue whose class is smallest on the extended grid (ties: smallest s)."""
    sizes = [len(diagonal_partition(m, n, s)) for s in range(5)]
    return min(range(5), key=lambda s: (sizes[s], s))


# ---------------------------------------------------------------------------
# exact region repair search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Region:
    name: str
    rows: tuple[int, int]
    cols: tuple[int, int]

    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j)
            for i in range(self.rows[0], self.rows[1] + 1)
            for j in range(self.cols[0], self.cols[1] + 1)
        )


def _submasks(mask: int) -> list[int]:
    out = []
    s = mask
    while True:
        out.append(s)
        if s == 0:
            break
        s = (s - 1) & mask
    out.reverse()
    return out


_region_cache: dict[tuple, frozenset | None] = {}


def _solve_region(
    members: frozenset,
    m: int,
    n: int,
    region: _Region,
    net: int,
) -> frozenset | None:
    """Re-choose the region's cells keeping the composition locally valid.

    Returns the replacement member set for the region rectangle (grid
    coordinates), holding exactly `net` fewer members than the region does
    now, or None if no such choice exists.  Every cell whose closed
    neighborhood meets the region is re-checked; farther cells cannot be
    affected by the change.
    """
    r1, r2 = region.rows
    c1, c2 = region.cols
    lr1, lr2 = max(1, r1 - 2), min(m, r2 + 2)
    h = lr2 - lr1 + 1
    full = (1 << h) - 1
    free_mask = 0
    for i in range(r1, r2 + 1):
        free_mask |= 1 << (i - lr1)
    check_mask = 0
    for i in range(max(1, r1 - 1), min(m, r2 + 1) + 1):
        check_mask |= 1 << (i - lr1)
    lane_lsb = sum(1 << (3 * b) for b in range(h))

    def col_bits(j: int) -> int:
        if j < 1 or j > n:
            return 0
        bits = 0
        for i in range(lr1, lr2 + 1):
            if (i, j) in members:
                bits |= 1 << (i - lr1)
        return bits

    jstart, jend = max(1, c1 - 1), min(n, c2 + 1)
    sig = (
        h,
        r1 - lr1,
        r2 - lr1,
        check_mask,
        c1 - jstart,
        c2 - jstart,
        jend - jstart,
        tuple(col_bits(j) for j in range(jstart - 2, jend + 2)),
        net,
    )
    cached = _region_cache.get(sig, _MISS)
    if cached is not _MISS:
        if cached is None:
            return None
        return frozenset((i + r1, j + c1) for i, j in cached)

    def spread3(x: int) -> int:
        out = 0
        b = 0
        while x:
            if x & 1:
                out |= 1 << (3 * b)
            x >>= 1
            b += 1
        return out

    def counts_of(prev_mem: int, mem: int) -> int:
        return (
            spread3(prev_mem)
            + spread3((mem << 1) & full)
            + spread3(mem >> 1)
        )

    def finalize_ok(mem: int, cnt: int, right_mem: int) -> bool:
        total = cnt + spread3(right_mem)
        b0 = total & lane_lsb
        b1 = (total >> 1) & lane_lsb
        b2 = (total >> 2) & lane_lsb
        bad = (b2 | (b1 & b0)) | (lane_lsb & ~(b0 | b1 | b2))
        return not (bad & spread3((~mem) & check_mask))

    def candidates(j: int) -> list[int]:
        fixed = col_bits(j) & ~free_mask
        return [
            fixed | v
            for v in _submasks(free_mask)
            if not ((fixed | v) & ((fixed | v) >> 1))
        ]

    base_in_region = sum(
        1 for i in range(r1, r2 + 1) for j in range(c1, c2 + 1) if (i, j) in members
    )
    target = base_in_region - net
    solution: frozenset | None = None

    if target >= 0:
        # state: (column membership, its left/up/down counts, members used)
        seed_prev = col_bits(jstart - 1)
        seed = (seed_prev, counts_of(col_bits(jstart - 2), seed_prev), 0)
        layer: dict[tuple[int, int, int], tuple[int, int, int] | None] = {seed: None}
        layers = [layer]
        sweep = list(range(jstart, jend + 2))
        dead = False
        for j in sweep:
            cands = candidates(j) if c1 <= j <= c2 else [col_bits(j)]
            in_region = c1 <= j <= c2
            finalize = j - 1 >= jstart
            nxt: dict[tuple[int, int, int], tuple[int, int, int]] = {}
            for key in sorted(layers[-1]):
                prev_mem, prev_cnt, used = key
                for mem in cands:
                    if mem & prev_mem:
                        continue
                    if finalize and not finalize_ok(prev_mem, prev_cnt, mem):
                        continue
                    used2 = used + (bin(mem & free_mask).count("1") if in_region else 0)
                    if used2 > target:
                        continue
                    nkey = (mem, counts_of(prev_mem, mem), used2)
                    if nkey not in nxt:
                        nxt[nkey] = key
            if not nxt:
                dead = True
                break
            layers.append(nxt)
        if not dead:
            final_key = None
            for key in sorted(layers[-1]):
                if key[2] == target:
                    final_key = key
                    break
            if final_key is not None:
                chain = [final_key]
                for layer in reversed(layers[1:]):
                    chain.append(layer[chain[-1]])
                chain.reverse()  # seed, then one state per sweep column
                sol = set()
                for idx, j in enumerate(sweep):
                    if c1 <= j <= c2:
                        mem = chain[idx + 1][0]
                        for b in range(h):
                            if mem >> b & 1 and free_mask >> b & 1:
                                sol.add((lr1 + b, j))
                solution = frozenset(sol)

    if len(_region_cache) < _CACHE_MAX:
        _region_cache[sig] = (
            None
            if solution is None
            else frozenset((i - r1, j - c1) for i, j in solution)
        )
    return solution


# ---------------------------------------------------------------------------
# corner repairs
# ---------------------------------------------------------------------------


def _corner_regions(m: int, n: int) -> list[_Region]:
    k = CORNER_SIZE
    return [
        _Region("top-left", (1, k), (1, k)),
        _Region("top-right", (1, k), (n - k + 1, n)),
        _Region("bottom-left", (m - k + 1, m), (1, k)),
        _Region("bottom-right", (m - k + 1, m), (n - k + 1, n)),
    ]


def _corner_prepaid(m: int, n: int, s: int) -> dict[str, bool]:
    """Which extended-grid corners lie in V_s (projection already drops them)."""
    return {
        "top-left": 0 % 5 == s,
        "top-right": (n + 1) % 5 == s,
        "bottom-left": (2 * (m + 1)) % 5 == s,
        "bottom-right": (2 * (m + 1) + n + 1) % 5 == s,
    }


def build_big_grid_set(m: int, n: int, with_info: bool = False):
    """An independent [1,2]-set of size floor((m+2)(n+2)/5) - 4 for 14 <= m <= n.

    Widths 14 and 15 use the width-m dynamic program.  Wider grids project
    the class V_s of `choose_residue(m, n)` inward and repair its four 8x8
    corner regions in the order top-left, top-right, bottom-left,
    bottom-right; each region drops one member unless V_s already misses
    its extended-grid corner.  The result is verified before it is returned.

    With `with_info`, also returns {"s", "regions", "nets"} describing the
    repair ({"s": None, "regions": [], "nets": [], "fallback": "dp"} for
    widths 14 and 15).  Raises ConstructionError if a corner has no repair
    or the result fails verification.
    """
    if not 14 <= m <= n:
        raise ValueError(f"diagonal construction needs 14 <= m <= n, got ({m}, {n})")
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
    regions = _corner_regions(m, n)
    prepaid = _corner_prepaid(m, n, s)
    nets = [0 if prepaid[r.name] else 1 for r in regions]
    current = set(project_inner(diagonal_partition(m, n, s), m, n).members)
    for reg, net in zip(regions, nets):
        sol = _solve_region(frozenset(current), m, n, reg, net)
        if sol is None:
            raise ConstructionError(f"no repair of the {reg.name} corner of ({m}, {n}) with s={s}")
        current -= reg.cells()
        current |= sol
    result = GridSet(m, n, frozenset(current))
    if len(result) != target or not verify_set(result).ok:
        raise ConstructionError(
            f"corner repair of ({m}, {n}) with s={s} gave an invalid set of {len(result)} "
            f"members; target {target}"
        )
    if with_info:
        info = {
            "s": s,
            "regions": [
                {"name": r.name, "rows": list(r.rows), "cols": list(r.cols)} for r in regions
            ],
            "nets": nets,
        }
        return result, info
    return result
