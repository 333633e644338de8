"""Independent ground truth for small grids.

Two exact engines that share no code with the column-word machinery: an
exhaustive subset search over bitmasks (for m*n <= 20) and a column-profile
dynamic program over membership masks with capped dominator counts (for
grids with at most 5 rows).  Mode "i12" asks for independent [1,2]-sets,
mode "i" for plain independent dominating sets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedGridError
from .grids import GridSet

MODES = ("i12", "i")

BRUTE_FORCE_CELL_LIMIT = 20
PROFILE_ROW_LIMIT = 5
PROFILE_COL_LIMIT = 50


@dataclass(frozen=True)
class OracleResult:
    value: int | float
    witness: GridSet | None
    mode: str


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


class _BitGrid:
    """Bit-parallel validity tests on a row-major bitmask of an m x n grid."""

    def __init__(self, m: int, n: int):
        self.n = n
        cells = m * n
        self.full = (1 << cells) - 1
        not_last_col = 0
        not_first_col = 0
        for c in range(cells):
            if c % n != n - 1:
                not_last_col |= 1 << c
            if c % n != 0:
                not_first_col |= 1 << c
        self.not_last_col = not_last_col
        self.not_first_col = not_first_col

    def independent(self, s: int) -> bool:
        if s & (s >> self.n):
            return False
        return not (s & (s >> 1) & self.not_last_col)

    def valid(self, s: int, mode: str) -> bool:
        if not self.independent(s):
            return False
        n, full = self.n, self.full
        below = s >> n
        above = (s << n) & full
        right = (s >> 1) & self.not_last_col
        left = (s << 1) & self.not_first_col
        outside = full & ~s
        at_least1 = below | above | right | left
        if outside & ~at_least1:
            return False
        if mode == "i12":
            at_least3 = (
                (below & above & right)
                | (below & above & left)
                | (below & right & left)
                | (above & right & left)
            )
            if outside & at_least3:
                return False
        return True


def brute_force_min(m: int, n: int, mode: str = "i12") -> OracleResult:
    """Exact minimum by exhausting subsets in increasing cardinality.

    The first valid subset found is the witness; combinations are emitted in
    lexicographic order of the row-major cell indices, so the witness is the
    lexicographically smallest minimum set.
    """
    _check_mode(mode)
    if m < 1 or n < 1:
        raise UnsupportedGridError(f"grid dimensions must be positive, got ({m}, {n})")
    cells = m * n
    if cells > BRUTE_FORCE_CELL_LIMIT:
        raise UnsupportedGridError(
            f"exhaustive oracle is capped at {BRUTE_FORCE_CELL_LIMIT} cells, got {cells}"
        )
    grid = _BitGrid(m, n)
    for size in range(cells + 1):
        for combo in itertools.combinations(range(cells), size):
            s = 0
            for c in combo:
                s |= 1 << c
            if grid.valid(s, mode):
                return OracleResult(value=size, witness=mask_to_grid_set(m, n, s), mode=mode)
    return OracleResult(value=math.inf, witness=None, mode=mode)


def enumerate_valid_masks(m: int, n: int, mode: str = "i12") -> list[int]:
    """Every valid subset as a row-major bitmask (full scan; small grids only)."""
    _check_mode(mode)
    cells = m * n
    if cells > BRUTE_FORCE_CELL_LIMIT:
        raise UnsupportedGridError(
            f"full enumeration is capped at {BRUTE_FORCE_CELL_LIMIT} cells, got {cells}"
        )
    grid = _BitGrid(m, n)
    return [s for s in range(1 << cells) if grid.valid(s, mode)]


def mask_to_grid_set(m: int, n: int, mask: int) -> GridSet:
    """The set whose row-major cell c is a member when bit c of mask is set."""
    packed = np.frombuffer(mask.to_bytes(m * n // 8 + 1, "little"), dtype=np.uint8)
    return GridSet.from_mask(np.unpackbits(packed, count=m * n, bitorder="little").reshape(m, n))


def profile_dp_min(m: int, n: int, mode: str = "i12") -> OracleResult:
    """Exact minimum by a column sweep over (membership, dominator-count) states.

    State per column: the membership mask plus, for every non-member cell,
    its number of dominators among the left and same-column neighbors,
    capped at 3 (the [1,2] check only distinguishes 0/1/2/3-or-more).
    Members carry count 0 so equivalent states merge.
    """
    _check_mode(mode)
    if m < 1 or m > PROFILE_ROW_LIMIT:
        raise UnsupportedGridError(
            f"profile oracle is capped at {PROFILE_ROW_LIMIT} rows, got {m}"
        )
    if n < 1 or n > PROFILE_COL_LIMIT:
        raise UnsupportedGridError(
            f"profile oracle is capped at {PROFILE_COL_LIMIT} columns, got {n}"
        )
    lo, hi = (1, 2) if mode == "i12" else (1, 4)
    masks = [mu for mu in range(1 << m) if not (mu & (mu >> 1))]

    def counts_of(prev_mask: int, mask: int) -> tuple[int, ...]:
        out = []
        for i in range(m):
            if mask >> i & 1:
                out.append(0)
            else:
                c = (prev_mask >> i & 1) + (i > 0 and mask >> (i - 1) & 1) + (
                    i < m - 1 and mask >> (i + 1) & 1
                )
                out.append(min(c, 3))
        return tuple(out)

    # state: (mask, counts) -> (cost, column-mask history for the witness)
    states: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
    for mu in masks:
        cand = (bin(mu).count("1"), (mu,))
        key = (mu, counts_of(0, mu))
        if key not in states or cand < states[key]:
            states[key] = cand

    for _ in range(1, n):
        nxt: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
        for (mask, counts), (cost, hist) in states.items():
            for mu in masks:
                if mask & mu:
                    continue
                ok = True
                for i in range(m):
                    if mask >> i & 1:
                        continue
                    total = counts[i] + (mu >> i & 1)
                    if not lo <= total <= hi:
                        ok = False
                        break
                if not ok:
                    continue
                key = (mu, counts_of(mask, mu))
                cand = (cost + bin(mu).count("1"), hist + (mu,))
                if key not in nxt or cand < nxt[key]:
                    nxt[key] = cand
        states = nxt

    best: tuple[int, tuple[int, ...]] | None = None
    for (mask, counts), (cost, hist) in states.items():
        if all(mask >> i & 1 or lo <= counts[i] <= hi for i in range(m)):
            cand = (cost, hist)
            if best is None or cand < best:
                best = cand
    if best is None:
        return OracleResult(value=math.inf, witness=None, mode=mode)
    cost, hist = best
    # column j of the witness is hist[j], with row i at bit i - 1
    mask = np.array(hist)[None, :] >> np.arange(m)[:, None] & 1
    return OracleResult(value=cost, witness=GridSet.from_mask(mask), mode=mode)
