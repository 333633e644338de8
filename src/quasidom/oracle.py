"""Independent ground truth for small grids.

Two exact engines that share no code with the column-word machinery: an
exhaustive subset search over row-major bitmasks (for m*n <= 20), which
tests each subset with `grids.rule_faults`, the test behind `verify_set`,
and a column-profile dynamic program over membership masks with capped
dominator counts (for grids with at most 5 rows).  Mode "i12" asks for
independent [1,2]-sets, mode "i" for plain independent dominating sets.
Every grid has both, so an engine that finds none raises ConstructionError.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConstructionError, UnsupportedGridError
from .grids import GridSet, rule_faults

MODES = ("i12", "i")

BRUTE_FORCE_CELL_LIMIT = 20
PROFILE_ROW_LIMIT = 5
PROFILE_COL_LIMIT = 50


class OracleResult(NamedTuple):
    value: int
    witness: GridSet
    mode: str


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _no_set(m: int, n: int, mode: str, engine: str) -> str:
    return (
        f"the {engine} found no set of the {m} x {n} grid in mode {mode}; "
        "every grid has an independent [1,2]-set, so this is a bug"
    )


def _check_subsets(m: int, n: int, mode: str, engine: str) -> None:
    _check_mode(mode)
    if m < 1 or n < 1:
        raise UnsupportedGridError(f"grid dimensions must be positive, got ({m}, {n})")
    if m * n > BRUTE_FORCE_CELL_LIMIT:
        raise UnsupportedGridError(
            f"{engine} is capped at {BRUTE_FORCE_CELL_LIMIT} cells, got {m * n}"
        )


def brute_force_min(m: int, n: int, mode: str = "i12") -> OracleResult:
    """Exact minimum over every valid subset (`enumerate_valid_masks`).

    The witness is the lexicographically smallest minimum set of row-major
    cell indices: where two sets first differ, the one holding the lower
    cell comes first, so it has the largest bit-reversed mask.
    """
    _check_subsets(m, n, mode, "exhaustive oracle")
    masks = enumerate_valid_masks(m, n, mode)
    if not masks:
        raise ConstructionError(_no_set(m, n, mode, "exhaustive oracle"))
    size = min(s.bit_count() for s in masks)
    best = max((s for s in masks if s.bit_count() == size), key=lambda s: f"{s:0{m * n}b}"[::-1])
    return OracleResult(value=size, witness=GridSet.from_bits(m, n, best), mode=mode)


def enumerate_valid_masks(m: int, n: int, mode: str = "i12") -> list[int]:
    """Every valid subset as a row-major bitmask, in increasing order (small grids only).

    Each mask is tested with grids.rule_faults.  A mask with an adjacent
    member pair skips every mask that keeps its bits from the pair's lower
    cell up, since all of those keep the pair.
    """
    _check_subsets(m, n, mode, "full enumeration")
    cells, masks, s = m * n, [], 0
    while s >> cells == 0:
        right, down, undominated, over, _ = rule_faults(m, n, s)
        if right | down:
            low = (right | down).bit_length() - 1
            s = ((s >> low) + 1) << low
            continue
        if not (undominated or mode == "i12" and over):
            masks.append(s)
        s += 1
    return masks


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

    # (previous column, column) -> per row, the members among the left, upper
    # and lower neighbours, capped at 3; members carry 0
    counts_of = {
        (p, mu): tuple(
            0 if mu >> i & 1 else min(sum(x >> i & 1 for x in (p, mu << 1, mu >> 1)), 3)
            for i in range(m)
        )
        for p in masks for mu in masks
    }

    # state: (mask, counts) -> (cost, column-mask history for the witness)
    states: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
    for mu in masks:
        cand = (bin(mu).count("1"), (mu,))
        key = (mu, counts_of[0, mu])
        if key not in states or cand < states[key]:
            states[key] = cand

    for _ in range(1, n):
        nxt: dict[tuple[int, tuple[int, ...]], tuple[int, tuple[int, ...]]] = {}
        for (mask, counts), (cost, hist) in states.items():
            for mu in masks:
                # every non-member of the settled column needs lo..hi dominators
                if mask & mu or not all(
                    mask >> i & 1 or lo <= counts[i] + (mu >> i & 1) <= hi for i in range(m)
                ):
                    continue
                key = (mu, counts_of[mask, mu])
                cand = (cost + bin(mu).count("1"), hist + (mu,))
                if key not in nxt or cand < nxt[key]:
                    nxt[key] = cand
        states = nxt

    finals = [
        best for (mask, counts), best in states.items()
        if all(mask >> i & 1 or lo <= counts[i] <= hi for i in range(m))
    ]
    if not finals:
        raise ConstructionError(_no_set(m, n, mode, "profile oracle"))
    cost, hist = min(finals)
    # column j of the witness is hist[j - 1], with row i at bit i - 1
    members = [(i + 1, j + 1) for j, mu in enumerate(hist) for i in range(m) if mu >> i & 1]
    return OracleResult(value=cost, witness=GridSet(m, n, members), mode=mode)
