"""Independent checker for the benchmark's outputs.

It shares no code with quasidom.grids.verify_set: sets become boolean numpy
arrays and independence and [1,2]-domination are read off shifted copies.
The expected sizes come from the package's published formulas
(closed_form for m <= 13, big_grid_value above) and, for single rows, from
(n + 2) // 3.  Period certificates are pinned to measured triples.
"""

from __future__ import annotations

import numpy as np

# (n0, d, c) of the period certificates, as measured on the seed code.
PINNED_PERIODS = {12: (27, 13, 36), 13: (73, 12, 36)}


def valid_12(grid: np.ndarray) -> np.ndarray:
    """Independent [1,2]-set test, vectorised over leading axes.

    grid has shape (..., m, n) and dtype bool.  A member may have no member
    neighbour; a non-member needs one or two member neighbours.
    """
    g = np.asarray(grid, dtype=bool)
    padded = np.pad(g, [(0, 0)] * (g.ndim - 2) + [(1, 1), (1, 1)])
    count = (
        padded[..., :-2, 1:-1].astype(np.int8)
        + padded[..., 2:, 1:-1]
        + padded[..., 1:-1, :-2]
        + padded[..., 1:-1, 2:]
    )
    ok = np.where(g, count == 0, (count >= 1) & (count <= 2))
    return ok.all(axis=(-2, -1))


def members_to_grid(m: int, n: int, members) -> np.ndarray:
    """Boolean m x n array of 1-based (i, j) members; rejects bad coordinates."""
    cells = np.asarray(list(members), dtype=np.int64).reshape(-1, 2)
    if cells.size and (
        cells[:, 0].min() < 1 or cells[:, 0].max() > m
        or cells[:, 1].min() < 1 or cells[:, 1].max() > n
    ):
        raise ValueError(f"member outside the {m}x{n} grid")
    grid = np.zeros((m, n), dtype=bool)
    grid[cells[:, 0] - 1, cells[:, 1] - 1] = True
    if int(grid.sum()) != len(cells):
        raise ValueError("duplicate members")
    return grid


def expected_value(m: int, n: int) -> int:
    """Minimum independent [1,2]-set size from the published formulas."""
    from quasidom.solver import big_grid_value, closed_form

    m, n = min(m, n), max(m, n)
    if m == 1:
        return (n + 2) // 3
    if m <= 13:
        return closed_form(m, n)
    return big_grid_value(m, n)


def check_set(m: int, n: int, members) -> str | None:
    """None if members is a minimum independent [1,2]-set of the m x n grid."""
    try:
        grid = members_to_grid(m, n, members)
    except ValueError as exc:
        return str(exc)
    if not bool(valid_12(grid)):
        return f"({m}, {n}) set is not an independent [1,2]-set"
    want = expected_value(m, n)
    if int(grid.sum()) != want:
        return f"({m}, {n}) set has {int(grid.sum())} members, expected {want}"
    return None


def check_value(m: int, n: int, got) -> str | None:
    want = expected_value(m, n)
    return None if got == want else f"value({m}, {n}) = {got!r}, expected {want}"


def check_period(m: int, triple: tuple[int, int, int]) -> str | None:
    want = PINNED_PERIODS[m]
    return None if tuple(triple) == want else f"period({m}) = {triple}, expected {want}"
