"""Concrete vertex sets on the m x n grid: verification, extraction, labeling.

Coordinates are 1-based (i, j) with i the row (1 = top) and j the column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidSetError, MalformedSetError, ResourceCapError
from .solver import run_dp

# largest m * n a vertex set may span; sets are frozensets of tuples and
# verify_set builds an array over every cell, so larger grids are refused up front
MAX_CELLS = 4_000_000


def check_cell_cap(m: int, n: int) -> None:
    """Refuse a grid above MAX_CELLS before any per-cell work starts."""
    if m * n > MAX_CELLS:
        raise ResourceCapError(f"a {m}x{n} grid has more than {MAX_CELLS} cells")


@dataclass(frozen=True)
class GridSet:
    """A subset of the m x n grid's vertices."""

    m: int
    n: int
    members: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise MalformedSetError(f"grid dimensions must be positive, got ({self.m}, {self.n})")
        check_cell_cap(self.m, self.n)
        object.__setattr__(self, "members", frozenset(self.members))
        for i, j in self.members:
            if not (1 <= i <= self.m and 1 <= j <= self.n):
                raise MalformedSetError(f"vertex ({i}, {j}) outside the {self.m}x{self.n} grid")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, vertex: tuple[int, int]) -> bool:
        return vertex in self.members

    def sorted_members(self) -> list[tuple[int, int]]:
        return sorted(self.members)

    def transpose(self) -> "GridSet":
        return GridSet(self.n, self.m, frozenset((j, i) for i, j in self.members))

    def to_ascii(self) -> str:
        """First line "m n", then '#' for members and '.' for the rest."""
        rows = [f"{self.m} {self.n}"]
        for i in range(1, self.m + 1):
            rows.append(
                "".join("#" if (i, j) in self.members else "." for j in range(1, self.n + 1))
            )
        return "\n".join(rows)

    @classmethod
    def from_ascii(cls, text: str) -> "GridSet":
        """Parse the `to_ascii` format; raises MalformedSetError for anything else."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise MalformedSetError("empty grid description")
        try:
            m, n = map(int, lines[0].split())
        except ValueError as exc:
            raise MalformedSetError(f"first line must be 'm n', got {lines[0]!r}") from exc
        body = lines[1:]
        if len(body) != m:
            raise MalformedSetError(f"expected {m} rows, got {len(body)}")
        members = set()
        for i, row in enumerate(body, start=1):
            if len(row) != n:
                raise MalformedSetError(f"row {i} has {len(row)} cells, expected {n}")
            for j, ch in enumerate(row, start=1):
                if ch == "#":
                    members.add((i, j))
                elif ch != ".":
                    raise MalformedSetError(f"unexpected cell {ch!r} at ({i}, {j})")
        return cls(m, n, frozenset(members))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "members": [list(v) for v in self.sorted_members()]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridSet":
        """Parse {"m": int, "n": int, "members": [[i, j], ...]}.

        Raises MalformedSetError for anything else.
        """
        if not isinstance(data, dict):
            raise MalformedSetError(f"a set must be an object, got {type(data).__name__}")
        missing = [key for key in ("m", "n", "members") if key not in data]
        if missing:
            raise MalformedSetError(f"set object lacks {', '.join(missing)}")
        m, n, members = data["m"], data["n"], data["members"]
        if not (_is_int(m) and _is_int(n)):
            raise MalformedSetError(f"m and n must be integers, got {m!r} and {n!r}")
        if not isinstance(members, (list, tuple)):
            raise MalformedSetError(f"members must be a list of [i, j] pairs, got {members!r}")
        for v in members:
            if not (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v))):
                raise MalformedSetError(f"member {v!r} is not an [i, j] pair of integers")
        return cls(m, n, frozenset((i, j) for i, j in members))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Violation:
    vertex: tuple[int, int]
    kind: str  # adjacent-pair | undominated | over-dominated
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    independent: bool
    dominated_ok: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return self.independent and self.dominated_ok


def _padded(s: GridSet) -> np.ndarray:
    """Membership of s as 0/1 on an (m+2) x (n+2) int8 array with a zero border.

    Cell (i, j) sits at [i, j], so the neighbors of the inner block
    [1:-1, 1:-1] are its shifts by one row or column.
    """
    g = np.zeros((s.m + 2, s.n + 2), dtype=np.int8)
    flat = np.fromiter(chain.from_iterable(s.members), dtype=np.int64, count=2 * len(s))
    g[flat[0::2], flat[1::2]] = 1
    return g


def _cells(mask: np.ndarray, *values: np.ndarray) -> zip:
    """1-based (i, j) of the nonzero cells of an m x n mask in row-major order,
    each followed by the entries of values at that cell."""
    rows, cols = np.nonzero(mask)
    return zip((rows + 1).tolist(), (cols + 1).tolist(), *(v[rows, cols].tolist() for v in values))


def verify_set(s: GridSet) -> VerificationReport:
    """Per-vertex diagnosis of independence and [1,2]-domination.

    Independence fails on any grid-adjacent member pair; domination fails on
    a non-member with zero neighbors in the set (undominated) or three or
    more (over-dominated).  Adjacent pairs come first, by member in sorted
    order, the right neighbor before the lower one; then the domination
    failures in row-major order.
    """
    g = _padded(s)
    member = g[1:-1, 1:-1]
    right = member & g[1:-1, 2:]
    down = member & g[2:, 1:-1]
    violations: list[Violation] = []
    # row-major order of the cells is the sorted order of the members
    for i, j, r, d in _cells(right | down, right, down):
        for hit, v in ((r, (i, j + 1)), (d, (i + 1, j))):
            if hit:
                violations.append(
                    Violation((i, j), "adjacent-pair", f"members ({i},{j}) and {v} are adjacent")
                )
    independent = not violations
    count = g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:]
    bad = (member == 0) & ((count == 0) | (count > 2))
    for i, j, c in _cells(bad, count):
        if c == 0:
            violations.append(
                Violation((i, j), "undominated", f"({i},{j}) has no neighbor in the set")
            )
        else:
            violations.append(
                Violation((i, j), "over-dominated", f"({i},{j}) has {c} neighbors in the set")
            )
    return VerificationReport(independent, not bad.any(), tuple(violations))


def extract_min_set(m: int, n: int) -> GridSet:
    """Backtrack the width's DP window into a concrete minimum independent [1,2]-set.

    The columns come from the width's kept window, so this only backtracks
    (see solver.DPWindow.backtrack): the smallest final word id achieving the
    minimum, then the smallest predecessor id achieving each step, so the
    output is deterministic.  As in `solve_width`, a grid with 2 <= n < m is
    solved over its n rows and transposed back.
    """
    if 2 <= n < m:
        return extract_min_set(n, m).transpose()
    mach, window = run_dp(m, n, keep_trace=True)
    # after run_dp, so its errors keep their type; before the walk over n columns
    check_cell_cap(m, n)
    ids, best = window.backtrack(n)
    cols, rows = np.nonzero(mach.table.digits[ids] == 0)
    members = frozenset(zip((rows + 1).tolist(), (cols + 1).tolist()))
    result = GridSet(m, n, members)
    if len(result) != best:
        raise RuntimeError(
            f"extracted set of {len(result)} disagrees with the DP value {best} for ({m}, {n}); "
            "this is a bug"
        )
    return result


def labeling_of(s: GridSet) -> list[str]:
    """Reconstruct the column words induced by a valid set.

    Label 0 for members; otherwise the count of members among the left, up
    and down neighbors (1 or 2), or 3 when the only dominator is to the
    right.  Rejects sets failing verification.
    """
    report = verify_set(s)
    if not report.ok:
        raise InvalidSetError(
            f"not an independent [1,2]-set: {'; '.join(v.detail for v in report.violations[:3])}"
        )
    g = _padded(s)
    member = g[1:-1, 1:-1]
    count = g[1:-1, :-2] + g[:-2, 1:-1] + g[2:, 1:-1]
    for i, j, c in _cells((member == 0) & (count > 2), count):
        raise RuntimeError(f"({i},{j}) has {c} dominators after verification; this is a bug")
    labels = np.where(member == 1, 0, np.where(count == 0, 3, count))
    text = (labels.T + ord("0")).astype(np.uint8)
    return [row.tobytes().decode() for row in text]
