"""Concrete vertex sets on the m x n grid: verification, extraction, labeling.

Coordinates are 1-based (i, j) with i the row (1 = top) and j the column; a
GridSet is one read-only m x n bool mask with (i, j) at [i - 1, j - 1].
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvalidSetError, MalformedSetError, ResourceCapError
from .solver import run_dp

# largest m * n a vertex set may span; a set is an m x n bool mask and
# verify_set builds int8 arrays over every cell, so larger grids are refused up front
MAX_CELLS = 4_000_000


def check_cell_cap(m: int, n: int) -> None:
    """Refuse an empty grid, or one above MAX_CELLS, before any per-cell work starts."""
    if m < 1 or n < 1:
        raise MalformedSetError(f"grid dimensions must be positive, got ({m}, {n})")
    if m * n > MAX_CELLS:
        raise ResourceCapError(f"a {m}x{n} grid has more than {MAX_CELLS} cells")


@dataclass(frozen=True, eq=False)
class GridSet:
    """A subset of the m x n grid's vertices: (i, j) is a member when mask[i - 1, j - 1] is set.

    GridSet(m, n, members) takes (i, j) pairs, GridSet.from_mask an array; the mask is a copy.
    """

    mask: np.ndarray

    def __init__(self, m: int, n: int, members: Iterable[tuple[int, int]] = ()):
        check_cell_cap(m, n)
        pairs = list(members)
        try:
            flat = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs))
            i, j = flat.reshape(-1, 2).T
        except OverflowError:  # a coordinate past int64, so off the grid
            i = j = np.zeros(1, dtype=np.int64)
        if not ((1 <= i) & (i <= m) & (1 <= j) & (j <= n)).all():
            # the error names the first pair off the grid in the pair set's iteration order
            for i, j in frozenset(map(tuple, pairs)):
                if not (1 <= i <= m and 1 <= j <= n):
                    raise MalformedSetError(f"vertex ({i}, {j}) outside the {m}x{n} grid")
        mask = np.zeros((m, n), dtype=bool)
        mask[i - 1, j - 1] = True
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, mask) -> "GridSet":
        """The set whose members are the true cells of an m x n array (copied)."""
        check_cell_cap(*np.shape(mask))
        s = cls.__new__(cls)
        object.__setattr__(s, "mask", np.array(mask, dtype=bool, order="C"))
        s.mask.flags.writeable = False
        return s

    m = property(lambda self: self.mask.shape[0])
    n = property(lambda self: self.mask.shape[1])
    # the (i, j) tuples, built from the mask on each call
    members = property(lambda self: frozenset(_cells(self.mask)))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))

    def __contains__(self, vertex: tuple[int, int]) -> bool:
        i, j = vertex
        return 1 <= i <= self.m and 1 <= j <= self.n and bool(self.mask[i - 1, j - 1])

    def __eq__(self, other) -> bool:
        return isinstance(other, GridSet) and np.array_equal(self.mask, other.mask)

    def __hash__(self) -> int:
        return hash((self.mask.shape, self.mask.tobytes()))

    def sorted_members(self) -> list[tuple[int, int]]:
        return list(_cells(self.mask))

    def transpose(self) -> "GridSet":
        return GridSet.from_mask(self.mask.T)

    def to_ascii(self) -> str:
        """First line "m n", then '#' for members and '.' for the rest."""
        m, n = self.mask.shape
        text = np.full((m, n + 1), ord("\n"), dtype=np.uint8)
        text[:, :n] = np.where(self.mask, ord("#"), ord("."))
        return f"{m} {n}\n" + text.tobytes()[:-1].decode()

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
        for i, row in enumerate(body, start=1):
            if len(row) != n:
                raise MalformedSetError(f"row {i} has {len(row)} cells, expected {n}")
            j = len(row) - len(row.lstrip("#."))  # the first other character
            if j < n:
                raise MalformedSetError(f"unexpected cell {row[j]!r} at ({i}, {j + 1})")
        check_cell_cap(m, n)
        cells = np.frombuffer("".join(body).encode("ascii"), dtype=np.uint8)
        return cls.from_mask(cells.reshape(m, n) == ord("#"))

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "members": (np.argwhere(self.mask) + 1).tolist()}

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
        return cls(m, n, members)


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
    g = np.zeros((s.m + 2, s.n + 2), dtype=np.int8)
    g[1:-1, 1:-1] = s.mask
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
    result = GridSet.from_mask(mach.table.digits[ids].T == 0)
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
    g = np.zeros((s.m + 2, s.n + 2), dtype=np.int8)
    g[1:-1, 1:-1] = s.mask
    count = g[1:-1, :-2] + g[:-2, 1:-1] + g[2:, 1:-1]
    for i, j, c in _cells(~s.mask & (count > 2), count):
        raise RuntimeError(f"({i},{j}) has {c} dominators after verification; this is a bug")
    labels = np.where(s.mask, 0, np.where(count == 0, 3, count))
    text = (labels.T + ord("0")).astype(np.uint8)
    return [row.tobytes().decode() for row in text]
