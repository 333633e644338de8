"""Concrete vertex sets on the m x n grid: verification, extraction, labeling.

Coordinates are 1-based (i, j) with i the row (1 = top) and j the column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidSetError, MalformedSetError, ResourceCapError, UnsupportedGridError
from .solver import run_dp
from .words import DEFAULT_WORD_CAP

# largest m * n a vertex set may span; sets are frozensets of tuples and
# verify_set visits every cell in Python, so larger grids are refused up front
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


def neighbors(m: int, n: int, i: int, j: int) -> Iterator[tuple[int, int]]:
    if i > 1:
        yield (i - 1, j)
    if i < m:
        yield (i + 1, j)
    if j > 1:
        yield (i, j - 1)
    if j < n:
        yield (i, j + 1)


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


def verify_set(s: GridSet) -> VerificationReport:
    """Per-vertex diagnosis of independence and [1,2]-domination.

    Independence fails on any grid-adjacent member pair; domination fails on
    a non-member with zero neighbors in the set (undominated) or three or
    more (over-dominated).
    """
    violations: list[Violation] = []
    members = s.members
    for i, j in sorted(members):
        for v in ((i, j + 1), (i + 1, j)):
            if v in members:
                violations.append(
                    Violation((i, j), "adjacent-pair", f"members ({i},{j}) and {v} are adjacent")
                )
    independent = not violations
    dominated_ok = True
    for i in range(1, s.m + 1):
        for j in range(1, s.n + 1):
            if (i, j) in members:
                continue
            count = sum(1 for v in neighbors(s.m, s.n, i, j) if v in members)
            if count == 0:
                dominated_ok = False
                violations.append(
                    Violation((i, j), "undominated", f"({i},{j}) has no neighbor in the set")
                )
            elif count > 2:
                dominated_ok = False
                violations.append(
                    Violation(
                        (i, j), "over-dominated", f"({i},{j}) has {count} neighbors in the set"
                    )
                )
    return VerificationReport(independent, dominated_ok, tuple(violations))


def extract_min_set(m: int, n: int, max_words: int = DEFAULT_WORD_CAP) -> GridSet:
    """Backtrack the DP trace into a concrete minimum independent [1,2]-set.

    Picks the smallest final word id achieving the minimum, then the smallest
    predecessor id achieving each step, so the output is deterministic.  As
    in `solve_width`, a grid with 2 <= n < m is solved over its n rows and
    transposed back.
    """
    if 2 <= n < m:
        return extract_min_set(n, m, max_words).transpose()
    mach, trace = run_dp(m, n, keep_trace=True, max_words=max_words)
    last = trace[-1]
    finals = mach.finals
    best = last.min_where(finals)
    if best == math.inf:
        raise UnsupportedGridError(f"no independent [1,2]-set exists for ({m}, {n})")
    data = last.data
    p = min(
        pid for pid in range(len(data)) if finals[pid] and data[pid] == best
    )
    matrix = mach.matrix
    ids = [p]
    for r in range(n - 1, 0, -1):
        prev = trace[r - 1].data
        target = trace[r].data[p] - matrix.row_zeros[p]
        row = matrix.predecessors(p)
        chosen = None
        for q in row:  # predecessor ids are sorted, first hit is smallest
            if prev[q] == target:
                chosen = int(q)
                break
        if chosen is None:
            raise RuntimeError(
                f"DP trace inconsistent at column {r + 1} for ({m}, {n}); this is a bug"
            )
        p = chosen
        ids.append(p)
    ids.reverse()
    words = [mach.table.words[i] for i in ids]
    members = frozenset(
        (i + 1, j + 1) for j, w in enumerate(words) for i, ch in enumerate(w) if ch == "0"
    )
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
    members = s.members
    columns = []
    for j in range(1, s.n + 1):
        labels = []
        for i in range(1, s.m + 1):
            if (i, j) in members:
                labels.append("0")
                continue
            count = sum(
                1
                for v in ((i, j - 1), (i - 1, j), (i + 1, j))
                if v in members
            )
            if count > 2:
                raise RuntimeError(
                    f"({i},{j}) has {count} dominators after verification; this is a bug"
                )
            labels.append("3" if count == 0 else str(count))
        columns.append("".join(labels))
    return columns
