"""Width-m dynamic program and period certificates.

The minimum size of an independent [1,2]-set of the m x n grid is obtained by
iterating the min-plus transition matrix on the initial vector and minimizing
over final words.  The iteration stops at the first column t that repeats an
earlier one up to a constant shift, X^t = X^{t-d} + c: since
mat_vec(x + c) = mat_vec(x) + c, every later column is a stored one plus a
multiple of c.  The columns X^1..X^{t-1} depend only on m, so each width
keeps them once, in a DPWindow that grows on demand: solving or extracting
at any n only reads and backtracks once the window holds min(n, t - 1)
columns.  Backtracking, too, stops growing with n: past column t - d the
chain repeats as soon as a (stored column, word) state recurs, so that cycle
is tiled as a list, and the searched steps are kept on the window.  A
column is a plain int64 array with the _INF sentinel while mat_vec computes
it, and its minimum plus uint8 offsets once stored.  The first repeat is
also the period certificate: the grid values repeat with period d and
increment c from n0 = t - d on, which extends them to every larger n.

The DP runs over the live words only: those with a predecessor, and the
initial ones.  Any other word is infinite in every column, so dropping it
is exact.  machinery() enumerates the live words directly, in table order,
and builds the matrix, .initial and .finals on that one table: every window
column and the ids backtrack returns index its rows, so tie-breaks on the
smallest id pick the same words as over the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import PeriodNotFoundError, UnsupportedGridError
# closed forms and period bounds live in formulas, which loads no numpy; re-exported here
from .formulas import DEFAULT_MAX_D, DEFAULT_MAX_N, big_grid_value, closed_form, value  # noqa: F401
from .tropical import (
    _INF,
    INFINITY,
    TropicalMatrix,
    build_initial_vector,
    build_transition_matrix,
    final_mask,
    mat_vec,
)
from .words import enumerate_suitable

# offset of an infinite entry in a kept column; finite offsets are 0..254
OFF_INF = 255


@dataclass(frozen=True, eq=False)
class Machinery:
    """Everything solve-time code needs for one width, built once.

    matrix.table holds the width's live words; matrix, initial and finals
    index its rows.
    """

    matrix: TropicalMatrix
    initial: np.ndarray
    finals: np.ndarray


_machinery_cache: dict[int, Machinery] = {}


def machinery(m: int) -> Machinery:
    cached = _machinery_cache.get(m)
    if cached is not None:
        return cached
    table = enumerate_suitable(m, live=True)
    built = Machinery(build_transition_matrix(table), build_initial_vector(table), final_mask(table))
    _machinery_cache[m] = built
    return built


def _compact(data: np.ndarray) -> tuple[int, np.ndarray]:
    """Minimum of a column and its entries less that minimum, as uint8 offsets."""
    finite = data < _INF
    low = int(data.min())
    spread = data - low
    top = int(spread[finite].max(initial=0))
    if top >= OFF_INF:
        raise RuntimeError(
            f"a DP column spreads {top} above its minimum, "
            f"more than the {OFF_INF - 1} a uint8 offset holds"
        )
    return low, np.where(finite, spread, OFF_INF).astype(np.uint8)


@dataclass(eq=False)
class DPWindow:
    """The columns X^1..X^len of one width's DP, kept up to its first repeat.

    Column r is stored as mins[r-1] plus offsets[r-1], a uint8 array holding
    OFF_INF where X^r is infinite; values[r-1] is the grid value at n = r.
    Once repeat = (t, d, c) is set the window is complete: X^r for r >= t is
    the stored column s + (r - s) mod d plus c * ((r - s) // d), s = t - d.
    steps is backtrack's memo, (column, previous column, word) -> predecessor.
    While the window grows it carries its last column as int64 (last) and
    the stored columns' indices by a hash of their offsets (by_hash).
    """

    mach: Machinery
    mins: list[int] = field(default_factory=list)
    offsets: list[np.ndarray] = field(default_factory=list)
    values: list[int | float] = field(default_factory=list)
    repeat: tuple[int, int, int] | None = None
    steps: dict[tuple[int, int, int], int] = field(default_factory=dict)
    last: np.ndarray | None = field(default=None, init=False, repr=False)
    by_hash: dict[int, list[int]] = field(default_factory=dict, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.mins)

    def grow(self, n: int) -> None:
        """Store the columns up to min(n, t - 1) not yet held; find t if t <= n.

        Column t is the first that equals one of the DEFAULT_MAX_D columns
        before it plus a constant c >= 1, taking the smallest such d.
        Equal offsets mean equal columns up to the difference of the minima,
        so only the stored columns whose offsets hash alike are compared,
        nearest first.
        """
        while self.repeat is None and len(self) < n:
            r = len(self) + 1
            data = self.mach.initial if r == 1 else mat_vec(self.mach.matrix, self.last)
            low, off = _compact(data)
            alike = self.by_hash.setdefault(hash(off.tobytes()), [])
            for i in reversed(alike):
                d = r - 1 - i
                if d > DEFAULT_MAX_D:
                    break
                c = low - self.mins[i]
                if c >= 1 and np.array_equal(off, self.offsets[i]):
                    self.repeat = (r, d, c)
                    self.last = None
                    return
            alike.append(r - 1)
            self.last = data
            self.mins.append(low)
            self.offsets.append(off)
            best = int(off[self.mach.finals].min(initial=OFF_INF))
            self.values.append(INFINITY if best == OFF_INF else low + best)

    def locate(self, r: int) -> tuple[int, int]:
        """Index of the stored column that X^r reads, and the constant it lacks."""
        if 1 <= r <= len(self):
            return r - 1, 0
        if r < 1 or self.repeat is None:
            raise IndexError(f"column {r} is not held by this window")
        t, d, c = self.repeat
        q, phase = divmod(r - t + d, d)
        return t - d - 1 + phase, q * c

    def column(self, r: int) -> np.ndarray:
        """X^r (1-based) as int64 entries with the _INF sentinel, one per matrix row."""
        i, shift = self.locate(r)
        off = self.offsets[i]
        return np.where(off == OFF_INF, _INF, off + np.int64(self.mins[i] + shift))

    def value(self, r: int) -> int | float:
        """The grid value at n = r: the minimum of X^r over final words."""
        i, shift = self.locate(r)
        return self.values[i] + shift

    def backtrack(self, n: int) -> tuple[list[int], int]:
        """Ids in the live table of a minimum chain of columns 1..n, and its cost.

        Picks the smallest final word id achieving the minimum, then the
        smallest predecessor id achieving each step, so the chain is
        deterministic.  Steps compare the stored uint8 offsets with a scalar
        target built from the column minima and the fold's shift; each
        (column, previous column, word) step is searched once per window and
        kept in `steps`, which stays valid because stored columns never
        change.  Every column r > s = t - d reads stored column
        s - 1 + (r - s) mod d, so a step down from there depends only on the
        (stored column, word) state.  The walk from column n records where
        each such state first occurs; once one recurs, the ids in between
        repeat down to column s, so they are tiled as a list and the walk
        goes on from column s.  A warm call thus costs about t steps plus
        the tile, whatever n is.
        """
        m, matrix, finals = self.mach.matrix.table.m, self.mach.matrix, self.mach.finals
        mins, offsets, steps = self.mins, self.offsets, self.steps
        pred_ptr, pred_idx = memoryview(matrix.pred_ptr), memoryview(matrix.pred_idx)
        i, shift = self.locate(n)
        low = int(offsets[i][finals].min(initial=OFF_INF))
        if low == OFF_INF:
            raise UnsupportedGridError(f"no independent [1,2]-set exists for ({m}, {n})")
        p = int(np.flatnonzero(finals & (offsets[i] == low))[0])
        ids = [p]
        s = n if self.repeat is None else self.repeat[0] - self.repeat[1]
        seen: dict[tuple[int, int], int] = {}  # (column, p) -> index in ids, for columns past s
        r = n
        while r > 1:
            if r > s:
                first = seen.setdefault((i, p), len(ids) - 1)
                if first < len(ids) - 1:  # a repeat: ids[first:-1] recurs down to column s
                    cycle, more = ids[first:-1], n - s + 1 - first
                    ids[first:] = cycle * (more // len(cycle)) + cycle[: more % len(cycle)]
                    r, p, i, shift = s, ids[-1], s - 1, 0
                    continue
            j, prev_shift = self.locate(r - 1)
            q = steps.get((i, j, p))
            if q is None:
                # X^r[p] = row_zeros[p] + X^{r-1}[q] for the chosen q, as an offset of X^{r-1}
                target = (
                    mins[i] + shift + int(offsets[i][p]) - int(matrix.row_zeros[p])
                    - mins[j] - prev_shift
                )
                # memoryviews read ints without numpy scalars or copies; sorted ids,
                # so the first hit is the smallest
                row = pred_idx[pred_ptr[p] : pred_ptr[p + 1]] if 0 <= target < OFF_INF else ()
                col = memoryview(offsets[j])
                q = next((q for q in row if col[q] == target), None)
                if q is None:
                    raise RuntimeError(
                        f"DP window inconsistent at column {r} for ({m}, {n}); this is a bug"
                    )
                steps[i, j, p] = q
            ids.append(q)
            p, i, shift, r = q, j, prev_shift, r - 1
        ids.reverse()
        return ids, self.value(n)


# each width's window, next to its machinery; filled by run_dp, never by machinery()
_window_cache: dict[int, DPWindow] = {}


def run_dp(
    m: int, n: int, keep_trace: bool = False
) -> tuple[Machinery, DPWindow | list[np.ndarray]]:
    """The columns X^1..X^n of the width-m DP, read from the width's window.

    First grows the kept window to min(n, t - 1) columns, recording the
    first repeat t when t <= n; a warm call computes nothing.  Returns the
    window itself when keep_trace (window.column(r) is X^r for every
    r <= n), else [X^n] as an int64 array.
    """
    if m < 2:
        raise UnsupportedGridError("the word machinery needs at least 2 rows; use the oracle for paths")
    if n < 1:
        raise UnsupportedGridError(f"column count must be positive, got {n}")
    mach = machinery(m)
    window = _window_cache.get(m)
    if window is None:
        window = _window_cache[m] = DPWindow(mach)
    window.grow(n)
    return mach, window if keep_trace else [window.column(n)]


def solve_width(m: int, n: int) -> int | float:
    """Minimum independent [1,2]-set size of the m x n grid, by the DP.

    A lookup in the width's window plus the fold's shift.  The grid is
    transposed so the DP runs over the shorter side, unless that side is a
    single row, which the word machinery does not cover.  Returns math.inf
    if no final word is reachable (never the case for the grids in range;
    treat it as a bug signal).
    """
    if 2 <= n < m:
        m, n = n, m
    _, window = run_dp(m, n, keep_trace=True)
    return window.value(n)


@dataclass(frozen=True)
class PeriodCertificate:
    """Witness that X^{n0+d} = X^{n0} + c entrywise, with boundary values.

    boundary maps r to the grid value for n0 <= r <= n0+d-1; together with
    the recurrence value(m, n+d) = value(m, n) + c it determines every
    n >= n0.
    """

    m: int
    n0: int
    d: int
    c: int
    boundary: Mapping[int, int]


def detect_period(
    m: int,
    max_d: int = DEFAULT_MAX_D,
    max_n: int = DEFAULT_MAX_N,
) -> PeriodCertificate:
    """The smallest d, then the smallest n0, with X^{n0+d} = X^{n0} + c, c >= 1.

    Read off the width's first repeat X^t = X^{t-d} + c as n0 = t - d.  From
    column n0 on the run repeats with period d.  No earlier n0 repeats with
    this d, and no smaller d repeats at any n0: shifted back by multiples of
    d, either would give a repeat before column t, or one at t with a
    smaller d.  max_d and max_n are refusal bounds: raises
    PeriodNotFoundError when d > max_d or t > max_n, which signals caps that
    are too small rather than a mathematical failure.  Periods longer than
    DEFAULT_MAX_D are never searched, so a larger max_d cannot find one the
    fold missed; the error then names that bound.
    """
    if m < 2:
        raise UnsupportedGridError("period detection needs at least 2 rows")
    _, window = run_dp(m, max_n, keep_trace=True)
    repeat = window.repeat
    if repeat is None or repeat[0] > max_n or repeat[1] > max_d:
        beyond = (
            f"; periods longer than DEFAULT_MAX_D={DEFAULT_MAX_D} are not searched"
            if max_d > DEFAULT_MAX_D
            else ""
        )
        raise PeriodNotFoundError(
            f"no period for m={m} within d<={max_d}, n<={max_n}; raise the bounds{beyond}"
        )
    t, d, c = repeat
    n0 = t - d
    boundary = {}
    for r in range(n0, t):
        v = window.value(r)
        if v == INFINITY:
            raise PeriodNotFoundError(f"m={m}: boundary value at n={r} is infeasible")
        boundary[r] = int(v)
    return PeriodCertificate(m=m, n0=n0, d=d, c=c, boundary=boundary)


def extend_by_period(cert: PeriodCertificate, n: int) -> int:
    """Value at any n >= cert.n0 from the boundary window plus c per period."""
    if n < cert.n0:
        raise ValueError(f"n={n} is below the certificate window start {cert.n0}")
    q, r = divmod(n - cert.n0, cert.d)
    return cert.boundary[cert.n0 + r] + q * cert.c
