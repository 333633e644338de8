"""Width-m dynamic program and period certificates.

The minimum size of an independent [1,2]-set of the m x n grid is obtained by
iterating the min-plus transition matrix on the initial vector and minimizing
over final words.  The iteration stops at the first column t that repeats an
earlier one up to a constant shift, X^t = X^{t-d} + c: since
mat_vec(x + c) = mat_vec(x) + c, every later column is a stored one plus a
multiple of c.  A column less its minimum determines the next one less
its minimum, so t - d and d are the minimal preperiod and the minimal
period of that sequence, and each column's offsets key a dict that finds
t with one exact lookup, at any distance.  The columns X^1..X^{t-1} depend
only on m, so each width keeps them once, in a DPWindow that grows on
demand: solving or extracting at any n only reads and backtracks once the
window holds min(n, t - 1) columns.  A step keeps no argmin:
backtracking finds each predecessor again in the stored column it steps
back into (TropicalMatrix.follow), the first one with the least offset.
It stops growing with n as well: past column t - d the chain repeats as
soon as a (stored column, word) state recurs.  So when grow finds the
repeat it walks, once, each stored column's periodic head and
cycle and the chain below column t - d for every word those walks reach
there, and keeps them as (m, len) zero masks; an extract at any n >= t - d
then writes its member mask from them with a few slice assignments.  A
column is its minimum plus uint8 offsets, OFF_INF where infinite, from
X^1 on: mat_vec steps that form to that form, and column() rebuilds an
int64 array with the _INF sentinel on request.  The first repeat is also
the period certificate: the grid values repeat with period d and
increment c from n0 = t - d on, which extends them to every larger n.

The DP runs over the live words only: those with a predecessor, and the
initial ones.  Any other word is infinite in every column, so dropping it
is exact.  machinery() enumerates the live words directly, in table order,
and builds the matrix, .initial and .finals on that one table: every window
column and every backtracked word id index its rows, so tie-breaks on the
smallest id pick the same words as over the whole table.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from .errors import PeriodNotFoundError, UnsupportedGridError
# closed forms and period bounds live in formulas, which loads no numpy; re-exported here
from .formulas import DEFAULT_MAX_D, DEFAULT_MAX_N, big_grid_value, closed_form, value  # noqa: F401
from .tropical import (
    _INF,
    INFINITY,
    OFF_INF,
    TropicalMatrix,
    build_initial_vector,
    build_transition_matrix,
    final_mask,
    mat_vec,
)
from .words import enumerate_suitable


class Machinery:
    """Everything solve-time code needs for one width, built once.

    matrix.table holds the width's live words; matrix, initial and finals
    index its rows.  Equal only to itself.
    """

    def __init__(self, matrix: TropicalMatrix, initial: np.ndarray, finals: np.ndarray) -> None:
        self.matrix, self.initial, self.finals = matrix, initial, finals

    def __repr__(self) -> str:
        return f"Machinery(matrix={self.matrix!r}, initial={self.initial!r}, finals={self.finals!r})"


_machinery_cache: dict[int, Machinery] = {}


def machinery(m: int) -> Machinery:
    cached = _machinery_cache.get(m)
    if cached is not None:
        return cached
    table = enumerate_suitable(m, live=True)
    built = Machinery(build_transition_matrix(table), build_initial_vector(table), final_mask(table))
    _machinery_cache[m] = built
    return built


# least columns of a window's cycle mask, held as whole cycles: backtrack
# copies it into the member mask once per row and copy, and a copy of one
# short cycle is about a numpy inner loop, so at 13 x 1500 a 24-column cycle
# took 10 us where 256 columns take 4 us (2 shared x86-64 CPUs); the memos
# of widths 2..13 then hold about 0.27 MB of masks in all
_CYCLE_SPAN = 256


class DPWindow:
    """The columns X^1..X^len of one width's DP, kept up to its first repeat.

    Column r is stored as mins[r-1] plus offsets[r-1], a uint8 array holding
    OFF_INF where X^r is infinite; values[r-1] is the grid value at n = r,
    and ends[r-1] the smallest final word id that reaches it.
    Once repeat = (t, d, c) is set the window is complete: X^r for r >= t is
    the stored column s + (r - s) mod d plus c * ((r - s) // d), s = t - d.
    The columns are the window's one record per step: backtracking steps
    from column r + 1 back to column r by matrix.follow on offsets[r-1],
    and back out of X^t (X^s shifted) by the repeat step on offsets[t-2].
    While the window grows it maps each stored column's offset bytes to its
    index (index); each offsets entry is a read-only view of its key, so a
    column is held once, and mat_vec steps from the last one.  heads and
    tails are backtrack's memos, filled complete when grow finds the repeat
    (see _fill): heads[i], for each stored column i with a finite value at
    or past column t - d, is the periodic walk down from its final word as
    (head ids, cycle ids, head zero mask, cycle zero mask), the last over
    as many whole cycles as reach _CYCLE_SPAN columns, and tails[w], for
    each word w that one of those walks reaches at column t - d, is the
    zero mask of the chain over columns 1..t - d that ends in w.  A zero
    mask is an (m, len) bool array, True at each label 0; a head's and its
    cycle's are the two sides of one C-contiguous array.
    DPWindow(mach) starts empty.  The constructor also takes mins, offsets,
    values, repeat and ends, in that order, each list left out
    starting as a new empty one; index, heads and tails always start
    empty.  A window is a plain mutable object, equal only to itself.
    """

    def __init__(
        self,
        mach: Machinery,
        mins: list[int] | None = None,
        offsets: list[np.ndarray] | None = None,
        values: list[int | float] | None = None,
        repeat: tuple[int, int, int] | None = None,
        ends: list[int] | None = None,
    ) -> None:
        self.mach = mach
        self.mins = [] if mins is None else mins
        self.offsets = [] if offsets is None else offsets
        self.values = [] if values is None else values
        self.repeat = repeat
        self.ends = [] if ends is None else ends
        self.index: dict[bytes, int] = {}
        self.heads: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self.tails: dict[int, np.ndarray] = {}

    def __repr__(self) -> str:
        return (
            f"DPWindow(mach={self.mach!r}, mins={self.mins!r}, offsets={self.offsets!r}, "
            f"values={self.values!r}, repeat={self.repeat!r}, ends={self.ends!r}, "
            f"heads={self.heads!r}, tails={self.tails!r})"
        )

    def __len__(self) -> int:
        return len(self.mins)

    def grow(self, n: int) -> None:
        """Store the columns up to min(n, t - 1) not yet held; find t if t <= n.

        Column t is the first whose offsets equal a stored column's, so
        X^t = X^{t-d} + c with c the difference of their minima (c >= 0:
        row costs are non-negative, so no column's minimum falls).  No two
        stored columns are equal, or the window would have stopped at the
        later one, so the offsets key a single index and one exact lookup
        per column finds the repeat at any distance d.
        """
        if self.repeat is not None or len(self.mins) >= n:
            return
        finals = np.flatnonzero(self.mach.finals)  # a take is about 3 times faster than the mask
        while self.repeat is None and len(self.mins) < n:
            r = len(self.mins) + 1
            if r == 1:
                x = self.mach.initial  # zero counts, so no finite offset reaches OFF_INF
                low = int(x.min())
                off = np.minimum(x - low, OFF_INF).astype(np.uint8)
            else:
                low, off = mat_vec(self.mach.matrix, self.mins[-1], self.offsets[-1])
            key = off.tobytes()
            # keep the column once, as a read-only view of its key, and free the
            # uint8 array now: held until the next column, it cost about 2,000
            # more minor page faults over widths 2..13
            off = np.frombuffer(key, np.uint8)
            i = self.index.setdefault(key, r - 1)
            if i < r - 1:
                self.repeat = (r, r - 1 - i, low - self.mins[i])
                self._fill()
                return
            self.mins.append(low)
            self.offsets.append(off)
            end = int(finals[off.take(finals).argmin()])  # the first, so smallest, minimal id
            best = off.item(end)
            self.values.append(INFINITY if best == OFF_INF else low + best)
            self.ends.append(end)

    def locate(self, r: int) -> tuple[int, int]:
        """Index of the stored column that X^r reads, and the constant it lacks."""
        if 1 <= r <= len(self.mins):
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

    def backtrack(self, n: int) -> tuple[np.ndarray, int | float]:
        """The zero mask of a minimum chain of columns 1..n, as an (m, n) bool array, and its cost.

        Column j of the mask is True at the 0s of the chain's word at column
        j: the members of the grid's column j.  The chain picks the smallest
        final word id achieving the minimum, then at each column the
        smallest predecessor id achieving the step (matrix.follow).
        Below s = t - d (or in a window with no repeat yet) it is walked
        straight down.  From s on it is written from the memos _fill left
        at the repeat: the stored column i that X^n reads (locate) picks
        heads[i], whose ids give the word w at column s, so the mask is
        tails[w] over columns 1..s, then the cycle mask repeated up to the
        head, then the head mask, whatever n is.
        """
        i, _ = self.locate(n)
        if self.values[i] == INFINITY:
            m = self.mach.matrix.table.m
            raise UnsupportedGridError(f"no independent [1,2]-set exists for ({m}, {n})")
        s = n + 1 if self.repeat is None else self.repeat[0] - self.repeat[1]
        if n < s:
            return self._zeros(self._walk(n, self.ends[i])), self.value(n)
        head, cycle, head_zeros, cycle_zeros = self.heads[i]
        # word j of the walk is column n - j's, so column s's is word n - s, and
        # columns s + 1..n hold words n - s - 1 down to 0: the head last, and
        # before it the cycle, repeated back to column s + 1
        a, depth = len(head), n - s
        out = np.empty((len(head_zeros), n), bool)
        if depth < a:
            w = head[a - 1 - depth]
            out[:, s:] = head_zeros[:, a - depth :]
        else:
            w = cycle[-1 - (depth - a) % len(cycle)]
            # cycle_zeros is whole cycles, so the stretch before the head is its
            # last r columns, then q copies of all of it
            span = cycle_zeros.shape[1]
            q, r = divmod(depth - a, span)
            out[:, s : s + r] = cycle_zeros[:, span - r :]
            # splitting the columns' unit-stride axis keeps the reshape a view
            out[:, s + r : n - a].reshape(len(out), q, span)[...] = cycle_zeros[:, None]
            out[:, n - a :] = head_zeros
        out[:, :s] = self.tails[w]
        return out, self.value(n)

    def _fill(self) -> None:
        """Fill heads and tails for every n >= t - d; grow calls it when it finds the repeat.

        Widths 2..13 need at most 13 heads and 24 tails.
        """
        t, d, _ = self.repeat
        s = t - d
        for i in range(s - 1, t - 1):  # the stored columns X^n reads for n >= s
            if self.values[i] == INFINITY:
                continue
            head, cycle = self._periodic_walk(i)
            # one mask for the head and the cycle's copies, cut in two
            zeros = self._zeros(np.concatenate([head, *[cycle] * -(-_CYCLE_SPAN // len(cycle))]))
            self.heads[i] = head, cycle, zeros[:, : len(head)], zeros[:, len(head) :]
            # column s is word n - s of the walk for each n that reads column i,
            # n = i + 1 mod d, so these are the words it can be
            for w in np.concatenate([head, cycle])[t - 2 - i :: d].tolist():
                if w not in self.tails:
                    self.tails[w] = self._zeros(self._walk(s, w))

    def _zeros(self, ids: np.ndarray) -> np.ndarray:
        """The words' zero mask: column j is True at the 0s of word ids[j]."""
        return (self.mach.matrix.table.digits.take(ids, axis=0) == 0).T.copy()

    def _walk(self, r: int, p: int) -> np.ndarray:
        """The chain over columns 1..r (all stored) ending with word p, stepped back through them."""
        columns = map(memoryview, reversed(self.offsets[: r - 1]))
        return np.array(self.mach.matrix.follow(p, columns)[::-1], np.intp)

    def _periodic_walk(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The backtrack down the periodic columns from the final word of stored column i.

        Word j of the walk is column n - j's, for any n >= s whose column
        reads stored column i, down to column s.  A column r > s reads stored
        column s - 1 + (r - s) mod d and is stepped into from the one before,
        by the repeat step where it reads stored column s - 1 (X^t = X^s
        shifted), so every d words the walk reads the same d steps again and
        is back at stored column i, and its words there recur.  Returns the
        words before the first recurring one (the head) and those of one
        cycle, each reversed, so in column order.  Both are whole periods
        long: the cycle may start up to d - 1 words later than it must.
        """
        t, d, _ = self.repeat
        s = t - d
        # stored column j is stepped into from offsets[j - 1]; a periodic column
        # that reads stored column s - 1 is stepped into by the repeat step, from
        # offsets[t - 2], as if it were stored column t - 1
        steps = [memoryview(self.offsets[j - 1]) for j in (*range(i, s - 1, -1), *range(t - 1, i, -1))]
        p = self.ends[i]
        seen: dict[int, int] = {}
        words: list[int] = []
        while p not in seen:
            seen[p] = len(words)
            words += self.mach.matrix.follow(p, steps)
            p = words.pop()
        a = seen[p]
        return np.array(words[:a][::-1], np.intp), np.array(words[a:][::-1], np.intp)


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
    if m < 1 or n < 1:
        raise UnsupportedGridError(f"grid dimensions must be positive, got ({m}, {n})")
    if m < 2:
        raise UnsupportedGridError("the word machinery needs at least 2 rows; use the oracle for paths")
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


class PeriodCertificate(NamedTuple):
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
    """The smallest d, then the smallest n0, with X^{n0+d} = X^{n0} + c.

    Read off the width's first repeat X^t = X^{t-d} + c as n0 = t - d.  The
    first repeat is the minimal preperiod plus the minimal period of the
    columns less their minima: from column n0 on the run repeats with
    period d, no earlier n0 repeats with this d, and no smaller d repeats
    at any n0, since shifted back by multiples of d either would give a
    repeat before column t, or one at t with a smaller d.  max_d and max_n
    are refusal bounds: raises PeriodNotFoundError when d > max_d or
    t > max_n, which signals caps that are too small rather than a
    mathematical failure, and UnsupportedGridError, before any work, when
    m < 2 or a bound is below 1.
    """
    if m < 2:
        raise UnsupportedGridError("period detection needs at least 2 rows")
    for name, bound in (("max_d", max_d), ("max_n", max_n)):
        if bound < 1:
            raise UnsupportedGridError(f"period bound {name} must be positive, got {bound}")
    _, window = run_dp(m, max_n, keep_trace=True)
    repeat = window.repeat
    if repeat is None or repeat[0] > max_n or repeat[1] > max_d:
        raise PeriodNotFoundError(f"no period for m={m} within d<={max_d}, n<={max_n}; raise the bounds")
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
