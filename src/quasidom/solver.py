"""Width-m dynamic program, period certificates and published closed forms.

The minimum size of an independent [1,2]-set of the m x n grid is obtained by
iterating the min-plus transition matrix on the initial vector and minimizing
over final words.  The iteration stops at the first column that repeats an
earlier one up to a constant shift: since mat_vec(x + c) = mat_vec(x) + c,
every later column is a stored one plus a multiple of c, so a run computes
only the columns before that repeat, whatever n is.  A period certificate
states the same repetition for the grid values and extends them to every
larger n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import PeriodNotFoundError, ResourceCapError, UnsupportedGridError
from .tropical import (
    _INF,
    INFINITY,
    TropicalMatrix,
    TropicalVector,
    build_initial_vector,
    build_transition_matrix,
    final_mask,
    mat_vec,
)
from .words import DEFAULT_WORD_CAP, WordTable, enumerate_suitable

DEFAULT_MAX_D = 15
DEFAULT_MAX_N = 100


@dataclass(frozen=True, eq=False)
class Machinery:
    """Everything solve-time code needs for one width, built once."""

    table: WordTable
    matrix: TropicalMatrix
    initial: TropicalVector
    finals: np.ndarray


_machinery_cache: dict[int, Machinery] = {}

# first repeat of each width, (t, d, c) with X^t = X^{t-d} + c; filled by the
# first run_dp call that reaches column t
_repeat_cache: dict[int, tuple[int, int, int]] = {}


def machinery(m: int, max_words: int = DEFAULT_WORD_CAP) -> Machinery:
    cached = _machinery_cache.get(m)
    if cached is not None:
        if cached.table.k > max_words:
            raise ResourceCapError(f"more than {max_words} suitable words of length {m}")
        return cached
    table = enumerate_suitable(m, max_words=max_words)
    built = Machinery(
        table=table,
        matrix=build_transition_matrix(table),
        initial=build_initial_vector(table),
        finals=final_mask(table),
    )
    _machinery_cache[m] = built
    return built


@dataclass(frozen=True, eq=False)
class FoldedTrace:
    """The columns X^1..X^n of one DP run, stored only up to the first repeat.

    columns holds X^first..X^last.  When last < n the run stopped at its first
    repeat X^{last+1} = X^{last+1-d} + c, and column r > last is read as
    X^{s + (r - s) mod d} plus c * ((r - s) // d), where s = last + 1 - d.
    Infinite entries stay infinite.
    """

    columns: list[TropicalVector]
    first: int
    n: int
    d: int
    c: int

    def __len__(self) -> int:
        return self.n

    def _locate(self, r: int) -> tuple[TropicalVector, int]:
        last = self.first + len(self.columns) - 1
        if not (self.first <= r <= self.n):
            raise IndexError(f"column {r} is not held by this trace")
        if r <= last:
            return self.columns[r - self.first], 0
        s = last + 1 - self.d
        q, off = divmod(r - s, self.d)
        return self.columns[s + off - self.first], q * self.c

    def column(self, r: int) -> tuple[np.ndarray, int]:
        """Stored data of X^r (1-based) and the constant its entries lack."""
        vec, shift = self._locate(r)
        return vec.data, shift

    def __getitem__(self, i: int) -> TropicalVector:
        """X^{i+1}, indexed like the list of all n columns."""
        if not -self.n <= i < self.n:
            raise IndexError(f"column index {i} out of range for {self.n} columns")
        vec, shift = self._locate(i % self.n + 1)
        return vec.plus(shift) if shift else vec


def _shape_key(x: TropicalVector) -> int:
    """Hash of where x is infinite and of its finite entries less their minimum.

    Columns that differ by a constant on their finite entries share a key, so
    comparing keys rules out most candidates before _uniform_shift runs.
    """
    data = x.data
    return hash(np.where(data < _INF, data - data.min(), -1).tobytes())


def _find_shift(
    columns: list[TropicalVector], keys: list[int], x: TropicalVector, key: int
) -> tuple[int, int] | None:
    """The smallest d <= DEFAULT_MAX_D and its c with x = columns[-d] + c.

    keys[-d] is the _shape_key of columns[-d], and key that of x.
    """
    for d in range(1, min(DEFAULT_MAX_D, len(columns)) + 1):
        if keys[-d] == key:
            c = _uniform_shift(columns[-d].data, x.data)
            if c is not None:
                return d, c
    return None


def run_dp(
    m: int, n: int, keep_trace: bool = False, max_words: int = DEFAULT_WORD_CAP
) -> tuple[Machinery, FoldedTrace | list[TropicalVector]]:
    """Iterate X^1..X^n, stopping at the width's first repeat.

    Returns the FoldedTrace of all n columns when keep_trace, else [X^n].
    The first run that reaches a repeat records it in _repeat_cache; later
    runs at that width compute min(n, t - 1) columns without checking.
    Without keep_trace only the last DEFAULT_MAX_D columns are held.
    """
    if m < 2:
        raise UnsupportedGridError("the word machinery needs at least 2 rows; use the oracle for paths")
    if n < 1:
        raise UnsupportedGridError(f"column count must be positive, got {n}")
    mach = machinery(m, max_words=max_words)
    repeat = _repeat_cache.get(m)
    last = n if repeat is None else min(n, repeat[0] - 1)
    x = mach.initial
    columns, first = [x], 1
    keys = [] if repeat else [_shape_key(x)]
    for r in range(2, last + 1):
        x = mat_vec(mach.matrix, x)
        if repeat is None:
            key = _shape_key(x)
            found = _find_shift(columns, keys, x, key)
            if found is not None:
                repeat = _repeat_cache[m] = (r, *found)
                break
            keys.append(key)
            del keys[:-DEFAULT_MAX_D]
        columns.append(x)
        if not keep_trace and len(columns) > DEFAULT_MAX_D:
            del columns[0]
            first += 1
    _, d, c = repeat or (0, 0, 0)
    trace = FoldedTrace(columns, first, n, d, c)
    return mach, trace if keep_trace else [trace[-1]]


def solve_width(m: int, n: int, max_words: int = DEFAULT_WORD_CAP) -> int | float:
    """Minimum independent [1,2]-set size of the m x n grid, by the DP.

    The grid is transposed so the DP runs over the shorter side, unless that
    side is a single row, which the word machinery does not cover.  Returns
    math.inf if no final word is reachable (never the case for the grids in
    range; treat it as a bug signal).
    """
    if 2 <= n < m:
        m, n = n, m
    mach, trace = run_dp(m, n, max_words=max_words)
    return trace[-1].min_where(mach.finals)


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


def _uniform_shift(a: np.ndarray, b: np.ndarray, lift: int = 0) -> int | None:
    """The constant c >= 1 with b + lift = a + c on finite entries, if it exists.

    lift is the constant that the stored entries of b lack relative to a's,
    as read from a FoldedTrace.
    """
    fa = a < _INF
    fb = b < _INF
    if not np.array_equal(fa, fb) or not fa.any():
        return None
    diffs = b[fa] - a[fa]
    c = int(diffs[0]) + lift
    if c >= 1 and bool((diffs == diffs[0]).all()):
        return c
    return None


def detect_period(
    m: int,
    max_d: int = DEFAULT_MAX_D,
    max_n: int = DEFAULT_MAX_N,
    max_words: int = DEFAULT_WORD_CAP,
) -> PeriodCertificate:
    """Search for the smallest d, then the smallest n0, with X^{n0+d} = X^{n0} + c.

    Raises PeriodNotFoundError when the bounds are exhausted, which signals
    caps that are too small rather than a mathematical failure.
    """
    if m < 2:
        raise UnsupportedGridError("period detection needs at least 2 rows")
    mach, trace = run_dp(m, max_n, keep_trace=True, max_words=max_words)
    for d in range(1, max_d + 1):
        for n0 in range(1, max_n - d + 1):
            a, shift_a = trace.column(n0)
            b, shift_b = trace.column(n0 + d)
            c = _uniform_shift(a, b, shift_b - shift_a)
            if c is None:
                continue
            boundary = {}
            for r in range(n0, n0 + d):
                v = trace[r - 1].min_where(mach.finals)
                if v == INFINITY:
                    raise PeriodNotFoundError(
                        f"m={m}: boundary value at n={r} is infeasible"
                    )
                boundary[r] = int(v)
            return PeriodCertificate(m=m, n0=n0, d=d, c=c, boundary=boundary)
    raise PeriodNotFoundError(
        f"no period for m={m} within d<={max_d}, n<={max_n}; raise the bounds"
    )


def extend_by_period(cert: PeriodCertificate, n: int) -> int:
    """Value at any n >= cert.n0 from the boundary window plus c per period."""
    if n < cert.n0:
        raise ValueError(f"n={n} is below the certificate window start {cert.n0}")
    q, r = divmod(n - cert.n0, cert.d)
    return cert.boundary[cert.n0 + r] + q * cert.c


def closed_form(m: int, n: int) -> int:
    """Published piecewise formulas for row counts 2..13 (n >= m)."""
    if not 2 <= m <= 13:
        raise UnsupportedGridError(f"closed forms cover 2 <= m <= 13, got m={m}")
    if n < m:
        raise UnsupportedGridError(f"closed forms assume n >= m, got ({m}, {n})")
    if m == 2:
        return (n + 2) // 2
    if m == 3:
        return (3 * n + 8) // 4 if n % 4 == 2 else (3 * n + 4) // 4
    if m == 4:
        return n + 1 if n in (5, 6, 9) else n
    if m == 5:
        return (6 * n + 8) // 5
    if m == 6:
        if n % 7 in (0, 3) and n != 7:
            return (10 * n + 17) // 7
        return (10 * n + 10) // 7
    if m == 7:
        return (5 * n + 3) // 3
    if m == 8:
        return 16 if n == 8 else (15 * n + 16) // 8
    if m == 9:
        if n % 10 in (0, 7, 9):
            return (21 * n + 28) // 10
        return (21 * n + 18) // 10
    if m == 10:
        if n in (12, 18, 21, 30):
            return (21 * n + 23) // 9
        return (21 * n + 14) // 9
    if m == 11:
        return (28 * n + 26) // 11
    if m == 12:
        if n % 13 == 10:
            return (36 * n + 41) // 13
        return (36 * n + 28) // 13
    # m == 13
    return 3 * n + 1 if n % 12 in (1, 4, 7, 10) else 3 * n + 2


def big_grid_value(m: int, n: int) -> int:
    """floor((m+2)(n+2)/5) - 4, valid for 14 <= m <= n."""
    if not 14 <= m <= n:
        raise UnsupportedGridError(f"big-grid formula needs 14 <= m <= n, got ({m}, {n})")
    return (m + 2) * (n + 2) // 5 - 4


def value(m: int, n: int) -> int:
    """Minimum independent [1,2]-set size for any grid, by regime dispatch.

    Accepts dimensions in either order: the grid is symmetric under
    transposition so (m, n) is normalized to m <= n first.  A single row is
    a path, which every third vertex dominates: (n + 2) // 3.
    """
    if m < 1 or n < 1:
        raise UnsupportedGridError(f"grid dimensions must be positive, got ({m}, {n})")
    m, n = min(m, n), max(m, n)
    if m == 1:
        return (n + 2) // 3
    if m <= 13:
        return closed_form(m, n)
    return big_grid_value(m, n)
