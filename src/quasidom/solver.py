"""Width-m dynamic program, period certificates and published closed forms.

The minimum size of an independent [1,2]-set of the m x n grid is obtained by
iterating the min-plus transition matrix on the initial vector and minimizing
over final words.  Once consecutive cost vectors repeat up to a constant
shift, a period certificate extends the computed window to every larger n.
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


def run_dp(
    m: int, n: int, keep_trace: bool = False, max_words: int = DEFAULT_WORD_CAP
) -> tuple[Machinery, list[TropicalVector]]:
    """Iterate X^1..X^n; returns all vectors when keep_trace, else just X^n."""
    if m < 2:
        raise UnsupportedGridError("the word machinery needs at least 2 rows; use the oracle for paths")
    if n < 1:
        raise UnsupportedGridError(f"column count must be positive, got {n}")
    mach = machinery(m, max_words=max_words)
    x = mach.initial
    trace = [x]
    for _ in range(n - 1):
        x = mat_vec(mach.matrix, x)
        if keep_trace:
            trace.append(x)
    return mach, trace if keep_trace else [x]


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


def _uniform_shift(a: np.ndarray, b: np.ndarray) -> int | None:
    """The constant c >= 1 with b = a + c on finite entries, if it exists."""
    fa = a < _INF
    fb = b < _INF
    if not np.array_equal(fa, fb) or not fa.any():
        return None
    diffs = b[fa] - a[fa]
    c = int(diffs[0])
    if c >= 1 and bool((diffs == c).all()):
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
            c = _uniform_shift(trace[n0 - 1].data, trace[n0 + d - 1].data)
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
