"""Published closed forms for the grid values, and the period search bounds.

Pure integer arithmetic with no numpy, so a caller that only needs a value
(the `value` and `formula` commands) never loads the DP machinery.
solver re-exports every name here.
"""

from __future__ import annotations

from .errors import UnsupportedGridError

# refusal bounds of the period search (solver.detect_period, `quasidom period`)
DEFAULT_MAX_D = 15
DEFAULT_MAX_N = 100


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
    transposition so (m, n) is normalized to m <= n first.  The basis of
    each value: for m = 1 the path formula (n + 2) // 3, as every third
    vertex dominates; for 2 <= m <= 19 the DP proof tests in
    tests/test_solver.py, which prove the value for every n
    (`test_closed_form_is_proved_for_every_n` for m <= 13,
    `test_big_grid_formula_is_proved_for_every_n` for 14..19); for m >= 20
    the lower bound i_[1,2] >= i >= gamma, the domination number, which is
    floor((m+2)(n+2)/5) - 4 for 16 <= m <= n (Gonçalves, Pinlou, Rao and
    Thomassé, SIAM J. Discrete Math. 25 (2011), arXiv:1102.5206), met by
    the verified pattern set.
    """
    if m < 1 or n < 1:
        raise UnsupportedGridError(f"grid dimensions must be positive, got ({m}, {n})")
    m, n = min(m, n), max(m, n)
    if m == 1:
        return (n + 2) // 3
    if m <= 13:
        return closed_form(m, n)
    return big_grid_value(m, n)
