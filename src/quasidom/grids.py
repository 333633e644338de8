"""Concrete vertex sets on the m x n grid: verification, extraction, labeling.

Coordinates are 1-based (i, j) with i the row (1 = top) and j the column.  A
GridSet is one Python int, row-major with stride n: (i, j) is bit
(i - 1) * n + (j - 1), the layout in which the oracle enumerates subsets.
`rule_faults`, a few shifts of that int, is the package's one test of
independence and [1,2]-domination.  Only `extract_min_set` needs numpy, and
imports it when called: it packs the DP backtrack's member mask into the
int with one np.packbits, transposed when the DP ran over the grid's
columns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain, compress
from typing import NamedTuple

from .errors import ConstructionError, InvalidSetError, MalformedSetError, ResourceCapError

# largest m * n a vertex set may span; a set is an int of m * n bits, and its
# member lists and text forms go through one byte per cell, so larger grids
# are refused up front
MAX_CELLS = 4_000_000

# tables over a set's bit text, b"0" or b"1" per cell
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_TO_ASCII = bytes.maketrans(b"01", b".#")
_FROM_ASCII = bytes.maketrans(b".#", b"01")


def check_cell_cap(m: int, n: int) -> None:
    """Refuse an empty grid, or one above MAX_CELLS, before any per-cell work starts."""
    if m < 1 or n < 1:
        raise MalformedSetError(f"grid dimensions must be positive, got ({m}, {n})")
    if m * n > MAX_CELLS:
        raise ResourceCapError(f"a {m}x{n} grid has more than {MAX_CELLS} cells")


def _bit_text(bits: int, cells: int) -> bytes:
    """b"0" or b"1" for each of the first `cells` bits, bit 0 first."""
    return format(bits, f"0{cells}b").encode()[::-1]


def _flags(bits: int, cells: int) -> bytes:
    """One byte 0 or 1 for each of the first `cells` bits, bit 0 first."""
    return _bit_text(bits, cells).translate(_FLAGS)


class GridSet:
    """A subset of the m x n grid's vertices, one bit per cell: (i, j) is bit (i - 1) * n + (j - 1).

    GridSet(m, n, members) takes (i, j) pairs, GridSet.from_bits the int.
    A set is immutable, and equal sets (same m, n and bits) hash alike.
    """

    m: int
    n: int
    bits: int

    def __init__(self, m: int, n: int, members: Iterable[tuple[int, int]] = ()):
        check_cell_cap(m, n)
        pairs = list(members)
        text = bytearray(b"0") * (m * n)
        for i, j in pairs:
            if not (0 < i <= m and 0 < j <= n):
                # the error names the first pair off the grid in the pair set's iteration order
                for i, j in frozenset(map(tuple, pairs)):
                    if not (0 < i <= m and 0 < j <= n):
                        raise MalformedSetError(f"vertex ({i}, {j}) outside the {m}x{n} grid")
            text[(i - 1) * n + j - 1] = ord("1")
        self.__dict__.update(m=m, n=n, bits=int(text[::-1], 2))

    @classmethod
    def from_bits(cls, m: int, n: int, bits: int) -> GridSet:
        """The set whose row-major cell c is a member when bit c of bits is set."""
        check_cell_cap(m, n)
        if bits < 0 or bits >> (m * n):
            raise MalformedSetError(f"the bits reach past the {m * n} cells of the {m}x{n} grid")
        s = cls.__new__(cls)
        s.__dict__.update(m=m, n=n, bits=bits)
        return s

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.n, self.bits) == (other.m, other.n, other.bits)

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.bits))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(m={self.m}, n={self.n})"

    def _rows(self) -> Iterator[tuple[int, Iterator[int]]]:
        """(i, the member columns of row i in increasing order) for each row i."""
        n, cols, flags = self.n, range(1, self.n + 1), _flags(self.bits, self.m * self.n)
        return ((i + 1, compress(cols, flags[i * n : i * n + n])) for i in range(self.m))

    # the (i, j) tuples, built from the bits on each call
    members = property(lambda self: frozenset(self.sorted_members()))

    def sorted_members(self) -> list[tuple[int, int]]:
        return [(i, j) for i, cols in self._rows() for j in cols]

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, vertex: tuple[int, int]) -> bool:
        i, j = vertex
        m, n = self.m, self.n
        return 0 < i <= m and 0 < j <= n and bool(self.bits >> ((i - 1) * n + j - 1) & 1)

    def transpose(self) -> GridSet:
        m, n, text = self.m, self.n, _bit_text(self.bits, self.m * self.n)
        return GridSet.from_bits(n, m, int(b"".join(text[j::n] for j in range(n))[::-1], 2))

    def to_ascii(self) -> str:
        """First line "m n", then '#' for members and '.' for the rest."""
        m, n = self.m, self.n
        text = _bit_text(self.bits, m * n).translate(_TO_ASCII)
        return f"{m} {n}\n" + b"\n".join(text[i * n : i * n + n] for i in range(m)).decode()

    @classmethod
    def from_ascii(cls, text: str) -> GridSet:
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
        return cls.from_bits(m, n, int("".join(body)[::-1].encode().translate(_FROM_ASCII), 2))

    def to_json_dict(self) -> dict:
        members = [[i, j] for i, cols in self._rows() for j in cols]
        return {"m": self.m, "n": self.n, "members": members}

    @classmethod
    def from_json_dict(cls, data: dict) -> GridSet:
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
        if not _int_pairs(members):  # the loop only names the first bad member
            for v in members:
                if not (isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_int, v))):
                    raise MalformedSetError(f"member {v!r} is not an [i, j] pair of integers")
        return cls(m, n, members)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_pairs(members) -> bool:
    """Whether every member is a list or tuple of exactly two ints, not bools, at C speed.

    Stricter than the per-member test of `from_json_dict` (subclasses fail
    here), so a True answer lets it skip that loop.
    """
    return (
        set(map(type, members)) <= {list, tuple}
        and set(map(len, members)) <= {2}
        and set(map(type, chain.from_iterable(members))) <= {int}
    )


class Violation(NamedTuple):
    vertex: tuple[int, int]
    kind: str  # adjacent-pair | undominated | over-dominated
    detail: str


class VerificationReport(NamedTuple):
    independent: bool
    dominated_ok: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return self.independent and self.dominated_ok


def _tile(unit: int, span: int, cells: int) -> int:
    """`unit` repeated every `span` bits over the first `cells` bits, by doubling.

    Each step copies all the bits so far, so the cost is a few shifts of at
    most `cells` bits, where dividing by 2^span - 1 would be quadratic.
    """
    bits = unit
    while span < cells:
        bits |= bits << span
        span *= 2
    return bits & (1 << cells) - 1


@lru_cache(maxsize=16)
def _frame(m: int, n: int) -> tuple[int, int, int]:
    """Masks of every cell, of every cell off column 1 and of every cell off column n."""
    full = (1 << m * n) - 1
    first = _tile(1, n, m * n)  # bit 0 of each row: column 1
    return full, full ^ first, full ^ (first << (n - 1))


def _neighbours(m: int, n: int, bits: int) -> tuple[int, int, int, int]:
    """For each cell, whether its left, right, upper and lower neighbour is in the set."""
    full, off_first, off_last = _frame(m, n)
    return (bits << 1) & off_first, (bits >> 1) & off_last, (bits << n) & full, bits >> n


def rule_faults(m: int, n: int, bits: int) -> tuple[int, int, int, int, int]:
    """Where the set `bits` of the m x n grid breaks the rules, as masks in its layout.

    Returns (right, down, undominated, over, four): the members whose right,
    respectively lower, neighbour is a member, and the non-members with no
    member neighbour, with three or more and with four.  The set is an
    independent [1,2]-set when all are 0, and an independent dominating set
    when the first three are.  This is the package's only validity test.
    """
    left, right, up, down = _neighbours(m, n, bits)
    outside = _frame(m, n)[0] ^ bits
    some, four = left | right | up | down, left & right & up & down
    three = (left & right & (up | down)) | (up & down & (left | right))
    return bits & right, bits & down, outside & ~some, outside & three, outside & four


def _cells(where: int, m: int, n: int, *flags_of: int) -> Iterator[tuple[int, ...]]:
    """1-based (i, j) of the set bits of `where` in row-major order, each followed
    by the bit of every flags_of mask at that cell."""
    if where:
        flags = [_flags(x, m * n) for x in flags_of]
        for c in compress(range(m * n), _flags(where, m * n)):
            yield (c // n + 1, c % n + 1, *(f[c] for f in flags))


def verify_set(s: GridSet) -> VerificationReport:
    """Per-vertex diagnosis of independence and [1,2]-domination.

    Independence fails on any grid-adjacent member pair; domination fails on
    a non-member with zero neighbors in the set (undominated) or three or
    more (over-dominated).  Adjacent pairs come first, by member in sorted
    order, the right neighbor before the lower one; then the domination
    failures in row-major order.  Only the faulty cells are walked.
    """
    m, n = s.m, s.n
    right, down, undominated, over, four = rule_faults(m, n, s.bits)
    violations: list[Violation] = []
    # row-major order of the cells is the sorted order of the members
    for i, j, r, d in _cells(right | down, m, n, right, down):
        for v in compress(((i, j + 1), (i + 1, j)), (r, d)):
            detail = f"members ({i},{j}) and {v} are adjacent"
            violations.append(Violation((i, j), "adjacent-pair", detail))
    independent = not violations
    for i, j, none, all4 in _cells(undominated | over, m, n, undominated, four):
        kind, count = "over-dominated", f"{3 + all4} neighbors"
        if none:
            kind, count = "undominated", "no neighbor"
        violations.append(Violation((i, j), kind, f"({i},{j}) has {count} in the set"))
    return VerificationReport(independent, not (undominated | over), tuple(violations))


def extract_min_set(m: int, n: int) -> GridSet:
    """Backtrack the width's DP window into a concrete minimum independent [1,2]-set.

    The columns come from the width's kept window, so this only backtracks
    (see solver.DPWindow.backtrack): the smallest final word id achieving the
    minimum, then the smallest predecessor id achieving each step, as the
    DP step recorded it, so the output is deterministic.  The backtrack
    returns the grid's member mask; from column t - d on it writes it from
    the zero masks the window filled when it found its repeat, so a warm
    call is a few slice assignments plus one np.packbits, whatever n is.
    As in `solve_width`, a grid with 2 <= n < m is solved over its n rows,
    and the transpose of that mask is packed.  The result is checked
    against the DP value only, not by verify_set: the callers that hand it
    to a user (the CLI's extract, pattern.build_big_grid_set) verify it,
    and a caller that verifies on its own would pay twice (at 13 x 1500 a
    warm verify_set takes about 21 us, the warm extract about 28 us).
    """
    import numpy as np

    from .solver import run_dp  # at call time: verify and m >= 16 patterns never load the DP

    rows, cols = (n, m) if 2 <= n < m else (m, n)
    _, window = run_dp(rows, cols, keep_trace=True)
    # after run_dp, so its errors keep their type; before the backtrack writes the mask
    check_cell_cap(rows, cols)
    zeros, best = window.backtrack(cols)
    packed = np.packbits(zeros if rows == m else zeros.T, axis=None, bitorder="little")
    result = GridSet.from_bits(m, n, int.from_bytes(packed.tobytes(), "little"))
    if len(result) != best:
        raise ConstructionError(
            f"extracted set of {len(result)} disagrees with the DP value {best} for ({rows}, {cols}); "
            "this is a bug"
        )
    return result


def labeling_of(s: GridSet) -> list[str]:
    """Reconstruct the column words induced by a valid set.

    Label 0 for members; otherwise the count of members among the left, up
    and down neighbors (1 or 2, as verification allows no more), or 3 when
    the only dominator is to the right.  Rejects sets failing verification.
    """
    report = verify_set(s)
    if not report.ok:
        raise InvalidSetError(
            f"not an independent [1,2]-set: {'; '.join(v.detail for v in report.violations[:3])}"
        )
    left, _, up, down = _neighbours(s.m, s.n, s.bits)
    flags = (_flags(x, s.m * s.n) for x in (s.bits, left, up, down))
    labels = bytes(ord("0") + (0 if mem else a + b + c or 3) for mem, a, b, c in zip(*flags))
    return [labels[j :: s.n].decode() for j in range(s.n)]
