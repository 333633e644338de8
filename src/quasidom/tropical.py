"""Min-plus (tropical) cost vectors and the sparse column-transition matrix.

Costs live in the semiring (N + {inf}, min, +).  A cost vector is a plain
int64 array indexed by the matrix's words, holding _INF where the cost is
infinite; the transition matrix entry A[p][q] is the zero-count of word p
when p can follow q, infinite otherwise.  Since every finite entry
of a row equals that row's zero-count, the matrix is stored as predecessor
lists plus one integer per row.  Every array here is computed from the word
table's digit array: the predecessor lists come from the words.follow_pairs
layered join, run over blocks of _BLOCK_ROWS rows p against one q trie
(words.follow_blocks); each block's pairs are stably sorted by p (the join
yields the q of one p in ascending order) and counted per row.  X^1 is the
same join from a virtual first column of 1s.

mat_vec steps a column kept as its minimum plus uint8 offsets above it
(OFF_INF where infinite), the form the DP window stores, and returns the
next column in the same form; no int64 column is built.  The matrix keeps
its predecessor lists once, as padded index blocks: a row with
2^(j-1) < c <= 2^j predecessors falls in bucket j, runs of consecutive
buckets share one block 2^j slots high (j the run's top bucket), each row
down one column and its unused slots repeating its first entry, so a pad
never changes the row's minimum (width 13: 7 blocks, 32,078 slots for
27,920 entries; widths 2 to 6 need one block).  One gather and one
minimum down the slots then step a whole block, where a reduction over one
segment per row cost about 28 ns a row.  A block costs a few numpy calls
whatever its size, so _merge_buckets pads a small bucket into its
neighbour's block when that costs fewer slots than the calls.

The step also records its argmin.  It gathers each offset as one key,
offset << 8 | slot (uint16), so the minimum down a block column is the
least offset in its high byte and, in its low byte, the first slot that
reaches it.  Slots go up with the predecessor id and a pad repeats slot
0's id, so that slot names the smallest predecessor id achieving the
row's minimum: the chain backtracking follows.  A matrix whose tallest
block has more than 256 slots keys on uint32 with a uint16 slot instead
(no grid width needs it: width 19's longest list has 244 entries).
follow(p, slots) reads the ids back down the rows' block columns.  The
keys cost a step one more pass over the gathered slots: growing the
width-13 window to its repeat takes about 7.5 ms against 5.6 ms for the
plain uint8 minimum (in process, 2 shared x86-64 CPUs), and saves every
search for a predecessor when backtracking.

Rows, cost vectors and predecessor ids index the rows of a matrix's table.
The solver builds its matrix on the live words alone (those with a
predecessor, and the initial ones; words.enumerate_suitable with
live=True).  The other words are infinite in every column: 13,651 of the
22,036 at width 13.

Blocking bounds the join's transient candidate pairs, which set the build's
peak memory: at width 13 the one-shot join peaked near 11 MB under
tracemalloc to keep 0.5 MB of predecessor lists.  The join's lists and
the CSR pred_idx they form are int32 and live only until the blocks are
built, each block filled over its own index array, so at width 19 the
build peaks near 106 MB of RSS, where one int64 pred_idx kept beside the
blocks peaked at 145 MB (Python 3.11, numpy 2.4).  pred_ptr is int32 and
row_zeros int8 (a zero count is at most the width): with both int64, the
width-19 build and window, slots included, peaked at 134 MB instead of
128-129 MB.  follow(p, slots) reads the chosen entries of a backtracked
chain down the rows' block columns, through one record of each row's
block and place in block order.  The blocks stay int64 (intp),
although int32 would halve them: numpy casts any other index dtype on
every fancy index, so at width 13 one gather through the 32,078 slots
takes about twice as long with an int32 index (110 against 35-55 us).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field

import numpy as np

from .words import WordTable, follow_blocks, follow_pairs

INFINITY = math.inf

# Internal int64 sentinel; finite costs stay far below it so one addition
# can never wrap.
_INF = np.int64(1) << 62

# offset of an infinite entry in a column kept as its minimum plus uint8
# offsets; finite offsets are 0..254
OFF_INF = 255

# Rows p per block of the matrix join.  At width 13 smaller blocks lower the
# process peak by under 1 MB and build slower from 1,024 rows down; larger
# ones raise it (34.4 MB at 8,192 rows, 41.0 MB in one block, 32.3 MB here).
_BLOCK_ROWS = 4096

# What one more index block costs mat_vec, in slots: its gather, its slot
# numbers and its minimum are numpy calls of about 1-1.5 us each, where a
# slot costs about 2 ns (width 13; Python 3.11, numpy 2.4, 2 shared x86-64
# CPUs; set for the step before it recorded slots, and not re-tuned since).
_BLOCK_COST = 1024


@dataclass(frozen=True, eq=False)
class TropicalMatrix:
    """Sparse k x k transition matrix in predecessor form.

    Row p is word p of table; row_zeros[p] is its zero-count, the value of
    every finite entry A[p][q], and the q with one are its
    pred_ptr[p+1] - pred_ptr[p] predecessors.  The lists come in as CSR
    (pred_ptr, pred_idx) and are kept only as blocks, one 2^j x rows intp
    array per run of buckets from _merge_buckets (see the module
    docstring), each row's ascending list down one column, padded with its
    first entry.  placed rows have a predecessor, each one block column;
    block_pos[p] is row p's place in the order of those columns, block by
    block, and placed for a row without one.  keys is
    mat_vec's (key dtype, slot bits, slot dtype, and each block's slot
    numbers as a column of the key dtype): uint16 keys with 8 slot bits
    and uint8 slots, unless the tallest block has more than 256 slots.
    """

    table: WordTable
    row_zeros: np.ndarray
    pred_ptr: np.ndarray
    pred_idx: InitVar[np.ndarray]
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)
    placed: int = field(init=False, repr=False)
    block_pos: np.ndarray = field(init=False, repr=False)
    keys: tuple = field(init=False, repr=False)
    # where each row's list sits, read by follow(): each block's slots as a
    # flat memoryview, its width and its first place in block order, then
    # each row's block and block_pos as memoryviews
    _views: tuple = field(init=False, repr=False)

    def __post_init__(self, pred_idx: np.ndarray) -> None:
        ptr, k = self.pred_ptr, self.k
        counts = np.diff(ptr)
        rows = np.flatnonzero(counts)
        # row p goes to bucket j, the least j with counts[p] <= 2^j
        j = np.searchsorted(1 << np.arange(63), counts[rows]).astype(np.uint8)
        blocks, starts = [], []
        block_pos = np.full(k, len(rows), dtype=np.intp)
        block_of = np.zeros(k, np.uint8)
        start = 0
        for b, (lo, hi) in enumerate(_merge_buckets(np.bincount(j).tolist())):
            ids = rows[(lo <= j) & (j <= hi)]  # in table order
            slot = np.arange(1 << hi)[:, None]
            # each slot's place in pred_idx; a pad reads the row's first entry,
            # which leaves its minimum as it is
            block = slot * (slot < counts[ids])
            block += ptr[ids]
            block[:] = pred_idx.take(block)
            blocks.append(block)
            block_pos[ids] = np.arange(start, start + len(ids))
            block_of[ids] = b
            starts.append(start)
            start += len(ids)
        set_ = object.__setattr__
        set_(self, "blocks", tuple(blocks))
        set_(self, "placed", len(rows))
        set_(self, "block_pos", block_pos)
        wide = max((b.shape[0] for b in blocks), default=1) > 256
        key, bits, slot = (np.uint32, 16, np.uint16) if wide else (np.uint16, 8, np.uint8)
        columns = tuple(np.arange(b.shape[0], dtype=key)[:, None] for b in blocks)
        set_(self, "keys", (key, bits, slot, columns))
        flats = [memoryview(b.reshape(-1)) for b in blocks]
        widths = [b.shape[1] for b in blocks]
        set_(self, "_views", (flats, widths, starts, memoryview(block_of), memoryview(block_pos)))

    @property
    def k(self) -> int:
        return len(self.row_zeros)

    @property
    def finite_entries(self) -> int:
        return int(self.pred_ptr[-1])

    def follow(self, p: int, slots: Iterable[memoryview]) -> list[int]:
        """The chain from row p down the given steps' recorded slots, as ids.

        p, then the predecessor that the first step's slots (a third result
        of mat_vec, as a memoryview) name for p, then the one the second
        step's name for that, and so on.  Every row on the chain must have a
        predecessor.  Memoryviews read ints without numpy scalars.
        """
        flats, widths, starts, block_of, pos = self._views
        ids = [p]
        for slot in slots:
            b = block_of[p]
            p = flats[b][pos[p] - starts[b] + slot[p] * widths[b]]
            ids.append(p)
        return ids


def _merge_buckets(sizes: list[int]) -> list[tuple[int, int]]:
    """Runs lo..hi of the non-empty buckets, each one block 2^hi high, at least cost.

    sizes[j] rows have 2^(j-1) < count <= 2^j.  A block costs its slots
    plus _BLOCK_COST, so small buckets join a taller neighbour when padding
    them costs less than two more numpy calls; the exact minimum over all
    runs is a short dynamic program over the at most 63 buckets.
    """
    full = [j for j, size in enumerate(sizes) if size]
    best = [(0, -1)]  # (cost, start of the last run) over the first i non-empty buckets
    for i in range(1, len(full) + 1):
        best.append(min(
            (best[a][0] + _BLOCK_COST + (sum(sizes[j] for j in full[a:i]) << full[i - 1]), a)
            for a in range(i)
        ))
    runs, i = [], len(full)
    while i:
        a = best[i][1]
        runs.append((full[a], full[i - 1]))
        i = a
    return runs[::-1]


def build_initial_vector(table: WordTable) -> np.ndarray:
    """X^1: zero-count on initial words, _INF elsewhere, as an int64 array.

    As in is_initial, the first column follows a virtual column of 1s, so
    the initial words are the p of the follow join from that one column.
    """
    _, p = follow_pairs(np.ones((1, table.m), np.uint8), table.digits)
    x = np.full(table.k, _INF, dtype=np.int64)
    x[p] = np.count_nonzero(table.digits[p] == 0, axis=1)
    return x


def final_mask(table: WordTable) -> np.ndarray:
    """is_final of every word: no label 3."""
    return ~(table.digits == 3).any(axis=1)


def build_transition_matrix(table: WordTable) -> TropicalMatrix:
    """Assemble predecessor lists from the layered join of the table with itself.

    The join runs one block of _BLOCK_ROWS rows p at a time; each block's
    predecessor lists are appended in p order, so the result does not
    depend on the block size.
    """
    ptr = np.zeros(table.k + 1, dtype=np.int32)
    lists = []
    for lo, q, p in follow_blocks(table.digits, table.digits, _BLOCK_ROWS):
        # int32 until the blocks are built from them, then dropped: the blocks are intp
        lists.append(q[np.argsort(p, kind="stable")].astype(np.int32))
        counts = np.bincount(p)
        ptr[lo + 1 : lo + 1 + counts.size] = counts
    np.cumsum(ptr, out=ptr)
    row_zeros = np.count_nonzero(table.digits == 0, axis=1).astype(np.int8)
    pred_idx = np.concatenate([np.empty(0, np.int32), *lists])
    lists.clear()  # free the pieces before the matrix builds its index blocks
    return TropicalMatrix(table, row_zeros, ptr, pred_idx)


def mat_vec(
    matrix: TropicalMatrix, low: int, off: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray]:
    """One min-plus step: out[p] = min over q of A[p][q] + x[q], for x = low + off, and its argmin.

    A column is its minimum `low` plus uint8 offsets above it, OFF_INF where
    infinite; out comes back the same way, its offsets in table order and
    its minimum _INF when it is infinite everywhere.  Exploits the
    row-constant structure: out[p] = zeros(p) + low + the least offset over
    p's predecessors.  Each block of matrix.blocks is one gather of the keys
    offset << 8 | slot (see the module docstring) and one minimum down its
    slots into a buffer in block order; block_pos puts the least keys in
    table order, and the zeros are added to their offsets in int16.  The
    third result holds, in table order, the slot of each row's chosen
    predecessor: the first slot, so the smallest id, that reaches the row's
    minimum (matrix.follow reads its id; 0 for a row with none).
    Raises ValueError unless off is a uint8 array of length k, and
    RuntimeError when a finite offset of out would not fit a uint8.
    """
    k = matrix.k
    if k != len(off):
        raise ValueError("matrix and vector sizes disagree")
    if off.dtype != np.uint8:
        raise ValueError(f"offsets must be uint8, got {off.dtype}")
    key, bits, slot, columns = matrix.keys
    keys = off.astype(key) << bits
    least = np.empty(matrix.placed + 1, dtype=key)
    least[-1] = OFF_INF << bits  # the rows without a predecessor
    lo = 0
    for block, column in zip(matrix.blocks, columns):
        hi = lo + block.shape[1]
        gathered = keys[block]
        gathered |= column
        np.minimum.reduce(gathered, axis=0, out=least[lo:hi])
        lo = hi
    least = least.take(matrix.block_pos)  # in table order
    slots = least.astype(slot)  # the low bits
    least >>= bits
    inf = least == OFF_INF
    step = least.astype(np.int16)
    step += matrix.row_zeros  # at least OFF_INF where inf
    rise = int(step.min(initial=OFF_INF))  # initial: a table may have no rows
    if rise >= OFF_INF:  # the least entry may be an infinite one
        finite = step[~inf]
        if not finite.size:
            return int(_INF), np.full(k, OFF_INF, dtype=np.uint8), slots
        rise = int(finite.min())
    step -= rise
    step[inf] = -1  # wraps to OFF_INF in the uint8 cast, below every finite offset here
    top = int(step.max())
    if top >= OFF_INF:
        raise RuntimeError(
            f"a DP column spreads {top} above its minimum, "
            f"more than the {OFF_INF - 1} a uint8 offset holds"
        )
    return low + rise, step.astype(np.uint8), slots
