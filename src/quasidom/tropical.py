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
segment per row cost about 28 ns a row; the rows of a 1-high block have
one predecessor each, so its step is one take.  A block costs a few numpy calls
whatever its size, so _merge_buckets pads a small bucket into its
neighbour's block when that costs fewer slots than the calls.

The step keeps no argmin: the column it steps from determines it, and the
DP window stores every column anyway.  follow(p, columns) walks row p back
through stored columns, each time taking, down p's block column, the
first of its pred_ptr[p+1] - pred_ptr[p] predecessors with the least
offset.  Slots go up with the predecessor id, so that is the smallest id
achieving the row's minimum, the chain backtracking follows; a pad is
never read.  A follow step reads a few ints through memoryviews, about
1 us in pure Python, and only backtracking pays it (the window fills of
widths 2 to 13 take 7,227).  A step that also recorded its argmin, as one
key offset << 8 | slot gathered per slot and packed per row, took about
a third longer (width 13: about 74 against 55 us a step) and kept a
buffer per column beside the offsets, 10.1 MB at width 19 (in process, 2
shared x86-64 CPUs).

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
build peaks near 98 MB of RSS, where one int64 pred_idx kept beside the
blocks peaked at 145 MB (Python 3.11, numpy 2.4), and growing the window
and backtracking at n = 2,000 take it to 105 MB.  pred_ptr is int32 and
row_zeros int8, a zero count being at most the width.  follow reads a
chain's entries down the rows' block columns, through one record of each
row's block, place in block order and pred_ptr.  The blocks stay int64
(intp), although int32 would halve them: numpy casts any other index
dtype on every fancy index, so at width 13 one gather through the 32,078
slots takes about twice as long with an int32 index (110 against
35-55 us).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .errors import ConstructionError
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

# What one more index block costs mat_vec, in slots: its gather and its
# minimum are numpy calls of about 1-1.5 us each, where a slot costs about
# 2 ns.  Growing widths 2..13 to their repeats took the same time within
# noise (about 21 ms) at 256, 1,024, 4,096 and 16,384, and about 30% longer
# at 65,536; width 19 builds the same 9 blocks at 1,024 to 16,384 (Python
# 3.11, numpy 2.4, 2 shared x86-64 CPUs, in process).
_BLOCK_COST = 1024


class TropicalMatrix:
    """Sparse k x k transition matrix in predecessor form.

    Row p is word p of table; row_zeros[p] is its zero-count, the value of
    every finite entry A[p][q], and the q with one are its
    pred_ptr[p+1] - pred_ptr[p] predecessors.  The lists come in as CSR
    (pred_ptr, pred_idx): TropicalMatrix(table, row_zeros, pred_ptr,
    pred_idx) keeps the first three and builds every other attribute in
    __init__, so pred_idx is kept only as blocks, one 2^j x rows intp array
    per run of buckets from _merge_buckets (see the module docstring), each
    row's ascending list down one column, padded with its first entry.
    placed rows have a predecessor, each one block column; block_pos[p] is
    row p's place in the order of those columns, block by block, and
    placed for a row without one.  The blocks go up in height.  follow
    reads a row's predecessors down its block column, the first
    pred_ptr[p+1] - pred_ptr[p] slots.  A matrix is equal only to itself.
    """

    def __init__(
        self, table: WordTable, row_zeros: np.ndarray, pred_ptr: np.ndarray, pred_idx: np.ndarray
    ) -> None:
        self.table, self.row_zeros, self.pred_ptr = table, row_zeros, pred_ptr
        ptr, k = pred_ptr, self.k
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
        self.blocks = tuple(blocks)
        self.placed = len(rows)
        self.block_pos = block_pos
        # what follow() reads: for each block, its slots as a flat memoryview, its
        # first place in block order and its width; then each row's block,
        # block_pos and pred_ptr as memoryviews
        views = [(memoryview(block.reshape(-1)), start, block.shape[1]) for block, start in zip(blocks, starts)]
        self._views = views, memoryview(block_of), memoryview(block_pos), memoryview(pred_ptr)

    def __repr__(self) -> str:
        return (
            f"TropicalMatrix(table={self.table!r}, row_zeros={self.row_zeros!r}, "
            f"pred_ptr={self.pred_ptr!r})"
        )

    @property
    def k(self) -> int:
        return len(self.row_zeros)

    @property
    def finite_entries(self) -> int:
        return int(self.pred_ptr[-1])

    def follow(self, p: int, columns: Iterable[memoryview]) -> list[int]:
        """The chain from row p back through the given columns' uint8 offsets, as ids.

        p, then the predecessor of p that the step out of the first column
        chose, then the one the step out of the second chose for that, and
        so on.  Each step's choice is the first of p's predecessors, so the
        smallest id, with the least offset in its column: mat_vec's argmin.
        Every row on the chain must have a predecessor.  Memoryviews read
        ints without numpy scalars.
        """
        views, block_of, pos, ptr = self._views
        ids = [p]
        for off in columns:
            flat, start, width = views[block_of[p]]
            at = pos[p] - start
            end = at + width * (ptr[p + 1] - ptr[p])
            # p's predecessors, ascending, down its block column; a later one
            # replaces the choice only with a strictly smaller offset
            p = flat[at]
            best = off[p]
            for q in flat[at + width : end : width]:
                if off[q] < best:
                    p, best = q, off[q]
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


def mat_vec(matrix: TropicalMatrix, low: int, off: np.ndarray) -> tuple[int, np.ndarray]:
    """One min-plus step: out[p] = min over q of A[p][q] + x[q], for x = low + off.

    A column is its minimum `low` plus uint8 offsets above it, OFF_INF where
    infinite; out comes back the same way, its offsets in table order and
    its minimum _INF when it is infinite everywhere.  Exploits the
    row-constant structure: out[p] = zeros(p) + low + the least offset over
    p's predecessors.  Each block of matrix.blocks is one gather of the
    offsets and one minimum down its slots into a buffer in block order;
    block_pos puts the least offsets in table order, and the zeros are
    added to them in int16.  The argmin is not kept: matrix.follow finds it
    again from off.  Raises ValueError unless off is a uint8 array of
    length k, and ConstructionError when a finite offset of out would not
    fit a uint8.
    """
    k = matrix.k
    if k != len(off):
        raise ValueError("matrix and vector sizes disagree")
    if off.dtype != np.uint8:
        raise ValueError(f"offsets must be uint8, got {off.dtype}")
    least = np.empty(matrix.placed + 1, dtype=np.uint8)
    least[-1] = OFF_INF  # the rows without a predecessor
    lo = 0
    for block in matrix.blocks:
        hi = lo + block.shape[1]
        if block.shape[0] == 1:  # a row's one predecessor: nothing to reduce
            off.take(block[0], out=least[lo:hi], mode="clip")  # clip: unbuffered
        else:
            np.minimum.reduce(off.take(block), axis=0, out=least[lo:hi])
        lo = hi
    least = least.take(matrix.block_pos)  # in table order
    inf = least == OFF_INF
    step = least.astype(np.int16)
    step += matrix.row_zeros  # at least OFF_INF where inf
    rise = int(step.min(initial=OFF_INF))  # initial: a table may have no rows
    if rise >= OFF_INF:  # the least entry may be an infinite one
        finite = step[~inf]
        if not finite.size:
            return int(_INF), np.full(k, OFF_INF, dtype=np.uint8)
        rise = int(finite.min())
    step -= rise
    step[inf] = -1  # wraps to OFF_INF in the uint8 cast, below every finite offset here
    top = int(step.max())
    if top >= OFF_INF:
        raise ConstructionError(
            f"a DP column spreads {top} above its minimum, "
            f"more than the {OFF_INF - 1} a uint8 offset holds"
        )
    return low + rise, step.astype(np.uint8)
