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

Rows, cost vectors and predecessor ids index the rows of a matrix's table.
The solver builds its matrix on the live words alone (those with a
predecessor, and the initial ones; words.enumerate_suitable with
live=True).  The other words are infinite in every column: 13,651 of the
22,036 at width 13.

Blocking bounds the join's transient candidate pairs, which set the build's
peak memory: at width 13 the one-shot join peaked near 11 MB under
tracemalloc to keep 0.5 MB of pred_idx.  pred_idx stays int64 (intp),
although int32 would halve it: numpy casts any other index dtype on every
fancy index, so at width 13 the gather x[pred_idx] in mat_vec takes about
twice as long with an int32 index (235 against 115 us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import WordTable, follow_blocks, follow_pairs

INFINITY = math.inf

# Internal int64 sentinel; finite costs stay far below it so one addition
# can never wrap.
_INF = np.int64(1) << 62

# Rows p per block of the matrix join.  At width 13 smaller blocks lower the
# process peak by under 1 MB and build slower from 1,024 rows down; larger
# ones raise it (34.4 MB at 8,192 rows, 41.0 MB in one block, 32.3 MB here).
_BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class TropicalMatrix:
    """Sparse k x k transition matrix in CSR-like predecessor form.

    row_zeros[p] is the zero-count of word p; pred_idx[pred_ptr[p]:pred_ptr[p+1]]
    lists the ids q (sorted) with a finite entry A[p][q] = row_zeros[p].
    nonempty marks the rows with a predecessor and starts holds their
    pred_ptr, so that mat_vec does not recompute them on every step.  Row p
    is word p of table.
    """

    table: WordTable
    row_zeros: np.ndarray
    pred_ptr: np.ndarray
    pred_idx: np.ndarray
    nonempty: np.ndarray
    starts: np.ndarray

    @property
    def k(self) -> int:
        return len(self.row_zeros)

    @property
    def finite_entries(self) -> int:
        return int(self.pred_ptr[-1])


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
    ptr = np.zeros(table.k + 1, dtype=np.int64)
    blocks = []
    for lo, q, p in follow_blocks(table.digits, table.digits, _BLOCK_ROWS):
        blocks.append(q[np.argsort(p, kind="stable")])
        counts = np.bincount(p)
        ptr[lo + 1 : lo + 1 + counts.size] = counts
    np.cumsum(ptr, out=ptr)
    row_zeros = np.count_nonzero(table.digits == 0, axis=1).astype(np.int64)
    nonempty = ptr[1:] > ptr[:-1]
    pred_idx = np.concatenate([np.empty(0, np.int64), *blocks], dtype=np.int64)
    return TropicalMatrix(table, row_zeros, ptr, pred_idx, nonempty, ptr[:-1][nonempty])


def mat_vec(matrix: TropicalMatrix, x: np.ndarray) -> np.ndarray:
    """Min-plus product of int64 cost arrays: out[p] = min over q of A[p][q] + x[q].

    Exploits the row-constant structure: out[p] = zeros(p) + min over
    predecessors q of x[q], saturating at _INF.
    """
    if matrix.k != len(x):
        raise ValueError("matrix and vector sizes disagree")
    out = np.full(matrix.k, _INF, dtype=np.int64)
    if matrix.pred_idx.size:
        mins = np.minimum.reduceat(x[matrix.pred_idx], matrix.starts)
        out[matrix.nonempty] = np.where(
            mins >= _INF, _INF, mins + matrix.row_zeros[matrix.nonempty]
        )
    return out
