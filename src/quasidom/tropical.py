"""Min-plus (tropical) cost vectors and the sparse column-transition matrix.

Costs live in the semiring (N + {inf}, min, +).  A cost vector is a plain
int64 array indexed by suitable-word id, holding _INF where the cost is
infinite; the transition matrix entry A[p][q] is the zero-count of word p
when p can follow q, infinite otherwise.  Since every finite entry
of a row equals that row's zero-count, the matrix is stored as predecessor
lists plus one integer per row.  Every array here is computed from the word
table's digit array: the predecessor lists come from the words.follow_pairs
layered join, sorted by (p, q) and counted per row, and X^1 is the same
join from a virtual first column of 1s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .words import WordTable, follow_pairs

INFINITY = math.inf

# Internal int64 sentinel; finite costs stay far below it so one addition
# can never wrap.
_INF = np.int64(1) << 62


@dataclass(frozen=True, eq=False)
class TropicalMatrix:
    """Sparse k x k transition matrix in CSR-like predecessor form.

    row_zeros[p] is the zero-count of word p; pred_idx[pred_ptr[p]:pred_ptr[p+1]]
    lists the ids q (sorted) with a finite entry A[p][q] = row_zeros[p].
    nonempty marks the rows with a predecessor and starts holds their
    pred_ptr, so that mat_vec does not recompute them on every step.
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

    def predecessors(self, p: int) -> np.ndarray:
        return self.pred_idx[self.pred_ptr[p] : self.pred_ptr[p + 1]]

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (tests and debugging; small k only)."""
        out = np.full((self.k, self.k), _INF, dtype=np.int64)
        for p in range(self.k):
            out[p, self.predecessors(p)] = self.row_zeros[p]
        return out


def _zero_counts(table: WordTable) -> np.ndarray:
    return np.count_nonzero(table.digits == 0, axis=1).astype(np.int64)


def build_initial_vector(table: WordTable) -> np.ndarray:
    """X^1: zero-count on initial words, _INF elsewhere, as an int64 array.

    As in is_initial, the first column follows a virtual column of 1s, so
    the initial words are the p of the follow join from that one column.
    """
    _, p = follow_pairs(np.ones((1, table.m), np.uint8), table.digits)
    x = np.full(table.k, _INF, dtype=np.int64)
    x[p] = _zero_counts(table)[p]
    return x


def final_mask(table: WordTable) -> np.ndarray:
    """is_final of every word: no label 3."""
    return ~(table.digits == 3).any(axis=1)


def build_transition_matrix(table: WordTable) -> TropicalMatrix:
    """Assemble predecessor lists from the layered join of the table with itself."""
    q, p = follow_pairs(table.digits, table.digits)
    order = np.lexsort((q, p))
    ptr = np.zeros(table.k + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=table.k), out=ptr[1:])
    nonempty = ptr[1:] > ptr[:-1]
    return TropicalMatrix(
        table, _zero_counts(table), ptr, q[order].astype(np.int64), nonempty, ptr[:-1][nonempty]
    )


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
