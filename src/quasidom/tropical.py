"""Min-plus (tropical) costs, vectors and the sparse column-transition matrix.

Costs live in the semiring (N + {inf}, min, +).  Vectors are indexed by
suitable-word id; the transition matrix entry A[p][q] is the zero-count of
word p when p can follow q, infinite otherwise.  Since every finite entry
of a row equals that row's zero-count, the matrix is stored as predecessor
lists plus one integer per row.  Every array here is computed from the word
table's digit array: the predecessor lists come from the words.follow_pairs
layered join, sorted by (p, q) and counted per row.
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


def as_cost(value: np.int64 | int) -> int | float:
    """Translate an internal entry to a public cost (int or math.inf)."""
    return INFINITY if value >= _INF else int(value)


@dataclass(frozen=True, eq=False)
class TropicalVector:
    """Cost per suitable word, backed by an int64 array with an inf sentinel."""

    table: WordTable
    data: np.ndarray

    def __len__(self) -> int:
        return len(self.data)

    def entry(self, word: str) -> int | float:
        return as_cost(self.data[self.table.id_of(word)])

    def entry_by_id(self, word_id: int) -> int | float:
        return as_cost(self.data[word_id])

    def min_where(self, mask: np.ndarray) -> int | float:
        sel = self.data[mask]
        if sel.size == 0:
            return INFINITY
        return as_cost(sel.min())

    def plus(self, constant: int) -> "TropicalVector":
        """Add a constant to every finite entry (infinity is absorbing)."""
        shifted = np.where(self.data >= _INF, _INF, self.data + np.int64(constant))
        return TropicalVector(self.table, shifted)

    def same_entries(self, other: "TropicalVector") -> bool:
        return bool(np.array_equal(self.data, other.data))


@dataclass(frozen=True, eq=False)
class TropicalMatrix:
    """Sparse k x k transition matrix in CSR-like predecessor form.

    row_zeros[p] is the zero-count of word p; pred_idx[pred_ptr[p]:pred_ptr[p+1]]
    lists the ids q (sorted) with a finite entry A[p][q] = row_zeros[p].
    """

    table: WordTable
    row_zeros: np.ndarray
    pred_ptr: np.ndarray
    pred_idx: np.ndarray

    @property
    def k(self) -> int:
        return len(self.row_zeros)

    @property
    def finite_entries(self) -> int:
        return int(self.pred_ptr[-1])

    def predecessors(self, p: int) -> np.ndarray:
        return self.pred_idx[self.pred_ptr[p] : self.pred_ptr[p + 1]]

    def entry(self, p: str, q: str) -> int | float:
        """Dense accessor A[p][q]; words given in text form."""
        pid = self.table.id_of(p)
        qid = self.table.id_of(q)
        row = self.predecessors(pid)
        pos = np.searchsorted(row, qid)
        if pos < len(row) and row[pos] == qid:
            return int(self.row_zeros[pid])
        return INFINITY

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (tests and debugging; small k only)."""
        out = np.full((self.k, self.k), _INF, dtype=np.int64)
        for p in range(self.k):
            out[p, self.predecessors(p)] = self.row_zeros[p]
        return out


def _zero_counts(table: WordTable) -> np.ndarray:
    return np.count_nonzero(table.digits == 0, axis=1).astype(np.int64)


def build_initial_vector(table: WordTable) -> TropicalVector:
    """Zero-count on initial words, infinity elsewhere.

    As in is_initial: every 2 sits between two 0s, every 1 next to exactly one.
    """
    digits = table.digits
    zero = np.pad(digits == 0, ((0, 0), (1, 1)))
    up0, dn0 = zero[:, :-2], zero[:, 2:]
    bad = ((digits == 2) & ~(up0 & dn0)) | ((digits == 1) & (up0 == dn0))
    return TropicalVector(table, np.where(bad.any(axis=1), _INF, _zero_counts(table)))


def final_mask(table: WordTable) -> np.ndarray:
    """is_final of every word: no label 3."""
    return ~(table.digits == 3).any(axis=1)


def build_transition_matrix(table: WordTable) -> TropicalMatrix:
    """Assemble predecessor lists from the layered join of the table with itself."""
    q, p = follow_pairs(table.digits, table.digits)
    order = np.lexsort((q, p))
    ptr = np.zeros(table.k + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=table.k), out=ptr[1:])
    return TropicalMatrix(table, _zero_counts(table), ptr, q[order].astype(np.int64))


def mat_vec(matrix: TropicalMatrix, vector: TropicalVector) -> TropicalVector:
    """Min-plus product: out[p] = min over q of A[p][q] + x[q].

    Exploits the row-constant structure: out[p] = zeros(p) + min over
    predecessors q of x[q], saturating at infinity.
    """
    if matrix.k != len(vector):
        raise ValueError("matrix and vector sizes disagree")
    x = vector.data
    out = np.full(matrix.k, _INF, dtype=np.int64)
    nonempty = matrix.pred_ptr[1:] > matrix.pred_ptr[:-1]
    if matrix.pred_idx.size:
        mins = np.minimum.reduceat(x[matrix.pred_idx], matrix.pred_ptr[:-1][nonempty])
        out[nonempty] = np.where(
            mins >= _INF, _INF, mins + matrix.row_zeros[nonempty]
        )
    return TropicalVector(vector.table, out)
