"""Column words over {0,1,2,3} and the admissibility rules between them.

A column of an m x n grid, together with a candidate vertex set S, is encoded
as a word of length m: label 0 marks a vertex of S, labels 1/2 mark vertices
outside S that already have one/two neighbors in S among their left and
same-column neighbors, and label 3 marks a vertex whose only dominator must
sit in the column to its right.  Position 1 is the top row.

Two functions state the rules, each once: _window_ok decides suitability
from one adjacent pair and its two outer neighbors, and _follow_ok decides
whether a word may follow another at one position.  The per-word predicates
(is_suitable, can_follow) evaluate them along a word.  Tables are built by
one array engine: words are rows of a uint8 digit array in lexicographic
order, and both builders grow rows one position at a time, checking every
rule through the same functions tabulated (_WINDOW, _FOLLOW) as soon as the
labels it reads are placed.
enumerate_suitable grows the word prefixes themselves; follow_pairs joins
the prefix trie of the left-hand words with that of the right-hand words
level by level, which yields every admissible (q, p) pair without looking
at the pairs that fail.  follow_blocks runs the same join over contiguous
blocks of right-hand rows against one left-hand trie.  The join's last
level holds several index arrays over about two candidate pairs per
admissible one (width 13: 131,215 for 64,112), so joining a whole table at
once takes many times the memory of the pairs it returns; in blocks, only
one block's candidates are live while the pairs accumulate.
is_initial is can_follow after a virtual column of 1s, so the first-column
rule is stated once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import MalformedWordError, ResourceCapError

ALPHABET = "0123"

# Default ceiling on the number of suitable words materialized for one width.
DEFAULT_WORD_CAP = 2_000_000


def _validate(word: str) -> None:
    if len(word) < 2:
        raise MalformedWordError(f"column word {word!r} has fewer than 2 labels")
    for ch in word:
        if ch not in ALPHABET:
            raise MalformedWordError(f"column word {word!r} has label {ch!r} outside 0..3")


def zeros(word: str) -> int:
    """Number of set members (label 0) in a column word."""
    return word.count("0")


def is_suitable(word: str) -> bool:
    """Whether a word can be a column of a valid labeling: _window_ok at every pair."""
    _validate(word)
    d = [_EDGE, *map(int, word), _EDGE]
    return all(_window_ok(*d[i : i + 4]) for i in range(len(word) - 1))


def is_initial(word: str) -> bool:
    """Whether a suitable word may be the first column.

    The first column follows a virtual column of 1s: the q[i] = 1 case of
    can_follow is the first-column rule (every 2 sits between two 0s, every 1
    has a 0 on exactly one side, 0 and 3 are free).
    """
    return can_follow(word, "1" * len(word))


def is_final(word: str) -> bool:
    """Whether a suitable word may be the last column (no label 3)."""
    _validate(word)
    return "3" not in word


def can_follow(p: str, q: str) -> bool:
    """Whether column word p may appear right of q: _follow_ok at every position.

    q is a suitable word or the all-1s column of is_initial; the rule is
    stated for those only.
    """
    _validate(p)
    _validate(q)
    if len(p) != len(q):
        raise MalformedWordError(f"length mismatch: {p!r} vs {q!r}")
    d = [_EDGE, *map(int, p), _EDGE]
    return all(_follow_ok(int(q[i]), d[i + 1], d[i], d[i + 2]) for i in range(len(p)))


@dataclass(frozen=True, eq=False)
class WordTable:
    """All suitable words of one length, lexicographically ordered.

    digits holds them as a read-only k x m uint8 array; words, as strings, on first use.
    """

    m: int
    digits: np.ndarray

    @property
    def k(self) -> int:
        return len(self.digits)

    @cached_property
    def words(self) -> tuple[str, ...]:
        return tuple(_words_of(self.digits))

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)


# Pseudo-labels for the lookup tables: no label (the word boundary), and a
# label not placed yet, which passes if any real label would.
_EDGE = 4
_OPEN = 5


def _window_ok(before: int, a: int, b: int, after: int) -> bool:
    """The suitability rules for the pair (a, b) between labels before and after.

    Forbidden outright: 00 (independence), 22, 33, 03, 30, 010.  Context
    rules: a 11 pair needs a 0 on at least one side, 32 needs a 0 right
    after the 2, 23 needs a 0 right before the 2, and 21/12 need a 0 on
    both sides.  A required neighbor that falls off the word boundary
    (_EDGE) fails the rule.
    """
    if (a == b and a != 1) or {a, b} == {0, 3}:
        return False
    if (a, b) == (0, 1):
        return after != 0  # 010
    if (a, b) == (1, 1):
        return before == 0 or after == 0
    if (a, b) == (3, 2):
        return after == 0
    if (a, b) == (2, 3):
        return before == 0
    if (a, b) in ((1, 2), (2, 1)):
        return before == 0 and after == 0
    return True


def _follow_ok(q: int, p: int, up: int, down: int) -> bool:
    """The follow rule at one position: labels q and p, p's labels up and down of it.

    Case analysis on q, for a suitable q or the virtual first column of 1s:

    * q = 0: p is dominated from the left, so p = 1 with no vertical 0
      next to it, or p = 2 with exactly one vertical 0.
    * q = 1: p may be 0 or 3, or 1 with exactly one vertical 0, or 2 with
      vertical 0s on both sides.
    * q = 2: p = 3, or 1 with exactly one vertical 0; p = 0 would give q's
      vertex a third dominator.
    * q = 3: p = 0, the 3 is dominated only from the right.

    The q = 2, p = 1 case needs no exception at the word boundary, at any
    width.  In a suitable q, a 2 in the top (bottom) row has a 0 directly
    below (above) it: every other pair with that 2 needs a 0 beyond the
    boundary.  The p = 1 beside it has the boundary on its other side, so
    its one vertical 0 must be in p at the row of q's 0, and q = 0 forbids
    p = 0 there.  The pair fails at that row, whatever this position admits.
    """
    up0, dn0 = up == 0, down == 0
    if q == 3:
        return p == 0
    if q == 0:
        return (p == 1 and not (up0 or dn0)) or (p == 2 and up0 != dn0)
    if q == 1:
        return p in (0, 3) or (p == 1 and up0 != dn0) or (p == 2 and up0 and dn0)
    return p == 3 or (p == 1 and up0 != dn0)


def _lookup(rule, *sizes: int) -> np.ndarray:
    """rule as a boolean table over index tuples whose last index is a neighbor label.

    That last axis holds labels 0..3, _EDGE, and _OPEN, which passes when
    some label 0..3 does.
    """
    table = np.zeros((*sizes, _OPEN + 1), dtype=bool)
    for key in itertools.product(*(range(s) for s in sizes), range(_OPEN)):
        table[key] = rule(*key)
    table[..., _OPEN] = table[..., :_EDGE].any(axis=-1)
    return table


# _WINDOW[before, a, b, after]; _FOLLOW[q, p, up, down].
_WINDOW = _lookup(_window_ok, _EDGE + 1, 4, 4)
_FOLLOW = _lookup(_follow_ok, 4, 4, _EDGE + 1)


def _suitable_digits(m: int, max_words: int) -> np.ndarray:
    """Digit rows of every suitable word of length m, lexicographically.

    Position t is placed on every prefix of length t: a label is kept when
    it completes the window of the pair two back and leaves the pair it
    forms passable by some next label (or by the boundary, at the end).
    Every kept prefix extends to a suitable word (whether it does depends
    only on its last three labels, and every ending that occurs can be
    continued), so a level with more than max_words prefixes means the table
    would have more words too, and the error comes before that level is
    materialized.
    """
    labels = np.arange(4, dtype=np.uint8)
    digits = np.zeros((1, 0), dtype=np.uint8)
    for t in range(m):
        a, b, c = (digits[:, t - j, None] if t >= j else _EDGE for j in (3, 2, 1))
        ok = np.ones((len(digits), 4), dtype=bool)
        if t >= 1:
            ok &= _WINDOW[b, c, labels, _OPEN if t < m - 1 else _EDGE]
        if t >= 2:
            ok &= _WINDOW[a, b, c, labels]
        if np.count_nonzero(ok) > max_words:
            raise ResourceCapError(f"more than {max_words} suitable words of length {m}")
        rows, placed = np.nonzero(ok)
        digits = np.concatenate([digits[rows], placed.astype(np.uint8)[:, None]], axis=1)
    return digits


def _words_of(digits: np.ndarray) -> list[str]:
    m = digits.shape[1]
    return (digits + ord("0")).view(f"S{m}").ravel().astype(f"U{m}").tolist()


def enumerate_suitable(m: int, max_words: int = DEFAULT_WORD_CAP) -> WordTable:
    """Materialize every suitable word of length m, lexicographically.

    Raises ResourceCapError when there are more than max_words of them.
    """
    if m < 2:
        raise MalformedWordError(f"word length must be at least 2, got {m}")
    digits = _suitable_digits(m, max_words)
    digits.setflags(write=False)
    return WordTable(m=m, digits=digits)


def _trie(digits: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The prefix trie of lexicographically sorted, distinct digit rows.

    Level t holds the distinct prefixes of length t, numbered in order; the
    last level's node ids are the row ids.  Entry t of the result gives, for
    each node of level t, its children as a range into level t+1 (CSR
    pointers), and the label every node of level t+1 ends with.
    """
    k, m = digits.shape
    fresh = np.zeros(k, dtype=bool)
    fresh[:1] = True
    starts = np.zeros(1, dtype=np.intp)  # first row of each level-t node
    levels = []
    for t in range(m):
        fresh[1:] |= digits[1:, t] != digits[:-1, t]
        below = np.flatnonzero(fresh)
        levels.append((np.append(np.searchsorted(below, starts), below.size), digits[below, t]))
        starts = below
    return levels


def _children(ptr: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every child of every node, in order: (position in nodes, child id)."""
    first = ptr[nodes]
    count = ptr[nodes + 1] - first
    owner = np.repeat(np.arange(nodes.size), count)
    rank = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    return owner, first[owner] + rank


def follow_pairs(q_digits: np.ndarray, p_digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row ids (q, p) of every pair where word p can follow word q.

    Both arguments are lexicographically sorted, distinct digit rows of one
    length.  The join walks both prefix tries in step: a pair of prefixes is
    extended by p's next label, which settles the can_follow case of the
    position above it, then by q's next label, whose case must still pass
    for some label below.  The pairs come in lexicographic order of their
    interleaved labels (p[0], q[0], p[1], q[1], ...), so the q of one p
    ascend.  The join's transient memory grows with all candidate pairs at
    once; follow_blocks bounds it by joining a block of p rows at a time.
    """
    return _join(_trie(q_digits), p_digits)


def follow_blocks(
    q_digits: np.ndarray, p_digits: np.ndarray, rows: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """follow_pairs over consecutive blocks of p_digits, rows rows each, from one q trie.

    Yields (lo, q, p) for lo = 0, rows, 2 rows, ...: the pairs whose p lies
    in p_digits[lo:lo + rows], with p counted from lo.  A contiguous slice
    of sorted, distinct rows is itself sorted and distinct, so the blocks
    together hold exactly the pairs of follow_pairs.
    """
    q_trie = _trie(q_digits)
    for lo in range(0, len(p_digits), rows):
        yield (lo, *_join(q_trie, p_digits[lo : lo + rows]))


def _join(
    q_trie: list[tuple[np.ndarray, np.ndarray]], p_digits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The follow_pairs join of a built q trie with the rows p_digits."""
    m = p_digits.shape[1]
    p_trie = _trie(p_digits)
    q = p = np.zeros(1, dtype=np.intp)
    # labels of each pair at positions t-1 (q and p) and t-2 (p)
    q_last = p_last = p_up = np.full(1, _EDGE, dtype=np.uint8)
    for t in range(m):
        (q_ptr, q_labels), (p_ptr, p_labels) = q_trie[t], p_trie[t]
        i, p_next = _children(p_ptr, p)
        p_label = p_labels[p_next]
        if t:
            ok = _FOLLOW[q_last[i], p_last[i], p_up[i], p_label]
            i, p_next, p_label = i[ok], p_next[ok], p_label[ok]
        j, q_next = _children(q_ptr, q[i])
        i, p_next, p_label = i[j], p_next[j], p_label[j]
        q_label = q_labels[q_next]
        ok = _FOLLOW[q_label, p_label, p_last[i], _OPEN if t < m - 1 else _EDGE]
        p_up = p_last[i[ok]]
        q, p, q_last, p_last = q_next[ok], p_next[ok], q_label[ok], p_label[ok]
    return q, p


def successors(q: str) -> list[str]:
    """All suitable words that can follow q, in lexicographic order.

    The follow_pairs join with the left-hand side fixed to q.  Raises
    ResourceCapError when the words of that length exceed DEFAULT_WORD_CAP.
    """
    _validate(q)
    words = _suitable_digits(len(q), DEFAULT_WORD_CAP)
    q_digits = np.frombuffer(q.encode("ascii"), dtype=np.uint8)[None, :] - ord("0")
    _, p = follow_pairs(q_digits, words)
    return _words_of(words[np.sort(p)])
