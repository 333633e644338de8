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
order, built one position at a time, and every rule is checked through the
same functions tabulated (_WINDOW, _FOLLOW) as soon as the labels it reads
are placed.
enumerate_suitable runs one deterministic automaton over the labels (_STEP,
_END), tabulated from _WINDOW and _FOLLOW: its state is the word's last
three labels and the set of states a predecessor can still be in, so it
decides both suitability and liveness (the word is initial or can follow
some suitable word).  Per-state completion counts size the table before it
is built and keep only the prefixes that still complete.  follow_pairs
joins the prefix trie of the left-hand words with that of the right-hand
words level by level, which yields every admissible (q, p) pair without
looking at the pairs that fail.  follow_blocks runs the same join over
contiguous blocks of right-hand rows against one left-hand trie.  The
join's last level holds several index arrays over about two candidate
pairs per admissible one (width 13: 131,215 for 64,112), so joining a whole
table at once takes many times the memory of the pairs it returns; in
blocks, only one block's candidates are live while the pairs accumulate.
is_initial is can_follow after a virtual column of 1s, so the first-column
rule is stated once.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import MalformedWordError, ResourceCapError

ALPHABET = "0123"

# Default ceiling on the number of suitable words of one width, live or not.
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


class WordTable:
    """Suitable words of one length (all, or the live ones), lexicographically ordered.

    digits holds them as a read-only k x m uint8 array; words, as strings, on first use.
    A table is equal only to itself.
    """

    def __init__(self, m: int, digits: np.ndarray) -> None:
        self.m, self.digits = m, digits

    def __repr__(self) -> str:
        return f"WordTable(m={self.m!r}, digits={self.digits!r})"

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


def _placeable(x: int, y: int, z: int, label: int) -> bool:
    """Whether label, or the word boundary _EDGE, may follow a word's last labels x, y, z.

    It settles the window of the pair (y, z); x and y are _EDGE before the
    word's start, where no pair has formed yet.
    """
    return y == _EDGE or _WINDOW.item(x, y, z, label)


def _preds_after(preds: frozenset, y: int, z: int, label: int) -> frozenset:
    """The predecessor states still possible once p reads label (or _EDGE) after y, z.

    A predecessor state is the last three labels of a suitable prefix of q,
    or None for the virtual column of 1s.  It stays if p's previous label z
    passes _follow_ok beside q's last label, with label below z; q then
    reads every label it may place (or the boundary, when p does).
    """
    out = set()
    for q in preds:
        if z == _EDGE or _FOLLOW.item(1 if q is None else q[2], z, y, label):
            labels = range(4) if label < _EDGE else [_EDGE]
            out.update([None] if q is None else [(*q[1:], a) for a in labels if _placeable(*q, a)])
    return frozenset(out)


def _tabulate() -> tuple[np.ndarray, np.ndarray]:
    """The word automaton, as _STEP[state, label] and _END[state].

    A state is p's last three labels and the set of predecessor states
    still possible.  State 0 is dead and stays dead; state 1 is the empty
    word, whose predecessors are the empty prefix of q and the column of
    1s.  _END classifies the word that ends in a state: _DEAD, _SUITABLE or
    _LIVE (also initial, or able to follow some suitable q).
    """
    start = (_EDGE, _EDGE, _EDGE, frozenset({(_EDGE, _EDGE, _EDGE), None}))
    ids = {None: 0, start: 1}
    step, end, walk = [[0] * 4], [_DEAD], [start]
    for x, y, z, preds in walk:  # grows while it is walked, until no state is new
        nxt = [(y, z, a, _preds_after(preds, y, z, a)) if _placeable(x, y, z, a) else None for a in range(4)]
        step.append([ids.setdefault(state, len(ids)) for state in nxt])
        walk += list(ids)[len(walk) + 1 :]  # the states first seen in this row
        ok = _placeable(x, y, z, _EDGE)
        end.append(_LIVE if ok and _preds_after(preds, y, z, _EDGE) else _SUITABLE if ok else _DEAD)
    return np.array(step, dtype=np.uint8), np.array(end, dtype=np.uint8)


_DEAD, _SUITABLE, _LIVE = 0, 1, 2
_STEP, _END = _tabulate()


def _completions(m: int, accept: int, cap: int) -> list[np.ndarray]:
    """Entry j: per state, its completions by j more labels, for j = 0..m at most.

    A completion counts when its word's _END class is at least accept.
    Counts saturate at cap + 1, so that no width overflows them.  The list
    stops early at an entry that repeats the one before, since every later
    entry equals it (at the default cap, within 42 entries).
    """
    counts = [(_END >= accept).astype(np.int64)]
    while len(counts) <= m:
        more = np.minimum(counts[-1][_STEP].sum(axis=1), cap + 1)
        if np.array_equal(more, counts[-1]):
            break
        counts.append(more)
    return counts


def _words_of(digits: np.ndarray) -> list[str]:
    m = digits.shape[1]
    return (digits + ord("0")).view(f"S{m}").ravel().astype(f"U{m}").tolist()


def enumerate_suitable(m: int, max_words: int = DEFAULT_WORD_CAP, *, live: bool = False) -> WordTable:
    """Materialize every suitable word of length m, or only the live ones, lexicographically.

    A word is live when it is suitable and is initial or can follow some
    suitable word.  Raises ResourceCapError when there are more than
    max_words suitable words, in either case, before any row is built.

    The automaton's completion counts give the table's size and, per
    prefix, the block of rows its completions fill: each level keeps the
    prefixes that still complete, as automaton states, and writes its label
    once per completion.
    """
    if m < 2:
        raise MalformedWordError(f"word length must be at least 2, got {m}")
    if _completions(m, _SUITABLE, max_words)[-1][1] > max_words:
        raise ResourceCapError(f"more than {max_words} suitable words of length {m}")
    counts = _completions(m, _LIVE if live else _SUITABLE, max_words)
    digits = np.empty((counts[-1][1], m), dtype=np.uint8)  # state 1 is the empty word
    states = np.ones(1, dtype=np.uint8)  # the state of each kept prefix
    for t in range(m):
        done = counts[min(m - 1 - t, len(counts) - 1)]  # completions once position t is placed
        rows, labels = np.nonzero((done > 0)[_STEP][states])
        states = _STEP[states[rows], labels]
        digits[:, t] = np.repeat(labels.astype(np.uint8), done[states])
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
    words = enumerate_suitable(len(q)).digits
    q_digits = np.frombuffer(q.encode("ascii"), dtype=np.uint8)[None, :] - ord("0")
    _, p = follow_pairs(q_digits, words)
    return _words_of(words[np.sort(p)])
