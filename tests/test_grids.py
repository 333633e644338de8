import hashlib
import json
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from quasidom.errors import InvalidSetError, MalformedSetError, ResourceCapError
from quasidom.grids import (
    MAX_CELLS,
    GridSet,
    _frame,
    _tile,
    VerificationReport,
    Violation,
    extract_min_set,
    labeling_of,
    rule_faults,
    verify_set,
)
from quasidom.solver import _machinery_cache, _window_cache, machinery, solve_width
from quasidom.words import can_follow, is_final, is_initial, is_suitable, zeros


def gs(m, n, *members):
    return GridSet(m, n, frozenset(members))


def reference_verify_set(s):
    """verify_set as a per-cell loop over the member set; the vectorised one must agree."""

    def neighbors(i, j):
        if i > 1:
            yield (i - 1, j)
        if i < s.m:
            yield (i + 1, j)
        if j > 1:
            yield (i, j - 1)
        if j < s.n:
            yield (i, j + 1)

    violations = []
    members = s.members
    for i, j in sorted(members):
        for v in ((i, j + 1), (i + 1, j)):
            if v in members:
                violations.append(
                    Violation((i, j), "adjacent-pair", f"members ({i},{j}) and {v} are adjacent")
                )
    independent = not violations
    dominated_ok = True
    for i in range(1, s.m + 1):
        for j in range(1, s.n + 1):
            if (i, j) in members:
                continue
            count = sum(1 for v in neighbors(i, j) if v in members)
            if count == 0:
                dominated_ok = False
                violations.append(
                    Violation((i, j), "undominated", f"({i},{j}) has no neighbor in the set")
                )
            elif count > 2:
                dominated_ok = False
                violations.append(
                    Violation(
                        (i, j), "over-dominated", f"({i},{j}) has {count} neighbors in the set"
                    )
                )
    return VerificationReport(independent, dominated_ok, tuple(violations))


def reference_sorted_members(s):
    return sorted(s.members)


def reference_to_ascii(s):
    """to_ascii as a per-cell loop over the member set."""
    members = s.members
    rows = [f"{s.m} {s.n}"]
    for i in range(1, s.m + 1):
        rows.append("".join("#" if (i, j) in members else "." for j in range(1, s.n + 1)))
    return "\n".join(rows)


def reference_from_ascii(text):
    """from_ascii as a per-cell loop that collects the member tuples."""
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
    members = set()
    for i, row in enumerate(body, start=1):
        if len(row) != n:
            raise MalformedSetError(f"row {i} has {len(row)} cells, expected {n}")
        for j, ch in enumerate(row, start=1):
            if ch == "#":
                members.add((i, j))
            elif ch != ".":
                raise MalformedSetError(f"unexpected cell {ch!r} at ({i}, {j})")
    return GridSet(m, n, frozenset(members))


def reference_labeling(s):
    """labeling_of as a per-cell loop: 0, else left + up + down members, 3 for none."""
    return [
        "".join(
            "0" if (i, j) in s.members
            else str(sum(v in s.members for v in ((i, j - 1), (i - 1, j), (i + 1, j))) or 3)
            for i in range(1, s.m + 1)
        )
        for j in range(1, s.n + 1)
    ]


@st.composite
def _grid_sets(draw):
    m = draw(st.integers(min_value=1, max_value=8))
    n = draw(st.integers(min_value=1, max_value=8))
    cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return GridSet(m, n, frozenset(draw(st.sets(st.sampled_from(cells)))))


@given(_grid_sets())
def test_verify_set_matches_the_reference_loop(s):
    assert verify_set(s) == reference_verify_set(s)


@given(_grid_sets())
def test_mask_forms_match_the_tuple_references(s):
    assert s.sorted_members() == reference_sorted_members(s)
    text = s.to_ascii()
    assert text == reference_to_ascii(s)
    assert GridSet.from_ascii(text) == reference_from_ascii(text) == s
    assert GridSet.from_json_dict(s.to_json_dict()) == s
    assert all(
        ((i, j) in s) == ((i, j) in s.members) for i in range(s.m + 2) for j in range(s.n + 2)
    )
    assert GridSet.from_bits(s.m, s.n, s.bits) == s and len(s) == len(s.members)
    assert s.transpose().members == {(j, i) for i, j in s.members}


_ASCII_TEXT = st.builds(
    lambda header, rows: header + "\n" + "\n".join(rows),
    st.sampled_from(["", "2 3", "3 2", "1 1", "0 3", "0 -3", "x 2", "3"]),
    st.lists(st.text(alphabet="#.x é", max_size=4), max_size=4),
)


@given(_ASCII_TEXT)
def test_from_ascii_matches_the_tuple_reference_on_any_text(text):
    try:
        expected = reference_from_ascii(text)
    except MalformedSetError as exc:
        with pytest.raises(MalformedSetError) as got:
            GridSet.from_ascii(text)
        assert str(got.value) == str(exc)
    else:
        assert GridSet.from_ascii(text) == expected


@pytest.mark.parametrize(
    "s",
    [
        gs(1, 1),  # the only cell is undominated
        gs(1, 2, (1, 1), (1, 2)),  # one adjacent pair, right
        gs(2, 1, (1, 1), (2, 1)),  # one adjacent pair, down
        gs(2, 2, (1, 1), (1, 2), (2, 1)),  # right and down from one member
        gs(3, 3, (1, 2), (2, 1), (2, 3), (3, 2)),  # over-dominated by 4
        gs(2, 3, (1, 2), (2, 1), (2, 3)),  # over-dominated by 3
        gs(4, 5, (1, 1), (1, 2), (3, 3), (4, 5)),  # every kind at once
    ],
)
def test_verify_set_hand_cases_match_the_reference_loop(s):
    report = verify_set(s)
    assert report == reference_verify_set(s)
    assert report.violations


def test_verify_set_violation_text():
    report = verify_set(gs(3, 4, (1, 1), (1, 2), (2, 3), (3, 2)))
    assert [(v.vertex, v.kind, v.detail) for v in report.violations] == [
        ((1, 1), "adjacent-pair", "members (1,1) and (1, 2) are adjacent"),
        ((1, 4), "undominated", "(1,4) has no neighbor in the set"),
        ((2, 2), "over-dominated", "(2,2) has 3 neighbors in the set"),
        ((3, 4), "undominated", "(3,4) has no neighbor in the set"),
    ]


def test_verify_examples():
    assert verify_set(gs(2, 2, (1, 1), (2, 2))).ok
    report = verify_set(gs(2, 2, (1, 1)))
    assert not report.ok
    assert any(v.kind == "undominated" and v.vertex == (2, 2) for v in report.violations)


def test_all_vertices_not_independent():
    report = verify_set(gs(2, 3, *[(i, j) for i in (1, 2) for j in (1, 2, 3)]))
    assert not report.independent
    assert any(v.kind == "adjacent-pair" for v in report.violations)


def test_over_domination_detected():
    # center of a plus shape has 4 member neighbors
    report = verify_set(gs(3, 3, (1, 2), (2, 1), (2, 3), (3, 2)))
    assert not report.dominated_ok
    assert any(v.kind == "over-dominated" and v.vertex == (2, 2) for v in report.violations)


def test_report_consistency():
    report = verify_set(gs(2, 2, (1, 1), (2, 2)))
    assert report.independent and report.dominated_ok and not report.violations


def test_grid_sets_are_equal_and_hash_alike_by_m_n_and_bits():
    a = gs(2, 3, (1, 1), (2, 3))
    b = GridSet.from_bits(2, 3, 0b100001)
    assert a == b and hash(a) == hash(b) == hash((2, 3, 0b100001))
    assert len({a, b}) == 1
    assert a != GridSet.from_bits(3, 2, 0b100001) and a != GridSet.from_bits(2, 3, 1)
    assert a != (2, 3, 0b100001)


def test_grid_sets_are_immutable_and_repr_their_shape():
    s = gs(2, 3, (1, 1))
    for name in ("m", "bits", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert (s.m, s.n, s.bits) == (2, 3, 1)
    assert repr(s) == "GridSet(m=2, n=3)"


def test_report_reprs():
    assert repr(verify_set(gs(1, 3, (1, 2)))) == (
        "VerificationReport(independent=True, dominated_ok=True, violations=())"
    )
    assert repr(verify_set(gs(1, 3, (1, 1), (1, 2)))) == (
        "VerificationReport(independent=False, dominated_ok=True, violations=(Violation("
        "vertex=(1, 1), kind='adjacent-pair', detail='members (1,1) and (1, 2) are adjacent'),))"
    )


def test_coordinates_validated():
    with pytest.raises(ValueError):
        gs(2, 2, (3, 1))
    with pytest.raises(ValueError):
        gs(0, 2)


def test_bits_follow_the_row_major_layout():
    s = gs(2, 3, (1, 2), (2, 1), (2, 3))
    assert s.bits == 0b101010  # (i, j) at bit (i - 1) * 3 + (j - 1)
    assert GridSet.from_bits(2, 3, 0b101010) == s
    assert s.transpose() == GridSet.from_bits(3, 2, 0b100110)
    for bits in (-1, 1 << 6):
        with pytest.raises(MalformedSetError):
            GridSet.from_bits(2, 3, bits)


def test_rule_faults_on_a_wide_grid_is_fast():
    # the column masks of a 7 x 500000 grid; building them by dividing by
    # 2^n - 1 took seconds at this width
    m, n = 7, 500_000
    start = time.perf_counter()
    right, down, undominated, over, four = rule_faults(m, n, 0)
    assert time.perf_counter() - start < 0.5
    assert undominated == (1 << m * n) - 1 and right == down == over == four == 0
    one = GridSet(m, n, [(1, 1)])
    assert rule_faults(m, n, one.bits)[2] == (1 << m * n) - 1 - 0b11 - (1 << n)


@pytest.mark.parametrize("m,n", [(16, 250_000), (2000, 2000), (MAX_CELLS, 1), (1, MAX_CELLS)])
def test_frame_column_mask_matches_the_bit_text(m, n):
    # the column-1 mask is tiled by doubling; the reference parses its bit text
    full, off_first, off_last = _frame(m, n)
    first = int(("0" * (n - 1) + "1") * m, 2)
    assert full == (1 << m * n) - 1
    assert off_first == full ^ first and off_last == full ^ (first << (n - 1))


def test_frame_column_mask_matches_the_bit_text_on_small_grids():
    for m in range(1, 41):
        for n in range(1, 41):
            first = int(("0" * (n - 1) + "1") * m, 2)
            assert _frame(m, n)[1] == (1 << m * n) - 1 ^ first, (m, n)


def test_tile_repeats_the_unit_and_stops_at_the_cells():
    assert _tile(0b101, 3, 0) == 0
    assert _tile(0b101, 3, 2) == 0b01  # one partial copy
    assert _tile(0b101, 3, 8) == 0b01101101
    assert _tile(0b11, 2, 7) == 0b1111111
    for span in range(1, 12):
        for cells in range(0, 60):
            unit = (1 << span) - 3 if span > 1 else 1
            expected = sum(unit << t for t in range(0, cells, span)) & (1 << cells) - 1
            assert _tile(unit, span, cells) == expected, (span, cells)


def test_cell_cap_is_exact():
    assert len(GridSet(MAX_CELLS, 1, frozenset())) == 0
    with pytest.raises(ResourceCapError):
        GridSet(MAX_CELLS + 1, 1, frozenset())


def test_ascii_round_trip():
    s = gs(2, 3, (1, 1), (2, 3))
    text = s.to_ascii()
    assert text.splitlines()[0] == "2 3"
    assert GridSet.from_ascii(text) == s


def test_json_round_trip():
    s = gs(3, 3, (1, 1), (2, 3), (3, 1))
    assert GridSet.from_json_dict(s.to_json_dict()) == s


@pytest.mark.parametrize(
    "bad, text",
    [([True, 2], "[True, 2]"), ([1.0, 2], "[1.0, 2]"), ([1, 2, 3], "[1, 2, 3]"), (5, "5")],
    ids=["bool", "float", "three-element", "non-list"],
)
def test_from_json_dict_names_the_first_bad_member(bad, text):
    members = [[1, 1], (2, 3), bad, [False, 1], [2.5, 1]]
    with pytest.raises(MalformedSetError) as got:
        GridSet.from_json_dict({"m": 2, "n": 3, "members": members})
    assert str(got.value) == f"member {text} is not an [i, j] pair of integers"


def test_from_json_dict_accepts_what_the_member_loop_accepts():
    class Row(int):
        pass

    members = [(1, 1), [Row(2), 3]]  # tuples and int subclasses pass, bools do not
    assert GridSet.from_json_dict({"m": 2, "n": 3, "members": members}) == gs(2, 3, (1, 1), (2, 3))


def test_transpose_preserves_validity():
    s = extract_min_set(3, 5)
    assert verify_set(s).ok
    assert verify_set(s.transpose()).ok


@pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 4), (3, 7), (4, 6), (5, 5), (6, 8)])
def test_extraction_closure(m, n):
    s = extract_min_set(m, n)
    assert len(s) == solve_width(m, n)
    assert verify_set(s).ok


def test_extraction_normalizes_orientation():
    # solved over the 5 rows and transposed, as solve_width does
    s = extract_min_set(20, 5)
    assert (s.m, s.n) == (20, 5)
    assert len(s) == solve_width(20, 5) == 25
    assert verify_set(s).ok


@pytest.mark.parametrize("n", range(2, 14))
def test_transposed_extraction_packs_the_transposed_mask(n):
    # the n-row backtrack's mask is packed transposed, with no n x m set built
    for m in sorted({n + 1, 2 * n, 60}):
        assert extract_min_set(m, n) == extract_min_set(n, m).transpose(), m


def test_extraction_deterministic():
    assert extract_min_set(4, 7) == extract_min_set(4, 7)


def test_extract_known_cardinalities():
    assert len(extract_min_set(2, 2)) == 2
    assert len(extract_min_set(3, 7)) == 6


def test_labeling_round_trip():
    s = extract_min_set(3, 7)
    columns = labeling_of(s)
    assert len(columns) == 7
    assert all(len(w) == 3 for w in columns)
    assert sum(zeros(w) for w in columns) == len(s)
    assert all(is_suitable(w) for w in columns)
    assert is_initial(columns[0])
    assert is_final(columns[-1])
    for prev, cur in zip(columns, columns[1:]):
        assert can_follow(cur, prev)


def test_labeling_rejects_invalid_sets():
    with pytest.raises(InvalidSetError):
        labeling_of(gs(2, 2, (1, 1)))


def test_labeling_matches_membership():
    s = extract_min_set(4, 5)
    columns = labeling_of(s)
    for j, word in enumerate(columns, start=1):
        for i, ch in enumerate(word, start=1):
            assert (ch == "0") == ((i, j) in s)


@pytest.mark.parametrize("m,n", [(2, 7), (3, 7), (5, 9), (7, 4), (8, 8)])
def test_labeling_matches_the_reference_loop(m, n):
    s = extract_min_set(m, n)
    assert labeling_of(s) == reference_labeling(s)
    assert labeling_of(s.transpose()) == reference_labeling(s.transpose())


# first 16 hex digits of sha256(json.dumps(sorted members)) of extract_min_set(m, n),
# computed with the DP that iterated every column; n is one before, at and one
# after the width's first repeat column, and 1500
EXTRACT_DIGESTS = {
    (2, 5): "f8a74488ec2a9dbd", (2, 6): "46b377fca25a61f0",
    (2, 7): "534c4180fe78a479", (2, 1500): "4d5d749a4bff86e0",
    (3, 10): "90200548654f7972", (3, 11): "f45fdcbba1398bba",
    (3, 12): "b5501aba0d5cd76d", (3, 1500): "edeadee32caf1b66",
    (4, 11): "acce201fec4dccb0", (4, 12): "2cdc779fb8a7910e",
    (4, 13): "e9c07e12a97c4e30", (4, 1500): "8ede2ea6d6da933d",
    (5, 19): "ef3e7a18e53eed40", (5, 20): "caf3865f2d114cf1",
    (5, 21): "3250ab1b44e413eb", (5, 1500): "b1b7c5ffb7516b6f",
    (6, 15): "184038a80225a237", (6, 16): "175c9b77d2d857dc",
    (6, 17): "e1d2abfe88bb3483", (6, 1500): "bda739a7ca750420",
    (7, 14): "49ba79d30f23d6c9", (7, 15): "85aebd9a637e77c1",
    (7, 16): "b37ece73e294e3f3", (7, 1500): "054623bcb7c6c7f8",
    (8, 25): "a7d5b2f3293d3100", (8, 26): "5b1fd6f9c072decd",
    (8, 27): "1d7e7ec522dd3242", (8, 1500): "32596879b8818bef",
    (9, 27): "852515ba7b8d7d7b", (9, 28): "9975b909b180077e",
    (9, 29): "95ef813fa2cd2636", (9, 1500): "f04f9fe007fdb297",
    (10, 54): "86778c0eed025934", (10, 55): "6f673f473bf8dc53",
    (10, 56): "e0494b9bbe8a871f", (10, 1500): "979e0f8e6af37595",
    (11, 60): "817a12941579a6cd", (11, 61): "f5871e663ac977c5",
    (11, 62): "55fd920066e1fb7e", (11, 1500): "c528ba97bb763d38",
    (12, 39): "a6e6a5a950f396f8", (12, 40): "f0583005e59aea22",
    (12, 41): "a8feb24c8821d9ec", (12, 1500): "b38b407c85ef8ee6",
    (13, 84): "ccf779b2b627f144", (13, 85): "c0dffabfd4e26e55",
    (13, 86): "d5ce25e36dc246cf", (13, 1500): "8a79205fef0735b3",}


@pytest.mark.parametrize("m,n", sorted(EXTRACT_DIGESTS))
def test_extraction_through_the_fold_matches_pinned_digests(m, n):
    _window_cache.clear()
    s = extract_min_set(m, n)
    digest = hashlib.sha256(json.dumps(s.sorted_members()).encode()).hexdigest()[:16]
    assert digest == EXTRACT_DIGESTS[m, n]


# first 16 hex digits of one sha256 over the bits of extract_min_set(m, n), in turn,
# each as ceil(m * n / 8) little-endian bytes, for m = 2..13 and n = m..199,
# 333, 777, 1500 (2,346 grids)
EXTRACT_RANGE_DIGEST = "4c1c767f134bd33d"


def test_extraction_over_the_whole_range_matches_a_pinned_digest():
    digest = hashlib.sha256()
    grids = 0
    for m in range(2, 14):
        for n in [*range(m, 200), 333, 777, 1500]:
            bits = extract_min_set(m, n).bits
            digest.update(bits.to_bytes((m * n + 7) // 8, "little"))
            grids += 1
    assert grids == 2346
    assert digest.hexdigest()[:16] == EXTRACT_RANGE_DIGEST


# first 16 hex digits of one sha256 over the bits of extract_min_set(a, b), in turn,
# each as ceil(a * b / 8) little-endian bytes, for (a, b) = (m, n) then (n, m) for
# each n in (m, 50, 97, 2000): widths past the ones EXTRACT_RANGE_DIGEST pins,
# recorded from the DP that kept each step's argmin
WIDE_EXTRACT_DIGESTS = {
    14: "b6dce0fa625b2b23", 15: "ae7b8080f3244299", 16: "2076653fe851f736",
    17: "5aa2c6ec32c2210c", 19: "609eccbff7b73c60",
}


@pytest.mark.parametrize(
    "m", [14, 15, 16, 17, pytest.param(19, marks=pytest.mark.slow)]
)
def test_extraction_past_width_13_matches_a_pinned_digest(m):
    digest = hashlib.sha256()
    try:
        for n in (m, 50, 97, 2000):
            for a, b in ((m, n), (n, m)):
                bits = extract_min_set(a, b).bits
                digest.update(bits.to_bytes((a * b + 7) // 8, "little"))
    finally:
        if m > 15:  # no other test of the default run keeps these widths
            _machinery_cache.pop(m, None)
            _window_cache.pop(m, None)
    assert digest.hexdigest()[:16] == WIDE_EXTRACT_DIGESTS[m]


def test_extraction_memory_is_bounded_by_the_fold():
    machinery(15)
    _window_cache.pop(15, None)
    tracemalloc.start()
    try:
        s = extract_min_set(15, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(s) == 17 * 5002 // 5 - 4 == 17002
    assert verify_set(s).ok
    # the window keeps the 66 columns before width 15's first repeat as uint8
    # offsets, 6.4 MB, and the run peaks at about 11.5 MB; as int64 the same
    # columns took 52 MB, and all 5000 columns of 97,704 entries 3.9 GB
    assert peak < 24 * 2**20
