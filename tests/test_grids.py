import pytest

from quasidom.errors import InvalidSetError, ResourceCapError
from quasidom.grids import MAX_CELLS, GridSet, extract_min_set, labeling_of, verify_set
from quasidom.solver import solve_width
from quasidom.words import can_follow, is_final, is_initial, is_suitable, zeros


def gs(m, n, *members):
    return GridSet(m, n, frozenset(members))


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


def test_coordinates_validated():
    with pytest.raises(ValueError):
        gs(2, 2, (3, 1))
    with pytest.raises(ValueError):
        gs(0, 2)


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
