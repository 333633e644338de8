"""Acceptance gate: one test per criterion, each printing a PASS line.

Every check here is exact (integer equality); run with -s to see the
criterion lines.
"""

import random


from quasidom.grids import extract_min_set, labeling_of, verify_set
from quasidom.oracle import (
    brute_force_min,
    enumerate_valid_masks,
    mask_to_grid_set,
    profile_dp_min,
)
from quasidom.pattern import build_big_grid_set
from quasidom.solver import (
    big_grid_value,
    closed_form,
    detect_period,
    extend_by_period,
    solve_width,
)
from quasidom.words import can_follow, is_final, is_initial, is_suitable

# every grid the exhaustive oracle can reach, in normalized orientation
ORACLE_GRIDS = [
    (m, n) for m in range(2, 5) for n in range(m, 11) if m * n <= 20
]

TABLE2_REQUIRED = {
    (2, 4): 3, (2, 5): 3,
    (3, 7): 6, (3, 8): 7, (3, 9): 7, (3, 10): 9,
    (4, 11): 11,
    (5, 15): 19,
    (6, 9): 14, (6, 15): 22,
    (7, 12): 21, (7, 14): 24,
}

TABLE1_REQUIRED = {2: (4, 2, 1), 3: (7, 4, 3), 4: (11, 1, 1), 5: (15, 5, 6),
                   6: (9, 7, 10), 7: (12, 3, 5)}

FIGURE_CASES = {
    (14, 14): 47, (14, 15): 50, (14, 16): 53, (14, 17): 56,
    (15, 15): 53, (15, 16): 57, (15, 17): 60,
}

SWEEP_END = {2: 8, 3: 15, 4: 13, 5: 25, 6: 23, 7: 18}  # n0 + 2d per width


def _sweep_pairs():
    pairs = set(ORACLE_GRIDS) | set(TABLE2_REQUIRED)
    for m, end in SWEEP_END.items():
        pairs.update((m, n) for n in range(m, end + 1))
    return sorted(pairs)


def test_criterion_1_oracle_equivalence():
    for m, n in ORACLE_GRIDS:
        oracle = brute_force_min(m, n, "i12")
        assert solve_width(m, n) == oracle.value, (m, n)
        assert verify_set(oracle.witness).ok
    print(f"\nACCEPTANCE 1 oracle equivalence on {len(ORACLE_GRIDS)} grids: PASS")


def test_criterion_2_boundary_condition_goldens():
    for (m, n), expected in sorted(TABLE2_REQUIRED.items()):
        assert solve_width(m, n) == expected, (m, n)
    print(f"\nACCEPTANCE 2 boundary-value goldens ({len(TABLE2_REQUIRED)} values): PASS")


def test_criterion_3_period_certificates():
    for m, expected in TABLE1_REQUIRED.items():
        cert = detect_period(m)
        assert (cert.n0, cert.d, cert.c) == expected, m
    print("\nACCEPTANCE 3 period certificates m=2..7: PASS")


def test_criterion_3_width13_certificate():
    cert = detect_period(13)
    assert cert.d == 12
    assert cert.n0 == 73
    # the published difference table lists c=3 for width 13; the boundary
    # values and the closed form both demand 36, and the search agrees
    assert cert.c == 36
    deviation = "width-13 increment found as 36 (published difference table says 3)"
    for n in range(cert.n0, cert.n0 + cert.d + 3):
        assert extend_by_period(cert, n) == solve_width(13, n)
    print(f"\nACCEPTANCE 3 width-13 certificate: PASS [{deviation}]")


def test_criterion_4_closed_form_consistency():
    checked = 0
    for m, end in SWEEP_END.items():
        for n in range(m, end + 1):
            assert closed_form(m, n) == solve_width(m, n), (m, n)
            checked += 1
    assert closed_form(5, 5) == 7
    assert closed_form(4, 9) == 10
    assert closed_form(13, 73) == 220
    print(f"\nACCEPTANCE 4 closed forms vs DP on {checked} grids + spot values: PASS")


def test_criterion_5_diagonal_pattern():
    checked = 0
    for m in range(14, 31):
        for n in range(m, 31):
            s = build_big_grid_set(m, n)
            assert len(s) == big_grid_value(m, n), (m, n)
            assert verify_set(s).ok, (m, n)
            checked += 1
    for (m, n), expected in sorted(FIGURE_CASES.items()):
        assert big_grid_value(m, n) == expected
        assert len(build_big_grid_set(m, n)) == expected
    print(f"\nACCEPTANCE 5 diagonal pattern on {checked} grids (14..30): PASS")


def test_criterion_6_labeling_faithfulness():
    # every orientation with both sides >= 2 and at most 16 cells
    shapes = [
        (m, n) for m in range(2, 9) for n in range(2, 9) if m * n <= 16
    ]
    pool = []
    for m, n in shapes:
        for mask in enumerate_valid_masks(m, n, "i12"):
            pool.append((m, n, mask))
    rng = random.Random(20260808)
    sample = [rng.choice(pool) for _ in range(200)]
    for m, n, mask in sample:
        s = mask_to_grid_set(m, n, mask)
        columns = labeling_of(s)
        assert all(is_suitable(w) for w in columns), (m, n, mask)
        assert is_initial(columns[0]), (m, n, mask)
        assert is_final(columns[-1]), (m, n, mask)
        for prev, cur in zip(columns, columns[1:]):
            assert can_follow(cur, prev), (m, n, mask)
    print("\nACCEPTANCE 6 labeling faithfulness on 200 random valid sets: PASS")


def test_criterion_7_extraction_closure():
    pairs = _sweep_pairs()
    for m, n in pairs:
        s = extract_min_set(m, n)
        assert len(s) == solve_width(m, n), (m, n)
        assert verify_set(s).ok, (m, n)
    print(f"\nACCEPTANCE 7 extraction closure on {len(pairs)} grids: PASS")


def test_criterion_8_scope_note_and_mode_inequality():
    # The full width <= 13 computation and any width >= 14 DP run are out of
    # scope at desk scale; criteria 1-7 substitute.  Here: the independent
    # domination number never exceeds the [1,2] variant, with equality on
    # every oracle-reachable grid.
    for m in range(1, 6):
        for n in range(m, 21):
            i = profile_dp_min(m, n, "i").value
            i12 = profile_dp_min(m, n, "i12").value
            assert i <= i12, (m, n)
            assert i == i12, (m, n)
    print("\nACCEPTANCE 8 scaled-down scope; i <= i_[1,2] with equality in reach: PASS")
