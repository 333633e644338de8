import math

import pytest

from quasidom.errors import UnsupportedGridError
from quasidom.grids import verify_set
from quasidom.oracle import (
    brute_force_min,
    enumerate_valid_masks,
    mask_to_grid_set,
    profile_dp_min,
)


def test_known_small_values():
    assert brute_force_min(2, 2, "i12").value == 2
    assert brute_force_min(1, 3, "i12").value == 1
    assert brute_force_min(1, 3, "i12").witness.members == frozenset({(1, 2)})
    assert brute_force_min(4, 4, "i12").value == 4


def test_profile_known_values():
    assert profile_dp_min(3, 10, "i12").value == 9
    assert profile_dp_min(2, 5, "i12").value == 3
    assert profile_dp_min(1, 3, "i12").value == 1


def test_witnesses_are_valid():
    for m, n in ((1, 4), (2, 3), (3, 3), (2, 7), (4, 5)):
        for mode in ("i12", "i"):
            result = brute_force_min(m, n, mode)
            report = verify_set(result.witness)
            assert report.independent
            assert not any(v.kind == "undominated" for v in report.violations)
            if mode == "i12":
                assert report.ok
            assert len(result.witness) == result.value


def test_engines_agree():
    for m in range(1, 5):
        for n in range(m, 21):
            if m * n > 20:
                continue
            for mode in ("i12", "i"):
                b = brute_force_min(m, n, mode)
                p = profile_dp_min(m, n, mode)
                assert b.value == p.value, (m, n, mode)
                assert len(p.witness) == p.value
                rep = verify_set(p.witness)
                assert rep.independent
                assert not any(v.kind == "undominated" for v in rep.violations)


def test_mode_relation_small():
    # every independent [1,2]-set is an independent dominating set
    for m in range(1, 6):
        for n in range(m, 21):
            i = profile_dp_min(m, n, "i").value
            i12 = profile_dp_min(m, n, "i12").value
            assert i <= i12
            assert i == i12  # equality on every grid in oracle reach


def test_caps():
    with pytest.raises(UnsupportedGridError):
        brute_force_min(5, 5, "i12")
    with pytest.raises(UnsupportedGridError):
        profile_dp_min(6, 10, "i12")
    with pytest.raises(UnsupportedGridError):
        profile_dp_min(3, 60, "i12")
    with pytest.raises(ValueError):
        brute_force_min(2, 2, "perfect")


def test_witness_is_lexicographically_first():
    result = brute_force_min(2, 2, "i12")
    # (1,1),(2,2) is the smallest valid pair in row-major order
    assert result.witness.members == frozenset({(1, 1), (2, 2)})


def test_enumerate_valid_masks_consistent_with_minimum():
    for m, n in ((2, 2), (2, 4), (3, 3)):
        masks = enumerate_valid_masks(m, n, "i12")
        best = min(bin(s).count("1") for s in masks)
        assert best == brute_force_min(m, n, "i12").value
        for s in masks[:50]:
            assert verify_set(mask_to_grid_set(m, n, s)).ok


def test_bitmask_validity_agrees_with_verifier():
    # the oracle's bit-parallel validity test and the per-vertex verifier are
    # independent implementations; they must agree on every subset
    from quasidom.oracle import _BitGrid

    for m, n in ((2, 3), (3, 3), (3, 4), (4, 4)):
        grid = _BitGrid(m, n)
        for s in range(1 << (m * n)):
            assert grid.valid(s, "i12") == verify_set(mask_to_grid_set(m, n, s)).ok, (m, n, s)
