import itertools
import math
from types import SimpleNamespace

import pytest
from test_grids import reference_verify_set

from quasidom import oracle
from quasidom.errors import ConstructionError, UnsupportedGridError
from quasidom.grids import GridSet, verify_set
from quasidom.oracle import brute_force_min, enumerate_valid_masks, profile_dp_min


def test_known_small_values():
    assert brute_force_min(2, 2, "i12").value == 2
    assert brute_force_min(1, 3, "i12").value == 1
    assert brute_force_min(1, 3, "i12").witness.members == frozenset({(1, 2)})
    assert brute_force_min(4, 4, "i12").value == 4


def test_an_exhaustive_search_with_no_valid_subset_is_a_construction_error(monkeypatch):
    # every mask leaves a cell undominated
    monkeypatch.setattr(oracle, "rule_faults", lambda m, n, s: (0, 0, 1, 0, 0))
    with pytest.raises(ConstructionError, match="exhaustive oracle found no set of the 2 x 3 grid in mode i12;"):
        brute_force_min(2, 3)


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
    # in general: the first valid set of the minimum size in combination order
    # of the row-major cells, as the per-cell reference loop judges validity
    for m, n in ((1, 7), (2, 4), (3, 3), (2, 6), (3, 4)):
        cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        for mode in ("i12", "i"):
            result = brute_force_min(m, n, mode)
            for combo in itertools.combinations(cells, result.value):
                report = reference_verify_set(SimpleNamespace(m=m, n=n, members=frozenset(combo)))
                undominated = any(v.kind == "undominated" for v in report.violations)
                if report.ok if mode == "i12" else report.independent and not undominated:
                    break
            assert result.witness.sorted_members() == list(combo), (m, n, mode)


def test_enumerate_valid_masks_consistent_with_minimum():
    for m, n in ((2, 2), (2, 4), (3, 3)):
        masks = enumerate_valid_masks(m, n, "i12")
        best = min(bin(s).count("1") for s in masks)
        assert best == brute_force_min(m, n, "i12").value
        for s in masks[:50]:
            assert verify_set(GridSet.from_bits(m, n, s)).ok


def test_bitmask_validity_agrees_with_verifier():
    # the oracle's masks come from the bit test behind verify_set; on every
    # subset they must match the per-cell reference loop of test_grids, fed
    # plain tuples, in both modes
    for m, n in ((1, 7), (2, 3), (3, 3), (3, 4), (4, 4), (5, 3)):
        valid = {mode: set(enumerate_valid_masks(m, n, mode)) for mode in ("i12", "i")}
        for s in range(1 << (m * n)):
            cells = (divmod(c, n) for c in range(m * n) if s >> c & 1)
            members = frozenset((i + 1, j + 1) for i, j in cells)
            report = reference_verify_set(SimpleNamespace(m=m, n=n, members=members))
            undominated = any(v.kind == "undominated" for v in report.violations)
            assert (s in valid["i12"]) == report.ok, (m, n, s)
            assert (s in valid["i"]) == (report.independent and not undominated), (m, n, s)
