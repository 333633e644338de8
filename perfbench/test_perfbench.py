"""Tests of the benchmark's own parts: checker, inputs, spans, declared metrics.

Run from the root of the checkout:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibration  # noqa: E402
import checker  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from quasidom.oracle import BRUTE_FORCE_CELL_LIMIT, enumerate_valid_masks  # noqa: E402

SMALL_GRIDS = [
    (m, n)
    for m in range(1, BRUTE_FORCE_CELL_LIMIT + 1)
    for n in range(1, BRUTE_FORCE_CELL_LIMIT // m + 1)
]


def _mask_grids(m: int, n: int, lo: int, hi: int) -> np.ndarray:
    """Row-major bitmasks lo..hi-1 as boolean (count, m, n) arrays."""
    masks = np.arange(lo, hi, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(m * n, dtype=np.int64)) & 1
    return bits.astype(bool).reshape(-1, m, n)


@pytest.mark.parametrize("m,n", SMALL_GRIDS)
def test_checker_agrees_with_oracle(m, n):
    valid = np.zeros(1 << (m * n), dtype=bool)
    valid[enumerate_valid_masks(m, n)] = True
    chunk = 1 << 16
    for lo in range(0, 1 << (m * n), chunk):
        hi = min(lo + chunk, 1 << (m * n))
        got = checker.valid_12(_mask_grids(m, n, lo, hi))
        assert np.array_equal(got, valid[lo:hi]), (m, n, lo)
    sizes = [bin(s).count("1") for s in np.flatnonzero(valid)]
    assert min(sizes) == checker.expected_value(m, n)


def test_check_set_rejects_bad_sets():
    assert checker.check_set(2, 2, [(1, 1), (2, 2)]) is None
    assert "not an independent" in checker.check_set(2, 2, [(1, 1), (1, 2)])
    assert "not an independent" in checker.check_set(1, 5, [(1, 1), (1, 5)])  # (1,3) undominated
    # (2,2) of a 3x3 grid with all four side-centres around it is over-dominated
    assert "not an independent" in checker.check_set(3, 3, [(1, 2), (2, 1), (2, 3), (3, 2)])
    assert "outside" in checker.check_set(2, 2, [(3, 1)])
    assert "duplicate" in checker.check_set(2, 2, [(1, 1), (1, 1), (2, 2)])
    assert "expected" in checker.check_set(1, 6, [(1, 1), (1, 3), (1, 5)])  # valid, not minimum


def test_check_value_and_period():
    assert checker.check_value(7, 40, (5 * 40 + 3) // 3) is None
    assert checker.check_value(40, 20, 22 * 42 // 5 - 4) is None
    assert checker.check_value(1, 7, 3) is None
    assert checker.check_value(5, 5, 8) is not None
    assert checker.check_period(13, (73, 12, 36)) is None
    assert checker.check_period(12, (27, 13, 37)) is not None


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    a = inputs.generate(workload, 3, 10)
    assert a == inputs.generate(workload, 3, 10)
    assert a != inputs.generate(workload, 4, 10)


def test_warm_inputs():
    ops = inputs.generate("dp_extract_warm", 5, 10)
    assert len(ops) >= 100
    assert {op.kind for op in ops} == {"extract", "solve", "period"}
    assert sorted(op.args[0] for op in ops if op.kind == "period") == sorted(checker.PINNED_PERIODS)
    grids = [op.args for op in ops if op.kind != "period"]
    assert all(2 <= m <= 13 and m <= n <= 1500 for m, n in grids)
    for w in inputs.WARM_WIDTHS:
        kinds = {op.kind for op in ops if op.args[0] == w and op.kind != "period"}
        assert kinds == {"extract", "solve"}, w


def test_pattern_inputs():
    ops = inputs.generate("pattern_wide", 5, 10)
    small = [op.args for op in ops if op.args not in inputs.PATTERN_LARGE]
    assert len(small) >= 100
    assert all(16 <= m <= n <= 60 for m, n in small)
    assert {(m % 5, n % 5) for m, n in small} == {(a, b) for a in range(5) for b in range(5)}
    assert {op.args for op in ops} >= set(inputs.PATTERN_LARGE)


def test_cli_inputs():
    ops = inputs.generate("cli_roundtrip", 5, 10)
    assert len(ops) >= 100
    kinds = [op.kind for op in ops]
    assert kinds.count("error") / len(ops) == pytest.approx(0.1, abs=0.02)
    assert any(op.known_defect for op in ops)
    for i, op in enumerate(ops):
        if op.kind == "verify":
            assert op.pipe_from == i - 1 and ops[i - 1].kind in ("extract", "pattern")
        if op.kind == "extract":
            assert op.meta["m"] <= 9
        if op.kind == "pattern":
            assert 16 <= op.meta["m"] <= 40
    regimes = {min(op.meta["m"], op.meta["n"]) for op in ops if op.kind == "value"}
    assert min(regimes) == 1 and max(regimes) >= 14 and any(2 <= r <= 13 for r in regimes)


def test_self_times_subtract_direct_children():
    spans = [
        ["op", 0.0, 10.0, -1, 0, 0, None],
        ["solver.run_dp", 1.0, 9.0, 0, 0, 0, None],
        ["tropical.mat_vec", 2.0, 3.0, 1, 0, 0, {"m": 4}],
        ["tropical.mat_vec", 4.0, 7.0, 1, 0, 0, {"m": 4}],
    ]
    assert tracing.self_times(spans) == [2.0, 4.0, 1.0, 3.0]
    metrics = tracing.layer_metrics(spans)
    assert metrics["tropical.mat_vec_us.m4"] == pytest.approx(2e6)
    assert metrics["solver.self_s"] == pytest.approx(4.0)
    assert metrics["trace.unattributed_s"] == pytest.approx(2.0)


def test_instrument_records_nested_layer_spans():
    code = (
        "import sys, json; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracing, quasidom.grids as g\n"
        "rec = tracing.Recorder(); tracing.instrument(rec)\n"
        "g.extract_min_set(3, 6)\n"
        "print(json.dumps(rec.spans))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout
    spans = json.loads(out)
    names = [s[0] for s in spans]
    assert names[0] == "grids.extract_min_set"
    assert names[1] == "solver.run_dp" and spans[1][3] == 0
    assert "words.enumerate_suitable" in names and "tropical.build_transition_matrix" in names
    assert names.count("tropical.mat_vec") == 5
    metrics = tracing.layer_metrics(spans)
    assert metrics["words.k"] > 0 and metrics["tropical.finite_entries"] > 0
    assert metrics["solver.trace_mb"] > 0


def test_declared_metrics_match_what_the_runs_print():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert e2e == run.E2E_UNITS
    printed = set(tracing.layer_metrics([])) | {"cli.stdout_bytes", "trace.wall_s", "trace.overhead_s"}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(layers) == printed
    assert all(run.layer_unit(name) == unit for name, unit in layers.items())
    assert [w["name"] for w in declared["workloads"]] == list(inputs.WORKLOADS)
    assert tuple(run.WORKLOADS) == inputs.WORKLOADS


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pattern_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaling_by_the_speed_probes():
    ref = calibration.REFERENCE_S
    # probes twice as slow as the reference halve the time in between
    assert calibration.speed([2 * ref, 2 * ref, 5 * ref]) == pytest.approx(0.5)
    worker = {"op_s": [1.0, 3.0], "cal": [ref, 2 * ref, 2 * ref]}
    assert run.scaled_ops(worker) == pytest.approx([1.0 / 1.5, 3.0 / 2])
    points = [[10.0, [ref]], [10.5, [ref]], [12.5, [4 * ref]]]
    assert run.scaled_setup(points) == pytest.approx(0.5 + 2.0 / 2.5)
    assert calibration.probe() > 0
