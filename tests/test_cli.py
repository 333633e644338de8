import contextlib
import functools
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import quasidom
import quasidom.cli
import quasidom.errors
import quasidom.grids
from quasidom.cli import main
from quasidom.grids import GridSet
from quasidom.solver import DPWindow


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_value_json(capsys):
    code, env = run_json(capsys, "value", "2", "4")
    assert code == 0
    assert env["value"] == 3
    assert env["command"] == "value"
    assert env["inputs"] == {"m": 2, "n": 4}
    assert "elapsed_ms" in env



def test_extract_refuses_a_set_that_fails_verification(capsys, monkeypatch):
    size = len(quasidom.grids.extract_min_set(5, 7))
    bad = GridSet.from_bits(5, 7, (1 << size) - 1)  # the right size, but members side by side
    monkeypatch.setattr(quasidom.grids, "extract_min_set", lambda m, n: bad)
    code, env = run_json(capsys, "extract", "5", "7")
    assert code == 1
    assert env == {"error": {"type": "ConstructionError", "message": "extract(5,7) produced an invalid set"}}

def test_an_extracted_set_short_of_the_dp_value_is_an_error_envelope(capsys, monkeypatch):
    backtrack = DPWindow.backtrack

    def one_member_short(self, n):
        zeros, best = backtrack(self, n)
        zeros = zeros.copy()
        zeros.flat[zeros.argmax()] = False  # drop the first member
        return zeros, best

    monkeypatch.setattr(DPWindow, "backtrack", one_member_short)
    code, env = run_json(capsys, "extract", "4", "9")
    assert code == 1
    assert env == {"error": {"type": "ConstructionError", "message": (
        "extracted set of 9 disagrees with the DP value 10 for (4, 9); this is a bug"
    )}}


def test_verify_reads_input_opening_with_a_bracket_as_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(" [[1, 1]]\n"))
    code, env = run_json(capsys, "verify")
    assert code == 1
    assert env == {"error": {"type": "MalformedSetError", "message": "a set must be an object, got list"}}


def test_value_human(capsys):
    code, out = run(capsys, "value", "5", "5")
    assert code == 0
    assert "7" in out


def test_solve_and_formula_agree(capsys):
    _, solved = run_json(capsys, "solve", "3", "9")
    _, formula = run_json(capsys, "formula", "3", "9")
    assert solved["value"] == formula["value"] == 7


def test_period_envelope(capsys):
    code, env = run_json(capsys, "period", "6")
    assert code == 0
    cert = env["certificate"]
    assert (cert["n0"], cert["d"], cert["c"]) == (9, 7, 10)
    assert cert["boundary"]["9"] == 14


def test_words_count(capsys):
    code, env = run_json(capsys, "words", "2", "--list")
    assert code == 0
    assert env["k"] == 6
    assert env["words"] == ["01", "02", "10", "13", "20", "31"]
    assert env["initial"] == ["01", "10"]


def test_extract_verify_round_trip(capsys, tmp_path):
    code, env = run_json(capsys, "extract", "3", "7")
    assert code == 0
    assert env["value"] == 6
    path = tmp_path / "set.json"
    path.write_text(json.dumps(env["set"]))
    code, verdict = run_json(capsys, "verify", "--file", str(path))
    assert code == 0
    assert verdict["valid"] is True


def test_verify_file_is_closed(capsys, tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("2 2\n#.\n.#\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, verdict = run_json(capsys, "verify", "--file", str(path))
        gc.collect()  # an unclosed handle would warn when it is collected
    assert code == 0 and verdict["valid"] is True
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_verify_ascii_and_failure(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n#.\n..\n")
    code, verdict = run_json(capsys, "verify", "--file", str(path))
    assert code == 1
    assert verdict["valid"] is False
    assert verdict["violations"][0]["kind"] == "undominated"


def test_pattern_command(capsys):
    code, env = run_json(capsys, "pattern", "14", "18")
    assert code == 0
    assert env["value"] == 60
    assert env["set"]["m"] == 14


def test_oracle_command(capsys):
    code, env = run_json(capsys, "oracle", "2", "5")
    assert code == 0
    assert env["value"] == 3
    assert env["engine"] == "exhaustive"
    code, env = run_json(capsys, "oracle", "3", "9", "--mode", "i")
    assert code == 0
    assert env["engine"] == "profile-dp"


@pytest.mark.parametrize("m,n,engine", [(5, 3, "exhaustive"), (7, 4, "profile-dp")])
def test_oracle_witness_has_the_requested_shape(capsys, monkeypatch, m, n, engine):
    code, env = run_json(capsys, "oracle", str(m), str(n))
    assert code == 0 and env["engine"] == engine
    assert env["inputs"]["m"] == env["set"]["m"] == m
    assert env["inputs"]["n"] == env["set"]["n"] == n
    _, swapped = run_json(capsys, "oracle", str(n), str(m))
    assert env["value"] == swapped["value"] == len(env["set"]["members"])
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(env)))
    code, verdict = run_json(capsys, "verify")
    assert code == 0 and verdict["valid"] is True
    code, out = run(capsys, "oracle", str(m), str(n), "--ascii")
    assert out.splitlines()[1] == f"{m} {n}" and len(out.splitlines()) == m + 2


def test_error_paths(capsys):
    code, env = run_json(capsys, "formula", "14", "20")
    assert code == 1
    assert env["error"]["type"] == "UnsupportedGridError"
    code, env = run_json(capsys, "oracle", "8", "30")
    assert code == 1
    code, out = run(capsys, "solve", "1", "9")
    assert code == 1


def test_pattern_outside_its_domain_is_a_typed_error(capsys):
    for argv in (("14", "-3"), ("13", "20")):
        code, env = run_json(capsys, "pattern", *argv)
        assert code == 1
        assert env["error"]["type"] == "UnsupportedGridError"


# solve and extract refuse a single row; the text names the commands that answer a path
SINGLE_ROW_REFUSAL = (
    "the word machinery needs at least 2 rows; for a path of N vertices, "
    "use `value 1 N` for its value, or `oracle 1 N` for a set when N <= 50"
)


def test_the_single_row_refusal_names_commands_that_answer_a_path(capsys):
    from quasidom.oracle import PROFILE_COL_LIMIT

    n = PROFILE_COL_LIMIT
    assert SINGLE_ROW_REFUSAL.endswith(f"N <= {n}")
    for argv in (["value", "1", str(n)], ["oracle", "1", str(n)]):
        code, env = run_json(capsys, *argv)
        assert code == 0 and env["value"] == (n + 2) // 3, argv
    code, env = run_json(capsys, "oracle", "1", str(n + 1))
    assert code == 1 and env["error"]["type"] == "UnsupportedGridError"


@pytest.mark.parametrize(
    "argv",
    [
        *[["value", str(m), str(m + 5)] for m in range(1, 14)],
        ["value", "14", "20"],
        ["value", "20", "30"],
        ["solve", "4", "10"],
        ["solve", "12", "5"],
        ["formula", "5", "7"],
        ["oracle", "5", "3"],
        ["oracle", "4", "30"],
        ["oracle", "3", "5", "--mode", "i"],
        ["pattern", "14", "20"],
        ["extract", "4", "9"],
    ],
)
def test_every_value_is_a_json_integer(capsys, argv):
    # a value of 3.0 would pass an == test
    code, env = run_json(capsys, *argv)
    assert code == 0
    assert type(env["value"]) is int


@pytest.mark.parametrize("m", range(2, 14))
def test_every_period_boundary_value_is_a_json_integer(capsys, m):
    code, env = run_json(capsys, "period", str(m))
    assert code == 0
    assert env["certificate"]["boundary"]
    assert all(type(v) is int for v in env["certificate"]["boundary"].values())


@pytest.mark.parametrize(
    "argv,message",
    [
        (["solve", "0", "5"], "grid dimensions must be positive, got (0, 5)"),
        (["solve", "5", "0"], "grid dimensions must be positive, got (5, 0)"),
        (["extract", "0", "5"], "grid dimensions must be positive, got (0, 5)"),
        (["extract", "-1", "-1"], "grid dimensions must be positive, got (-1, -1)"),
        (["solve", "1", "5"], SINGLE_ROW_REFUSAL),
        (["period", "5", "--max-n", "0"], "period bound max_n must be positive, got 0"),
        (["period", "5", "--max-d", "0"], "period bound max_d must be positive, got 0"),
        (["extract", "1", "5"], SINGLE_ROW_REFUSAL),
    ],
)
def test_non_positive_sides_and_bounds_are_refused_before_any_work(capsys, monkeypatch, argv, message):
    # the refusal comes before the width's machinery is looked up, let alone a window grown
    def no_work(m):
        raise AssertionError(f"machinery({m}) was reached")

    monkeypatch.setattr("quasidom.solver.machinery", no_work)
    code, env = run_json(capsys, *argv)
    assert code == 1
    assert env == {"error": {"type": "UnsupportedGridError", "message": message}}


def _error_types():
    return [
        obj
        for obj in vars(quasidom.errors).values()
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == "quasidom.errors"
    ]


@pytest.mark.parametrize("error", _error_types(), ids=lambda cls: cls.__name__)
def test_every_package_error_is_an_error_envelope(capsys, monkeypatch, error):
    # a new error type that main does not catch would escape as a traceback
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(quasidom.cli, "_cmd_value", fail)
    code, env = run_json(capsys, "value", "2", "4")
    assert code == 1
    assert env == {"error": {"type": error.__name__, "message": "boom"}}
    assert main(["value", "2", "4"]) == 1
    assert capsys.readouterr().err == "error: boom\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["value", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_ascii_rendering(capsys):
    code, out = run(capsys, "extract", "2", "2", "--ascii")
    assert code == 0
    assert "2 2" in out
    assert "#" in out


def test_verify_accepts_piped_envelope(capsys, monkeypatch, tmp_path):
    # extract --json | verify --json
    _, env = run_json(capsys, "extract", "4", "6")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(env)))
    code, verdict = run_json(capsys, "verify")
    assert code == 0 and verdict["valid"] is True


def test_results_do_not_depend_on_threads_or_seed(capsys):
    _, a = run_json(capsys, "solve", "4", "10")
    _, b = run_json(capsys, "solve", "4", "10", "--threads", "7", "--seed", "42")
    assert a["value"] == b["value"]
    _, a = run_json(capsys, "extract", "3", "8")
    _, b = run_json(capsys, "extract", "3", "8", "--seed", "1")
    assert a["set"] == b["set"]


@pytest.mark.parametrize(
    "text",
    [
        '{"m": 2}',
        '{"n": 2, "members": []}',
        '{"m": 2, "members": []}',
        '{"m": 2, "n": 2, "members": 5}',
        '{"m": 2, "n": 2, "members": [[1, "a"]]}',
        '{"m": 2, "n": 2, "members": [[1]]}',
        '{"m": 2, "n": 2, "members": [3]}',
        '{"m": 2, "n": 2, "members": [[3, 1]]}',
        '{"m": 0, "n": 2, "members": []}',
        '{"m": 2, "n": ',
        "",
        "  \n",
        "5\n",
        "2 x\n#.\n..\n",
        "2 2\n#.\n",
        "2 2\n#.\n...\n",
        "2 2\n#.\n.x\n",
        "0 3\n",
    ],
)
def test_verify_rejects_malformed_set_objects(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, env = run_json(capsys, "verify")
    assert code == 1
    assert env["error"]["type"] == "MalformedSetError"


# the exact messages; an out-of-range vertex is the first one in the iteration
# order of the members as a frozenset of tuples, which is not the list order
@pytest.mark.parametrize(
    "text,message",
    [
        ("2 2\n#.\n.x\n", "unexpected cell 'x' at (2, 2)"),
        ("2 2\n#x\n...\n", "unexpected cell 'x' at (1, 2)"),
        ("2 2\n#.\n.é\n", "unexpected cell 'é' at (2, 2)"),
        ("2 3\n#..\n..\n", "row 2 has 2 cells, expected 3"),
        ("0 -3\n", "grid dimensions must be positive, got (0, -3)"),
        (
            '{"m": 2, "n": 2, "members": [[3, 1], [1, 5], [0, 0]]}',
            "vertex (3, 1) outside the 2x2 grid",
        ),
        (
            '{"m": 2, "n": 2, "members": [[1, 5], [0, 0], [3, 1]]}',
            "vertex (0, 0) outside the 2x2 grid",
        ),
        (
            '{"m": 3, "n": 3, "members": [[1, 1], [4, 4], [2, 2], [1, 0]]}',
            "vertex (4, 4) outside the 3x3 grid",
        ),
        (
            '{"m": 2, "n": 2, "members": [[100000000000000000000000000000, 1]]}',
            "vertex (100000000000000000000000000000, 1) outside the 2x2 grid",
        ),
        (
            '{"m": 2, "n": 2, "members": [[1, -100000000000000000000000000000]]}',
            "vertex (1, -100000000000000000000000000000) outside the 2x2 grid",
        ),
    ],
)
def test_verify_error_messages(capsys, monkeypatch, text, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, env = run_json(capsys, "verify")
    assert code == 1
    assert env["error"] == {"type": "MalformedSetError", "message": message}


def test_verify_rejects_deeply_nested_members(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"m":2,"n":2,"members":' + "[" * 100_000))
    code, env = run_json(capsys, "verify")
    assert code == 1
    assert env["error"]["type"] == "MalformedSetError"


def test_solve_normalizes_orientation(capsys):
    code, wide = run_json(capsys, "solve", "20", "5")
    assert code == 0
    _, narrow = run_json(capsys, "solve", "5", "20")
    assert wide["value"] == narrow["value"] == 25
    assert wide["inputs"] == {"m": 20, "n": 5}


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["verify"], '{"m": 100000, "n": 100000, "members": []}'),
        (["pattern", "100000", "100000"], ""),
        (["extract", "2", "3000000"], ""),
        (["solve", "20", "30"], ""),
        (["words", "100"], ""),
    ],
)
def test_oversized_grids_are_refused_up_front(capsys, monkeypatch, argv, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    started = time.perf_counter()
    code, env = run_json(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 1
    assert env["error"]["type"] == "ResourceCapError"


def _small(lo, hi):
    return st.integers(min_value=lo, max_value=hi).map(str)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_SET_LIKE_JSON = st.fixed_dictionaries(
    {},
    optional={"m": _JSON_VALUES, "n": _JSON_VALUES, "members": _JSON_VALUES, "set": _JSON_VALUES},
).map(json.dumps)
_ASCII_SETS = st.builds(
    lambda header, rows: header + "\n" + "\n".join(rows),
    st.sampled_from(["", "3 3", "2 4", "0 3", "x 2", "3", "-1 2"]),
    st.lists(st.text(alphabet="#.x ", max_size=5), max_size=4),
)
_VERIFY_INPUT = st.one_of(
    st.text(max_size=40), _SET_LIKE_JSON, _SET_LIKE_JSON.map(lambda t: t[: len(t) // 2]), _ASCII_SETS
).map(lambda text: (["verify"], text))
# DP widths stay at most 13 whatever the orientation; pattern grids at most 40
_ARGV_INPUT = st.one_of(
    st.tuples(st.sampled_from(["value", "formula"]), _small(-5, 10**6), _small(-5, 10**6)),
    st.tuples(st.sampled_from(["solve", "extract"]), _small(-2, 13), _small(-2, 40)),
    st.tuples(st.just("pattern"), _small(-2, 40), _small(-2, 40)),
    st.tuples(st.just("period"), _small(-2, 13)),
    st.tuples(
        st.just("period"), _small(-2, 13), st.just("--max-d"), _small(-2, 20), st.just("--max-n"),
        _small(-2, 120),
    ),
    st.lists(st.text(alphabet="-0123456789abx", max_size=6), max_size=3).map(
        lambda tail: ["solve", *tail]
    ),
).map(lambda argv: (list(argv), ""))


@settings(deadline=None, max_examples=300)
@given(_VERIFY_INPUT | _ARGV_INPUT)
def test_cli_input_contract(case):
    """Every input ends in exit 0 or 1 with one JSON object on stdout, or in a usage exit 2."""
    argv, stdin = case
    out = io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--json"])
    except SystemExit as exc:
        assert exc.code == 2
        return
    finally:
        sys.stdin = saved_stdin
    assert code in (0, 1)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    env = json.loads(lines[0])
    assert isinstance(env, dict)
    if "error" in env:
        assert code == 1
        assert isinstance(env["error"]["type"], str)
        assert isinstance(env["error"]["message"], str)
    else:
        assert env["command"] == argv[0]


def test_large_envelope_keeps_the_streaming_encoder_bytes(capsys):
    """The envelope written by the C encoder is byte for byte what json.dump wrote."""
    code, out = run(capsys, "pattern", "1000", "2000", "--json")
    assert code == 0
    env = json.loads(out)
    del env["elapsed_ms"]
    streamed = io.StringIO()
    json.dump(env, streamed)
    assert re.sub(r', "elapsed_ms": [0-9.e+-]+', "", out) == streamed.getvalue() + "\n"
    assert env["value"] == 401_196


_SMALL_SET = '{"m": 2, "n": 3, "members": [[1, 1], [2, 3]]}'


def _modules_loaded_by(argv, stdin=""):
    """Exit code, stdout and the loaded module names of one `python -m quasidom` run."""
    script = (
        "import json, runpy, sys\n"
        "sys.argv, code = ['quasidom', *json.loads(sys.argv[1])], None\n"
        "try:\n"
        "    runpy.run_module('quasidom', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "sys.stderr.write('\\n' + json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        input=stdin, capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    code, modules = json.loads(proc.stderr.rsplit("\n", 1)[-1])
    return code, proc.stdout, set(modules)


# what dataclasses costs a start: it loads inspect, which loads ast, dis and tokenize
_HEAVY_MODULES = frozenset({"dataclasses", "inspect"})


@functools.lru_cache(maxsize=None)
def _loaded_at_start():
    """The modules a bare interpreter in this environment has loaded before any code runs."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60, check=True,
    )
    return frozenset(proc.stdout.split())


def _subprocess_env(**extra):
    """This environment with the imported quasidom first on PYTHONPATH, plus extra."""
    src = str(Path(quasidom.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


_UNDECODABLE_SET = b"2 2\n#\xff\n..\n"
_UNDECODABLE_MESSAGE = "'utf-8' codec can't decode byte 0xff in position 5: invalid start byte"


def test_an_undecodable_set_file_is_a_malformed_set(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(_UNDECODABLE_SET)
    code, env = run_json(capsys, "verify", "--file", str(path))
    assert code == 1
    assert env["error"] == {"type": "MalformedSetError", "message": _UNDECODABLE_MESSAGE}


def test_undecodable_set_text_on_a_strict_stdin_is_a_malformed_set():
    proc = subprocess.run(
        [sys.executable, "-m", "quasidom", "verify", "--json"],
        input=_UNDECODABLE_SET, capture_output=True, timeout=60,
        env=_subprocess_env(PYTHONIOENCODING="utf-8:strict"),
    )
    assert proc.returncode == 1
    env = json.loads(proc.stdout)
    assert env["error"] == {"type": "MalformedSetError", "message": _UNDECODABLE_MESSAGE}


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--version"], 0),
        (["value", "1", "40", "--json"], 0),
        (["value", "9", "100", "--json"], 0),
        (["value", "20", "30", "--json"], 0),
        (["value", "300", "7", "--json"], 0),
        (["value", "9", "100"], 0),
        (["formula", "6", "100", "--json"], 0),
        (["formula", "14", "20", "--json"], 1),
        (["value", "0", "5", "--json"], 1),
        (["value", "-3", "5", "--json"], 1),
    ],
)
def test_closed_form_commands_start_without_numpy(argv, code):
    got, out, modules = _modules_loaded_by(argv)
    assert got == code
    assert out.strip()
    assert "numpy" not in modules
    assert not modules & (_HEAVY_MODULES - _loaded_at_start())


@pytest.mark.parametrize("argv", [["oracle", "3", "5", "--json"], ["oracle", "4", "20", "--json"]])
def test_the_oracle_never_loads_numpy_or_the_dp(argv):
    code, out, modules = _modules_loaded_by(argv)
    assert code == 0 and json.loads(out)["command"] == "oracle"
    assert "quasidom.oracle" in modules
    assert "numpy" not in modules
    assert not modules & {"quasidom.solver", "quasidom.tropical", "quasidom.words"}
    assert not modules & (_HEAVY_MODULES - _loaded_at_start())


@pytest.mark.parametrize(
    "argv,stdin,key,want",
    [
        (["verify", "--json"], _SMALL_SET, "valid", True),
        (["pattern", "16", "16", "--json"], "", "value", 60),
        (["verify", "--json"], '{"m": 2, "n": 3, "members": [[1, 1]]}', "valid", False),
        (["verify", "--json"], "2 2\n#.\n.x\n", "error", {
            "type": "MalformedSetError", "message": "unexpected cell 'x' at (2, 2)"}),
        (["pattern", "20", "30", "--json"], "", "value", 136),
    ],
)
def test_verify_and_wide_patterns_never_load_the_dp_or_the_oracle(argv, stdin, key, want):
    code, out, modules = _modules_loaded_by(argv, stdin)
    assert code == int(key == "error" or want is False)
    assert json.loads(out)[key] == want
    assert "quasidom.grids" in modules
    assert "numpy" not in modules
    assert not modules & {"quasidom.solver", "quasidom.oracle", "quasidom.tropical", "quasidom.words"}
    assert not modules & (_HEAVY_MODULES - _loaded_at_start())


@pytest.mark.parametrize(
    "argv",
    [
        ["pattern", "16", "21"],
        ["pattern", "17", "19", "--ascii"],
        ["extract", "4", "9"],
        ["extract", "3", "7", "--ascii"],
        ["oracle", "3", "5", "--ascii"],
        ["oracle", "3", "9", "--mode", "i", "--ascii"],
    ],
)
def test_human_mode_never_builds_the_json_set(capsys, monkeypatch, argv):
    want = run(capsys, *argv)

    def refuse(self):
        raise AssertionError("to_json_dict called in human mode")

    monkeypatch.setattr(GridSet, "to_json_dict", refuse)
    assert run(capsys, *argv) == want


def test_lazy_package_names_resolve_to_their_home_modules():
    for name in quasidom.__all__:
        home = importlib.import_module(f"quasidom.{quasidom._HOMES[name]}")
        assert getattr(quasidom, name) is getattr(home, name)
    with pytest.raises(AttributeError):
        quasidom.no_such_name
    namespace = {}
    exec("from quasidom import *", namespace)
    assert set(quasidom.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(quasidom, name) for name in quasidom.__all__)
