import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from quasidom.cli import main


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
