"""Command-line interface with stable, scriptable output.

Exit codes: 0 on success, 1 when a verification fails or a command ends
in an error (malformed input, a refused or unsupported request, or an
engine that broke its own invariant), 2 on usage errors.  Every grid has
an independent [1,2]-set, so every value is an integer.  With --json every
result is a single envelope object on stdout, written by the C JSON
encoder; errors become {"error": ...} objects.

Each command imports its engine when it runs, so the interpreter loads
only what the command needs: `--version`, `value` and `formula` (results
and error envelopes alike) run on the numpy-free formulas module.  `verify`
loads grids alone and `pattern` for m >= 16 adds pattern; neither loads
numpy, the DP modules (solver, tropical, words) or the oracle, and
`oracle` loads grids and the oracle alone.  No module of the package
imports dataclasses: its records are NamedTuples or plain classes.  So no
command loads dataclasses, and the numpy-free ones never load inspect,
which with ast, dis and tokenize costs a start more than verifying a set.
A set's JSON form is built only when the envelope is written.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import compress
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    ConstructionError,
    MalformedSetError,
    PeriodNotFoundError,
    ResourceCapError,
    UnsupportedGridError,
)
from .formulas import DEFAULT_MAX_D, DEFAULT_MAX_N

if TYPE_CHECKING:
    from .grids import GridSet


def _envelope(command: str, inputs: dict, started: float, **fields) -> dict:
    env = {"command": command, "inputs": inputs}
    env.update(fields)
    env["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return env


def _write_json(obj: dict) -> None:
    # json.dumps runs the C encoder; json.dump would stream through the pure-Python one.
    # A GridSet in the envelope becomes its JSON form here, so human mode never builds it.
    sys.stdout.write(json.dumps(obj, default=lambda gs: gs.to_json_dict()) + "\n")


def _emit(env: dict, args, human: str, gs: GridSet | None = None) -> None:
    """Write the envelope under --json, else the human text, followed by gs when given."""
    if args.json:
        _write_json(env)
        return
    if gs is not None:
        human += "\n" + _emit_set(gs, args)
    sys.stdout.write(human + "\n")


def _emit_set(gs: GridSet, args) -> str:
    if args.ascii:
        return gs.to_ascii()
    return f"{len(gs)} members: " + " ".join(f"({i},{j})" for i, j in gs.sorted_members())


def _answer(args, engine) -> int:
    """Time engine(m, n) and write its value as the command's envelope and line."""
    t = time.perf_counter()
    v = engine(args.m, args.n)
    env = _envelope(args.subcommand, {"m": args.m, "n": args.n}, t, value=v)
    _emit(env, args, f"{args.subcommand}({args.m},{args.n}) = {v}")
    return 0


def _cmd_value(args) -> int:
    from .formulas import value

    return _answer(args, value)


def _cmd_solve(args) -> int:
    from .solver import solve_width

    return _answer(args, solve_width)


def _cmd_formula(args) -> int:
    from .formulas import closed_form

    return _answer(args, closed_form)


def _cmd_period(args) -> int:
    from .solver import detect_period

    t = time.perf_counter()
    cert = detect_period(args.m, max_d=args.max_d, max_n=args.max_n)
    payload = {
        "m": cert.m,
        "n0": cert.n0,
        "d": cert.d,
        "c": cert.c,
        "boundary": {str(r): v for r, v in sorted(cert.boundary.items())},
    }
    env = _envelope(
        "period", {"m": args.m, "max_d": args.max_d, "max_n": args.max_n}, t,
        certificate=payload,
    )
    bnd = ", ".join(f"f({r})={v}" for r, v in sorted(cert.boundary.items()))
    _emit(env, args, f"m={cert.m}: n0={cert.n0} d={cert.d} c={cert.c}; {bnd}")
    return 0


def _cmd_pattern(args) -> int:
    from .pattern import build_big_grid_set, construction_info

    t = time.perf_counter()
    gs = build_big_grid_set(args.m, args.n)
    env = _envelope(
        "pattern", {"m": args.m, "n": args.n}, t,
        value=len(gs), set=gs, construction=construction_info(args.m, args.n),
    )
    _emit(env, args, f"pattern({args.m},{args.n}): |W| = {len(gs)}", gs)
    return 0


def _cmd_extract(args) -> int:
    from .grids import extract_min_set, verify_set

    t = time.perf_counter()
    gs = extract_min_set(args.m, args.n)
    if not verify_set(gs).ok:
        raise ConstructionError(f"extract({args.m},{args.n}) produced an invalid set")
    env = _envelope(
        "extract", {"m": args.m, "n": args.n}, t, value=len(gs), set=gs
    )
    _emit(env, args, f"extract({args.m},{args.n}): |S| = {len(gs)}", gs)
    return 0


def _read_grid_set(path: str | None) -> GridSet:
    from .grids import GridSet

    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedSetError(str(exc)) from exc
    if text.lstrip().startswith(("{", "[")):  # JSON: an object, or another value to refuse
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise MalformedSetError("set JSON is nested too deeply to parse") from exc
        except json.JSONDecodeError as exc:
            raise MalformedSetError(str(exc)) from exc
        if isinstance(data, dict) and isinstance(data.get("set"), dict):
            data = data["set"]  # accept a result envelope directly
        return GridSet.from_json_dict(data)
    return GridSet.from_ascii(text)


def _cmd_verify(args) -> int:
    from .grids import verify_set

    t = time.perf_counter()
    gs = _read_grid_set(args.file)
    report = verify_set(gs)
    env = _envelope(
        "verify", {"m": gs.m, "n": gs.n, "members": len(gs)}, t,
        valid=report.ok,
        independent=report.independent,
        dominated_ok=report.dominated_ok,
        violations=[
            {"vertex": list(v.vertex), "kind": v.kind, "detail": v.detail}
            for v in report.violations
        ],
    )
    if report.ok:
        _emit(env, args, f"valid independent [1,2]-set with {len(gs)} members")
        return 0
    lines = [f"INVALID ({len(report.violations)} violations)"]
    lines += [f"  {v.kind}: {v.detail}" for v in report.violations[:20]]
    _emit(env, args, "\n".join(lines))
    return 1


def _cmd_oracle(args) -> int:
    from .oracle import (
        BRUTE_FORCE_CELL_LIMIT,
        PROFILE_COL_LIMIT,
        PROFILE_ROW_LIMIT,
        brute_force_min,
        profile_dp_min,
    )

    t = time.perf_counter()
    m, n = sorted((args.m, args.n))
    if m * n <= BRUTE_FORCE_CELL_LIMIT:
        result = brute_force_min(m, n, args.mode)
        engine = "exhaustive"
    elif m <= PROFILE_ROW_LIMIT and n <= PROFILE_COL_LIMIT:
        result = profile_dp_min(m, n, args.mode)
        engine = "profile-dp"
    else:
        raise UnsupportedGridError(
            f"({args.m}, {args.n}) is beyond both oracle engines"
        )
    witness = result.witness
    if m != args.m:  # solved over the transposed grid
        witness = witness.transpose()
    env = _envelope(
        "oracle", {"m": args.m, "n": args.n, "mode": args.mode}, t,
        value=result.value,
        engine=engine,
        set=witness,
    )
    human = f"oracle({args.m},{args.n},{args.mode}) = {result.value} [{engine}]"
    _emit(env, args, human, witness if args.ascii else None)
    return 0


def _cmd_words(args) -> int:
    from .tropical import _INF, build_initial_vector, final_mask
    from .words import enumerate_suitable

    t = time.perf_counter()
    table = enumerate_suitable(args.m)
    payload = {"m": args.m, "k": table.k}
    if args.list:
        payload["words"] = list(table.words)
        payload["initial"] = list(compress(table.words, build_initial_vector(table) < _INF))
        payload["final"] = list(compress(table.words, final_mask(table)))
    env = _envelope("words", {"m": args.m}, t, **payload)
    human = f"m={args.m}: {table.k} suitable words"
    if args.list:
        human += "\n" + "\n".join(table.words)
    _emit(env, args, human)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasidom",
        description="Minimum independent [1,2]-dominating sets in grid graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON envelope")
    common.add_argument("--ascii", action="store_true", help="render sets as '#'/'.' rows")
    common.add_argument("--seed", type=int, default=None, help="reserved; everything is deterministic")
    common.add_argument("--threads", type=int, default=None, help="accepted for compatibility; results do not depend on it")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, help_, *specs):
        p = sub.add_parser(name, parents=[common], help=help_)
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        p.set_defaults(fn=fn)
        return p

    mn = [(["m"], {"type": int}), (["n"], {"type": int})]
    add("value", _cmd_value, "value by regime dispatch (formulas / pattern)", *mn)
    add("solve", _cmd_solve, "force the transfer-matrix dynamic program", *mn)
    add("formula", _cmd_formula, "published closed form (2 <= m <= 13)", *mn)
    add(
        "period", _cmd_period, "detect the finite-difference period certificate",
        (["m"], {"type": int}),
        (["--max-d"], {"type": int, "default": DEFAULT_MAX_D, "dest": "max_d"}),
        (["--max-n"], {"type": int, "default": DEFAULT_MAX_N, "dest": "max_n"}),
    )
    add("pattern", _cmd_pattern, "diagonal-pattern set for 14 <= m <= n", *mn)
    add("extract", _cmd_extract, "minimum set extracted from the DP trace", *mn)
    add(
        "verify", _cmd_verify, "check a set given as JSON or ASCII (stdin or --file)",
        (["--file"], {"type": str, "default": None}),
    )
    add(
        "oracle", _cmd_oracle, "independent brute-force / profile-DP ground truth",
        *mn,
        (["--mode"], {"choices": ["i12", "i"], "default": "i12"}),
    )
    add(
        "words", _cmd_words, "count (or list) the suitable column words",
        (["m"], {"type": int}),
        (["--list"], {"action": "store_true"}),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # every other quasidom.errors type is a ValueError
    except (ValueError, OSError, ResourceCapError, PeriodNotFoundError, ConstructionError) as exc:
        if args.json:
            _write_json({"error": {"type": type(exc).__name__, "message": str(exc)}})
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
