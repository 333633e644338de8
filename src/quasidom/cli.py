"""Command-line interface with stable, scriptable output.

Exit codes: 0 on success, 1 when a computation is infeasible or a
verification fails, 2 on usage errors.  With --json every result is a
single envelope object on stdout; errors become {"error": ...} objects.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .errors import (
    ConstructionError,
    InvalidSetError,
    MalformedSetError,
    MalformedWordError,
    PeriodNotFoundError,
    ResourceCapError,
    UnsupportedGridError,
)
from .grids import GridSet, extract_min_set, verify_set
from .oracle import (
    BRUTE_FORCE_CELL_LIMIT,
    PROFILE_COL_LIMIT,
    PROFILE_ROW_LIMIT,
    brute_force_min,
    profile_dp_min,
)
from .pattern import build_big_grid_set
from .solver import (
    DEFAULT_MAX_D,
    DEFAULT_MAX_N,
    closed_form,
    detect_period,
    solve_width,
    value,
)
from .words import enumerate_suitable, is_final, is_initial


def _render_value(v) -> str | int:
    return "infeasible" if v == math.inf else int(v)


def _envelope(command: str, inputs: dict, started: float, **fields) -> dict:
    env = {"command": command, "inputs": inputs}
    env.update(fields)
    env["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return env


def _emit(env: dict, args, human: str) -> None:
    if args.json:
        json.dump(env, sys.stdout)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(human + "\n")


def _emit_set(gs: GridSet, args) -> str:
    if args.ascii:
        return gs.to_ascii()
    return f"{len(gs)} members: " + " ".join(f"({i},{j})" for i, j in gs.sorted_members())


def _cmd_value(args) -> int:
    t = time.perf_counter()
    v = value(args.m, args.n)
    env = _envelope("value", {"m": args.m, "n": args.n}, t, value=_render_value(v))
    _emit(env, args, f"value({args.m},{args.n}) = {_render_value(v)}")
    return 0


def _cmd_solve(args) -> int:
    t = time.perf_counter()
    v = solve_width(args.m, args.n)
    env = _envelope("solve", {"m": args.m, "n": args.n}, t, value=_render_value(v))
    _emit(env, args, f"solve({args.m},{args.n}) = {_render_value(v)}")
    return 0 if v != math.inf else 1


def _cmd_formula(args) -> int:
    t = time.perf_counter()
    v = closed_form(args.m, args.n)
    env = _envelope("formula", {"m": args.m, "n": args.n}, t, value=v)
    _emit(env, args, f"formula({args.m},{args.n}) = {v}")
    return 0


def _cmd_period(args) -> int:
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
    t = time.perf_counter()
    gs, info = build_big_grid_set(args.m, args.n, with_info=True)
    env = _envelope(
        "pattern", {"m": args.m, "n": args.n}, t,
        value=len(gs), set=gs.to_json_dict(), construction=info,
    )
    _emit(env, args, f"pattern({args.m},{args.n}): |W| = {len(gs)}\n" + _emit_set(gs, args))
    return 0


def _cmd_extract(args) -> int:
    t = time.perf_counter()
    gs = extract_min_set(args.m, args.n)
    env = _envelope(
        "extract", {"m": args.m, "n": args.n}, t, value=len(gs), set=gs.to_json_dict()
    )
    _emit(env, args, f"extract({args.m},{args.n}): |S| = {len(gs)}\n" + _emit_set(gs, args))
    return 0


def _read_grid_set(path: str | None) -> GridSet:
    text = sys.stdin.read() if path is None else open(path, encoding="utf-8").read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
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
    t = time.perf_counter()
    m, n = args.m, args.n
    if m > n:
        m, n = n, m
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
    env = _envelope(
        "oracle", {"m": args.m, "n": args.n, "mode": args.mode}, t,
        value=_render_value(result.value),
        engine=engine,
        set=result.witness.to_json_dict() if result.witness else None,
    )
    human = f"oracle({args.m},{args.n},{args.mode}) = {_render_value(result.value)} [{engine}]"
    if result.witness and args.ascii:
        human += "\n" + result.witness.to_ascii()
    _emit(env, args, human)
    return 0 if result.value != math.inf else 1


def _cmd_words(args) -> int:
    t = time.perf_counter()
    table = enumerate_suitable(args.m)
    payload = {"m": args.m, "k": table.k}
    if args.list:
        payload["words"] = list(table.words)
        payload["initial"] = [w for w in table.words if is_initial(w)]
        payload["final"] = [w for w in table.words if is_final(w)]
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
    except (
        MalformedWordError,
        UnsupportedGridError,
        InvalidSetError,
        ResourceCapError,
        PeriodNotFoundError,
        ConstructionError,
        ValueError,
        OSError,
    ) as exc:
        if args.json:
            json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}}, sys.stdout)
            sys.stdout.write("\n")
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
