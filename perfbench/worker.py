"""Run one workload in a fresh process and report its timings as one JSON line.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
                                   [--setup-only]

perfbench/run.py starts this script; it is not meant to be run by hand.  The
process imports the package from the checkout's src/, runs the workload's
set-up, reports the time.monotonic() instant at which it was ready, then runs
every op once, sequentially (closed loop, one client), with a probe of the
host's speed (calibration.py) before each op and after the last.  Every
output is checked with perfbench/checker.py outside the op's timed interval.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import calibration
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
OP_TIMEOUT_S = 60.0
# probes of the host's speed (calibration.py) taken at each point of set-up
SETUP_PROBES = 5

_probe_s = 0.0  # time spent in set-up probes, taken out of the set-up time
_setup_points: list[list] = []


def probe_setup() -> None:
    """Mark a point of the set-up and sample the host's speed there.

    Each mark is [time.monotonic() with the probes' own time taken out,
    probe samples]; run.py scales each stretch between marks by its probes.
    """
    global _probe_s
    start = time.monotonic()
    samples = [calibration.probe() for _ in range(SETUP_PROBES)]
    _setup_points.append([start - _probe_s, samples])
    _probe_s += time.monotonic() - start


class InProcess:
    """Shared set-up for the workloads that call the package directly."""

    span_prefix = ""
    defer_checks = False

    def __init__(self, rec):
        self.rec = rec

    def setup(self) -> None:
        import quasidom.grids
        import quasidom.pattern
        import quasidom.solver

        if self.rec is not None:
            tracing.instrument(self.rec)
        self.solver = quasidom.solver
        self.grids = quasidom.grids
        self.pattern = quasidom.pattern

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def after(self) -> None:
        pass


class Warm(InProcess):
    def setup(self) -> None:
        super().setup()
        probe_setup()
        for w in inputs.WARM_WIDTHS:
            self.solver.machinery(w)
            probe_setup()

    def run(self, i, op):
        if op.kind == "period":
            cert = self.solver.detect_period(*op.args)
            return cert.n0, cert.d, cert.c
        if op.kind == "solve":
            return self.solver.solve_width(*op.args)
        s = self.grids.extract_min_set(*op.args)
        return s, self.grids.verify_set(s).ok

    def check(self, i, op, out):
        import checker

        if op.kind == "period":
            return checker.check_period(*op.args, out)
        if op.kind == "solve":
            return checker.check_value(*op.args, out)
        s, ok = out
        return checker.check_set(*op.args, s.members) or (
            None if ok else "verify_set rejected a set the checker accepts"
        )


class Pattern(InProcess):
    def run(self, i, op):
        s = self.pattern.build_big_grid_set(*op.args)
        return s, self.grids.verify_set(s).ok

    check = Warm.check


class CliResult:
    def __init__(self, proc: subprocess.CompletedProcess):
        self.code = proc.returncode
        self.stdout = proc.stdout
        self.stderr = proc.stderr

    def envelope(self):
        try:
            env = json.loads(self.stdout)
        except ValueError:
            return None
        return env if isinstance(env, dict) else None


class Cli:
    """Sequential `python -m quasidom` invocations against the checkout's src/."""

    span_prefix = "cli."
    # the checker imports numpy, and a child's ru_maxrss starts at its
    # parent's, so outputs are checked only after the last child has ended
    defer_checks = True

    def __init__(self, rec):
        self.rec = rec
        self.outputs: dict[int, CliResult] = {}
        self.child_spans: list[tuple[int, Path]] = []

    def _invoke(self, args, stdin, spans_path=None) -> CliResult:
        if spans_path is None:
            cmd = [sys.executable, "-m", "quasidom", *args]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "clitrace.py"), str(spans_path), *args]
        proc = subprocess.run(
            cmd, input=stdin, capture_output=True, text=True,
            timeout=OP_TIMEOUT_S, env=self.env, cwd=ROOT,
        )
        return CliResult(proc)

    def setup(self) -> None:
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        # warm-up: the first start of the interpreter on these files
        self._invoke(["--version"], None)

    def run(self, i, op):
        stdin = op.stdin
        if op.pipe_from is not None:
            stdin = self.outputs[op.pipe_from].stdout
        spans_path = None
        if self.rec is not None:
            spans_path = OUT_DIR / f"cli-{os.getpid()}-{i}.json"
            self.child_spans.append((self.rec.stack[-1], spans_path))
        out = self._invoke(list(op.args), stdin, spans_path)
        self.outputs[i] = out
        return out

    def peak_rss_mb(self) -> float:
        # the largest child
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def after(self) -> None:
        for parent, path in self.child_spans:
            with open(path, encoding="utf-8") as fh:
                self.rec.adopt(json.load(fh)["spans"], parent)
            path.unlink()

    def stdout_bytes(self) -> int:
        return sum(len(out.stdout.encode()) for out in self.outputs.values())

    def check(self, i, op, out: CliResult):
        import checker

        env = out.envelope()
        if op.kind == "version":
            ok = out.code == 0 and re.fullmatch(r"quasidom \d+\.\d+\.\d+\s*", out.stdout)
            return None if ok else f"exit {out.code}, stdout {out.stdout[:80]!r}"
        if op.kind == "error":
            err = (env or {}).get("error")
            if out.code == op.expect_exit and isinstance(err, dict) and {"type", "message"} <= set(err):
                return None
            return f"exit {out.code}, no error envelope; stderr tail {out.stderr[-120:]!r}"
        if out.code != 0 or env is None:
            return f"exit {out.code}; stderr tail {out.stderr[-120:]!r}"
        if op.kind == "value":
            return checker.check_value(op.meta["m"], op.meta["n"], env.get("value"))
        if op.kind in ("extract", "pattern"):
            m, n = op.meta["m"], op.meta["n"]
            gs = env.get("set") or {}
            if (gs.get("m"), gs.get("n")) != (m, n):
                return f"set is for ({gs.get('m')}, {gs.get('n')}), asked ({m}, {n})"
            members = [tuple(v) for v in gs.get("members", [])]
            if env.get("value") != len(members):
                return f"envelope value {env.get('value')} != {len(members)} members"
            return checker.check_set(m, n, members)
        # verify of a set produced by the op it is piped from
        source = self.outputs[op.pipe_from].envelope() or {}
        want = len((source.get("set") or {}).get("members", []))
        if env.get("valid") is not True or env.get("inputs", {}).get("members") != want:
            return f"verify said valid={env.get('valid')} members={env.get('inputs')}"
        return None


def known_defect_seen(op, out) -> bool:
    """The listed crash: exit 1 with a KeyError traceback and nothing on stdout."""
    return (
        op.known_defect == inputs.KNOWN_DEFECT_MISSING_MEMBERS
        and isinstance(out, CliResult)
        and out.code == 1
        and not out.stdout.strip()
        and "KeyError" in out.stderr
    )


RUNNERS = {
    "dp_extract_warm": Warm,
    "pattern_wide": Pattern,
    "cli_roundtrip": Cli,
}


def describe(op) -> str:
    text = f"{op.kind} {' '.join(map(str, op.args))}"
    if op.stdin is not None:
        text += f" <stdin {op.stdin[:40]!r}>"
    if op.pipe_from is not None:
        text += f" <stdout of op {op.pipe_from}>"
    return text


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    probe_setup()

    ops = inputs.generate(args.workload, args.seed, args.seconds)
    rec = tracing.Recorder() if args.trace else None
    runner = RUNNERS[args.workload](rec)
    if rec is not None:
        OUT_DIR.mkdir(exist_ok=True)
        setup_span = rec.open("setup")
    runner.setup()
    if rec is not None:
        rec.close(setup_span)
    probe_setup()
    setup_info = {"ready": _setup_points[-1][0], "setup_points": _setup_points}
    if args.setup_only:
        print(json.dumps(setup_info), flush=True)
        return 0

    times, cal, pending, failures, known = [], [], [], [], []

    def judge(i, op, out, error, seconds):
        reason = error
        if reason is None and seconds > OP_TIMEOUT_S:
            reason = f"took {seconds:.1f} s, over the {OP_TIMEOUT_S:.0f} s op limit"
        if reason is None:
            reason = runner.check(i, op, out)
        if reason is not None:
            entry = {"op": i, "request": describe(op), "reason": reason}
            if known_defect_seen(op, out):
                known.append({**entry, "defect": op.known_defect})
            else:
                failures.append(entry)

    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        # a host-speed probe before every op and after the last, off the op's clock
        cal.append(calibration.probe())
        if rec is not None:
            rec.op = i
            sid = rec.open("op", {"kind": runner.span_prefix + op.kind})
        error = None
        start = time.perf_counter()
        try:
            out = runner.run(i, op)
        except Exception as exc:  # every op outcome is recorded, never fatal
            out = None
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        if rec is not None:
            rec.close(sid)
        if runner.defer_checks:
            pending.append((i, op, out, error, times[-1]))
        else:
            judge(i, op, out, error, times[-1])
    cal.append(calibration.probe())
    wall = time.perf_counter() - t0
    peak_rss_mb = runner.peak_rss_mb()
    for item in pending:
        judge(*item)

    result = {
        **setup_info,
        "wall": wall,
        "op_s": times,
        "cal": cal,
        "attempted": len(ops),
        "failures": failures,
        "known_defects": known,
        "peak_rss_mb": peak_rss_mb,
    }
    if rec is not None:
        runner.after()
        metrics = tracing.layer_metrics(rec.spans)
        if isinstance(runner, Cli):
            metrics["cli.stdout_bytes"] = runner.stdout_bytes()
        else:
            metrics["cli.stdout_bytes"] = 0
        result["layers"] = metrics
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        rec.dump(trace_path, {"workload": args.workload, "seed": args.seed, "wall": wall})
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
