"""In-memory spans around calls into the package's public functions.

A span is [name, start, end, parent, op, maxrss_kb, attrs]: name is
"<module>.<function>" (or "op" / "setup" for the benchmark's own spans),
start and end come from time.perf_counter, parent is the index of the
enclosing span (-1 at the root), op is the timed op index (-1 in set-up),
maxrss_kb is ru_maxrss when the span closed and attrs holds the few sizes
the layer metrics need.  Spans stay in memory and are written out once, at
the end of the run.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, RSS, ATTRS = range(7)
FIELDS = ("name", "start", "end", "parent", "op", "maxrss_kb", "attrs")

MODULES = ("words", "tropical", "solver", "grids", "pattern", "cli")
MAT_VEC_WIDTHS = tuple(range(2, 15))
_BUILD = ("tropical.build_transition_matrix", "tropical.build_initial_vector", "tropical.final_mask")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def open(self, name: str, attrs: dict | None = None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, 0, attrs])
        self.stack.append(sid)
        return sid

    def close(self, sid: int, attrs: dict | None = None) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[RSS] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if attrs:
            span[ATTRS] = {**(span[ATTRS] or {}), **attrs}
        self.stack.pop()

    def adopt(self, spans: list[list], parent: int) -> None:
        """Append spans recorded by another process under one of ours."""
        base = len(self.spans)
        op = self.spans[parent][OP]
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + base
            span[OP] = op
            self.spans.append(span)

    def dump(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": FIELDS, "spans": self.spans}, fh)


def _run_dp_attrs(args, kwargs, result):
    keep = kwargs.get("keep_trace", args[2] if len(args) > 2 else False)
    return {"m": args[0], "n": args[1], "k": result[0].matrix.k, "trace": bool(keep)}


# (module, function, attrs(args, kwargs, result) or None)
TARGETS = (
    ("words", "enumerate_suitable", lambda a, kw, r: {"m": r.m, "k": r.k}),
    ("tropical", "build_transition_matrix",
     lambda a, kw, r: {"m": r.table.m, "k": r.k, "e": r.finite_entries}),
    ("tropical", "build_initial_vector", None),
    ("tropical", "final_mask", None),
    ("tropical", "mat_vec", lambda a, kw, r: {"m": a[0].table.m}),
    ("solver", "run_dp", _run_dp_attrs),
    ("solver", "solve_width", None),
    ("solver", "detect_period", None),
    ("grids", "extract_min_set", None),
    ("grids", "verify_set", lambda a, kw, r: {"cells": a[0].m * a[0].n}),
    ("pattern", "build_big_grid_set", None),
    ("pattern", "diagonal_partition", None),
    ("pattern", "project_inner", None),
    ("cli", "main", None),
)


def _wrap(rec: Recorder, name: str, fn, attrs_of):
    def traced(*args, **kwargs):
        sid = rec.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.close(sid, attrs_of(args, kwargs, result) if attrs_of and result is not None else None)

    traced.__wrapped__ = fn
    return traced


def instrument(rec: Recorder) -> None:
    """Route every reference to a target function, in any package module, through a span.

    Modules bind imported functions under their own names, so the wrapper
    replaces the function object wherever it appears, not only in its home
    module; calls between modules are then traced too.
    """
    for module_name, fn_name, attrs_of in TARGETS:
        module = importlib.import_module(f"quasidom.{module_name}")
        fn = getattr(module, fn_name)
        traced = _wrap(rec, f"{module_name}.{fn_name}", fn, attrs_of)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "quasidom" or name.startswith("quasidom.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, traced)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers over every span of one traced run (set-up included)."""
    selfs = self_times(spans)
    dur = defaultdict(float)
    self_by_name = defaultdict(float)
    self_by_module = defaultdict(float)
    mat_vec_us = defaultdict(list)
    built = {}
    words_k = finite = cells = fallbacks = 0
    trace_bytes = extract_rss = 0
    run_dp_build = 0.0
    op_kinds = defaultdict(list)
    op_self = 0.0
    for i, s in enumerate(spans):
        name, d, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        dur[name] += d
        self_by_name[name] += selfs[i]
        module = name.split(".", 1)[0]
        if module in MODULES:
            self_by_module[module] += selfs[i]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name == "op":
            op_kinds[attrs.get("kind")].append(d)
            op_self += selfs[i]
        elif name == "words.enumerate_suitable":
            words_k += attrs.get("k", 0)
        elif name == "tropical.build_transition_matrix":
            finite += attrs.get("e", 0)
            if "m" in attrs:
                built[attrs["m"]] = (attrs["k"], attrs["e"])
        elif name == "tropical.mat_vec" and "m" in attrs:
            mat_vec_us[attrs["m"]].append(d * 1e6)
        elif name == "solver.run_dp" and attrs.get("trace"):
            trace_bytes = max(trace_bytes, attrs["n"] * attrs["k"] * 8)
        elif name == "grids.extract_min_set":
            extract_rss = max(extract_rss, s[RSS])
            if parent == "pattern.build_big_grid_set":
                fallbacks += 1
        elif name == "grids.verify_set":
            cells += attrs.get("cells", 0)
        if name in _BUILD and parent == "solver.run_dp":
            run_dp_build += d

    verify_s = dur["grids.verify_set"]
    out = {
        "words.enumerate_s": dur["words.enumerate_suitable"],
        "words.k": words_k,
        "tropical.build_s": sum(dur[n] for n in _BUILD),
        "tropical.finite_entries": finite,
    }
    for w in MAT_VEC_WIDTHS:
        out[f"tropical.mat_vec_us.m{w}"] = _median(mat_vec_us[w])
    for w in MAT_VEC_WIDTHS:
        k, e = built.get(w, (0, 0))
        # one step reads pred_idx and gathers x (E each), writes the gathered
        # copy (E), and touches ptr twice, row_zeros, the mask and out (k each)
        out[f"tropical.mat_vec_bytes.m{w}"] = 8 * (3 * e + 5 * k)
    out.update({
        "solver.detect_period_s": self_by_name["solver.detect_period"],
        "solver.run_dp_s": dur["solver.run_dp"] - run_dp_build,
        "solver.trace_mb": trace_bytes / 2**20,
        "grids.extract_s": dur["grids.extract_min_set"],
        "grids.backtrack_s": self_by_name["grids.extract_min_set"],
        "grids.rss_mb": extract_rss / 1024,
        "grids.verify_s": verify_s,
        "grids.verify_cells_per_s": cells / verify_s if verify_s else 0.0,
        "pattern.build_s": dur["pattern.build_big_grid_set"],
        "pattern.residue_s": dur["pattern.diagonal_partition"] + dur["pattern.project_inner"],
        "pattern.repair_s": self_by_name["pattern.build_big_grid_set"],
        "pattern.dp_fallbacks": fallbacks,
        "cli.startup_ms": _median(op_kinds["cli.version"]) * 1e3,
        "cli.value_ms": _median(op_kinds["cli.value"]) * 1e3,
        "cli.extract_ms": _median(op_kinds["cli.extract"]) * 1e3,
        "cli.pattern_ms": _median(op_kinds["cli.pattern"]) * 1e3,
        "cli.verify_ms": _median(op_kinds["cli.verify"]) * 1e3,
        "cli.error_ms": _median(op_kinds["cli.error"]) * 1e3,
    })
    for module in MODULES:
        out[f"{module}.self_s"] = self_by_module[module]
    out["trace.unattributed_s"] = op_self
    out["trace.spans"] = len(spans)
    return out
