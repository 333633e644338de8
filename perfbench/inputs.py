"""Seeded input generation for the three benchmark workloads.

Everything here is pure Python and imports nothing from the package, so the
same seed gives the same op list whether or not the program under test
builds.  Sizes are drawn by stratified sampling: each workload fixes how many
ops fall in each size stratum and the seed picks the exact sizes inside the
strata and the op order.  The total work is then nearly the same for every
seed, which keeps run-to-run spread small while every seed still feeds the
program different grids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("dp_extract_warm", "pattern_wide", "cli_roundtrip")

# --seconds 20 gives the calibrated size; the op-stream workloads scale
# linearly from it and never shrink below it.
REFERENCE_SECONDS = 20

WARM_WIDTHS = tuple(range(2, 14))
WARM_MAX_N = 1500
# ops per width at --seconds 20; widths 12 and 13 cost 3-8 times more per
# op than width 11, so they get fewer ops
WARM_OPS = {m: 30 if m <= 11 else 12 for m in WARM_WIDTHS}
WARM_PERIOD_WIDTHS = (12, 13)

PATTERN_MIN_M = 16
PATTERN_MAX_N = 60
PATTERN_PER_CLASS = 12  # grids per (m mod 5, n mod 5) class at --seconds 20
PATTERN_LARGE = ((200, 300), (500, 500), (300, 1000))

CLI_EXTRACT_MAX_M = 9
CLI_PATTERN_MAX_M = 40
# (m mod 5, n mod 5) of the CLI pattern requests.  Each child process repairs
# its corners from a cold cache, and that cost depends on the class, so the
# classes are fixed and only m and n inside them follow the seed.
CLI_PATTERN_CLASSES = (
    (0, 0), (0, 2), (0, 4), (1, 0), (1, 1), (1, 3), (2, 0),
    (2, 2), (2, 4), (3, 1), (3, 3), (4, 0), (4, 2), (4, 4),
)

# The one malformed request that crashes at the time the benchmark was
# written: `verify` reads data["members"] without checking for it and exits
# with a KeyError traceback instead of an error envelope.
KNOWN_DEFECT_MISSING_MEMBERS = "verify-missing-members-keyerror"


@dataclass(frozen=True)
class Op:
    """One timed operation.

    kind names what runs; args are the function arguments of an in-process
    op or the argv of a CLI op; stdin is the text fed to a CLI invocation;
    pipe_from is the index of an earlier op whose stdout is fed to this one
    instead; expect_exit is the exit code a CLI op must give; known_defect
    names the listed crash the op shows today; meta holds the (m, n) of a CLI
    request for the checker.
    """

    kind: str
    args: tuple = ()
    stdin: str | None = None
    pipe_from: int | None = None
    expect_exit: int = 0
    known_defect: str | None = None
    meta: dict = field(default_factory=dict, compare=False)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _scaled(base: int, seconds: int) -> int:
    return max(base, round(base * seconds / REFERENCE_SECONDS))


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers in [lo, hi], one drawn inside each of count equal strata."""
    span = hi - lo + 1
    out = []
    for r in range(count):
        a = lo + (r * span) // count
        b = lo + ((r + 1) * span) // count - 1
        out.append(rng.randint(a, max(a, b)))
    return out


def dp_extract_warm(seed: int, seconds: int) -> list[Op]:
    """Stratified (m, n) over widths 2..13 and n in [m, 1500], two op kinds.

    Each width gets one n per stratum of [m, WARM_MAX_N]; strata alternate
    between extract (+ verify) and solve, with the parity flipped per width,
    so both kinds see the whole n range.  One extract at the corner
    (13, WARM_MAX_N) pins the largest DP trace, which sets peak memory, and
    detect_period runs once for each width with a pinned certificate.
    """
    rng = _rng("dp_extract_warm", seed)
    ops = [Op("extract", (max(WARM_WIDTHS), WARM_MAX_N))]
    ops += [Op("period", (w,)) for w in WARM_PERIOD_WIDTHS]
    for m in WARM_WIDTHS:
        count = _scaled(WARM_OPS[m], seconds)
        for r, n in enumerate(_strata(rng, m, WARM_MAX_N, count)):
            ops.append(Op("extract" if (r + m) % 2 == 0 else "solve", (m, n)))
    rng.shuffle(ops)
    return ops


def pattern_wide(seed: int, seconds: int) -> list[Op]:
    """Grids 16 <= m <= n <= 60 in every (m mod 5, n mod 5) class, plus large ones.

    Within a class the m values are stratified over the admissible rows, and
    n is drawn from [m, 60] in the class.  Classes run in a fixed order and
    grids by size inside a class, so the region-cache misses fall on the
    first grids of each class for every seed.  The three large grids come
    last and are fixed: they measure the Python set and verify loops, not the
    repair search.
    """
    rng = _rng("pattern_wide", seed)
    per_class = _scaled(PATTERN_PER_CLASS, seconds)
    ops = []
    for a in range(5):
        for b in range(5):
            ms = [m for m in range(PATTERN_MIN_M, PATTERN_MAX_N + 1) if m % 5 == a]
            # n >= m must stay possible inside the class
            ms = [m for m in ms if any(n % 5 == b for n in range(m, PATTERN_MAX_N + 1))]
            grids = []
            for idx in _strata(rng, 0, len(ms) - 1, per_class):
                m = ms[idx]
                ns = [n for n in range(m, PATTERN_MAX_N + 1) if n % 5 == b]
                grids.append((m, rng.choice(ns)))
            ops.extend(Op("pattern", grid) for grid in sorted(grids))
    ops.extend(Op("pattern", grid) for grid in PATTERN_LARGE)
    return ops


def _malformed(rng: random.Random) -> list[Op]:
    """Requests that must exit 1 with a JSON error envelope."""
    a = rng.randint(2, 9)
    b = rng.randint(15, 40)
    return [
        Op("error", ("verify", "--json"), stdin=f'{{"m": {a}}}',
           expect_exit=1, known_defect=KNOWN_DEFECT_MISSING_MEMBERS),
        Op("error", ("value", "0", str(b), "--json"), expect_exit=1),
        Op("error", ("value", str(-a), str(b), "--json"), expect_exit=1),
        Op("error", ("pattern", str(a + 3), str(b), "--json"), expect_exit=1),
        Op("error", ("pattern", str(b + 5), str(b), "--json"), expect_exit=1),
        Op("error", ("formula", str(b), str(b + a), "--json"), expect_exit=1),
        Op("error", ("formula", str(a + 1), str(a), "--json"), expect_exit=1),
        Op("error", ("verify", "--json"), stdin=f"{a} 3\n#x.\n" + "...\n" * (a - 1),
           expect_exit=1),
        Op("error", ("verify", "--json"),
           stdin=f'{{"m": {a}, "n": {a}, "members": [[{a + 1}, 1]]}}', expect_exit=1),
        Op("error", ("verify", "--json"), stdin='{"m": 2, "n": ', expect_exit=1),
    ]


def cli_roundtrip(seed: int, seconds: int) -> list[Op]:
    """Sequential CLI invocations: value, extract | verify, pattern | verify, errors.

    Per block of 100: 4 `--version`, 28 `value` across every regime
    (paths, closed forms, the big-grid formula, transposed input), 15
    `extract` (m <= 9) each piped into `verify`, 14 `pattern`
    (16 <= m <= 40, one per class in CLI_PATTERN_CLASSES) each piped into
    `verify`, and 10 malformed requests.
    """
    rng = _rng("cli_roundtrip", seed)
    blocks = _scaled(1, seconds)
    groups: list[list[Op]] = []
    for _ in range(blocks):
        groups += [[Op("version", ("--version",))] for _ in range(4)]
        values = []
        values += [(1, n) for n in _strata(rng, 1, 50, 4)]
        for m in _strata(rng, 2, 13, 12):
            values.append((m, rng.randint(m, 200)))
        for m in _strata(rng, 14, 200, 10):
            values.append((m, rng.randint(m, 2000)))
        for m in _strata(rng, 2, 60, 2):
            values.append((rng.randint(m + 1, 300), m))
        groups += [[Op("value", ("value", str(m), str(n), "--json"), meta={"m": m, "n": n})]
                   for m, n in values]
        for m in _strata(rng, 2, CLI_EXTRACT_MAX_M, 15):
            n = rng.randint(m, 60)
            groups.append([
                Op("extract", ("extract", str(m), str(n), "--json"), meta={"m": m, "n": n}),
                Op("verify", ("verify", "--json")),
            ])
        for a, b in CLI_PATTERN_CLASSES:
            m = rng.choice([m for m in range(PATTERN_MIN_M, CLI_PATTERN_MAX_M + 1) if m % 5 == a])
            n = rng.choice([n for n in range(m, PATTERN_MAX_N + 1) if n % 5 == b])
            groups.append([
                Op("pattern", ("pattern", str(m), str(n), "--json"), meta={"m": m, "n": n}),
                Op("verify", ("verify", "--json")),
            ])
        groups += [[op] for op in _malformed(rng)]
    rng.shuffle(groups)
    ops: list[Op] = []
    for group in groups:
        if len(group) == 2:
            ops.append(group[0])
            ops.append(Op(group[1].kind, group[1].args, pipe_from=len(ops) - 1))
        else:
            ops.extend(group)
    return ops


GENERATORS = {
    "dp_extract_warm": dp_extract_warm,
    "pattern_wide": pattern_wide,
    "cli_roundtrip": cli_roundtrip,
}


def generate(workload: str, seed: int, seconds: int) -> list[Op]:
    return GENERATORS[workload](seed, seconds)
