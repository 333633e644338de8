"""Run `python -m quasidom` with the benchmark's spans on; used by traced CLI runs.

Usage: python3 perfbench/clitrace.py SPANS_JSON [quasidom arguments ...]

The package's own entry point is replaced by an identical call of
quasidom.cli.main, with every traced function wrapped first.  The spans are
written to SPANS_JSON when the process exits, whatever the exit code.
"""

from __future__ import annotations

import sys
from pathlib import Path

import tracing


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    rec = tracing.Recorder()
    import quasidom.cli

    tracing.instrument(rec)
    try:
        return quasidom.cli.main(argv)
    finally:
        rec.dump(out, {})


if __name__ == "__main__":
    sys.exit(main())
