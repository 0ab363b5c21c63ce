"""Benchmark command: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload resp_multihop --seed 1 --seconds 10 --trace 0

Run from the repository root. It imports the package from ``src/`` of the
same checkout, writes its inputs and outputs under ``.bench_build/perfbench/``
and prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). The workloads and metrics are
described in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--docs", type=int, default=None,
        help="corpus size instead of the workload's own, to read the layers at scale "
        "(e.g. 20000 with --trace 1); figures are then not comparable with the default",
    )
    args = parser.parse_args(argv)

    if not (SRC / "respqa" / "__init__.py").is_file():
        print(f"perfbench: no respqa package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.docs is not None:
        wl = dataclasses.replace(wl, gen=dataclasses.replace(wl.gen, n_docs=args.docs))
    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        result = run_workload(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
