"""The repository benchmark: one command, three seeded workloads.

Usage::

    python3 perfbench/run.py --workload paper_cpu --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program; ``--trace 1`` runs the workload once untraced and once with the
per-layer wrappers of ``perfbench/tracing.py`` installed, and reports the
per-layer metrics plus the tracing overhead.  Every run checks its outputs
(see ``perfbench/README.md``); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed check
exits with status 1, a missing program with status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_cpu", "er_latency", "service_open_loop")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # One thread of load: numpy's BLAS pool would otherwise spread the
    # vector work over both cores (the CI jobs pin it the same way).
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    # The program is measured from this checkout's sources, never from an
    # installed copy.
    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"perfbench: no program sources at {source.parent}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench import measure

    if args.setup_probe:
        return measure.setup_probe(args)
    return measure.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
