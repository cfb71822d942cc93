"""Record the ``paper_cpu`` reference outputs that later runs must match.

Usage::

    python3 perfbench/record_reference.py 0 63

For every seed in the inclusive range, runs the paper pipeline once, checks
it against the direct operator run, and stores a digest of its orders,
decisions and predictions plus its three quality figures in
``perfbench/reference.json``.  ``run.py`` compares every ``paper_cpu`` run
whose seed is recorded here against it.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    first, last = (int(value) for value in argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.measure import REFERENCE_FILE, digest
    from perfbench.workloads import PaperCPU

    recorded = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for seed in range(first, last + 1):
        workload = PaperCPU(seed)
        state = workload.new_state()
        repetition = workload.outcome(state, workload.execute(state), 0.0)
        if repetition.signature != workload.reference_signature():
            print(f"seed {seed}: pipeline differs from the direct operator run", file=sys.stderr)
            return 1
        recorded[str(seed)] = {
            "digest": digest(repetition.signature),
            **{name: repetition.quality[name] for name in ("sort_tau", "er_f1", "impute_accuracy")},
        }
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
