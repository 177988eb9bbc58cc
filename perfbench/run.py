"""Run one topospec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload canonical-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root; ``--workload all`` runs the four workloads in
turn and prints their results as one JSON line.  The seed makes a workload's
inputs and --seconds sizes its fixed work.  With --trace 0 the fixed work runs with
tracing off and the end-to-end metrics are printed; with --trace 1 a third
of it runs three times (pool, one worker, one worker traced) and the
per-layer metrics are printed.  The last line of standard output is one
JSON object; a full record with the pinned environment goes to
.perfbench_runs/.  The exit code is 0 only when every output check passes.
"""

import os
import sys
from pathlib import Path

# Reconstruction iteration counts and fidelities repeat exactly only with
# the BLAS thread count pinned, so pin it before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Put this checkout's src/ first and check topospec comes from there."""
    if not (SRC / "topospec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no topospec sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import topospec
    if Path(topospec.__file__).resolve().parent != (SRC / "topospec").resolve():
        sys.exit(f"perfbench: topospec imported from {topospec.__file__}")


if __name__ == "__main__":
    import_program()
    from perfbench.harness import main
    sys.exit(main())
