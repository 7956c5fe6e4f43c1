"""Run one codesum benchmark workload and print its result.

    python3 benchmarks/run.py --workload suggest-copy --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the detailed report (build fingerprint, corpus properties, the
metrics under their workload-specific names, the output digest).  Both
are also written to ``.bench_out/`` at the repository root.  The package
is imported from ``src/`` beside this directory, never from elsewhere.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: at most nproc, and the steadiest choice on a shared
# machine.  This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def _entry() -> int:
    package = ROOT / "src" / "codesum" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # Evaluation runs with one worker: the benchmark is a single closed loop.
    codesum_threads = os.environ.pop("CODESUM_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import bench_harness

    return bench_harness.main(sys.argv[1:], ROOT, codesum_threads)


if __name__ == "__main__":
    sys.exit(_entry())
