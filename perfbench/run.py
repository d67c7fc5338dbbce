"""Wall-clock benchmark of the toolchain, co-execution and the service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload coexec --seed 1 --seconds 25 --trace 0

Every run sets up, then runs three phases (see ``phases.py``): compile,
co-execution and the service, with the workload's main phase at full size
(``serve`` takes ``--seconds`` of load) and the other at a fixed probe
size. Inputs come only from ``--seed``. Every output is checked against the
plain-Python oracle. Rows go to standard output as JSON lines; the last
line is the result: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced rerun of the same work.
Journals, checkpoints and caches live in a temporary directory under
``.perfbench_tmp/`` that is removed at exit; ``--trace 1`` writes its spans
to ``.perfbench_out/``.

Exit codes: 0 correct, 1 a wrong output or an invalid open loop, 2 the
program to measure is missing, 3 a modeled value drifted.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

_T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_NAMES = ("coexec", "serve")
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: the program to measure is missing "
              f"({os.path.join(src, 'repro')} does not exist); run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import bench  # imports the whole program

    import_s = time.perf_counter() - _T_START
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    try:
        return bench.run(args, workdir, import_s,
                         os.path.join(ROOT, ".perfbench_out"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
        # Flush the clean-up now rather than in the middle of whatever
        # runs next.
        os.sync()


if __name__ == "__main__":
    sys.exit(main())
