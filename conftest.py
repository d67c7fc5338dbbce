"""Pytest root configuration: make ``src/`` importable without install.

The canonical installation is ``pip install -e .``; this fallback keeps
the test suite runnable in offline environments where the editable
build cannot fetch the ``wheel`` build dependency.

It also owns ``--bench-out``: where the benchmark suite writes its
reports (a temporary directory unless given).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "benchmarks"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-out",
        default=None,
        metavar="DIR",
        help="directory for benchmark reports (BENCH_*.json) and "
        "artifacts; default: a fresh temporary directory, so a test "
        "run never rewrites the committed benchmarks/out/ copies",
    )


@pytest.fixture(scope="session", autouse=True)
def _bench_out_dir(request, tmp_path_factory):
    """Point ``harness.OUT_DIR`` at ``--bench-out`` or a temporary
    directory for the whole session."""
    import harness

    out = request.config.getoption("bench_out")
    harness.OUT_DIR = (
        os.path.abspath(out) if out
        else str(tmp_path_factory.mktemp("bench-out"))
    )
