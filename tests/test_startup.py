"""Start-up cost: a process loads numpy and the process pool only when it runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `import oddquadric`, or cli.main on argv when one is given, and prints
# the exit code and which of the heavy modules the process then holds.  The
# probe reports two CPUs, so that --jobs 2 starts a pool on any machine.
PROBE = """
import io, json, os, sys
from contextlib import redirect_stdout
os.cpu_count = lambda: 2
import oddquadric
code = 0
if sys.argv[1:]:
    from oddquadric.cli import main
    with redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in ("numpy", "concurrent.futures") if m in sys.modules)]))
"""


def loaded_after(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, env=env, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout)
    assert code == 0
    return modules


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["charpoly", "-n", "5", "-p", "3"],
        ["spectrum", "-n", "5", "-p", "3"],
        ["fpdim", "-n", "5", "-p", "3"],
        ["galkin", "--n-min", "13", "--n-max", "15"],
        ["verify", "--n-min", "2", "--n-max", "3", "--checks", "charpoly_main", "--jobs", "1"],
        ["verify", "--n-min", "3", "--n-max", "3", "--checks", "charpoly_main,grading", "--jobs", "2"],
    ],
    ids=lambda argv: " ".join(argv) or "import",
)
def test_exact_paths_load_neither_numpy_nor_the_pool(argv):
    assert loaded_after(*argv) == []


def test_float_checks_load_numpy():
    assert "numpy" in loaded_after("verify", "--n-min", "2", "--n-max", "3", "--jobs", "1")


def test_the_galkin_root_cross_check_loads_numpy():
    """galkin cross-checks n <= 12 against located roots, and root finding runs in numpy."""
    assert loaded_after("galkin", "--n-min", "2", "--n-max", "5") == ["numpy"]


def test_a_pool_of_root_finding_cells_loads_numpy_before_it_forks():
    argv = ["verify", "--n-min", "2", "--n-max", "3", "--checks", "fpdim_consistency", "--jobs", "2"]
    assert loaded_after(*argv) == ["concurrent.futures", "numpy"]


def test_a_pool_of_exact_checks_does_not_load_numpy():
    argv = ["verify", "--n-min", "2", "--n-max", "3", "--checks", "charpoly_main", "--jobs", "2"]
    assert loaded_after(*argv) == ["concurrent.futures"]
