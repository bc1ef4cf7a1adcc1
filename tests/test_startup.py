"""Start-up cost: a process loads numpy only when it runs it, and no pool library ever."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `import oddquadric`, or cli.main on argv when one is given, and prints
# the exit code, which of the heavy modules the process then holds and how
# many processes it forked.  The probe reports two usable CPUs, so that
# --jobs 2 starts a pool on any machine.
PROBE = """
import io, json, os, sys
from contextlib import redirect_stdout
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
import oddquadric
code = 0
if sys.argv[1:]:
    from oddquadric.cli import main
    with redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
heavy = ("numpy", "concurrent.futures", "multiprocessing")
print(json.dumps([code, sorted(m for m in heavy if m in sys.modules), len(forks)]))
"""


def run_probe(*argv):
    """The heavy modules loaded after PROBE runs argv, and the forks it made."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, env=env, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, modules, forks = json.loads(done.stdout)
    assert code == 0
    return modules, forks


def loaded_after(*argv):
    return run_probe(*argv)[0]


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
    assert run_probe(*argv) == ([], 0)


def test_float_checks_load_numpy():
    assert "numpy" in loaded_after("verify", "--n-min", "2", "--n-max", "3", "--jobs", "1")


def test_the_galkin_root_cross_check_loads_numpy():
    """galkin cross-checks n <= 12 against located roots, and root finding runs in numpy."""
    assert loaded_after("galkin", "--n-min", "2", "--n-max", "5") == ["numpy"]


def test_a_pool_of_root_finding_cells_loads_numpy_before_it_forks():
    argv = ["verify", "--n-min", "2", "--n-max", "3", "--checks", "fpdim_consistency", "--jobs", "2"]
    assert run_probe(*argv) == (["numpy"], 2)


def test_a_pool_of_exact_checks_does_not_load_numpy():
    argv = ["verify", "--n-min", "2", "--n-max", "3", "--checks", "charpoly_main", "--jobs", "2"]
    assert run_probe(*argv) == ([], 2)
