"""Start-up cost: a process loads numpy only when it runs it, and no pool library,
`dataclasses`, `fractions` or `decimal` ever; it loads an oddquadric module only
when it uses one of its names."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `import oddquadric`, or cli.main on argv when one is given, and prints
# the exit code, which of the heavy modules the process then holds, how many
# processes it forked and which oddquadric modules it loaded.  The probe
# reports two usable CPUs, so that --jobs 2 starts a pool on any machine.
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
heavy = ("numpy", "concurrent.futures", "multiprocessing", "dataclasses", "fractions", "decimal")
package = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("oddquadric."))
print(json.dumps([code, sorted(m for m in heavy if m in sys.modules), len(forks), package]))
"""


@functools.cache
def probe(*argv):
    """(heavy modules, forks, oddquadric modules) after PROBE runs argv."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, env=env, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, modules, forks, package = json.loads(done.stdout)
    assert code == 0
    return modules, forks, package


def run_probe(*argv):
    """The heavy modules loaded after PROBE runs argv, and the forks it made."""
    return probe(*argv)[:2]


def loaded_after(*argv):
    return run_probe(*argv)[0]


CHARPOLY_PATH = ["charpoly", "cli", "poly", "ring", "serialize"]
SPECTRA_PATH = sorted(CHARPOLY_PATH + ["spectra"])
VERIFY_PATH = sorted(CHARPOLY_PATH + ["verifier"])  # exact checks only: no spectra
EVERY_MODULE = sorted(SPECTRA_PATH + ["verifier"])

#: (argv, the oddquadric modules it loads): a command loads only what it calls.
EXACT_PATHS = [
    ([], []),
    (["charpoly", "-n", "5", "-p", "3"], CHARPOLY_PATH),
    (["spectrum", "-n", "5", "-p", "3"], SPECTRA_PATH),
    (["fpdim", "-n", "5", "-p", "3"], SPECTRA_PATH),
    (["galkin", "--n-min", "13", "--n-max", "15"], SPECTRA_PATH),
    (["verify", "--n-min", "2", "--n-max", "3", "--checks", "charpoly_main", "--jobs", "1"], VERIFY_PATH),
    (
        ["verify", "--n-min", "3", "--n-max", "3", "--checks", "charpoly_main,grading", "--jobs", "2"],
        VERIFY_PATH,
    ),
    (
        ["verify", "--n-min", "2", "--n-max", "5", "--checks", "charpoly_oracle,unit_column", "--jobs", "1"],
        VERIFY_PATH,
    ),
    # galkin imports spectra where it runs; above n = 12 it locates no roots, so no numpy
    (["verify", "--n-min", "13", "--n-max", "14", "--checks", "galkin", "--jobs", "1"], EVERY_MODULE),
]
EXACT_IDS = [" ".join(argv) or "import" for argv, _ in EXACT_PATHS]


@pytest.mark.parametrize("argv", [argv for argv, _ in EXACT_PATHS], ids=EXACT_IDS)
def test_exact_paths_load_neither_numpy_nor_the_pool(argv):
    assert run_probe(*argv) == ([], 0)


@pytest.mark.parametrize("argv, package", EXACT_PATHS, ids=EXACT_IDS)
def test_each_path_loads_only_the_modules_it_calls(argv, package):
    assert probe(*argv)[2] == package


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


def test_the_benchmark_trace_sees_every_call(tmp_path):
    """perfbench imports every module, then wraps each traced function where its
    module binds it; a package name resolved on first use must be the wrapper."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = ["--workload", "exact_sweep", "--seed", "1", "--trace", "1", "--work-dir", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, str(SRC.parent / "perfbench" / "rep.py"), *argv],
        capture_output=True,
        env=env,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["failed"] == 0
    assert record["layers"]["charpoly.charpoly_faddeev.calls"] == 255
    assert record["layers"]["ring.build_ap.calls"] > 0
