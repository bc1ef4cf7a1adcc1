"""Batch certification of the ring and spectral invariants over (n, p) ranges.

Every check computes its expected side independently of the code path under
test: the closed form is the paper's one factor table, expanded, and the
simplicity prediction is the literal gcd criterion; computed operators go
through the exact trace recursion, and numeric roots come from the
simultaneous iteration.  Failures carry a serialized witness; runs never
abort early and the assembled report is deterministic, including under
parallel execution.
"""

from __future__ import annotations

import os
from math import gcd
from typing import NamedTuple

from . import serialize
from .charpoly import (
    all_roots_simple,
    charpoly_cofactor,
    charpoly_faddeev,
    closed_form_charpoly,
    COFACTOR_DIM_LIMIT,
)
from .poly import Poly
from .ring import Matrix, build_a1, build_ap, make_context

# The float checks import spectra's names where they run, so a run of exact
# checks never loads spectra.

#: The 4x4 degree-one operator of the smallest family member (n = 2), the
#: golden value every build must reproduce entry for entry.
GOLDEN_A1_N2 = (
    (0, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 2, 0, 0),
    (0, 0, 1, 0),
)


class CheckResult(NamedTuple):
    check_id: str
    n: int
    p: int  # -1 for per-n checks
    status: str  # "pass" | "fail"
    detail: str
    witness: dict | None = None


class VerificationReport(NamedTuple):
    tool_version: str
    n_range: tuple[int, int]
    results: list[CheckResult]
    summary: dict[str, dict[str, int]]

    @property
    def all_passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)


def _poly_witness(kind_a: str, fa: Poly, kind_b: str, fb: Poly) -> dict:
    return {kind_a: serialize.poly_json(fa), kind_b: serialize.poly_json(fb)}


# Each check: cases(n) lists the p arguments it covers (or [-1] for per-n),
# run(n, p) returns (ok, detail, witness-or-None).

def _cases_all_p(n):
    return list(range(2 * n))


def _cases_positive_p(n):
    return list(range(1, 2 * n))


def _cases_graded_p(n):
    return list(range(1, 2 * n - 1))


def _cases_per_n(n):
    return [-1]


def _check_chevalley_golden(n, p):
    ctx = make_context(n)
    got = build_a1(ctx)
    expected = Matrix(GOLDEN_A1_N2)
    got_blob = serialize.matrix_blob(got)
    want_blob = serialize.matrix_blob(expected)
    if got == expected and got_blob == want_blob:
        # The reproduced matrix rides along in the detail so passing reports
        # still carry it; witnesses are reserved for failures.
        return True, f"degree-one matrix matches the golden value byte for byte: {got_blob}", None
    return False, "degree-one matrix deviates from the golden value", {
        "expected": serialize.matrix_json(expected),
        "got": serialize.matrix_json(got),
    }


def _check_charpoly_main(n, p):
    ctx = make_context(n)
    computed = charpoly_faddeev(build_ap(ctx, p))
    closed = closed_form_charpoly(ctx, p)
    if computed == closed:
        return True, "trace recursion equals the closed form exactly", None
    return False, "computed characteristic polynomial deviates from the closed form", _poly_witness(
        "computed", computed, "closed_form", closed
    )


def _check_charpoly_oracle(n, p):
    ctx = make_context(n)
    op = build_ap(ctx, p)
    fad = charpoly_faddeev(op)
    cof = charpoly_cofactor(op)
    if fad == cof:
        return True, "trace recursion and cofactor expansion agree exactly", None
    return False, "the two characteristic polynomial algorithms disagree", _poly_witness(
        "faddeev", fad, "cofactor", cof
    )


def _check_cayley_hamilton(n, p):
    ctx = make_context(n)
    m1 = build_a1(ctx)
    lhs = m1 ** (2 * n)
    rhs = m1.scale(4)
    if lhs == rhs:
        return True, "A^(2n) = 4A holds exactly", None
    return False, "A^(2n) != 4A", {
        "lhs": serialize.matrix_json(lhs),
        "rhs": serialize.matrix_json(rhs),
    }


def _check_unit_column(n, p):
    ctx = make_context(n)
    want = [int(i == p) for i in range(2 * n)]
    column = [row.get(0, 0) for row in build_ap(ctx, p).int_form()]
    if column == want:
        return True, "operator sends the unit to its own class", None
    return False, "unit column is wrong", {
        "expected": serialize.vector_json(want),
        "got": serialize.vector_json(column),
    }


def _check_commutativity(n, p):
    # A matrix that commutes with a cyclic one is a polynomial in it (Horn and
    # Johnson, Matrix Analysis, 2nd ed., Thm 3.2.4.2), and polynomials in one
    # matrix commute.  So if t_0 is a cyclic vector of A_1 and every A_q
    # commutes with A_1, all operator pairs commute: O(N^2) work in place of
    # multiplying all N(N-1)/2 pairs.
    ctx = make_context(n)
    ops = [build_ap(ctx, q) for q in range(2 * n)]
    rows1 = ops[1].int_form()
    # Krylov basis: A_1^k t_0 must have its last nonzero at degree k for
    # every k < 2n (t_k, then 2t_k, then 2(t_{2n-1} + t_0)); a triangular
    # basis with a nonzero diagonal spans the whole space.
    krylov = [1] + [0] * (2 * n - 1)
    for k in range(2 * n):
        if max((i for i, v in enumerate(krylov) if v), default=-1) != k:
            return False, "t_0 is not a cyclic vector of the degree-one operator", {
                "k": k,
                "krylov": serialize.vector_json(krylov),
            }
        krylov = [sum(v * krylov[j] for j, v in row.items()) for row in rows1]
    for q in [0] + list(range(2, 2 * n)):
        a, b = sorted((q, 1))
        ab, ba = ops[a] * ops[b], ops[b] * ops[a]
        if ab != ba:
            return False, f"operators for degrees {a} and {b} do not commute", {
                "p": a,
                "r": b,
                "ab": serialize.matrix_json(ab),
                "ba": serialize.matrix_json(ba),
            }
    return True, "all operator pairs commute exactly", None


def _check_grading(n, p):
    ctx = make_context(n)
    m = 2 * n - 1
    for j, row in enumerate(build_ap(ctx, p).int_form()):
        for i, v in row.items():
            if (j - i - p) % m != 0:
                return False, f"nonzero entry at ({j},{i}) violates degree grading", {
                    "row": j,
                    "col": i,
                    "entry": str(v),
                }
    return True, "all nonzero entries respect the degree grading", None


def _check_diagonalization(n, p):
    from .spectra import DIAG_RESIDUAL_TOL, verify_diagonalization

    ctx = make_context(n)
    report = verify_diagonalization(ctx)
    ok = report.residual_diag <= DIAG_RESIDUAL_TOL and report.p_invertible
    detail = (
        f"residual {report.residual_diag:.3e}, eigenvector matrix "
        f"{'invertible' if report.p_invertible else 'SINGULAR'}"
    )
    if ok:
        return True, detail, None
    return False, detail, {
        "residual": report.residual_diag,
        "p_invertible": report.p_invertible,
    }


def _check_corollary32(n, p):
    from .spectra import corollary_32_check

    ctx = make_context(n)
    if corollary_32_check(ctx):
        return True, "eigenvalue identity (lam^(2n-1)-2)/2 in {-1,+1} holds", None
    return False, "eigenvalue identity violated", {"n": n}


def _check_simultaneous_diag(n, p):
    import numpy as np

    from .spectra import (
        SHARED_EIGVEC_TOL,
        _eigen_selectors,
        _eigenvector_matrix,
        operator_as_array,
        operator_eigenvalue,
    )

    ctx = make_context(n)
    a = operator_as_array(ctx, p)
    e = _eigenvector_matrix(ctx)
    mu = np.array([operator_eigenvalue(ctx, p, j) for j in _eigen_selectors(ctx)])
    # av = e @ a.T, summed over the nonzeros of a only (row j is A_p v_j), so
    # no BLAS call starts threads that contend with the pool's workers (from
    # n = 24 on).  A_p has at most two nonzeros per row, each 1 or 2: every
    # entry is one rounding of exact products, the bits of one A_p v_j per
    # eigenvector.  mu[:, None] * e scales each row by its scalar, but with
    # numpy's elementwise complex `*`, which uses fused multiply-adds where
    # numpy's CPU dispatch allows them (X86_V3 and up), so its bits, and the
    # residual printed, need not be CPython's mu_j * v_j: with X86_V3 dispatch
    # off, 34 details of verify --n-max 12 change.  np.max carries a NaN
    # residual through, so the test below fails it.
    rows, cols = np.nonzero(a)
    av = np.zeros_like(e)
    np.add.at(av, (slice(None), rows), e[:, cols] * a[rows, cols])
    worst = float(np.max(np.abs(av - mu[:, None] * e)))
    if worst <= SHARED_EIGVEC_TOL:
        return True, f"shared eigenvectors hold, worst residual {worst:.3e}", None
    return False, f"shared-eigenvector residual {worst:.3e} exceeds {SHARED_EIGVEC_TOL:g}", {
        "residual": worst,
    }


def _check_fpdim_consistency(n, p):
    from .spectra import ROOT_MATCH_TOL, fp_dim, located_radius

    ctx = make_context(n)
    closed = fp_dim(ctx, p)
    located = located_radius(ctx, p)
    err = abs(closed - located)
    if err <= ROOT_MATCH_TOL:
        return True, f"closed form and located spectral radius agree ({err:.3e})", None
    return False, f"spectral radius mismatch {err:.3e}", {
        "closed_form": closed,
        "max_root_modulus": located,
    }


def _check_simplicity_gcd(n, p):
    ctx = make_context(n)
    f = closed_form_charpoly(ctx, p)
    simple = all_roots_simple(f)
    predicted = gcd(p, 2 * n - 1) == 1 and p != 2 * n - 1
    if simple == predicted:
        return True, f"squarefree test matches the gcd criterion (simple={simple})", None
    return False, "squarefree test contradicts the gcd criterion", {
        "squarefree_simple": simple,
        "gcd": gcd(p, 2 * n - 1),
        "charpoly": serialize.poly_json(f),
    }


def _check_galkin(n, p):
    from .spectra import galkin_check

    result = galkin_check(make_context(n))
    detail = f"margin {result.margin:.9g}"
    if result.cross_residual is not None:
        detail += f", root cross-check residual {result.cross_residual:.3e}"
    if result.passed:
        return True, detail, None
    return False, detail, {
        "fpdim_c1": result.fpdim_c1,
        "bound": result.bound,
        "margin": result.margin,
        "cross_residual": result.cross_residual,
    }


CHECKS = {
    "charpoly_main": (_cases_positive_p, _check_charpoly_main),
    "charpoly_oracle": (
        lambda n: _cases_all_p(n) if 2 * n <= COFACTOR_DIM_LIMIT else [],
        _check_charpoly_oracle,
    ),
    "chevalley_golden": (lambda n: [-1] if n == 2 else [], _check_chevalley_golden),
    "cayley_hamilton": (_cases_per_n, _check_cayley_hamilton),
    "unit_column": (_cases_all_p, _check_unit_column),
    "commutativity": (_cases_per_n, _check_commutativity),
    "grading": (_cases_graded_p, _check_grading),
    "diagonalization": (_cases_per_n, _check_diagonalization),
    "corollary32": (_cases_per_n, _check_corollary32),
    "simultaneous_diag": (_cases_positive_p, _check_simultaneous_diag),
    "fpdim_consistency": (_cases_positive_p, _check_fpdim_consistency),
    "simplicity_gcd": (_cases_positive_p, _check_simplicity_gcd),
    "galkin": (_cases_per_n, _check_galkin),
}

CHECK_IDS = tuple(sorted(CHECKS))


def run_check_cell(check_id: str, n: int) -> list[CheckResult]:
    """All results of one check at one n; exceptions become failures, not aborts."""
    cases_fn, run_fn = CHECKS[check_id]
    results = []
    for p in cases_fn(n):
        try:
            ok, detail, witness = run_fn(n, p)
            # a witness json cannot encode raises here, inside the cell
            witness = serialize.cap_witness(witness) if not ok and witness else None
        except Exception as exc:  # never abort the sweep
            ok, detail, witness = False, f"check raised {type(exc).__name__}: {exc}", None
        results.append(
            CheckResult(
                check_id=check_id,
                n=n,
                p=p,
                status="pass" if ok else "fail",
                detail=detail,
                witness=witness,
            )
        )
    return results


def _run_task(cells):
    """The results of each of the cells, in one worker."""
    return [run_check_cell(*cell) for cell in cells]


def _cell_failures(cell, detail: str) -> list[CheckResult]:
    """One failure per case of a cell whose worker could not deliver its results."""
    check_id, n = cell
    return [CheckResult(check_id, n, p, "fail", detail) for p in CHECKS[check_id][0](n)]


def _death_detail(status: int) -> str:
    """The detail of a cell whose worker ended with wait status `status`."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"worker died with exit status {code}"
    import signal

    return f"worker killed by signal {-code} ({signal.strsignal(-code)})"


def pool_workers(jobs: int, n_values: int) -> int:
    """Worker processes for a run over `n_values` values of n at `jobs`: at
    most one per n and one per CPU this process may run on, so a large --jobs
    never starts more processes, and a single n runs in this process, as does
    every run where os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(jobs, n_values, cpus))


def _serve(tasks, task_r: int, result_w: int) -> None:
    """A forked worker's loop: read a task index from the task pipe, run that
    task, write (index, results) to the result pipe; stop at None."""
    import pickle

    inbox, outbox = os.fdopen(task_r, "rb"), os.fdopen(result_w, "wb")
    while (i := pickle.load(inbox)) is not None:
        pickle.dump((i, _run_task(tasks[i])), outbox)
        outbox.flush()


def _run_pool(tasks, workers: int) -> list[list[CheckResult]]:
    """The results of each cell of the tasks, in order, each task run in one
    of `workers` persistent processes forked from this one.

    Each worker takes task indices over a pipe and sends back each task's
    results; the next task, in the given order, goes to whichever worker
    finishes first.  A worker leaves only through os._exit, at None, at end
    of file (its parent is gone) or on an exception, so it never runs this
    process's exit handlers or flushes its buffers.  Every worker is reaped
    before this returns, and killed first if this process raises.

    A worker that dies fails only the task it was running, and a fresh worker
    takes its place.  The cells of that task run again one at a time, each in
    a fresh worker, so only the cell that kills its worker fails, with the
    exit status or the signal in its detail.

    When a cell uses numpy (a float check, or root finding), numpy is
    imported here, before the fork, so the workers inherit it instead of each
    importing it.
    """
    import pickle
    import select

    def uses_numpy(check_id, n):
        if check_id == "galkin":
            from .spectra import GALKIN_CROSSCHECK_MAX_N

            return n <= GALKIN_CROSSCHECK_MAX_N
        return check_id in ("diagonalization", "simultaneous_diag", "fpdim_consistency")

    if any(uses_numpy(*cell) for task in tasks for cell in task):
        import numpy  # noqa: F401

    chunks = [None] * len(tasks)
    deaths = {}  # task index: wait status of the worker that died running it
    todo = iter(range(len(tasks)))
    running = {}  # result pipe: (pid, task pipe, task index)

    def start(i):
        task_r, task_w = os.pipe()
        result_r, result_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(task_w)
                os.close(result_r)
                for reader, (_, writer, _) in running.items():
                    reader.close()
                    os.close(writer)
                _serve(tasks, task_r, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(result_w)
        reader = os.fdopen(result_r, "rb")
        running[reader] = (pid, task_w, i)
        send(reader, i)

    def send(reader, i):
        pid, writer, _ = running[reader]
        try:
            os.write(writer, pickle.dumps(i))
        except BrokenPipeError:  # the worker died; its result pipe says so
            pass
        if i is None:
            reap(reader)
        else:
            running[reader] = (pid, writer, i)

    def reap(reader):
        pid, writer, _ = running.pop(reader)
        reader.close()
        os.close(writer)
        return os.waitpid(pid, 0)[1]

    try:
        for _, i in zip(range(workers), todo):
            start(i)
        while running:
            for reader in select.select(list(running), [], [])[0]:
                i = running[reader][2]
                try:
                    _, chunks[i] = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):  # the worker died
                    deaths[i] = reap(reader)
                    if (i := next(todo, None)) is not None:
                        start(i)
                else:
                    send(reader, next(todo, None))
    finally:
        if running:
            import signal

            for reader, (pid, _, _) in list(running.items()):
                os.kill(pid, signal.SIGKILL)
                reap(reader)
    out = []
    for i, (task, chunk) in enumerate(zip(tasks, chunks)):
        if i not in deaths:
            out += chunk
        elif len(task) > 1:
            for cell in task:
                out += _run_pool([[cell]], 1)
        else:
            out.append(_cell_failures(task[0], _death_detail(deaths[i])))
    return out


def run_suite(n_min: int, n_max: int, checks=None, jobs: int = 1) -> VerificationReport:
    """Run the requested checks for every n in [n_min, n_max].

    Results cover every (check, n, p) combination the checks' own case maps
    admit in the range; they are sorted by (check_id, n, p) and the summary
    tallies pass/fail per check.  checks=None runs every check; an empty list
    raises ValueError rather than pass vacuously, and so does a bare string,
    which would otherwise be read letter by letter.  The cells of one n form one
    task, run in one of pool_workers(jobs, n values) processes, or in this
    process when that is one.  Output is deterministic regardless of jobs.
    """
    if not (2 <= n_min <= n_max):
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if checks is None:
        checks = CHECK_IDS
    elif isinstance(checks, str):
        raise ValueError(f"pass a collection of check ids, not the string {checks!r}")
    checks = sorted(set(checks))
    if not checks:
        raise ValueError("no check ids given; omit checks to run them all")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    # Largest n first, so the slowest tasks start first in the pool.
    tasks = [[(cid, n) for cid in checks] for n in range(n_max, n_min - 1, -1)]
    workers = pool_workers(jobs, len(tasks))
    if workers > 1:
        chunks = _run_pool(tasks, workers)
    else:
        chunks = [run_check_cell(*cell) for task in tasks for cell in task]
    results = [r for chunk in chunks for r in chunk]
    results.sort(key=lambda r: (r.check_id, r.n, r.p))
    summary = {cid: {"pass": 0, "fail": 0} for cid in checks}
    for r in results:
        summary[r.check_id][r.status] += 1
    return VerificationReport(
        tool_version=serialize.VERSION,
        n_range=(n_min, n_max),
        results=results,
        summary=summary,
    )
