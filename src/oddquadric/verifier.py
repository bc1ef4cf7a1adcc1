"""Batch certification of the ring and spectral invariants over (n, p) ranges.

Every check computes its expected side independently of the code path under
test: closed forms are literal transcriptions, computed operators go through
the exact trace recursion, and numeric roots come from the simultaneous
iteration.  Failures carry a serialized witness; runs never abort early and
the assembled report is deterministic, including under parallel execution.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import serialize
from .charpoly import (
    all_roots_simple,
    charpoly_cofactor,
    charpoly_faddeev,
    closed_form_charpoly,
    COFACTOR_DIM_LIMIT,
)
from .poly import Poly
from .ring import Matrix, basis_vector, build_a1, build_ap, make_context
from .spectra import (
    DIAG_RESIDUAL_TOL,
    ROOT_MATCH_TOL,
    SHARED_EIGVEC_TOL,
    corollary_32_check,
    eigenvector,
    fp_dim,
    galkin_check,
    max_root_modulus,
    operator_as_array,
    operator_eigenvalue,
    verify_diagonalization,
)

#: The 4x4 degree-one operator of the smallest family member (n = 2), the
#: golden value every build must reproduce entry for entry.
GOLDEN_A1_N2 = (
    (0, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 2, 0, 0),
    (0, 0, 1, 0),
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    n: int
    p: int  # -1 for per-n checks
    status: str  # "pass" | "fail"
    detail: str
    witness: dict | None = None


@dataclass
class VerificationReport:
    tool_version: str
    n_range: tuple[int, int]
    results: list[CheckResult] = field(default_factory=list)
    summary: dict[str, dict[str, int]] = field(default_factory=dict)

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
    got = build_ap(ctx, p).apply(basis_vector(ctx, 0))
    want = basis_vector(ctx, p)
    if got == want:
        return True, "operator sends the unit to its own class", None
    return False, "unit column is wrong", {
        "expected": serialize.vector_json(want),
        "got": serialize.vector_json(got),
    }


def _check_commutativity(n, p):
    ctx = make_context(n)
    ops = [build_ap(ctx, q) for q in range(2 * n)]
    for a in range(2 * n):
        for b in range(a + 1, 2 * n):
            if ops[a] * ops[b] != ops[b] * ops[a]:
                return False, f"operators for degrees {a} and {b} do not commute", {
                    "p": a,
                    "r": b,
                    "ab": serialize.matrix_json(ops[a] * ops[b]),
                    "ba": serialize.matrix_json(ops[b] * ops[a]),
                }
    return True, "all operator pairs commute exactly", None


def _check_grading(n, p):
    ctx = make_context(n)
    op = build_ap(ctx, p)
    m = 2 * n - 1
    for j, row in enumerate(op.rows):
        for i, v in enumerate(row):
            if v and (j - i - p) % m != 0:
                return False, f"nonzero entry at ({j},{i}) violates degree grading", {
                    "row": j,
                    "col": i,
                    "entry": serialize.frac_str(v),
                }
    return True, "all nonzero entries respect the degree grading", None


def _check_diagonalization(n, p):
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
    ctx = make_context(n)
    if corollary_32_check(ctx):
        return True, "eigenvalue identity (lam^(2n-1)-2)/2 in {-1,+1} holds", None
    return False, "eigenvalue identity violated", {"n": n}


def _check_simultaneous_diag(n, p):
    ctx = make_context(n)
    a = operator_as_array(ctx, p)
    worst = 0.0
    for j in ["zero"] + list(range(2 * n - 1)):
        v = np.array(eigenvector(ctx, j))
        mu = operator_eigenvalue(ctx, p, j)
        worst = max(worst, float(np.max(np.abs(a @ v - mu * v))))
    if worst <= SHARED_EIGVEC_TOL:
        return True, f"shared eigenvectors hold, worst residual {worst:.3e}", None
    return False, f"shared-eigenvector residual {worst:.3e} exceeds {SHARED_EIGVEC_TOL:g}", {
        "residual": worst,
    }


def _check_fpdim_consistency(n, p):
    ctx = make_context(n)
    closed = fp_dim(ctx, p)
    located = max_root_modulus(closed_form_charpoly(ctx, p))
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
        except Exception as exc:  # never abort the sweep
            ok, detail, witness = False, f"check raised {type(exc).__name__}: {exc}", None
        results.append(
            CheckResult(
                check_id=check_id,
                n=n,
                p=p,
                status="pass" if ok else "fail",
                detail=detail,
                witness=serialize.cap_witness(witness) if not ok and witness else None,
            )
        )
    return results


def _run_cell(args):
    return run_check_cell(*args)


def _cell_failures(cell, exc: BaseException) -> list[CheckResult]:
    """One failure per case of a cell whose worker could not deliver its results."""
    check_id, n = cell
    detail = f"worker failed: {type(exc).__name__}: {exc}"
    return [CheckResult(check_id, n, p, "fail", detail) for p in CHECKS[check_id][0](n)]


def pool_workers(jobs: int, cells: int) -> int:
    """Worker processes for a run of `cells` cells at `jobs`: at most one per
    cell and one per CPU, so a large --jobs never starts more processes."""
    return max(1, min(jobs, cells, os.cpu_count() or 1))


def _run_pool(cells, workers: int) -> list[list[CheckResult]]:
    """The results of each cell, run in a pool of `workers` processes.

    A worker that dies breaks the whole pool, and every cell it has not
    delivered fails with BrokenProcessPool.  Those cells run again one at a
    time, each in a fresh single-worker pool, so only the cell that kills
    its worker is recorded as failed.
    """
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_cell, cell) for cell in cells]
    chunks = []
    for cell, future in zip(cells, futures):
        exc = future.exception()
        if exc is None:
            chunks.append(future.result())
        elif isinstance(exc, concurrent.futures.BrokenExecutor) and len(cells) > 1:
            chunks += _run_pool([cell], 1)
        else:  # never abort the sweep
            chunks.append(_cell_failures(cell, exc))
    return chunks


def run_suite(n_min: int, n_max: int, checks=None, jobs: int = 1) -> VerificationReport:
    """Run the requested checks for every n in [n_min, n_max].

    Results cover every (check, n, p) combination the checks' own case maps
    admit in the range; they are sorted by (check_id, n, p) and the summary
    tallies pass/fail per check.  With jobs > 1 the (check, n) cells run in
    pool_workers(jobs, cells) processes.  Output is deterministic regardless
    of jobs.
    """
    if not (2 <= n_min <= n_max):
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if checks is None:
        checks = CHECK_IDS
    checks = sorted(set(checks))
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    cells = [(cid, n) for cid in checks for n in range(n_min, n_max + 1)]
    workers = pool_workers(jobs, len(cells))
    if workers > 1:
        chunks = _run_pool(cells, workers)
    else:
        chunks = [run_check_cell(*cell) for cell in cells]
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


@dataclass(frozen=True)
class SimplicityRow:
    n: int
    p: int
    d: int
    simple: bool


def simplicity_table(n_min: int, n_max: int) -> list[SimplicityRow]:
    """Per-(n, p) simplicity verdicts, computed from the polynomial, never the gcd.

    The d column carries the gcd prediction (simple iff d = 1 and p is not
    the point degree); comparing the two columns is the caller's assertion.
    """
    if not (2 <= n_min <= n_max):
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    rows = []
    for n in range(n_min, n_max + 1):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            f = closed_form_charpoly(ctx, p)
            rows.append(SimplicityRow(n=n, p=p, d=ctx.d(p), simple=all_roots_simple(f)))
    return rows
