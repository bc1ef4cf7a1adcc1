"""Acceptance gate: one test per published exit criterion, at stated tolerances.

Each test prints a single PASS line once its assertions hold, so running

    pytest tests/test_acceptance.py -v -s

gives one line per criterion.  Tolerances and ranges are pinned here; nothing
is deferred to later calibration.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np

from oddquadric import (
    Poly,
    all_roots,
    all_roots_simple,
    basis_vector,
    build_a1,
    build_ap,
    charpoly_cofactor,
    charpoly_faddeev,
    closed_eigenvalues,
    closed_form_charpoly,
    corollary_32_check,
    eigenvector,
    fp_dim,
    galkin_check,
    galkin_margin,
    make_context,
    match_root_multisets,
    max_root_modulus,
    operator_eigenvalue,
    star_multiply,
    verify_diagonalization,
)
from oddquadric import ring
from oddquadric.spectra import _eigen_selectors, operator_as_array

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN_A1_N2 = (
    (0, 0, 1, 0),
    (1, 0, 0, 1),
    (0, 2, 0, 0),
    (0, 0, 1, 0),
)


def report(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_golden_matrix():
    ctx = make_context(2)
    expected = tuple(tuple(Fraction(v) for v in row) for row in GOLDEN_A1_N2)
    ring._operators.cache_clear()
    t0 = time.perf_counter()
    got = build_a1(ctx)
    elapsed = time.perf_counter() - t0
    assert got.rows == expected
    assert elapsed < 1e-3, f"build took {elapsed * 1e3:.3f} ms"
    report(1, f"golden 4x4 matrix exact, built in {elapsed * 1e6:.0f} us")


def test_criterion_02_degree_one_charpoly_sweep():
    t0 = time.perf_counter()
    for n in range(2, 17):
        expected = Poly([0, -4] + [0] * (2 * n - 2) + [1])
        assert charpoly_faddeev(build_a1(make_context(n))) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(2, f"lam^(2n) - 4 lam for n in [2,16] in {elapsed:.1f} s")


def test_criterion_03_closed_form_sweep():
    t0 = time.perf_counter()
    cases = 0
    for n in range(2, 17):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            assert charpoly_faddeev(build_ap(ctx, p)) == closed_form_charpoly(ctx, p)
            cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(3, f"{cases} exact closed-form matches for n in [2,16] in {elapsed:.1f} s")


def test_criterion_04_oracle_equivalence():
    t0 = time.perf_counter()
    cases = 0
    for n in range(2, 5):
        ctx = make_context(n)
        for p in range(0, 2 * n):
            op = build_ap(ctx, p)
            assert charpoly_cofactor(op) == charpoly_faddeev(op)
            cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    report(4, f"cofactor and trace recursion agree on {cases} operators in {elapsed:.1f} s")


def test_criterion_05_cayley_hamilton_consequence():
    for n in range(2, 17):
        m = build_a1(make_context(n))
        assert m ** (2 * n) == m.scale(4)
    report(5, "A^(2n) = 4A exactly for n in [2,16]")


def test_criterion_06_diagonalization():
    worst_diag = worst_vec = 0.0
    for n in range(2, 21):
        ctx = make_context(n)
        rep = verify_diagonalization(ctx)
        assert rep.p_invertible, f"pivot test failed at n={n}"
        assert rep.residual_diag <= 1e-9
        worst_diag = max(worst_diag, rep.residual_diag)
        a = operator_as_array(ctx, 1)
        for j in _eigen_selectors(ctx):
            v = np.array(eigenvector(ctx, j))
            lam = operator_eigenvalue(ctx, 1, j)
            resid = float(np.max(np.abs(a @ v - lam * v)))
            assert resid <= 1e-9
            worst_vec = max(worst_vec, resid)
    report(6, f"diagonalization for n <= 20, residuals <= {max(worst_diag, worst_vec):.2e}")


def test_criterion_07_eigenvalue_identity():
    for n in range(2, 21):
        assert corollary_32_check(make_context(n))
    report(7, "(lam^(2n-1)-2)/2 in {-1,+1} within 1e-9 for n <= 20")


def test_criterion_08_multiplicity_multisets():
    for n in range(2, 13):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            pairs = closed_eigenvalues(ctx, p)
            roots = all_roots(closed_form_charpoly(ctx, p))
            ok, detail = match_root_multisets(pairs, roots, tol=1e-8)
            assert ok, f"n={n} p={p}: {detail}"
            if p != 2 * n - 1:
                d = gcd(p, 2 * n - 1)
                for ep in pairs:
                    if abs(ep.value) > 1e-12:
                        assert ep.multiplicity == d
    report(8, "eigenvalue multisets match exact roots within 1e-8 for n <= 12")


def test_criterion_09_fp_dim_consistency():
    worst = 0.0
    for n in range(2, 13):
        ctx = make_context(n)
        for p in range(1, 2 * n):
            err = abs(fp_dim(ctx, p) - max_root_modulus(closed_form_charpoly(ctx, p)))
            assert err <= 1e-8
            worst = max(worst, err)
    assert abs(fp_dim(make_context(2), 1) - 2 ** (2 / 3)) <= 1e-12
    assert fp_dim(make_context(2), 3) == 1.0
    assert fp_dim(make_context(7), 13) == 1.0
    report(9, f"FPdim vs located spectral radius within 1e-8 (worst {worst:.2e})")


def test_criterion_10_simplicity_criterion():
    for n in range(2, 17):
        ctx = make_context(n)
        for p in range(1, 2 * n - 1):
            simple = all_roots_simple(closed_form_charpoly(ctx, p))
            assert simple == (gcd(p, 2 * n - 1) == 1), (n, p)
        assert not all_roots_simple(closed_form_charpoly(ctx, 2 * n - 1))
    report(10, "squarefree simplicity equals the gcd criterion for n <= 16")


def test_criterion_11_lower_bound():
    t0 = time.perf_counter()
    for n in range(2, 10**6 + 1):
        if galkin_margin(n) <= 0:
            raise AssertionError(f"margin not positive at n={n}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    for n in range(2, 13):
        result = galkin_check(make_context(n))
        assert result.passed
        assert result.cross_residual is not None and result.cross_residual <= 1e-8
    report(11, f"margins positive up to n = 10^6 in {elapsed:.1f} s, exact cross-check for n <= 12")


def test_criterion_12_ring_properties():
    for n in range(2, 11):
        ctx = make_context(n)
        ops = [build_ap(ctx, p) for p in range(2 * n)]
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                assert ops[a] * ops[b] == ops[b] * ops[a]
    for n in range(2, 13):
        ctx = make_context(n)
        e0 = basis_vector(ctx, 0)
        for p in range(2 * n):
            assert build_ap(ctx, p).apply(e0) == basis_vector(ctx, p)
        m = 2 * n - 1
        for p in range(1, 2 * n - 1):
            for j, row in enumerate(build_ap(ctx, p).rows):
                for i, v in enumerate(row):
                    if v:
                        assert (j - i - p) % m == 0
    for n in range(2, 7):
        ctx = make_context(n)
        basis = [basis_vector(ctx, p) for p in range(2 * n)]
        for a in basis:
            for b in basis:
                ab = star_multiply(ctx, a, b)
                for c in basis:
                    assert star_multiply(ctx, ab, c) == star_multiply(
                        ctx, a, star_multiply(ctx, b, c)
                    )
    report(12, "commutativity (n<=10), unit column and grading (n<=12), associativity (n<=6), all exact")


def test_criterion_13_verify_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    args = [
        sys.executable, "-m", "oddquadric",
        "verify", "--n-min", "2", "--n-max", "3", "--format", "json",
    ]
    outs = []
    for jobs in ("1", "1", "2", "3"):
        proc = subprocess.run(args + ["--jobs", jobs], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] and all(o == outs[0] for o in outs)
    report(13, "verify output byte-identical across runs and --jobs settings")
