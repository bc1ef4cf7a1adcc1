"""Verifier suite: determinism, completeness, witnesses, and the mutation probe."""

import multiprocessing
import os
import time
from fractions import Fraction

import pytest

from oddquadric import CHECK_IDS, make_context, run_suite, simplicity_table
from oddquadric import ring, serialize
from oddquadric.verifier import CHECKS, GOLDEN_A1_N2, pool_workers, run_check_cell

EXPECTED_CASE_COUNTS_2_TO_4 = {
    "chevalley_golden": 1,
    "charpoly_main": 15,
    "charpoly_oracle": 18,
    "cayley_hamilton": 3,
    "unit_column": 18,
    "commutativity": 3,
    "grading": 12,
    "diagonalization": 3,
    "corollary32": 3,
    "simultaneous_diag": 15,
    "fpdim_consistency": 15,
    "simplicity_gcd": 15,
    "galkin": 3,
}


def test_all_pass_on_small_range():
    report = run_suite(2, 4)
    assert report.all_passed
    assert all(r.witness is None for r in report.results)


def test_completeness_every_covered_cell_reported():
    report = run_suite(2, 4)
    counts = {cid: 0 for cid in CHECK_IDS}
    for r in report.results:
        counts[r.check_id] += 1
    assert counts == EXPECTED_CASE_COUNTS_2_TO_4
    assert len(report.results) == sum(EXPECTED_CASE_COUNTS_2_TO_4.values())


def test_results_sorted_and_summary_tallies():
    report = run_suite(2, 3)
    keys = [(r.check_id, r.n, r.p) for r in report.results]
    assert keys == sorted(keys)
    for cid, counts in report.summary.items():
        matching = [r for r in report.results if r.check_id == cid]
        assert counts["pass"] == sum(1 for r in matching if r.status == "pass")
        assert counts["fail"] == sum(1 for r in matching if r.status == "fail")


def test_determinism_byte_identical():
    a = serialize.dumps_canonical(serialize.report_json(run_suite(2, 3)))
    b = serialize.dumps_canonical(serialize.report_json(run_suite(2, 3)))
    assert a == b


def test_parallel_matches_serial():
    serial = run_suite(2, 3, jobs=1)
    parallel = run_suite(2, 3, jobs=2)
    assert serialize.report_json(serial) == serialize.report_json(parallel)


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check ids"):
        run_suite(2, 3, checks=["charpoly_main", "nope"])


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        run_suite(1, 3)
    with pytest.raises(ValueError):
        run_suite(4, 3)


def test_subset_of_checks():
    report = run_suite(2, 2, checks=["chevalley_golden"])
    assert [r.check_id for r in report.results] == ["chevalley_golden"]
    assert report.all_passed


def test_golden_matrix_serialization_is_byte_identical():
    got = serialize.dumps_canonical(serialize.matrix_json(ring.build_a1(make_context(2))))
    want = serialize.dumps_canonical(
        serialize.matrix_json(ring.Matrix(GOLDEN_A1_N2))
    )
    assert got == want


def test_oracle_check_covers_only_small_dimensions():
    cases_fn, _ = CHECKS["charpoly_oracle"]
    assert cases_fn(5) == list(range(10))
    assert cases_fn(6) == []


def test_simplicity_table_values():
    rows = {(r.n, r.p): r for r in simplicity_table(2, 5)}
    assert rows[(5, 3)].d == 3 and not rows[(5, 3)].simple
    assert rows[(2, 1)].d == 1 and rows[(2, 1)].simple
    assert not rows[(2, 3)].simple
    for row in rows.values():
        predicted = row.d == 1 and row.p != 2 * row.n - 1
        assert row.simple == predicted


def test_witness_cap_inserts_marker():
    big = {"blob": "x" * (serialize.WITNESS_CAP_BYTES + 100)}
    capped = serialize.cap_witness(big)
    assert capped["truncated"] is True
    assert capped["original_bytes"] > serialize.WITNESS_CAP_BYTES
    small = {"ok": 1}
    assert serialize.cap_witness(small) is small


def _literal_rule_column(ctx, p):
    """The uncorrected degree-one product rule: the doubling placed at p = n.

    Where the p = n and p = 2n-2 ranges collide (n = 2) the doubling branch
    wins, dropping the quantum wrap term.
    """
    n = ctx.n
    coeffs = [Fraction(0)] * ctx.basis_size
    if p == 0:
        coeffs[1] = Fraction(1)
    elif 1 <= p <= n - 1:
        coeffs[p + 1] = Fraction(1)
    elif p == n:
        coeffs[n + 1] = Fraction(2)
    elif p <= 2 * n - 3:
        coeffs[p + 1] = Fraction(1)
    elif p == 2 * n - 2:
        coeffs[2 * n - 1] = Fraction(1)
        coeffs[0] = Fraction(1)
    else:
        coeffs[1] = Fraction(1)
    return tuple(coeffs)


class TestMutationProbe:
    """Flipping the doubling to the uncorrected rule must be caught.

    The golden-matrix check fails at n = 2, and so does the closed-form
    comparison there (the branch collision at n = 2 destroys the quantum wrap
    coefficient).  At n = 3 the two conventions are conjugate by a diagonal
    rescaling, so the closed-form comparison passes again: characteristic
    polynomials are convention-invariant, the golden matrix is not.  The
    dual-algorithm check stays green throughout, since both algorithms see
    the same mutated matrix.
    """

    @pytest.fixture
    def mutated(self, monkeypatch):
        ring.build_a1.cache_clear()
        ring.build_ap.cache_clear()
        monkeypatch.setattr(ring, "chevalley_column", _literal_rule_column)
        yield
        ring.build_a1.cache_clear()
        ring.build_ap.cache_clear()

    def test_golden_flips_at_n2(self, mutated):
        results = run_check_cell("chevalley_golden", 2)
        assert [r.status for r in results] == ["fail"]
        assert results[0].witness is not None

    def test_charpoly_main_flips_at_n2_but_not_n3(self, mutated):
        at_n2 = run_check_cell("charpoly_main", 2)
        assert any(r.status == "fail" for r in at_n2)
        at_n3 = run_check_cell("charpoly_main", 3)
        assert all(r.status == "pass" for r in at_n3)

    def test_dual_algorithms_still_agree(self, mutated):
        results = run_check_cell("charpoly_oracle", 2)
        assert all(r.status == "pass" for r in results)

    def test_witness_present_iff_fail(self, mutated):
        for r in run_check_cell("chevalley_golden", 2) + run_check_cell("charpoly_main", 2):
            assert (r.status == "fail") == (r.witness is not None)


def test_exceptions_become_failures(monkeypatch):
    from oddquadric import verifier

    def boom(n, p):
        raise RuntimeError("synthetic")

    monkeypatch.setitem(verifier.CHECKS, "galkin", (lambda n: [-1], boom))
    results = run_check_cell("galkin", 2)
    assert results[0].status == "fail"
    assert "synthetic" in results[0].detail


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched check only when forked",
)
def test_dead_worker_becomes_failures(monkeypatch):
    from oddquadric import verifier

    def die(n, p):
        if n == 3:
            os._exit(1)
        return True, "alive", None

    monkeypatch.setitem(verifier.CHECKS, "galkin", (lambda n: [-1], die))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool even on a one-CPU machine
    report = run_suite(2, 4, checks=["galkin", "corollary32"], jobs=2)
    keys = [(r.check_id, r.n, r.p) for r in report.results]
    assert keys == sorted(keys)
    assert len(keys) == 6
    dead = next(r for r in report.results if (r.check_id, r.n) == ("galkin", 3))
    assert dead.status == "fail"
    assert "BrokenProcessPool" in dead.detail
    assert not report.all_passed


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched check only when forked",
)
def test_dead_worker_fails_only_its_own_cell(monkeypatch):
    from oddquadric import verifier

    def die(n, p):
        if n == 3:
            os._exit(1)
        time.sleep(0.1)  # so later cells are still pending when the worker dies
        return True, "alive", None

    monkeypatch.setitem(verifier.CHECKS, "galkin", (lambda n: [-1], die))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = run_suite(2, 8, checks=["galkin"], jobs=2)
    assert [(r.n, r.status) for r in report.results] == [
        (n, "fail" if n == 3 else "pass") for n in range(2, 9)
    ]
    assert "BrokenProcessPool" in report.results[1].detail
    assert all(r.detail == "alive" for r in report.results if r.n != 3)
    assert report.summary == {"galkin": {"pass": 6, "fail": 1}}


def test_pool_workers_bounded_by_cells_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pool_workers(10**9, 10**6) == 4
    assert pool_workers(10**9, 3) == 3
    assert pool_workers(2, 10**6) == 2
    assert pool_workers(1, 10**6) == 1
    assert pool_workers(0, 5) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown CPU count
    assert pool_workers(10**9, 10**6) == 1
