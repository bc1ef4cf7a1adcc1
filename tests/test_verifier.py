"""Verifier suite: determinism, completeness, witnesses, and the mutation probe."""

import os
import signal
import time

import numpy as np
import pytest

from coefficient_lists import mul
from oddquadric import (
    CHECK_IDS,
    Poly,
    closed_form_charpoly,
    eigenvector,
    make_context,
    operator_eigenvalue,
    run_suite,
    squarefree_decomposition,
)
from oddquadric import charpoly, ring, serialize, spectra, verifier
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


def test_cells_dispatched_largest_n_first(monkeypatch):
    seen = []

    def record(check_id, n):
        seen.append((check_id, n))
        return []

    monkeypatch.setattr(verifier, "run_check_cell", record)
    run_suite(2, 5, checks=["galkin", "grading"], jobs=1)
    assert [n for _, n in seen] == [5, 5, 4, 4, 3, 3, 2, 2]
    assert sorted(seen) == [(c, n) for c in ("galkin", "grading") for n in range(2, 6)]


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


def test_empty_check_list_rejected():
    with pytest.raises(ValueError, match="no check ids"):
        run_suite(2, 3, checks=[])


def test_bare_string_of_checks_rejected():
    # a str is iterable, so it would be taken for the ids "g", "a", "l", ...
    with pytest.raises(ValueError, match="collection of check ids"):
        run_suite(2, 3, checks="galkin")
    assert run_suite(2, 2, checks=("galkin",)).summary == {"galkin": {"pass": 1, "fail": 0}}


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
    if p == 0:
        return ((1, 1),)
    if 1 <= p <= n - 1:
        return ((p + 1, 1),)
    if p == n:
        return ((n + 1, 2),)
    if p <= 2 * n - 3:
        return ((p + 1, 1),)
    if p == 2 * n - 2:
        return ((0, 1), (2 * n - 1, 1))
    return ((1, 1),)


class TestMutationProbe:
    """Flipping the doubling to the uncorrected rule must be caught.

    The golden-matrix check fails at n = 2, and so does the closed-form
    comparison there (the branch collision at n = 2 destroys the quantum wrap
    coefficient).  At n = 3 the two conventions are conjugate by a diagonal
    rescaling, so the closed-form comparison passes for every p < n:
    characteristic polynomials are convention-invariant, the golden matrix is
    not.  At p = n, though, A_1^n has not doubled yet, so build_ap refuses to
    halve it at every n.  Each A_p above is formed from A_(p-1), so no
    operator from the middle degree on can be formed, and each check of those
    operators fails.  The dual-algorithm check stays green wherever the
    operator is built, since both algorithms see the same mutated matrix.
    """

    @pytest.fixture
    def mutated(self, monkeypatch):
        ring._operators.cache_clear()
        monkeypatch.setattr(ring, "chevalley_column", _literal_rule_column)
        yield
        ring._operators.cache_clear()

    def test_golden_flips_at_n2(self, mutated):
        results = run_check_cell("chevalley_golden", 2)
        assert [r.status for r in results] == ["fail"]
        assert results[0].witness is not None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_halving_refuses_every_p_from_n_on(self, mutated, n):
        ctx = make_context(n)
        refused = []
        for p in range(2 * n):
            try:
                ring.build_ap(ctx, p)
            except ArithmeticError as exc:
                assert str(exc) == f"A_1^{n} has an odd entry, so t_{n} has no integer operator"
                refused.append(p)
        assert refused == list(range(n, 2 * n))

    def test_charpoly_main_flips_at_every_n(self, mutated):
        at_n2 = run_check_cell("charpoly_main", 2)
        assert [r.status for r in at_n2] == ["fail"] * 3
        for n in (3, 4):
            results = run_check_cell("charpoly_main", n)
            assert [r.p for r in results if r.status == "fail"] == list(range(n, 2 * n))
            for r in results[n - 1 :]:
                assert r.detail.startswith(f"check raised ArithmeticError: A_1^{n} ")

    def test_dual_algorithms_still_agree(self, mutated):
        results = run_check_cell("charpoly_oracle", 2)
        assert [r.status for r in results] == ["pass", "pass", "fail", "fail"]
        for r in results[2:]:
            assert r.detail.startswith("check raised ArithmeticError: A_1^2 ")

    def test_witness_present_iff_fail(self, mutated):
        # a check that raised has no witness; every other failure has one
        for r in run_check_cell("chevalley_golden", 2) + run_check_cell("charpoly_main", 2):
            raised = r.detail.startswith("check raised")
            assert (r.status == "fail" and not raised) == (r.witness is not None)
        assert sum(r.witness is not None for r in run_check_cell("charpoly_main", 2)) == 1


def test_exceptions_become_failures(monkeypatch):
    from oddquadric import verifier

    def boom(n, p):
        raise RuntimeError("synthetic")

    monkeypatch.setitem(verifier.CHECKS, "galkin", (lambda n: [-1], boom))
    results = run_check_cell("galkin", 2)
    assert results[0].status == "fail"
    assert "synthetic" in results[0].detail


def test_a_witness_json_cannot_encode_fails_only_its_cell(monkeypatch):
    def unencodable(n, p):
        return False, "synthetic failure", {"columns": {0, 1}}

    monkeypatch.setitem(verifier.CHECKS, "galkin", (lambda n: [-1], unencodable))
    report = run_suite(2, 3, checks=["galkin", "grading"])
    failed = [(r.check_id, r.n, r.p) for r in report.results if r.status == "fail"]
    assert failed == [("galkin", 2, -1), ("galkin", 3, -1)]
    assert all("not JSON serializable" in r.detail for r in report.results if r.status == "fail")
    assert all(r.witness is None for r in report.results)
    serialize.dumps_canonical(serialize.report_json(report))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="pool workers are forked")


@pytest.fixture
def two_cpus(monkeypatch):
    """A pool even on a one-CPU machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_dead_worker_becomes_failures(monkeypatch, two_cpus):
    from oddquadric import verifier

    def die(n, p):
        if n == 3:
            os._exit(1)
        return True, "alive", None

    monkeypatch.setitem(verifier.CHECKS, "galkin", (lambda n: [-1], die))
    report = run_suite(2, 4, checks=["galkin", "corollary32"], jobs=2)
    keys = [(r.check_id, r.n, r.p) for r in report.results]
    assert keys == sorted(keys)
    assert len(keys) == 6
    dead = next(r for r in report.results if (r.check_id, r.n) == ("galkin", 3))
    assert dead.status == "fail"
    assert dead.detail == "worker died with exit status 1"
    assert not report.all_passed
    assert_no_child_left()


def run_with_a_killing_cell(monkeypatch, die):
    """galkin over n = 2..8 at --jobs 2, where the cell at n = 3 calls die()."""
    from oddquadric import verifier

    def check(n, p):
        if n == 3:
            die()
        time.sleep(0.1)  # so later cells are still pending when the worker dies
        return True, "alive", None

    monkeypatch.setitem(verifier.CHECKS, "galkin", (lambda n: [-1], check))
    report = run_suite(2, 8, checks=["galkin"], jobs=2)
    assert [(r.n, r.status) for r in report.results] == [
        (n, "fail" if n == 3 else "pass") for n in range(2, 9)
    ]
    assert all(r.detail == "alive" for r in report.results if r.n != 3)
    assert report.summary == {"galkin": {"pass": 6, "fail": 1}}
    assert_no_child_left()
    return report.results[1].detail


@needs_fork
def test_dead_worker_fails_only_its_own_cell(monkeypatch, two_cpus):
    detail = run_with_a_killing_cell(monkeypatch, lambda: os._exit(1))
    assert detail == "worker died with exit status 1"


@needs_fork
def test_a_worker_killed_by_a_signal_fails_only_its_own_cell(monkeypatch, two_cpus):
    detail = run_with_a_killing_cell(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    sig = signal.SIGKILL
    assert detail == f"worker killed by signal {int(sig)} ({signal.strsignal(sig)})"


@needs_fork
def test_a_clean_pool_run_leaves_no_child(two_cpus):
    report = run_suite(2, 4, checks=["galkin", "grading"], jobs=2)
    assert report.all_passed
    assert_no_child_left()


@needs_fork
def test_a_worker_that_raises_fails_its_cells_and_is_reaped(monkeypatch, two_cpus):
    from oddquadric import verifier

    def interrupted(task):
        raise KeyboardInterrupt  # run_check_cell lets it through

    monkeypatch.setattr(verifier, "_run_task", interrupted)
    report = run_suite(2, 3, checks=["galkin", "grading"], jobs=2)
    assert len(report.results) == 2 + 2 + 4
    assert all(r.detail == "worker died with exit status 1" for r in report.results)
    assert_no_child_left()


@needs_fork
def test_an_interrupted_parent_kills_and_reaps_its_workers(monkeypatch, two_cpus):
    import select

    from oddquadric import verifier

    def interrupted(*args):
        raise KeyboardInterrupt

    def slow(n, p):
        time.sleep(30)
        return True, "alive", None

    monkeypatch.setitem(verifier.CHECKS, "galkin", (lambda n: [-1], slow))
    monkeypatch.setattr(select, "select", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite(2, 4, checks=["galkin"], jobs=2)
    assert time.monotonic() - start < 10  # killed, not waited for
    assert_no_child_left()


def test_pool_workers_bounded_by_cells_and_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert pool_workers(10**9, 10**6) == 4
    assert pool_workers(10**9, 3) == 3
    assert pool_workers(2, 10**6) == 2
    assert pool_workers(1, 10**6) == 1
    assert pool_workers(0, 5) == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # no affinity: all CPUs
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool_workers(10**9, 10**6) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown CPU count
    assert pool_workers(10**9, 10**6) == 1


def test_pool_workers_count_only_the_cpus_this_process_may_use(monkeypatch):
    """As under `taskset -c 0`: the machine has four CPUs, the process one."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pool_workers(4, 10) == 1


def test_without_fork_every_run_is_in_process(monkeypatch, two_cpus):
    monkeypatch.delattr(os, "fork", raising=False)
    assert pool_workers(4, 10) == 1
    report = serialize.report_json(run_suite(2, 3, checks=["grading"], jobs=2))
    assert report == serialize.report_json(run_suite(2, 3, checks=["grading"], jobs=1))


RECORDS = {
    "QuadricContext": (lambda: make_context(3), ("n",)),
    "EigenPair": (lambda: spectra.closed_eigenvalues(make_context(3), 1)[1], ("value", "multiplicity")),
    "SpectrumReport": (
        lambda: spectra.spectrum_report(make_context(3), 2),
        ("ctx", "p", "eigenpairs", "fp_dim", "simple"),
    ),
    "Diagonalization": (
        lambda: spectra.verify_diagonalization(make_context(3)),
        ("residual_diag", "p_invertible"),
    ),
    "GalkinResult": (
        lambda: spectra.galkin_check(make_context(3)),
        ("n", "fpdim_c1", "bound", "margin", "passed", "cross_residual"),
    ),
    "CheckResult": (
        lambda: verifier.CheckResult("grading", 3, 1, "fail", "detail", {"row": 0}),
        ("check_id", "n", "p", "status", "detail", "witness"),
    ),
    "VerificationReport": (
        lambda: run_suite(2, 3, checks=["grading"]),
        ("tool_version", "n_range", "results", "summary"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_pickle_and_refuse_assignment(name):
    """Every result record keeps its fields in order, survives the pickle round
    trip a pool worker's results take, and refuses assignment to a field."""
    import pickle

    make, fields = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert record._fields == fields
    assert tuple(record) == tuple(getattr(record, f) for f in fields)
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)


def _reference_details(n):
    """diagonalization and simultaneous_diag details computed from the dense
    view, with every eigenvector array built afresh for each use."""
    ctx = make_context(n)
    selectors = ["zero"] + list(range(2 * n - 1))
    a = np.array([[float(v) for v in row] for row in ring.build_ap(ctx, 1).rows])
    pm = np.array([eigenvector(ctx, j) for j in selectors]).T
    dm = np.diag([operator_eigenvalue(ctx, 1, j) for j in selectors])
    residual = float(np.max(np.abs(a @ pm - pm @ dm)))
    invertible = spectra._pivot_ratio(pm) > spectra.PIVOT_RATIO
    diag = f"residual {residual:.3e}, eigenvector matrix {'invertible' if invertible else 'SINGULAR'}"
    shared = []
    for p in range(1, 2 * n):
        a = np.array([[float(v) for v in row] for row in ring.build_ap(ctx, p).rows])
        worst = 0.0
        for j in selectors:
            v = np.array(eigenvector(ctx, j))
            mu = operator_eigenvalue(ctx, p, j)
            worst = max(worst, float(np.max(np.abs(a @ v - mu * v))))
        shared.append(f"shared eigenvectors hold, worst residual {worst:.3e}")
    return diag, shared


@pytest.mark.parametrize("n", range(2, 17))
def test_numeric_details_match_the_dense_reference(n):
    diag, shared = _reference_details(n)
    assert [r.detail for r in run_check_cell("diagonalization", n)] == [diag]
    assert [r.detail for r in run_check_cell("simultaneous_diag", n)] == shared


def test_checks_read_no_dense_view(monkeypatch):
    """Every check but the one that serializes the dense matrix runs on the
    integer form; reading Matrix.rows raises."""

    def dense_view(self):
        raise AssertionError("dense view read")

    monkeypatch.setattr(ring.Matrix, "rows", property(dense_view))
    checks = [c for c in CHECK_IDS if c != "chevalley_golden"]
    report = run_suite(2, 6, checks=checks)
    assert [r for r in report.results if r.status == "fail"] == []
    assert sorted(report.summary) == checks


def _with_an_entry_at_origin(real):
    """build_ap with 1 added to the (0, 0) entry of A_2 at n = 3."""

    def mutated(ctx, p):
        op = real(ctx, p)
        if ctx.n == 3 and p == 2:
            rows = [list(row) for row in op.rows]
            rows[0][0] += 1
            return ring.Matrix(rows)
        return op

    return mutated


def test_commutativity_check_can_fail(monkeypatch):
    mutated = _with_an_entry_at_origin(verifier.build_ap)
    monkeypatch.setattr(verifier, "build_ap", mutated)
    assert [r.status for r in run_check_cell("commutativity", 2)] == ["pass"]
    (result,) = run_check_cell("commutativity", 3)
    assert result.status == "fail"
    assert result.detail == "operators for degrees 1 and 2 do not commute"
    ctx = make_context(3)
    a, b = mutated(ctx, 1), mutated(ctx, 2)
    assert result.witness == {
        "p": 1,
        "r": 2,
        "ab": serialize.matrix_json(a * b),
        "ba": serialize.matrix_json(b * a),
    }
    assert result.witness["ab"] != result.witness["ba"]


def _doubled(op, p):
    return op.scale(2)


def _halved(op, p):
    return ring.Matrix._exact(op.size, ring._halved(op, p))


@pytest.mark.parametrize(
    "mutate, degrees, entry",
    [
        (_doubled, range(3, 6), "2"),  # the halving dropped: 2 A_p from the middle degree on
        (_halved, range(1, 3), None),  # a halving below the middle, which the halving refuses
    ],
    ids=["no_halving", "halved_below_the_middle"],
)
def test_unit_column_check_can_fail(monkeypatch, mutate, degrees, entry):
    real = verifier.build_ap

    def mutated(ctx, p):
        op = real(ctx, p)
        return mutate(op, p) if p in degrees else op

    monkeypatch.setattr(verifier, "build_ap", mutated)
    results = run_check_cell("unit_column", 3)
    assert [r.p for r in results if r.status == "fail"] == list(degrees)
    # the witnesses are the ones the dense matrix-vector product gave, as
    # strings: t_p expected, entry * t_p got; an operator below the middle
    # holds entries 1, so the halving raises and the cell carries its message
    for p in degrees:
        if entry is None:
            assert results[p].detail.startswith(f"check raised ArithmeticError: A_1^{p} has an odd entry")
            assert results[p].witness is None
        else:
            assert results[p].detail == "unit column is wrong"
            assert results[p].witness == {
                "expected": ["1" if i == p else "0" for i in range(6)],
                "got": [entry if i == p else "0" for i in range(6)],
            }


def _without_doubling(ctx):
    """A_1 with the doubling entry t_1 * t_{n-1} = 2 t_n set to 1."""
    rows = [dict(row) for row in ring.build_a1(ctx).int_form()]
    rows[ctx.n][ctx.n - 1] = 1
    return ring.Matrix._exact(ctx.basis_size, rows)


def test_cayley_hamilton_check_can_fail(monkeypatch):
    monkeypatch.setattr(verifier, "build_a1", _without_doubling)
    (result,) = run_check_cell("cayley_hamilton", 3)
    assert result.status == "fail"
    assert result.detail == "A^(2n) != 4A"
    a = _without_doubling(make_context(3))
    assert result.witness == {  # the mutated operator satisfies A^(2n) = 2A instead
        "lhs": serialize.matrix_json(a.scale(2)),
        "rhs": serialize.matrix_json(a.scale(4)),
    }


def test_grading_check_can_fail(monkeypatch):
    # the entry at (0, 0) of A_2 has degree 0 - 0 - 2 = 3 (mod 5), not 0
    monkeypatch.setattr(verifier, "build_ap", _with_an_entry_at_origin(verifier.build_ap))
    results = run_check_cell("grading", 3)
    assert [r.p for r in results if r.status == "fail"] == [2]
    assert results[1].detail == "nonzero entry at (0,0) violates degree grading"
    assert results[1].witness == {"row": 0, "col": 0, "entry": "1"}


def test_diagonalization_check_can_fail(monkeypatch):
    real = spectra.operator_eigenvalue

    def moved(ctx, p, j):  # the eigenvalue of eigenvector 0 of A_1 moved by 1e-6
        return real(ctx, p, j) + (1e-6 if (p, j) == (1, 0) else 0)

    monkeypatch.setattr(spectra, "operator_eigenvalue", moved)
    (result,) = run_check_cell("diagonalization", 3)
    assert result.status == "fail"
    assert result.detail.endswith("eigenvector matrix invertible")
    assert result.witness["p_invertible"] is True
    # column 1 of P*D moves by 1e-6 times the eigenvector of 4^(1/5), whose
    # largest coordinate is its t_3 entry 4^(2/5)
    assert result.witness["residual"] == pytest.approx(1e-6 * 4 ** (2 / 5), rel=1e-6)


def test_simplicity_gcd_check_can_fail(monkeypatch):
    monkeypatch.setattr(verifier, "all_roots_simple", lambda f: True)
    results = run_check_cell("simplicity_gcd", 5)
    # gcd(p, 9) > 1 for p = 3 and 6, and the point class has the root 1 nine times
    assert [r.p for r in results if r.status == "fail"] == [3, 6, 9]
    for p, g in [(3, 3), (6, 3), (9, 9)]:
        assert results[p - 1].detail == "squarefree test contradicts the gcd criterion"
        assert results[p - 1].witness == {
            "squarefree_simple": True,
            "gcd": g,
            "charpoly": serialize.poly_json(closed_form_charpoly(make_context(5), p)),
        }


def test_charpoly_main_fails_on_a_wrong_factor_table(monkeypatch):
    # The factor table is the one statement of the closed form, so only the
    # computed side can catch a wrong one.  Negating every constant c keeps the
    # expansion monic of degree 2n; at the point class it swaps lam - 1 and
    # lam + 1.
    right = charpoly.closed_form_factors
    monkeypatch.setattr(
        charpoly,
        "closed_form_factors",
        lambda ctx, p: {(length, -c): k for (length, c), k in right(ctx, p).items()},
    )
    results = run_check_cell("charpoly_main", 5)
    assert [r.status for r in results] == ["fail"] * 9
    for r in results:
        assert r.detail == "computed characteristic polynomial deviates from the closed form"
        assert r.witness["closed_form"] == serialize.poly_json(closed_form_charpoly(make_context(5), r.p))


def test_galkin_check_can_fail(monkeypatch):
    real = spectra.max_root_modulus
    monkeypatch.setattr(spectra, "max_root_modulus", lambda f: real(f) + 1e-6)
    (result,) = run_check_cell("galkin", 3)
    assert result.status == "fail"
    assert result.witness["margin"] > 0  # the closed-form bound holds; the cross-check does not
    assert result.witness["cross_residual"] == pytest.approx(1e-6, rel=1e-6)
    assert result.detail.endswith("root cross-check residual 1.000e-06")


def _unsigned_cofactor(m):
    """Laplace expansion of lam*I - M with every cofactor sign +: the permanent."""

    def expand(rows):
        if not rows:
            return [1]
        total = [0] * (len(rows) + 1)
        for j, entry in enumerate(rows[0]):
            for k, c in enumerate(mul(entry, expand([row[:j] + row[j + 1 :] for row in rows[1:]]))):
                total[k] += c
        return total

    return Poly(expand([
        [[-v, 1] if i == j else [-v] for j, v in enumerate(row)]
        for i, row in enumerate(m.rows)
    ]))


def test_charpoly_oracle_check_can_fail(monkeypatch):
    monkeypatch.setattr(verifier, "charpoly_cofactor", _unsigned_cofactor)
    results = run_check_cell("charpoly_oracle", 2)
    # at n = 2 the permanent of lam*I - A_p equals the determinant for p < 3;
    # only the point class, A_1^3 / 2 - I, tells them apart
    assert [r.status for r in results] == ["pass"] * 3 + ["fail"]
    assert results[3].detail == "the two characteristic polynomial algorithms disagree"
    op = ring.build_ap(make_context(2), 3)
    assert results[3].witness == {
        "faddeev": serialize.poly_json(verifier.charpoly_faddeev(op)),
        "cofactor": serialize.poly_json(_unsigned_cofactor(op)),
    }
    assert results[3].witness["faddeev"] != results[3].witness["cofactor"]


def test_commutativity_needs_a_cyclic_degree_one_operator(monkeypatch):
    """With A_1 = I every operator commutes with A_1, yet A_2 and A_3 need not
    commute with each other; the cyclic-vector test is what catches it."""
    real = verifier.build_ap

    def mutated(ctx, p):
        op = real(ctx, p)
        if ctx.n == 3 and p in (1, 2):
            rows = [list(row) for row in (ring.Matrix.identity(6) if p == 1 else op).rows]
            rows[0][0] += p - 1  # A_2 gains 1 at (0, 0), as in _with_an_entry_at_origin
            return ring.Matrix(rows)
        return op

    monkeypatch.setattr(verifier, "build_ap", mutated)
    ctx = make_context(3)
    ops = [mutated(ctx, q) for q in range(6)]
    assert all(ops[1] * op == op * ops[1] for op in ops)
    assert ops[2] * ops[3] != ops[3] * ops[2]
    assert [r.status for r in run_check_cell("commutativity", 2)] == ["pass"]
    (result,) = run_check_cell("commutativity", 3)
    assert result.status == "fail"
    assert result.detail == "t_0 is not a cyclic vector of the degree-one operator"
    assert result.witness == {"k": 1, "krylov": ["1", "0", "0", "0", "0", "0"]}


@pytest.mark.parametrize("n", range(2, 17))
def test_degree_one_krylov_basis(n):
    """A_1^k t_0 is t_k below the middle, 2 t_k up to 2n - 2, and
    2 (t_{2n-1} + t_0) at the top: the triangular basis the check relies on."""
    ctx = make_context(n)
    vec = ring.basis_vector(ctx, 0)
    for k in range(2 * n):
        want = [0] * (2 * n)
        want[k] = 1 if k < n else 2
        if k == 2 * n - 1:
            want[0] = 2
        assert list(vec) == want
        vec = ring.build_a1(ctx).apply(vec)


def test_simultaneous_diag_fails_on_a_nan_residual(monkeypatch):
    monkeypatch.setattr(spectra, "operator_eigenvalue", lambda ctx, p, j: complex("nan"))
    results = run_check_cell("simultaneous_diag", 3)
    assert [r.status for r in results] == ["fail"] * 5
    assert results[0].detail == "shared-eigenvector residual nan exceeds 1e-08"


def test_simultaneous_diag_sums_every_nonzero(monkeypatch):
    """A dense perturbation of A_p (2n nonzeros in every row) fails the check,
    with the residual of the dense product."""
    real = spectra.operator_as_array
    monkeypatch.setattr(spectra, "operator_as_array", lambda ctx, p: real(ctx, p) + 1e-3)
    results = run_check_cell("simultaneous_diag", 3)
    assert [r.status for r in results] == ["fail"] * 5
    ctx = make_context(3)
    for p, r in zip(range(1, 6), results):
        a = real(ctx, p) + 1e-3
        e = np.array([eigenvector(ctx, j) for j in spectra._eigen_selectors(ctx)])
        mu = np.array([operator_eigenvalue(ctx, p, j) for j in spectra._eigen_selectors(ctx)])
        dense = float(np.max(np.abs(e @ a.T - mu[:, None] * e)))
        assert r.witness["residual"] == pytest.approx(dense, rel=1e-12)


def test_corollary32_fails_on_a_nan_eigenvalue(monkeypatch):
    real = spectra.tau1_eigenvalue
    monkeypatch.setattr(
        spectra, "tau1_eigenvalue", lambda ctx, j: complex("nan") if j == 2 else real(ctx, j)
    )
    (result,) = run_check_cell("corollary32", 3)
    assert result.status == "fail"
    assert result.detail == "eigenvalue identity violated"


@pytest.fixture
def cold_radii():
    """An empty per-n cache of located radii before and after the test."""
    spectra._closed_form_radii.cache_clear()
    yield
    spectra._closed_form_radii.cache_clear()


def _factor(n, p):
    """The nonlinear squarefree factor of p's closed form (n = 5: x^9 - 2^e)."""
    _, g = closed_form_charpoly(make_context(n), p).strip_zero_roots()
    ((factor, _),) = squarefree_decomposition(g)
    return [complex(c) for c in factor.coeffs]


def test_fpdim_consistency_fails_on_moved_roots(monkeypatch, cold_radii):
    """Moving the roots of one p outward by 1e-6 fails that p and no other."""
    real = spectra.durand_kerner_batch
    target = _factor(5, 2)

    def moved(polys, *args):
        outcomes = real(polys, *args)
        return [
            [r * (1 + 1e-6 / abs(r)) for r in roots] if coeffs == target else roots
            for coeffs, roots in zip(polys, outcomes)
        ]

    monkeypatch.setattr(spectra, "durand_kerner_batch", moved)
    results = run_check_cell("fpdim_consistency", 5)
    assert [r.p for r in results if r.status == "fail"] == [2]
    assert results[1].detail.startswith("spectral radius mismatch 1.0")
    assert set(results[1].witness) == {"closed_form", "max_root_modulus"}


def test_fpdim_consistency_fails_only_the_p_whose_roots_failed(monkeypatch, cold_radii):
    """p = 2 gets x^9 + 10^308, which overflows inside a batch with the other
    x^9 - 2^e; only p = 2 fails, with its own RootFindingError."""
    real_closed, real_batch = spectra.closed_form_charpoly, spectra.durand_kerner_batch
    batches = []

    def closed(ctx, p):
        if (ctx.n, p) == (5, 2):
            return Poly([0, 10**308] + [0] * 8 + [1])
        return real_closed(ctx, p)

    def recorded(polys, *args):
        batches.append(len(polys))
        return real_batch(polys, *args)

    monkeypatch.setattr(spectra, "closed_form_charpoly", closed)
    monkeypatch.setattr(spectra, "durand_kerner_batch", recorded)
    results = run_check_cell("fpdim_consistency", 5)
    assert [(r.p, r.status) for r in results] == [(p, "fail" if p == 2 else "pass") for p in range(1, 10)]
    assert results[1].detail == (
        "check raised RootFindingError: root iteration overflowed: an update is not finite"
    )
    assert max(batches) > 1 and len(batches) < 9  # p = 2 shared a batch


@pytest.fixture
def recorded_tasks(monkeypatch, two_cpus):
    """The tasks handed to the pool, which runs them in this process instead."""
    tasks = []

    def run_pool(pool_tasks, workers):
        tasks.extend(pool_tasks)
        return [chunk for task in pool_tasks for chunk in verifier._run_task(task)]

    monkeypatch.setattr(verifier, "_run_pool", run_pool)
    return tasks


def test_a_multi_n_range_is_one_task_per_n(recorded_tasks):
    report = run_suite(2, 4, checks=["galkin", "grading", "unit_column"], jobs=2)
    assert recorded_tasks == [
        [("galkin", n), ("grading", n), ("unit_column", n)] for n in (4, 3, 2)
    ]
    assert report.all_passed and len(report.results) == 3 + 12 + 18


def test_a_single_n_runs_in_process(recorded_tasks):
    checks = ["galkin", "grading", "unit_column"]
    report = run_suite(3, 3, checks=checks, jobs=2)
    assert recorded_tasks == []
    assert serialize.report_json(report) == serialize.report_json(run_suite(3, 3, checks=checks, jobs=1))
