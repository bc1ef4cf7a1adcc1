"""CLI behavior: output shapes, exit codes, round trips, determinism."""

import csv
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import oddquadric
from oddquadric import build_a1, make_context, serialize, spectrum_report
from oddquadric.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, capsys):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_subprocess(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "oddquadric", *argv],
        capture_output=True,
        env=env,
    )


# The golden transcript: exit code and SHA-256 of stdout for every subcommand
# in every format.  verify's JSON and CSV run a check subset: the details of
# the diagonalization checks print numpy residuals whose last digits depend on
# the BLAS build.  Any change to these hashes changes what users see.  The
# spectrum and galkin rows at n = 500 are the largest documents here (98 KB
# and 71 KB), long enough that the JSON writer renders lists item by item.
SUBSET = "galkin,charpoly_main,unit_column"
GOLDEN = [
    ("charpoly -n 2 -p 1", 0, "c0193cba99075ec97aed5a78025b211bd1e085a6b7b2be3206503f28712834c7"),
    ("charpoly -n 2 -p 1 --format json", 0, "2e5dc6521ffce4f91f723ea6284b16a8dc2e90f883970ebb1c029f82f06ac808"),
    ("charpoly -n 2 -p 1 --format csv", 0, "003576ea678f1251fd1cee1e119b9ef88348c6029e4445a2dd5ba3f2a3599527"),
    ("charpoly -n 2 -p 0", 0, "03be94a422fb2050522e21c9f76edc3e74e2a068ae6aed335b37e9de471b0f6d"),
    ("charpoly -n 2 -p 0 --format json", 0, "8b04c94c96503adea5b4acbfde307498f693974767ea72e0c1bbca36c1bc06a6"),
    ("charpoly -n 2 -p 0 --format csv", 0, "b97be8b5395260db0932bf6878148d296522dd8895051100a138ee392397f838"),
    ("charpoly -n 5 -p 3", 0, "766d0de3afc7a9c6f262790866525b4ec3f8e5d5683e2aca63996ddbe1982d9a"),
    ("charpoly -n 5 -p 3 --format json", 0, "0a8edeb1afeb22829c95e2c4ef92e7ca654c3989482e4fedf221a0f4accb4b75"),
    ("charpoly -n 5 -p 3 --format csv", 0, "015a7dabbf37a4a54f9f049b265b97b39fec1f9408c9869a086c219cf2a4fd01"),
    ("charpoly -n 48 -p 19", 0, "2892591d4018f597fae2260d5fd996b535320d58077fdbe4e4188cfc2c6fcdb2"),
    ("spectrum -n 2 -p 1", 0, "7ffeb167728825b886f453e71b82a3b73dfeef250224bc5106f76209a7eaad62"),
    ("spectrum -n 2 -p 1 --format json", 0, "de63968a3d50cf03717f045eb4718cabead6382d1c30fd0932653c1867fc4ce9"),
    ("spectrum -n 2 -p 1 --format csv", 0, "03e3ab9361dbbe65f2416d32dbc15f3f8b08004496ee1a873b1a990286ec8d43"),
    ("spectrum -n 2 -p 3", 0, "af130104854981145eb001911861856200a9e7c0510941d79c75fbfcc6182e69"),
    ("spectrum -n 2 -p 3 --format json", 0, "d9b313b1effd84bcef46b4c26fc4df50401802a2257e1ffdff9917e8885b1dff"),
    ("spectrum -n 2 -p 3 --format csv", 0, "668b1e7c4282d5dfc2e50042d6e057b04445bfd9da077d8dfddb8ccf351896a5"),
    ("spectrum -n 3 -p 4", 0, "40968dca76bb57733c4b09b6f8f4b99f81ef2c6a3143d94d69bc43c0ef3bad49"),
    ("spectrum -n 3 -p 4 --format json", 0, "ce56578c13c6ac0642d68bf7e4305c79123db3e0d56fa5319ecb82faa59eaea6"),
    ("spectrum -n 3 -p 4 --format csv", 0, "b5d8c60ef8e8099c461f0167d76f46d3bc8502983f8e990f063ec9d9dd7b0a27"),
    ("spectrum -n 500 -p 7 --format json", 0, "64a0e95d658b43a10d4f86ffbd5858e9c51d618dc51335c7224a8ef627fd674f"),
    # d > 1: m = 15 and d = 3 below the middle; d = 5 from the middle on
    ("spectrum -n 8 -p 3 --format json", 0, "2a8db9acc7cada1c56b5bde245cfafb503ae2452547b12fed5d68d9c325af88a"),
    ("spectrum -n 8 -p 10 --format json", 0, "c0f153e7d076b6f199a7a0c69ee1ff81b457144b1f74c9dcbe9f9c36e2a74f09"),
    ("fpdim -n 2 -p 1", 0, "9dae37e0018579aaee10b7c409c4d774570a492c0aec5c526ed65fec197779f4"),
    ("fpdim -n 2 -p 1 --format json", 0, "f9616130b4962b9ab971958ec1c465bbed874230e485230b012307165692c69b"),
    ("fpdim -n 2 -p 1 --format csv", 0, "2316534019ba4bb99de52600fc35b3884d0038a82f98f00e7186f6439c58e4d9"),
    ("fpdim -n 4 -p 2", 0, "b7d30e69bd77a41f7775afe2e074bbdeb8083ac6be1d603a61ea660fde9ecf9f"),
    ("fpdim -n 4 -p 2 --format json", 0, "d980d79c3b5e60245aed852171162e8f48a461bd6bcbcc31752094904c4e7a57"),
    ("fpdim -n 4 -p 2 --format csv", 0, "0a959c66204ca4d0743dcf4f0a45a00ed55d4a44859de05134adaeb90288fe66"),
    ("galkin --n-min 2 --n-max 5", 0, "f3dc868e384723d31e091798d206721fd3b34bb3ba71789f3e4fbfc076e1321e"),
    ("galkin --n-min 2 --n-max 5 --format json", 0, "42c0d21d4fcd31d5f788186b8a633b52aa59df1ef7bba0cbe488ad0fad8f905f"),
    ("galkin --n-min 2 --n-max 5 --format csv", 0, "333c027f2ece7a24f21c1e7f8297c4cb5f1d138c6dd0a512e6ebe8cbecfcd397"),
    ("galkin --n-min 2 --n-max 500 --format json", 0, "4f2e923e6c6da5d700d4d62e0aebed4a7a863abe014fe12cabc88d5cdb313933"),
    ("verify --n-min 2 --n-max 3 --jobs 1", 0, "947946f6330159344d1f6c246c3d4d4b779fc7fff403f44955ea6044175e309e"),
    (f"verify --n-min 2 --n-max 3 --checks {SUBSET} --jobs 1", 0, "d47719c4291f302cdd0b5e4d193e7c9d7e6b5dbcc56ca1e574aab2854802b855"),
    (f"verify --n-min 2 --n-max 3 --checks {SUBSET} --jobs 1 --format json", 0, "727dccbb911c8cd175919d33e6c7f001e95da171c9c009f40c5a8876b939f36e"),
    (f"verify --n-min 2 --n-max 3 --checks {SUBSET} --jobs 2 --format json", 0, "727dccbb911c8cd175919d33e6c7f001e95da171c9c009f40c5a8876b939f36e"),
    (f"verify --n-min 2 --n-max 3 --checks {SUBSET} --jobs 1 --format csv", 0, "31be5f257bc1b1baea6c594399d917820eced9ba5f9ab9a01a2a95e5a03e273e"),
]
USAGE_ERRORS = [
    ("charpoly -n 1 -p 0", "n must be at least 2, got 1"),
    ("charpoly -n 2 -p 4", "p must be in [0, 3] for n=2, got 4"),
    ("charpoly -n 2 -p -1", "p must be in [0, 3] for n=2, got -1"),
    ("spectrum -n 2 -p 0", "p must be in [1, 3] for n=2, got 0"),
    ("fpdim -n 3 -p 6", "p must be in [1, 5] for n=3, got 6"),
    ("galkin --n-min 3 --n-max 2", "need 2 <= n-min <= n-max, got [3, 2]"),
    ("galkin --n-min 1 --n-max 3", "need 2 <= n-min <= n-max, got [1, 3]"),
    ("verify --n-min 3 --n-max 2", "need 2 <= n-min <= n-max, got [3, 2]"),
    ("verify --n-min 2 --n-max 2 --checks bogus", "unknown check ids: bogus"),
    ("charpoly -n 513 -p 1", "n must be at most 512 for charpoly, got 513"),
    ("spectrum -n 100001 -p 1", "n must be at most 100000 for spectrum, got 100001"),
    ("galkin --n-min 2 --n-max 100001", "n-max must be at most 100000 for galkin, got 100001"),
    ("verify --n-min 2 --n-max 33", "n-max must be at most 32 for verify, got 33"),
    ("verify --n-min 2 --n-max 2 --jobs 0", "jobs must be at least 1"),
    ("verify --n-min 2 --n-max 2 --jobs -4", "jobs must be at least 1"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_transcript(command, code, digest, capsys):
    got = main(command.split())
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("command, message", USAGE_ERRORS, ids=[c for c, _ in USAGE_ERRORS])
def test_golden_usage_errors(command, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"oddquadric: error: {message}"


class TestCharpoly:
    def test_text_match_line(self, capsys):
        code, out = run_cli("charpoly", "-n", "2", "-p", "1", capsys=capsys)
        assert code == 0
        assert out == "λ^4 - 4λ | closed form: λ^4 - 4λ | match: true\n"

    def test_identity_has_no_closed_form(self, capsys):
        code, out = run_cli("charpoly", "-n", "2", "-p", "0", capsys=capsys)
        assert code == 0
        assert out == (
            "λ^4 - 4λ^3 + 6λ^2 - 4λ + 1 | closed form: none (p=0)\n"
        )

    def test_json_coefficients(self, capsys):
        code, out = run_cli("charpoly", "-n", "5", "-p", "3", "--format", "json", capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "oddquadric"
        assert doc["command"] == "charpoly"
        assert doc["result"]["computed"]["coeffs_ascending"] == [
            "0", "-64", "0", "0", "48", "0", "0", "-12", "0", "0", "1",
        ]
        assert doc["result"]["match"] is True

    def test_largest_n_json_digest(self, capsys):
        """The ceiling case, byte for byte: 26,980 bytes, under a second."""
        code, out = run_cli("charpoly", "-n", "512", "-p", "19", "--format", "json", capsys=capsys)
        assert code == 0
        assert len(out.encode()) == 26980
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ea1d594c63e32c3e68dddd6d4f4f99180c47c6948adb952dcd3501ab8bdd85b5"
        )

    def test_largest_n_text_digest(self, capsys):
        """The ceiling case in the default text format: 79 bytes, like the JSON under a second."""
        code, out = run_cli("charpoly", "-n", "512", "-p", "19", capsys=capsys)
        assert code == 0
        assert len(out.encode()) == 79
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f194b235ffa1d5be6be8fb6fe3e0b0ce106308597593981da88579c15f4dd52b"
        )

    def test_text_reads_the_coefficients_once(self):
        # poly_text reads Poly.coeffs once for the whole rendering, not once
        # per term.
        from oddquadric import Poly

        class CountingPoly(Poly):
            reads = 0

            @property
            def coeffs(self):
                CountingPoly.reads += 1
                return super().coeffs

        assert serialize.poly_text(CountingPoly([0, -4, 0, 0, 1])) == "λ^4 - 4λ"
        assert CountingPoly.reads == 1

    def test_csv_shape(self, capsys):
        code, out = run_cli("charpoly", "-n", "2", "-p", "1", "--format", "csv", capsys=capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "p", "coeff_index", "computed", "closed_form", "match"]
        assert rows[1] == ["2", "1", "0", "0", "0", "true"]
        assert rows[-1] == ["2", "1", "4", "1", "1", "true"]

    def test_invalid_p_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", "-n", "2", "-p", "4"])
        assert exc.value.code == 2

    def test_invalid_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", "-n", "1", "-p", "0"])
        assert exc.value.code == 2


class TestSpectrum:
    def test_point_class_json(self, capsys):
        code, out = run_cli("spectrum", "-n", "2", "-p", "3", "--format", "json", capsys=capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["eigenpairs"] == [
            {"re": 1.0, "im": 0.0, "multiplicity": 3},
            {"re": -1.0, "im": 0.0, "multiplicity": 1},
        ]
        assert result["fp_dim"] == 1.0
        assert result["simple"] is False

    def test_fp_dim_digits(self, capsys):
        code, out = run_cli("spectrum", "-n", "2", "-p", "1", capsys=capsys)
        assert code == 0
        assert "FPdim: 1.58740105" in out

    def test_upper_range_value(self, capsys):
        code, out = run_cli("spectrum", "-n", "3", "-p", "4", "--format", "json", capsys=capsys)
        assert json.loads(out)["result"]["fp_dim"] == pytest.approx(1.51571657, abs=1e-8)

    def test_p0_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "-n", "2", "-p", "0"])
        assert exc.value.code == 2


class TestFpdim:
    def test_text(self, capsys):
        code, out = run_cli("fpdim", "-n", "2", "-p", "1", capsys=capsys)
        assert code == 0
        assert out == "FPdim(n=2, p=1) = 1.58740105\n"

    def test_csv(self, capsys):
        code, out = run_cli("fpdim", "-n", "2", "-p", "3", "--format", "csv", capsys=capsys)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["n", "p", "value"], ["2", "3", "1"]]

    def test_no_n_ceiling(self, capsys):
        code, out = run_cli("fpdim", "-n", "1000000000", "-p", "1", capsys=capsys)
        assert (code, out) == (0, "FPdim(n=1000000000, p=1) = 1\n")


class TestGalkin:
    def test_rows_and_margins(self, capsys):
        code, out = run_cli("galkin", "--n-min", "2", "--n-max", "3", "--format", "csv", capsys=capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "fpdim_c1", "bound", "margin", "pass"]
        assert rows[1] == ["2", "4.76220316", "4", "0.762203156", "true"]
        assert rows[2] == ["3", "6.59753955", "6", "0.597539554", "true"]

    def test_json_all_pass(self, capsys):
        code, out = run_cli("galkin", "--n-min", "2", "--n-max", "5", "--format", "json", capsys=capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["all_pass"] is True
        assert [row["n"] for row in result["rows"]] == [2, 3, 4, 5]

    def test_bad_range(self):
        with pytest.raises(SystemExit) as exc:
            main(["galkin", "--n-min", "1", "--n-max", "3"])
        assert exc.value.code == 2


class TestVerify:
    def test_golden_check_json_contains_matrix(self, capsys):
        code, out = run_cli(
            "verify", "--n-min", "2", "--n-max", "2",
            "--checks", "chevalley_golden", "--format", "json", "--jobs", "1",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["all_pass"] is True
        assert doc["result"]["summary"]["chevalley_golden"] == {"pass": 1, "fail": 0}
        detail = doc["result"]["results"][0]["detail"]
        assert serialize.matrix_blob(build_a1(make_context(2))) in detail

    def test_charpoly_mismatch_exits_3(self, capsys, monkeypatch):
        from oddquadric import Poly, cli

        monkeypatch.setattr(cli, "closed_form_charpoly", lambda ctx, p: Poly([1, 0, 0, 0, 1]))
        code, out = run_cli("charpoly", "-n", "2", "-p", "1", capsys=capsys)
        assert code == 3
        assert "match: false" in out

    def test_bad_range_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-min", "1", "--n-max", "2"])
        assert exc.value.code == 2

    def test_unknown_check_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-min", "2", "--n-max", "2", "--checks", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("checks", [",", " , ", ""])
    def test_checks_naming_no_check_exits_2(self, checks, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-min", "2", "--n-max", "3", "--checks", checks])
        assert exc.value.code == 2
        assert "no check ids given" in capsys.readouterr().err

    def test_params_list_every_check_without_checks(self, capsys):
        from oddquadric import CHECK_IDS

        code, out = run_cli(
            "verify", "--n-min", "2", "--n-max", "2", "--format", "json", "--jobs", "1",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["checks"] == sorted(CHECK_IDS)
        assert sorted(doc["result"]["summary"]) == sorted(CHECK_IDS)

    def test_params_list_a_repeated_check_once(self, capsys):
        code, out = run_cli(
            "verify", "--n-min", "2", "--n-max", "2", "--checks", "galkin,galkin",
            "--format", "json", "--jobs", "1",
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["checks"] == ["galkin"]
        assert doc["result"]["summary"] == {"galkin": {"pass": 1, "fail": 0}}

    def test_bad_format_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n-min", "2", "--n-max", "2", "--format", "xml"])
        assert exc.value.code == 2

    def test_failure_exits_3(self, capsys, monkeypatch):
        from oddquadric import verifier

        monkeypatch.setitem(
            verifier.CHECKS,
            "galkin",
            (lambda n: [-1], lambda n, p: (False, "forced failure", {"n": n})),
        )
        code, out = run_cli(
            "verify", "--n-min", "2", "--n-max", "2",
            "--checks", "galkin", "--jobs", "1",
            capsys=capsys,
        )
        assert code == 3
        assert "FAILURES PRESENT" in out

    def test_csv_omits_witness(self, capsys):
        code, out = run_cli(
            "verify", "--n-min", "2", "--n-max", "2",
            "--checks", "unit_column", "--format", "csv", "--jobs", "1",
            capsys=capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["check_id", "n", "p", "status", "detail"]
        assert len(rows) == 5  # header + p in 0..3


class TestOutFile:
    def test_empty_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", "-n", "2", "-p", "1", "--out", ""])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "oddquadric: error: cannot write --out: [Errno 2] No such file or directory: ''"
        )

    def test_out_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(
            "galkin", "--n-min", "2", "--n-max", "3", "--format", "json",
            "--out", str(path),
            capsys=capsys,
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == out

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.txt"
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", "-n", "2", "-p", "1", "--out", str(path)])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"oddquadric: error: cannot write --out: [Errno 2] No such file or directory: '{path}'"
        )


class TestRoundTrip:
    def test_verification_report_round_trips(self):
        from oddquadric import CheckResult, run_suite

        report = run_suite(2, 3, checks=["charpoly_main", "galkin"])
        doc = serialize.report_json(report)
        parsed = json.loads(serialize.dumps_canonical(doc))
        assert parsed["tool_version"] == report.tool_version
        assert tuple(parsed["n_range"]) == report.n_range
        assert [CheckResult(**r) for r in parsed["results"]] == report.results
        assert parsed["summary"] == report.summary
        assert serialize.dumps_canonical(parsed) == serialize.dumps_canonical(doc)

    def test_polynomial_strings_round_trip_exactly(self):
        from oddquadric import Poly, closed_form_charpoly, make_context

        f = closed_form_charpoly(make_context(8), 5)
        coeffs = serialize.poly_json(f)["coeffs_ascending"]
        assert Poly([Fraction(s) for s in coeffs]) == f


class TestDeterminism:
    def test_byte_identical_across_runs_and_jobs(self):
        args = ["verify", "--n-min", "2", "--n-max", "3", "--format", "json"]
        outs = [
            run_subprocess(*args, "--jobs", "1").stdout,
            run_subprocess(*args, "--jobs", "1").stdout,
            run_subprocess(*args, "--jobs", "2").stdout,
            run_subprocess(*args, "--jobs", "4").stdout,
        ]
        assert outs[0]
        assert all(o == outs[0] for o in outs)

    def test_a_single_n_is_byte_identical_across_jobs(self, capsys, monkeypatch):
        """Over n = 11 and 12, --jobs 2 runs each n's checks in a pool worker of
        its own, so every check at n = 12 runs in a worker at one setting and in
        this process at the other."""
        # a pool even on a one-CPU machine
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = ["verify", "--n-min", "11", "--n-max", "12", "--format", "json", "--jobs"]
        pooled = run_cli(*args, "2", capsys=capsys)
        assert pooled[0] == 0
        assert pooled == run_cli(*args, "1", capsys=capsys)


def test_verify_matches_the_benchmark_digest(capsys, monkeypatch):
    """verify for 2 <= n <= 12 prints the result count and SHA-256 that
    perfbench/rep.py pins, at --jobs 1 and in a pool at --jobs 2."""
    rep = (SRC.parent / "perfbench" / "rep.py").read_text(encoding="utf-8")
    results = int(re.search(r"^VERIFY_RESULTS = (\d+)$", rep, re.M).group(1))
    digest = re.search(r'^VERIFY_SHA256 = "([0-9a-f]{64})"$', rep, re.M).group(1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    args = ["verify", "--n-min", "2", "--n-max", "12", "--format", "json", "--jobs"]
    for jobs in ("1", "2"):
        code, out = run_cli(*args, jobs, capsys=capsys)
        assert code == 0
        assert len(json.loads(out)["result"]["results"]) == results
        assert hashlib.sha256(out.encode()).hexdigest() == digest, f"--jobs {jobs}"


def _traced_peak(fn, *args):
    """Peak traced memory of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt, bound", [("json", 6), ("text", 3)])
def test_only_the_chosen_format_is_built(fmt, bound):
    """spectrum at n = 20000 peaks within a small multiple of its report.

    Building all three formats to print one peaks at about 10x the report for
    json and 6x for text; json.dumps alone holds its encoder's chunks at about
    6x the report."""
    report_peak = _traced_peak(spectrum_report, make_context(20000), 1)
    with redirect_stdout(io.StringIO()):
        main_peak = _traced_peak(main, ["spectrum", "-n", "20000", "-p", "1", "--format", fmt])
    assert main_peak < bound * report_peak


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    import oddquadric

    meta = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    dynamic = meta["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "oddquadric.serialize.VERSION"}
    assert oddquadric.__version__ == serialize.VERSION == "0.1.0"


README = (SRC.parent / "README.md").read_text(encoding="utf-8")


def readme_block(heading, lang):
    """The first ```lang block after the Markdown heading `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


README_CLI = [
    line.split("#", 1)[0].split()[1:]
    for line in readme_block("## CLI", "sh").splitlines()
    if line.startswith("oddquadric ")
]


class TestPublicSurface:
    def test_all_names_resolve_once(self, monkeypatch):
        assert len(set(oddquadric.__all__)) == len(oddquadric.__all__)
        table = {name: module for module, names in oddquadric._EXPORTS.items() for name in names}
        assert sorted(oddquadric.__all__) == sorted(table) and len(table) == 37
        assert set(oddquadric.__all__) | {"__version__"} <= set(dir(oddquadric))
        for name, module in table.items():
            source = importlib.import_module(f"oddquadric.{module}")
            monkeypatch.delitem(vars(oddquadric), name, raising=False)
            value = getattr(oddquadric, name)
            assert value is getattr(source, name), name
            # defined there, not only imported by it (constants carry no __module__)
            assert getattr(value, "__module__", source.__name__) == source.__name__, name
            assert vars(oddquadric)[name] is value, name  # later lookups are a dict hit
        with pytest.raises(AttributeError, match="'oddquadric'.*'no_such_name'"):
            oddquadric.no_such_name
        # A fresh interpreter: nothing resolved on import, every name bound by *.
        script = (
            "import json, oddquadric\n"
            "early = [n for n in oddquadric.__all__ if n in vars(oddquadric)]\n"
            "ns = {}\n"
            "exec('from oddquadric import *', ns)\n"
            "print(json.dumps([early, sorted(n for n in ns if n != '__builtins__')]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[], sorted(oddquadric.__all__)]

    def test_readme_lists_cli_examples(self):
        assert len(README_CLI) >= 5

    @pytest.mark.parametrize("argv", README_CLI, ids=" ".join)
    def test_readme_cli_line_runs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, capsys=capsys)[0] == 0

    def test_readme_library_snippet_runs(self):
        exec(readme_block("## Library layout", "python"), {})
