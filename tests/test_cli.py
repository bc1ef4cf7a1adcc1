"""CLI behavior: output shapes, exit codes, round trips, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddquadric import build_a1, make_context, serialize
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
    def test_out_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out = run_cli(
            "galkin", "--n-min", "2", "--n-max", "3", "--format", "json",
            "--out", str(path),
            capsys=capsys,
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == out


class TestRoundTrip:
    def test_verification_report_round_trips(self):
        from oddquadric import run_suite

        report = run_suite(2, 3, checks=["charpoly_main", "galkin"])
        doc = serialize.report_json(report)
        rebuilt = serialize.report_from_json(json.loads(serialize.dumps_canonical(doc)))
        assert rebuilt.tool_version == report.tool_version
        assert rebuilt.n_range == report.n_range
        assert rebuilt.results == report.results
        assert rebuilt.summary == report.summary
        assert serialize.dumps_canonical(serialize.report_json(rebuilt)) == (
            serialize.dumps_canonical(doc)
        )

    def test_polynomial_strings_round_trip_exactly(self):
        from oddquadric import closed_form_charpoly, make_context

        f = closed_form_charpoly(make_context(8), 5)
        assert serialize.poly_from_json(serialize.poly_json(f)) == f


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


def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    import oddquadric

    meta = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    dynamic = meta["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "oddquadric.serialize.VERSION"}
    assert oddquadric.__version__ == serialize.VERSION == "0.1.0"
