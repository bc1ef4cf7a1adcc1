"""Wire formats: JSON, CSV and plain-text emitters shared by the CLI.

Exact rationals always travel as decimal strings ("num/den", denominator
omitted when 1): big integers overflow native JSON numbers, and strings keep
comparisons bit-exact across runs.  Floats are rounded to 9 significant
digits in every machine format.  JSON documents are canonical (sorted keys,
ASCII) so repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .poly import Poly

TOOL = "oddquadric"
VERSION = "0.1.0"

WITNESS_CAP_BYTES = 64 * 1024


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def round9(x: float) -> float:
    """Round to 9 significant digits (the precision every machine format carries)."""
    return float(f"{x:.9g}")


def fmt_float(x: float) -> str:
    return f"{x:.9g}"


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def fmt_complex(z: complex) -> str:
    re, im = round9(z.real), round9(z.imag)
    if im == 0:
        return fmt_float(re)
    sign = "+" if im >= 0 else "-"
    return f"{fmt_float(re)}{sign}{fmt_float(abs(im))}i"


def poly_json(f: Poly) -> dict:
    return {"coeffs_ascending": [frac_str(c) for c in f.coeffs]}


def poly_text(f: Poly) -> str:
    """Human rendering, descending by degree: 'λ^4 - 4λ'."""
    terms = []
    coeffs = f.coeffs
    for k in range(f.degree, -1, -1):
        c = coeffs[k]
        if c == 0 and not (k == 0 and not terms):
            continue
        mag = abs(c)
        if k == 0:
            body = frac_str(mag)
        else:
            head = "" if mag == 1 else frac_str(mag)
            body = f"{head}λ" if k == 1 else f"{head}λ^{k}"
        if not terms:
            terms.append(body if c >= 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c >= 0 else f"- {body}")
    return " ".join(terms)


def matrix_json(m) -> dict:
    return {"size": m.size, "rows": [[frac_str(v) for v in row] for row in m.rows]}


def matrix_blob(m) -> str:
    """Single-line canonical serialization of a matrix, for embedding in details."""
    return json.dumps(matrix_json(m), sort_keys=True, separators=(",", ":"))


def vector_json(vec) -> list[str]:
    return [frac_str(v) for v in vec]


def eigenpair_json(ep) -> dict:
    return {
        "re": round9(ep.value.real),
        "im": round9(ep.value.imag),
        "multiplicity": ep.multiplicity,
    }


def envelope(command: str, params: dict, result) -> dict:
    return {
        "tool": TOOL,
        "version": VERSION,
        "command": command,
        "params": params,
        "result": result,
    }


def dumps_canonical(obj) -> str:
    """The canonical JSON text of obj, newline-terminated.

    json.dump writes the encoder's small chunks as they come, where json.dumps
    would first hold all of them in one list, several times the size of the text.
    """
    buf = io.StringIO()
    json.dump(obj, buf, sort_keys=True, indent=2, ensure_ascii=True)
    buf.write("\n")
    return buf.getvalue()


def cap_witness(witness: dict) -> dict:
    """Cap witness payloads at 64 KiB serialized, with an explicit marker."""
    blob = json.dumps(witness, sort_keys=True, ensure_ascii=True)
    if len(blob) <= WITNESS_CAP_BYTES:
        return witness
    return {
        "truncated": True,
        "original_bytes": len(blob),
        "head": blob[:2048],
    }


def check_result_json(r) -> dict:
    return {
        "check_id": r.check_id,
        "n": r.n,
        "p": r.p,
        "status": r.status,
        "detail": r.detail,
        "witness": r.witness,
    }


def report_json(report) -> dict:
    return {
        "tool_version": report.tool_version,
        "n_range": list(report.n_range),
        "results": [check_result_json(r) for r in report.results],
        "summary": report.summary,
        "all_pass": report.all_passed,
    }


def spectrum_json(report) -> dict:
    return {
        "n": report.ctx.n,
        "p": report.p,
        "eigenpairs": [eigenpair_json(ep) for ep in report.eigenpairs],
        "fp_dim": round9(report.fp_dim),
        "residual_diag": None,  # kept in the wire format; a closed-form spectrum has no residual
        "simple": report.simple,
    }


def csv_string(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
