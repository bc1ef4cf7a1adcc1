"""Wire formats: JSON, CSV and plain-text emitters shared by the CLI.

Exact integers always travel as decimal strings: big integers overflow native
JSON numbers, and strings keep comparisons bit-exact across runs.  Floats are
rounded to 9 significant digits in every machine format.  JSON documents are
canonical (sorted keys, ASCII) so repeated runs are byte-identical.

dumps_canonical prints exactly what json.dump(obj, fp, sort_keys=True,
indent=2, ensure_ascii=True) prints, from a writer of its own: json.dump
never takes json's C encoder, and an indent keeps json.dumps off it too
before Python 3.13, so every document would go through json's pure-Python
generators, which take 1.6 to 2 times as long as this writer.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .poly import Poly

TOOL = "oddquadric"
VERSION = "0.1.0"

WITNESS_CAP_BYTES = 64 * 1024


def round9(x: float) -> float:
    """Round to 9 significant digits (the precision every machine format carries)."""
    return float(f"{x:.9g}")


def fmt_float(x: float) -> str:
    return f"{x:.9g}"


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def fmt_complex(z: complex) -> str:
    re, im = z.real, z.imag
    if im == 0:
        return fmt_float(re)
    sign = "+" if im >= 0 else "-"
    return f"{fmt_float(re)}{sign}{fmt_float(abs(im))}i"


def poly_json(f: Poly) -> dict:
    return {"coeffs_ascending": [str(c) for c in f.coeffs]}


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
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}λ" if k == 1 else f"{head}λ^{k}"
        if not terms:
            terms.append(body if c >= 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c >= 0 else f"- {body}")
    return " ".join(terms)


def matrix_json(m) -> dict:
    return {"size": m.size, "rows": [[str(v) for v in row] for row in m.rows]}


def matrix_blob(m) -> str:
    """Single-line canonical serialization of a matrix, for embedding in details."""
    return json.dumps(matrix_json(m), sort_keys=True, separators=(",", ":"))


def vector_json(vec) -> list[str]:
    return [str(v) for v in vec]


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


_encode_str = json.encoder.encode_basestring_ascii

#: The writer hands its pieces to the StringIO once this many are pending.
#: Smaller batches raised the peak RSS of galkin --n-max 100000 --format json
#: from 109 MB to 117-120 MB in some or all runs (1,024 to 8,192 pieces).
FLUSH_PIECES = 16384


def _float_text(x: float) -> str:
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _text(o):
    """The JSON text of a scalar json accepts; None for a dict, list or tuple."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if isinstance(o, int):
        if o is True:
            return "true"
        if o is False:
            return "false"
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    if isinstance(o, (dict, list, tuple)):
        return None
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_text(k) -> str:
    """A dict key as json writes it: a string, or a scalar's text in quotes."""
    if isinstance(k, str):
        return _encode_str(k)
    if isinstance(k, (int, float)) or k is None:
        return f'"{_text(k)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _write(o, nl: str, pieces: list, write) -> None:
    """Append the text of the dict, list or tuple o to pieces; nl is the line
    break and indent o's closing bracket stands after."""
    inner = nl + "  "
    sep = "," + inner
    if isinstance(o, dict):
        if not o:
            pieces.append("{}")
            return
        head = "{" + inner
        for k, v in sorted(o.items()):
            key = _key_text(k)
            text = _text(v)
            if text is None:
                pieces.append(f"{head}{key}: ")
                _write(v, inner, pieces, write)
            else:
                pieces.append(f"{head}{key}: {text}")
            head = sep
            if len(pieces) > FLUSH_PIECES:
                write("".join(pieces))
                pieces.clear()
        pieces.append(nl + "}")
    else:
        if not o:
            pieces.append("[]")
            return
        head = "[" + inner
        for v in o:
            text = _text(v)
            if text is None:
                pieces.append(head)
                _write(v, inner, pieces, write)
            else:
                pieces.append(head + text)
            head = sep
            if len(pieces) > FLUSH_PIECES:
                write("".join(pieces))
                pieces.clear()
        pieces.append(nl + "]")


def dumps_canonical(obj) -> str:
    """The canonical JSON text of obj, newline-terminated.

    Byte for byte json.dump(obj, fp, sort_keys=True, indent=2,
    ensure_ascii=True) followed by a newline: keys sorted as json sorts the
    items, strings through json's own ASCII encoder, int.__repr__ and
    float.__repr__ also for their subclasses, NaN and Infinity spelled as json
    spells them, tuples as lists, and the same TypeError for what json
    rejects.  Only json's check for circular references is left out: a
    document is a tree the program builds, and a cycle ends in RecursionError.

    The writer is direct because json.dump runs json's pure-Python encoder (see
    the module docstring).  It hands the text to the StringIO in bounded
    pieces, so the document is never also held as one list of small chunks.
    """
    buf = io.StringIO()
    text = _text(obj)
    if text is None:
        pieces: list[str] = []
        _write(obj, "\n", pieces, buf.write)
        pieces.append("\n")
        buf.write("".join(pieces))
    else:
        buf.write(text + "\n")
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
