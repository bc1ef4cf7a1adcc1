"""Command-line interface.

Subcommands: charpoly, spectrum, fpdim, galkin, verify.  Exit codes: 0 on
success / all checks passing, 2 on usage errors, 3 on a verification
mismatch.  Output goes to stdout and, when --out is given, to that file as
well; JSON is the only format carrying full witness payloads.

Each cmd_* function takes validated inputs and returns its exit code and one
builder per format: "json" gives the JSON result, "csv" the CSV header and an
iterable of rows, "text" the text lines.  main validates the inputs, calls
the builder of the chosen format only, and renders it once, for every
subcommand.

``spectra`` and ``verifier`` load only for the commands that call them, so
charpoly imports neither.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import serialize
from .charpoly import charpoly_faddeev, closed_form_charpoly
from .ring import build_ap, make_context
from .serialize import fmt_bool, fmt_float, round9

EXIT_OK = 0
EXIT_MISMATCH = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddquadric",
        description=(
            "Exact and numeric spectral analysis of the quantum multiplication "
            "operators of odd-dimensional quadrics at unit quantum parameter."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, p_min, _) in SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if p_min is None:
            sp.add_argument("--n-min", type=int, required=True)
            sp.add_argument("--n-max", type=int, required=True)
        else:
            sp.add_argument("-n", "--n", dest="n", type=int, required=True)
            sp.add_argument("-p", "--p", dest="p", type=int, required=True)
        if name == "verify":
            sp.add_argument("--checks", help="comma-separated check ids (default: all)")
            sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
        sp.add_argument("--format", choices=("json", "csv", "text"), default="text")
        sp.add_argument("--out", help="also write the output to this path")
    return parser


def cmd_charpoly(ctx, p):
    computed = charpoly_faddeev(build_ap(ctx, p))
    closed = None if p == 0 else closed_form_charpoly(ctx, p)
    match = None if closed is None else computed == closed
    code = EXIT_OK if match in (None, True) else EXIT_MISMATCH

    def result():
        return {
            "n": ctx.n,
            "p": p,
            "computed": serialize.poly_json(computed),
            "closed_form": None if closed is None else serialize.poly_json(closed),
            "match": match,
        }

    def table():
        rows = (
            [
                ctx.n,
                p,
                k,
                str(c),
                "" if closed is None else str(closed.coeffs[k]),
                "" if match is None else fmt_bool(match),
            ]
            for k, c in enumerate(computed.coeffs)
        )
        return ["n", "p", "coeff_index", "computed", "closed_form", "match"], rows

    def lines():
        if closed is None:
            tail = "none (p=0)"
        else:
            tail = f"{serialize.poly_text(closed)} | match: {fmt_bool(match)}"
        return [f"{serialize.poly_text(computed)} | closed form: {tail}"]

    return code, {"json": result, "csv": table, "text": lines}


def cmd_spectrum(ctx, p):
    from . import spectra

    report = spectra.spectrum_report(ctx, p)

    def table():
        rows = (
            [
                ctx.n,
                p,
                fmt_float(ep.value.real),
                fmt_float(ep.value.imag),
                ep.multiplicity,
                fmt_float(report.fp_dim),
                fmt_bool(report.simple),
            ]
            for ep in report.eigenpairs
        )
        return ["n", "p", "re", "im", "multiplicity", "fp_dim", "simple"], rows

    def lines():
        eig = ", ".join(
            f"{serialize.fmt_complex(ep.value)} (x{ep.multiplicity})" for ep in report.eigenpairs
        )
        return [
            f"n={ctx.n} p={p} | eigenvalues: {eig} | FPdim: {fmt_float(report.fp_dim)} | "
            f"simple: {fmt_bool(report.simple)}"
        ]

    return EXIT_OK, {"json": lambda: serialize.spectrum_json(report), "csv": table, "text": lines}


def cmd_fpdim(ctx, p):
    from . import spectra

    value = spectra.fp_dim(ctx, p)
    return EXIT_OK, {
        "json": lambda: {"n": ctx.n, "p": p, "value": round9(value)},
        "csv": lambda: (["n", "p", "value"], [[ctx.n, p, fmt_float(value)]]),
        "text": lambda: [f"FPdim(n={ctx.n}, p={p}) = {fmt_float(value)}"],
    }


def cmd_galkin(n_min, n_max):
    from . import spectra

    results = [spectra.galkin_check(make_context(n)) for n in range(n_min, n_max + 1)]
    all_pass = all(r.passed for r in results)
    code = EXIT_OK if all_pass else EXIT_MISMATCH

    def result():
        json_rows = [
            {
                "n": r.n,
                "fpdim_c1": round9(r.fpdim_c1),
                "bound": round9(r.bound),
                "margin": round9(r.margin),
                "pass": r.passed,
            }
            for r in results
        ]
        return {"n_min": n_min, "n_max": n_max, "rows": json_rows, "all_pass": all_pass}

    def table():
        rows = (
            [r.n, fmt_float(r.fpdim_c1), fmt_float(r.bound), fmt_float(r.margin), fmt_bool(r.passed)]
            for r in results
        )
        return ["n", "fpdim_c1", "bound", "margin", "pass"], rows

    def lines():
        header, rows = table()
        out = [" ".join(f"{k}={v}" for k, v in zip(header, row)) for row in rows]
        return out + [f"all pass: {fmt_bool(all_pass)}"]

    return code, {"json": result, "csv": table, "text": lines}


def cmd_verify(report):
    code = EXIT_OK if report.all_passed else EXIT_MISMATCH

    def table():
        rows = ([r.check_id, r.n, r.p, r.status, r.detail] for r in report.results)
        return ["check_id", "n", "p", "status", "detail"], rows

    def lines():
        out = [
            f"{r.status} {r.check_id} n={r.n}" + (f" p={r.p}" if r.p >= 0 else "")
            for r in report.results
        ]
        out += [
            f"summary {cid}: {counts['pass']} pass, {counts['fail']} fail"
            for cid, counts in sorted(report.summary.items())
        ]
        out.append("ALL PASS" if report.all_passed else "FAILURES PRESENT")
        return out

    return code, {"json": lambda: serialize.report_json(report), "csv": table, "text": lines}


#: name: (command, help, least p for an -n/-p subcommand or None for an n range,
#: largest n or --n-max accepted or None).  The ceilings hold one run to about
#: half a minute and 2 GB on a 2-vCPU Xeon: charpoly -n 512 --format json takes
#: 0.2-0.35 s at p = 19, 0.3-0.5 s at p = 700 and 0.6-1.1 s at p = 1023, where
#: it forms ~1,000 products, verify --n-min 2 --n-max 32 takes 2.5-2.8 s at
#: --jobs 1 and 1.8-2.2 s at --jobs 2, and at n = 10^5 spectrum -p 1 takes
#: 1.3-2.4 s as JSON (19.6 MB, 125 MB peak RSS), 0.6-1.1 s as text and 0.9-1.8 s
#: as CSV, and galkin 1.2-2.2 s as JSON (14.7 MB, 109 MB), 0.7-1.2 s as text and
#: 0.65-1.1 s as CSV (four to eight alternating runs each, at two machine loads).
SUBCOMMANDS = {
    "charpoly": (cmd_charpoly, "characteristic polynomial of one operator", 0, 512),
    "spectrum": (cmd_spectrum, "closed-form eigenvalues of one operator", 1, 10**5),
    "fpdim": (cmd_fpdim, "Frobenius-Perron dimension of one basis class", 1, None),
    "galkin": (cmd_galkin, "anticanonical lower-bound margins over a range of n", None, 10**5),
    "verify": (cmd_verify, "run invariant checks over a range of n", None, 32),
}


def _usage_checked(parser, fn, *args, **kwargs):
    """fn(*args, **kwargs), reporting a ValueError as a usage error (exit 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command, _, p_min, n_cap = SUBCOMMANDS[args.command]
    n_top, n_flag = (args.n, "n") if p_min is not None else (args.n_max, "n-max")
    if n_cap is not None and n_top > n_cap:
        parser.error(f"{n_flag} must be at most {n_cap} for {args.command}, got {n_top}")
    if p_min is not None:
        ctx = _usage_checked(parser, make_context, args.n)
        if not p_min <= args.p <= ctx.dim:
            parser.error(f"p must be in [{p_min}, {ctx.dim}] for n={ctx.n}, got {args.p}")
        inputs, params = (ctx, args.p), {"n": ctx.n, "p": args.p}
    else:
        if not 2 <= args.n_min <= args.n_max:
            parser.error(f"need 2 <= n-min <= n-max, got [{args.n_min}, {args.n_max}]")
        params = {"n_min": args.n_min, "n_max": args.n_max}
        if args.command == "galkin":
            inputs = (args.n_min, args.n_max)
        else:
            if args.jobs < 1:
                parser.error("jobs must be at least 1")
            from . import verifier

            # None only when --checks is absent; a list naming no check is rejected.
            checks = None
            if args.checks is not None:
                checks = [c.strip() for c in args.checks.split(",") if c.strip()]
            report = _usage_checked(
                parser, verifier.run_suite, args.n_min, args.n_max, checks=checks, jobs=args.jobs
            )
            # The summary lists each check that ran once, in sorted order.
            params["checks"] = list(report.summary)
            inputs = (report,)

    code, views = command(*inputs)
    data = views[args.format]()  # only the chosen format is built
    if args.format == "json":
        out = serialize.dumps_canonical(serialize.envelope(args.command, params, data))
    elif args.format == "csv":
        out = serialize.csv_string(*data)
    else:
        out = "\n".join(data) + "\n"
    if args.out is not None:  # --out '' names no file and fails like any unwritable path
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            parser.error(f"cannot write --out: {exc}")
    sys.stdout.write(out)
    return code
