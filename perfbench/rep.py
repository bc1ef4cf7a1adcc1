"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --trace 0|1 \
        --work-dir DIR [--spans FILE]

run.py starts this once per repetition, with the checkout's src/ on
PYTHONPATH, so the lru_caches in oddquadric.ring start cold as they do for
every CLI user.  It runs the workload once, checks every output, and prints
one JSON record as the last line of stdout.  A failed check or an exception
inside an item counts as a failed item; it never stops the repetition.

A Sampler thread probes the machine's speed throughout; for verify_pool it
runs in each pool worker instead of this process, which then only waits.
Untraced, the only spans are the benchmark's own: the whole workload, each
sweep item and each verify cell.  Traced, every public function in TRACED is
wrapped as well and the record carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import traceback
from pathlib import Path

import numpy as np

import oddquadric as oq
from oddquadric import charpoly, cli, poly, ring, serialize, spectra, verifier
from spans import Sampler, Tracer, layer_stats, normalized_items, pin_to_free_cpu, rebind

MODULES = (oq, ring, poly, charpoly, spectra, verifier, serialize, cli)

#: Public functions the traced run wraps, as (module, attribute); the span is
#: named "<module>.<attribute>".  ring.Matrix.__mul__ is wrapped as
#: "ring.Matrix.mul" and verifier.run_check_cell as "verifier.cell.<check_id>".
TRACED = (
    (ring, "build_a1"),
    (ring, "build_ap"),
    (charpoly, "charpoly_faddeev"),
    (charpoly, "charpoly_cofactor"),
    (charpoly, "closed_form_charpoly"),
    (poly, "poly_gcd"),
    (poly, "squarefree_decomposition"),
    (spectra, "closed_eigenvalues"),
    (spectra, "all_roots"),
    (spectra, "durand_kerner"),
    (spectra, "verify_diagonalization"),
    (spectra, "match_root_multisets"),
    (verifier, "run_suite"),
    (serialize, "report_json"),
    (serialize, "dumps_canonical"),
    (cli, "main"),
)

VERIFY_ARGV = ["verify", "--n-min", "2", "--n-max", "12", "--format", "json", "--jobs"]
#: Result count and SHA-256 of the stdout of VERIFY_ARGV, recorded from the
#: package as first benchmarked; --jobs must not change a byte of it.
VERIFY_RESULTS = 942
VERIFY_SHA256 = "ba5791c7fdcda54f937475fb4e138907ab69d9a627a04ab3677fc972f0929734"

EXACT_N = range(2, 17)
ROOT_N = range(2, 21)


def span_name(mod, attr: str) -> str:
    return f"{mod.__name__.rpartition('.')[2]}.{attr}"


def install(tracer: Tracer, traced: bool) -> None:
    """Wrap the traced functions (traced run only) and the verify cells.

    A name the package no longer has is skipped, and its metrics read 0.
    """
    if traced:
        for mod, attr in TRACED:
            fn = getattr(mod, attr, None)
            if fn is not None:
                name = span_name(mod, attr)
                count = name + ".roots" if attr == "durand_kerner" else None
                rebind(MODULES, fn, tracer.wrap(name, fn, count))
        if hasattr(ring, "Matrix"):
            ring.Matrix.__mul__ = tracer.wrap("ring.Matrix.mul", ring.Matrix.__mul__)
    if hasattr(verifier, "run_check_cell"):
        rebind(MODULES, verifier.run_check_cell, tracer.wrap_cell(verifier.run_check_cell))


def cpu_seconds() -> float:
    """User plus system time of this process and of its children that have ended."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


@contextlib.contextmanager
def measured(tracer: Tracer, record: dict):
    """The workload span, with the CPU time spent inside it."""
    c0 = cpu_seconds()
    try:
        with tracer.span("bench.workload"):
            yield
    finally:
        record["cpu_s"] = cpu_seconds() - c0


def run_items(tracer: Tracer, record: dict, items, check) -> tuple[int, int]:
    failed = 0
    with measured(tracer, record):
        for item in items:
            with tracer.work_item("bench.item", repr(item)):
                try:
                    ok = check(*item)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
            if not ok:
                print(f"item {item!r} failed", file=sys.stderr)
                failed += 1
    return len(items), failed


def exact_sweep(tracer, record, rng, keep):
    """Faddeev on every operator with 2 <= n <= 16, against the closed form."""
    items = [(n, p) for n in EXACT_N for p in range(1, 2 * n)]
    rng.shuffle(items)

    def check(n, p):
        ctx = oq.make_context(n)
        return oq.charpoly_faddeev(oq.build_ap(ctx, p)) == oq.closed_form_charpoly(ctx, p)

    return run_items(tracer, record, items, check)


def root_sweep(tracer, record, rng, keep):
    """Roots of every closed form with 2 <= n <= 20, plus one diagonalization per n."""
    items = [("roots", n, p) for n in ROOT_N for p in range(1, 2 * n)]
    items += [("diag", n, 1) for n in ROOT_N]
    rng.shuffle(items)

    def check(kind, n, p):
        ctx = oq.make_context(n)
        if kind == "diag":
            report = oq.verify_diagonalization(ctx)
            keep["diag"].append(report.residual_diag)
            return report.residual_diag <= spectra.DIAG_RESIDUAL_TOL and report.p_invertible
        pairs = oq.closed_eigenvalues(ctx, p)
        roots = oq.all_roots(oq.closed_form_charpoly(ctx, p))
        keep["roots"].append((pairs, roots))
        return oq.match_root_multisets(pairs, roots)[0]

    return run_items(tracer, record, items, check)


def verify(jobs):
    """oddquadric verify for 2 <= n <= 12, in-process, stdout captured."""

    def run(tracer, record, rng, keep):
        attempted = VERIFY_RESULTS + 1  # every result, plus exit code and digest
        buf = io.StringIO()
        try:
            with measured(tracer, record), contextlib.redirect_stdout(buf):
                code = cli.main(VERIFY_ARGV + [str(jobs)])
            out = buf.getvalue().encode()
            result = json.loads(out)["result"]
            passes = sum(r["status"] == "pass" for r in result["results"])
            all_pass = result["all_pass"]
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            return attempted, attempted
        digest = hashlib.sha256(out).hexdigest()
        whole = code == 0 and all_pass is True and digest == VERIFY_SHA256
        if not whole:
            print(f"verify exit {code}, all_pass {all_pass}, digest {digest}", file=sys.stderr)
        keep["output_bytes"] = len(out)
        keep["digest"] = digest
        return attempted, VERIFY_RESULTS - min(passes, VERIFY_RESULTS) + (not whole)

    return run


WORKLOADS = {
    "exact_sweep": exact_sweep,
    "root_sweep": root_sweep,
    "verify_cli": verify(1),
    "verify_pool": verify(2),
}
JOBS = {"verify_cli": 1, "verify_pool": 2}


def root_headroom(kept) -> float:
    """Largest distance from a closed-form eigenvalue to the nearest located
    root of the same multiplicity, over ROOT_MATCH_TOL."""
    worst = 0.0
    for pairs, roots in kept:
        for ep in pairs:
            dist = [abs(r - ep.value) for r, m in roots if m == ep.multiplicity]
            if dist:  # without one the item has already failed
                worst = max(worst, min(dist))
    return worst / spectra.ROOT_MATCH_TOL


def layer_metrics(tracer, groups, snapshots, keep, workload) -> dict:
    main = [tracer.spans]
    stats = layer_stats(main + groups)
    names = [span_name(mod, attr) for mod, attr in TRACED] + ["ring.Matrix.mul"]
    names += [f"verifier.cell.{cid}" for cid in verifier.CHECK_IDS]
    out = {}
    for name in names:
        s = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in ("calls", "s", "self_s"):
            out[f"{name}.{stat}"] = s[stat]
    hits = sum(h for h, _ in snapshots)
    lookups = sum(h + m for h, m in snapshots)
    out["ring.build_ap.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    out["spectra.durand_kerner.roots"] = tracer.counts["spectra.durand_kerner.roots"]
    out["spectra.root_match.headroom"] = root_headroom(keep["roots"])
    out["spectra.diag.headroom"] = max(keep["diag"], default=0.0) / spectra.DIAG_RESIDUAL_TOL
    cells = sum(s["s"] for name, s in stats.items() if name.startswith("verifier.cell."))
    jobs = JOBS.get(workload)
    span = stats["bench.workload"]["s"]  # with the probes, which cells include too
    out["verifier.pool.busy_frac"] = cells / (jobs * span) if jobs else 0.0
    out["serialize.output_bytes"] = keep.get("output_bytes", 0)
    own = sum(s["self_s"] for name, s in layer_stats(main).items() if not name.startswith("bench."))
    out["trace.layer_coverage"] = own / span
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    build_ap = getattr(ring, "build_ap", None)  # the lru_cache, before wrapping

    def snapshot():
        if not hasattr(build_ap, "cache_info"):
            return 0, 0
        info = build_ap.cache_info()
        return info.hits, info.misses

    tracer = Tracer(args.work_dir, snapshot)
    install(tracer, bool(args.trace))
    keep = {"roots": [], "diag": []}
    record = {"workload": args.workload, "trace": args.trace, "numpy": np.__version__}
    jobs = JOBS.get(args.workload, 1)
    pool = jobs > 1
    if not pool:  # a fork copies no threads, so pool workers start their own
        pin_to_free_cpu(args.work_dir)
        tracer.sampler = Sampler()
    attempted, failed = WORKLOADS[args.workload](tracer, record, random.Random(args.seed), keep)
    main_probes = [] if pool else tracer.sampler.stop()
    workers, snapshots = tracer.merge_workers()
    groups = [g for w, _, _ in workers for g in w]
    timelines = [(tracer.items, main_probes)] + [(items, probes) for _, probes, items in workers]

    probes = [cpu for _, p in timelines for _, cpu in p]
    _, start, end, _, _ = next(s for s in tracer.spans if s[0] == "bench.workload")
    # A probe holds the interpreter lock of its process for its CPU time; in a
    # pool the workers probe side by side, delaying the run by their total
    # over the number of workers.
    wall = end - start - sum(probes) / jobs
    record["cpu_s"] -= sum(probes)
    ref = sum(probes) / len(probes)
    record.update(
        attempted=attempted,
        failed=failed,
        wall_s=wall,
        ref_ms=1e3 * ref,
        probes=len(probes),
        peak_rss_mb=peak_rss_mb(),
        item_ms=[1e3 * w for items, _ in timelines for _, w, _ in items],
        item_norm=[x for items, pr in timelines for x in normalized_items(items, pr, ref)],
        digest=keep.get("digest"),
    )
    if args.trace:
        record["layers"] = layer_metrics(
            tracer, groups, [snapshot()] + [s for s in snapshots if s], keep, args.workload
        )
        if args.spans:
            fields = ["name", "start", "end", "parent", "item"]
            args.spans.write_text(
                json.dumps({"fields": fields, "main": tracer.spans, "workers": groups}),
                encoding="utf-8",
            )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
