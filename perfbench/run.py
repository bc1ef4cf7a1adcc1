"""Benchmark of oddquadric: one workload, measured for a fixed time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_sweep --seed 1 --seconds 25 --trace 0

Each repetition runs in a fresh interpreter (perfbench/rep.py) with the
checkout's src/ on PYTHONPATH; repetitions follow one another until the next
would end after --seconds.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1.  A traced
run alternates untraced and traced repetitions, to report the tracing
overhead.  A record of the run, with its environment, is written to
perfbench/out/.  See perfbench/README.md for the workloads and metrics.

Throughput on a shared machine drifts by tens of percent within seconds.  Each
repetition therefore times a fixed reference loop on its own CPU while it
works (see perfbench/spans.py).  The *_norm metrics divide times by that
loop's mean time in the same repetition, and setup_s is scaled the same way
to nominal seconds; of the time metrics, only these are gated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_LAUNCHES = 5  # before the repetitions, after them, and 1 after each
RUN_LIMIT_S = 170  # a run must end within 180 s
NOMINAL_PROBE_S = 0.010  # setup_s is in seconds at the speed where a probe takes this long
clock = time.perf_counter


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run argv in its own process group; on timeout kill the group and wait for it."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def probe_s() -> float:
    """Wall time of one run of the reference loop."""
    t = clock()
    reference_loop()
    return clock() - t


def launch_s(count: int) -> list[tuple[float, float]]:
    """(wall, nominal) seconds of `count` launches of interpreter start plus
    `import oddquadric`.

    The launches and the probes around them run pinned to one CPU.  Nominal
    seconds scale each launch by NOMINAL_PROBE_S over the mean of the probes
    just before and after it, so the machine's drifting speed and other work
    on that CPU slow both alike.
    """
    if not count:
        return []
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        times = []
        before = probe_s()
        for _ in range(count):
            t = clock()
            done = run_child([sys.executable, "-c", "import oddquadric"], timeout=60)
            wall = clock() - t
            if done.returncode != 0:
                raise RuntimeError(f"import oddquadric failed:\n{done.stderr}")
            after = probe_s()
            times.append((wall, wall * NOMINAL_PROBE_S / ((before + after) / 2)))
            before = after
        return times
    finally:
        os.sched_setaffinity(0, allowed)


def run_rep(args, trace: int, index: int, deadline: float) -> dict:
    work_dir = OUT / f"work-{os.getpid()}-{index}"
    work_dir.mkdir(parents=True, exist_ok=True)
    argv = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(trace),
        "--work-dir", str(work_dir),
    ]
    if trace:
        argv += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}-rep{index}.json")]
    try:
        done = run_child(argv, timeout=max(1.0, deadline - clock()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"repetition {index} exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def quantile(values, k: int) -> float:
    """The k-th of the 99 cut points between percentiles; 0 without items."""
    return statistics.quantiles(values, n=100)[k - 1] if len(values) > 1 else 0.0


def timings(reps: list[dict]) -> dict:
    """Medians over repetitions; item percentiles pool the items of all of them."""
    items = [ms for r in reps for ms in r["item_ms"]]
    items_norm = [x for r in reps for x in r["item_norm"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "wall_norm": statistics.median(1e3 * r["wall_s"] / r["ref_ms"] for r in reps),
        "cpu_norm": statistics.median(1e3 * r["cpu_s"] / r["ref_ms"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "item_p50_ms": quantile(items, 50),
        "item_p90_ms": quantile(items, 90),
        "item_p50_norm": quantile(items_norm, 50),
        "item_p90_norm": quantile(items_norm, 90),
    }


def per_layer(reps: list[dict]) -> dict:
    """Low medians over the traced repetitions, so counts stay whole; item
    percentiles from the untraced ones."""
    traced = [r for r in reps if r["trace"]]
    plain = timings([r for r in reps if not r["trace"]])
    out = {name: statistics.median_low(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    out.update((k, plain[k]) for k in ("item_p50_ms", "item_p90_ms", "item_p50_norm", "item_p90_norm"))
    out["trace_overhead_frac"] = timings(traced)["wall_norm"] / plain["wall_norm"] - 1
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="oddquadric benchmark; see perfbench/README.md")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = clock() + RUN_LIMIT_S

    if not (SRC / "oddquadric" / "__init__.py").is_file():
        print(f"error: no oddquadric package under {SRC}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    # Set-up is measured in untraced runs only, spread over the run.
    launches = 0 if args.trace else SETUP_LAUNCHES
    setup = launch_s(launches)
    modes = (0, 1) if args.trace else (0,)
    reps: list[dict] = []
    window = clock()
    while True:
        t = clock()
        rep = run_rep(args, modes[len(reps) % len(modes)], len(reps), deadline)
        rep["total_s"] = clock() - t
        reps.append(rep)
        setup += launch_s(min(launches, 1))
        longest = max(r["total_s"] for r in reps)
        if len(reps) >= len(modes) and clock() - window + longest > args.seconds:
            break

    setup += launch_s(launches)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {r["digest"] for r in reps}
    if args.trace:
        computed = per_layer(reps)
    else:
        computed = timings(reps)
        computed.update(
            setup_s=statistics.median(nominal for _, nominal in setup),
            setup_wall_s=statistics.median(wall for wall, _ in setup),
            pass_frac=(attempted - failed) / attempted,
        )
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(args, reps[0]["numpy"])
    record = {
        "environment": env,
        "repetitions": len(reps),
        "digests": sorted(d for d in digests if d),
        "reps": [{k: v for k, v in r.items() if k not in ("item_ms", "item_norm", "layers")} for r in reps],
        "computed": computed,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("environment " + json.dumps(env))
    print(f"repetitions {len(reps)}, items attempted {attempted}, failed {failed}")
    for key, m in metrics.items():
        print(f"{key} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
