"""Benchmark of the hlmoments package, run from the root of a checkout.

    python3 perfbench/run.py --workload exact-lowk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run is one fresh process and one workload (see ``workloads.py``): a
closed loop with one client that issues the next job when the previous one
ends, for ``--seconds``.  The package is imported from ``src/`` of the
checkout; OpenMP and BLAS thread counts are pinned to 1 and the process to
one CPU.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (wall time from
just before ``import hlmoments`` to the end of the first, untimed job,
excluding the benchmark's own input generation; the median over this process
and ``SETUP_PROBES`` fresh child processes), ``job_s.p50``, ``job_s.tail``
(see ``summary.tail_percentile``), ``peak_rss_mb`` (``ru_maxrss`` of this
process) and ``ok_frac`` (1 - failed_frac).  ``--trace 1`` spends the first
half of the time untraced and the second half with every layer boundary
wrapped (``spans.py``), and reports the per-layer metrics as medians over the
traced jobs, plus ``trace.overhead_s``.

Every job's outputs must be bit-identical to the untimed first job of the
same process, and reference checks run once per process outside every timed
region.  Attempted operations are the timed jobs plus the reference checks;
a failed one is an exception, a non-zero CLI exit, or a missed check.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload untraced and traced, one process
after another, and prints each run's report and a summary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from spans import LAYERS
from summary import failed_frac, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
# the keys of workloads.WORKLOADS, which cannot be imported before the timed import
NAMES = ("exact-lowk", "exact-highk", "cli")

#: Fresh child processes that repeat the set-up, half before the timed loop and
#: half after it, so setup_s is a median of 1 + SETUP_PROBES spread over the run.
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: Kernel orders with their own ns-per-tuple metric (0 where a workload has none).
_ORDERS = (2, 3, 4, 6, 8, 12)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _commit():
    """HEAD of the checkout's git directory, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(allowed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(allowed),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "loadavg_start": os.getloadavg(),
    }


def _timed_loop(job, reference, seconds, recorder=None):
    """Closed loop: (durations, ok flags) of the jobs started within ``seconds``."""
    clock = time.perf_counter
    durations, oks = [], []
    start = clock()
    while clock() - start < seconds:
        if recorder is not None:
            recorder.job = len(durations)
        t = clock()
        try:
            out = job()
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        durations.append(clock() - t)
        ok = out == reference
        if out is not None and not ok:
            print(f"job {len(oks)}: output differs from the untimed first job", file=sys.stderr)
        oks.append(ok)
    return durations, oks


def _setup(name, seed, workdir):
    """Import the package, draw the inputs and run the first job; returns (workload, reference, setup_s)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hlmoments

    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(hlmoments.__file__))) != src:
        raise SystemExit(f"error: imported hlmoments from {hlmoments.__file__}, not {src}")
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    t1 = time.perf_counter()
    reference = workload.job()
    setup_s = import_s + time.perf_counter() - t1
    if any(isinstance(o, tuple) and o[0] != 0 for o in reference):
        raise SystemExit(f"error: first job exited non-zero: {reference}")
    return workload, reference, setup_s


def _probe_setups(args, count):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(durations, oks, setups, failed, attempted):
    times = [d if ok else math.inf for d, ok in zip(durations, oks)]
    p, tail, beyond = tail_percentile(times)
    print(f"jobs: {len(times)} timed, {oks.count(False)} failed; "
          f"job_s.tail is p{p} with {beyond} jobs beyond it")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "job_s.p50": _metric(statistics.median(times), "s"),
        "job_s.tail": _metric(tail, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": _metric(1.0 - failed_frac(failed, attempted), "ratio"),
    }


def _job_layer_metrics(acc, duration):
    """Per-layer metrics of one traced job from its summed spans (a ``Recorder.per_job`` Counter)."""
    def ns(num, den):
        return 1e9 * acc[num] / acc[den] if acc[den] else 0.0

    m = {
        "kernels.eval_s": acc["kernels.self_s"],
        "kernels.ns_per_tuple": ns("kernels.self_s", "kernels.tuples"),
        "kernels.calls": acc["kernels.calls"],
        "kernels.tuples": acc["kernels.tuples"],
        "kernels.bytes_computed": acc["kernels.bytes"],
        "pseudosample.self_s": acc["pseudosample.self_s"],
        "pseudosample.items": acc["estimators.items"],
        "pseudosample.ns_per_item": ns("pseudosample.self_s", "estimators.items"),
        "pseudosample.bytes_computed": acc["pseudosample.bytes"],
        "lstat.apply_s": acc["lstat.self_s"],
        "lstat.window": acc["lstat.window"],
        "lstat.ns_per_item": ns("lstat.self_s", "lstat.items"),
        "distributions.sample_s": acc["distributions.self_s"],
        "distributions.draws": acc["distributions.draws"],
        "distributions.ns_per_draw": ns("distributions.self_s", "distributions.draws"),
        "cli.self_s": acc["cli.self_s"],
        "estimators.self_s": acc["estimators.self_s"],
    }
    for k in _ORDERS:
        m[f"kernels.ns_per_tuple.k{k}"] = ns(f"kernels.self_s.k{k}", f"kernels.tuples.k{k}")
    for layer in LAYERS:
        m[f"{layer}.share"] = acc[f"{layer}.self_s"] / duration
    return m


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(".share"):
        return "ratio"
    return "count"


def _per_layer(workload, reference, seconds):
    from spans import Recorder, targets  # imports the package, so only after _setup

    untraced, oks = _timed_loop(workload.job, reference, seconds / 2)
    recorder = Recorder()
    restore = recorder.install(targets())
    try:
        traced, traced_oks = _timed_loop(workload.job, reference, seconds / 2, recorder)
    finally:
        restore()
    oks += traced_oks
    print(f"jobs: {len(untraced)} untraced then {len(traced)} traced, {oks.count(False)} failed")
    print(f"check traced-outputs-equal-untraced: {'ok' if all(traced_oks) else 'MISS'}")
    jobs = recorder.per_job()
    rows = [_job_layer_metrics(jobs[j], d) for j, d in enumerate(traced)]
    metrics = {name: _metric(statistics.median(r[name] for r in rows), _unit(name)) for name in rows[0]}
    metrics["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, oks, recorder


def _run_one(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "hlmoments", "__init__.py")):
        raise SystemExit(f"error: no package source under {ROOT}/src; run from a checkout root")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("HLMOMENTS_BUDGET_CAP", None)  # the CLI budget must be the default
    # One CPU for the whole run, inherited by the set-up probes: a process that
    # lands on CPUs of unequal speed from run to run makes job times bimodal.
    # The lowest-numbered CPU usually takes the interrupts, so use the highest.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload, reference, setup_s = _setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("provenance: " + json.dumps(_provenance(allowed)))
        checks = workload.references()
        for name, ok, detail in checks:
            print(f"check {name}: {'ok' if ok else 'MISS'} ({detail})")
        missed = sum(not ok for _, ok, _ in checks)
        if args.trace:
            metrics, oks, recorder = _per_layer(workload, reference, args.seconds)
            attempted, failed = len(oks) + len(checks), oks.count(False) + missed
        else:
            setups = [setup_s] + _probe_setups(args, SETUP_PROBES // 2)
            durations, oks = _timed_loop(workload.job, reference, args.seconds)
            setups += _probe_setups(args, SETUP_PROBES - SETUP_PROBES // 2)
            attempted, failed = len(oks) + len(checks), oks.count(False) + missed
            metrics = _end_to_end(durations, oks, setups, failed, attempted)
    if args.trace:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        recorder.write(path)
        print(f"spans: {len(recorder.spans)} written to {os.path.relpath(path, ROOT)}")
    print(f"failed_frac: {failed_frac(failed, attempted):.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"metric {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _run_all(args):
    """Each workload untraced then traced, one fresh process after another."""
    summary = []
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = done.returncode
                continue
            summary.append((name, trace, json.loads(done.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for name, trace, result in summary:
        print(f"{name} trace={trace}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None):
    args = _parse(argv)
    return _run_all(args) if args.workload == "all" else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
