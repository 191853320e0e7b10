"""The qcheat benchmark: CLI jobs in fresh processes, end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A single closed-loop client runs the
workload's seeded jobs one at a time, each as a fresh
`python -m qcheat.cli ...` process with PYTHONPATH=src, the program's
default thread count and QCHEAT_THREADS unset.  It runs whole cycles of
jobs (see workloads.py) and starts another only while it expects it to
end within S seconds.  Every job's outputs are checked after its timing
ends (see checks.py).

--trace 0 reports the end-to-end metrics.  --trace 1 runs every job
twice, plain and under trace_job.py, in alternating order, and reports
the per-layer metrics of the traced runs (see spans.py) and the tracing
overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import checks
import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3


def environment() -> dict:
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(f"{base}/{index}/level") as a, open(f"{base}/{index}/type") as b, \
                    open(f"{base}/{index}/size") as c:
                caches[f"L{a.read().strip()}-{b.read().strip()}"] = c.read().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "QCHEAT_THREADS": "unset",  # job_env removes it
        "python": platform.python_version(),
        **{lib: metadata.version(lib) for lib in ("numpy", "scipy", "jsonschema")},
    }


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("QCHEAT_THREADS", None)
    return env


def set_up(workload, work, env) -> float:
    """Write the workload's input files and warm the bytecode cache."""
    t0 = perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    workloads.write_inputs(workload, work)
    if not compileall.compile_dir(os.path.join(SRC, "qcheat"), force=True, quiet=1):
        sys.exit("bench: qcheat does not compile")
    subprocess.run([sys.executable, "-c", "import qcheat.cli"], env=env, cwd=work, check=True)
    return perf_counter() - t0


def run_job(job, work, env, reference, traced) -> dict:
    """One job in a fresh process: wall time from spawn to exit, its
    rusage, and (after timing) the output check."""
    out = os.path.join(work, "out")
    trace_file = os.path.join(work, "spans.json")
    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(trace_file):
        os.remove(trace_file)
    argv = list(job.argv) + ["--out", "out"]
    if traced:
        cmd = [sys.executable, os.path.join(BENCH, "trace_job.py"), trace_file] + argv
    else:
        cmd = [sys.executable, "-m", "qcheat.cli"] + argv
    with open(os.path.join(work, "stderr.txt"), "w+") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no job running
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    problems = checks.check_job(job, proc.returncode, out, reference)
    if stderr and problems:
        problems.append(f"stderr: {stderr.strip()[-300:]}")
    result = {"job": job, "wall": wall, "rss_mb": usage.ru_maxrss / 1024,
              "cpu": usage.ru_utime + usage.ru_stime, "problems": problems}
    if traced:
        try:
            with open(trace_file) as fh:
                result["trace"] = json.load(fh)
        except (OSError, ValueError) as e:
            problems.append(f"no spans: {e}")
            result["trace"] = {"spans": [], "absent": []}
        result["t0"] = t0
    return result


def run_cycles(workload, seed, seconds, work, env, reference, trace) -> list:
    """Whole cycles of jobs; another starts only while the last cycle's
    duration still fits in `seconds`.  At least one cycle runs."""
    results, start, pair = [], perf_counter(), 0
    for cycle in workloads.cycles(workload, seed):
        c0 = perf_counter()
        for job in cycle:
            order = ((False, True) if pair % 2 == 0 else (True, False)) if trace else (False,)
            pair += 1
            for traced in order:
                results.append(run_job(job, work, env, reference, traced))
        now = perf_counter()
        if now - start + (now - c0) > seconds:
            return results


def end_to_end(results, setup_times) -> tuple:
    walls = sorted(r["wall"] for r in results)
    passed = sum(not r["problems"] for r in results)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": passed / sum(walls),
        "job_p50_s": statistics.median(walls),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    info = [f"failed_frac {(len(walls) - passed) / len(walls):.6g} ratio"]
    if len(walls) > 10:  # highest percentile with ten jobs beyond it
        k = len(walls) - 11
        info.append(f"job_tail_s {walls[k]:.6g} s (p{100 * (k + 1) / len(walls):.1f} "
                    f"of {len(walls)} jobs)")
    else:
        info.append(f"job_tail_s omitted: {len(walls)} jobs, need 11")
    return metrics, info


def per_layer(results) -> tuple:
    plain = [r for r in results if "trace" not in r]
    traced = [r for r in results if "trace" in r]
    problems = []
    rows = []
    for r in traced:
        # the launcher's clock is the client's: every span lies inside the
        # job's wall time, and the self times add up to the time spans cover
        job_spans = r["trace"]["spans"]
        own, _, covered = spans.job_breakdown(job_spans, r["wall"])
        inside = all(r["t0"] <= s[4] <= s[5] <= r["t0"] + r["wall"] for s in job_spans)
        if not inside or abs(sum(own.values()) - covered) > 1e-6:
            problems.append(f"{r['job'].key}: self times {sum(own.values()):.6f} s, "
                            f"spans cover {covered:.6f} s of {r['wall']:.6f} s, "
                            f"inside the job: {inside}")
        rows.append((r["wall"], job_spans))
    metrics = spans.aggregate(rows)
    metrics["cli.job_cpu_s"] = statistics.fmean(r["cpu"] for r in plain)
    metrics["trace.overhead_frac"] = (sum(r["wall"] for r in traced)
                                      / sum(r["wall"] for r in plain) - 1)
    layers = sum(metrics[f"{spans.metric_name(layer)}.self_s"] for layer in spans.LAYERS)
    info = [f"check: layer self times {layers:.6f} s + cli.job_other_s "
            f"{metrics['cli.job_other_s']:.6f} s = traced job wall "
            f"{metrics['trace.job_wall_s']:.6f} s"]
    absent = sorted({n for r in traced for n in r["trace"]["absent"]})
    info.append(f"absent traced functions: {', '.join(absent) or 'none'}")
    return metrics, info, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcheat", "cli.py")):
        sys.exit(f"bench: no qcheat sources under {SRC}")
    # BENCHMARK.json names the reported metrics and their units
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        reported = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = job_env()
    print("environment", json.dumps(environment(), sort_keys=True), flush=True)
    work = os.path.join(BENCH, ".work", args.workload)
    setup_times = [set_up(args.workload, work, env) for _ in range(SETUP_REPEATS)]
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)

    results = run_cycles(args.workload, args.seed, args.seconds, work, env, reference,
                         args.trace)
    failed = [r for r in results if r["problems"]]
    for r in failed:
        print(f"FAILED {r['job'].key}: {'; '.join(r['problems'])}", file=sys.stderr)
    if args.trace:
        computed, info, problems = per_layer(results)
    else:
        computed, info = end_to_end(results, setup_times)
        problems = []
    for p in problems:
        print(f"TRACE CHECK FAILED {p}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    missing = [m["name"] for m in reported if m["name"] not in computed]
    if missing:
        sys.exit(f"bench: BENCHMARK.json names metrics the run does not compute: {missing}")
    metrics = {m["name"]: computed[m["name"]] for m in reported}
    units = {m["name"]: m["unit"] for m in reported}

    print(f"workload {args.workload} seed {args.seed}: {len(results)} jobs, "
          f"{len(failed)} failed")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for line in info:
        print(line)
    if not all(math.isfinite(v) for v in metrics.values()):
        sys.exit(f"bench: non-finite metric in {metrics}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
