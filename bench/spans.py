"""Per-layer metrics from the spans trace_job.py records.

Self time: at every instant of a job, the innermost open spans (open spans
none of whose children is open) share that instant equally.  On one
thread this is a span's duration minus the union of its children's
intervals.  While pool threads overlap it splits wall time between them,
so the self times of a job add up to the union of its top-level spans,
and with `cli.job_other_s` (interpreter start-up, exit and the tracer's
own bookkeeping) to the job's wall time.

The closure a function hands to `run_indexed` runs as `<function>.task`
spans on pool threads; their time counts as that function's self time,
so the workers layer keeps only the pool's own overhead.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("cli", "kernels", "extension", "_workers", "carleson", "transfer",
          "funcspace", "analyticity")
# functions the per-layer metrics name, as module.function; later changes
# may delete some, and trace_job.py reports those as absent
TRACED = ("cli.write_field_csv", "cli.write_report", "cli.load_datum", "cli.load_datum_file",
          "kernels.wrapped_lattice_weights", "extension.beltrami", "extension.extend",
          "extension.classical_ba_extend", "_workers.run_indexed",
          "carleson.carleson_norm_halfplane", "carleson.carleson_norm_disk",
          "transfer.push_to_disk", "transfer.contraction", "funcspace.analyze",
          "funcspace.bmo_norm", "analyticity.build_probe",
          "analyticity.quotient_convergence", "analyticity.cauchy_reconstruct")
# reported per engine, by whether its datum is periodic
PER_ENGINE = "extension.beltrami"
# reported through the pool metrics (workers.*), not by calls and self time
POOL = "_workers.run_indexed"


def metric_name(qualname: str) -> str:
    """A layer or function's name in the metrics: `_workers` is reported
    as `workers`, because a metric name must start with a letter."""
    return qualname.lstrip("_")


def engine_span(name: str, periodic: bool) -> str:
    return f"{name}.{'circle' if periodic else 'line'}"


# span names whose calls and self time are reported
TIMED = tuple(
    span for q in TRACED if q != POOL
    for span in ((engine_span(q, True), engine_span(q, False)) if q == PER_ENGINE
                 else (metric_name(q),)))
# span extras summed over a job: extra key -> (metric, scale)
EXTRAS = {"bytes": ("cli.write_field_csv.mb", 1e-6),
          "points": ("kernels.points_evaluated", 1),
          "levels": ("extension.levels", 1),
          "halvings": ("analyticity.eps_halvings", 1),
          "kept": ("analyticity.fields_kept", 1)}


def self_times(spans) -> dict:
    """Self time of every span id (see the module docstring)."""
    parent = {s[0]: s[1] for s in spans}
    # at equal times ends come before starts, a child ends before its
    # parent and starts after it (ids grow with call depth)
    events = sorted([(s[4], 1, s[0]) for s in spans] + [(s[5], 0, -s[0]) for s in spans])
    open_children = defaultdict(int)
    active, leaves, out = set(), set(), defaultdict(float)
    prev = None
    for t, starts, key in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for sid in leaves:
                out[sid] += share
        prev = t
        sid = abs(key)
        p = parent[sid]
        if starts:
            active.add(sid)
            leaves.add(sid)
            if p in active:
                open_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return {s[0]: out[s[0]] for s in spans}


def union_length(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def job_breakdown(spans, wall):
    """(self time per span id, time outside every span, |union of spans|)."""
    own = self_times(spans)
    ids = {s[0] for s in spans}
    covered = union_length([(s[4], s[5]) for s in spans if s[1] not in ids])
    return own, wall - sum(own.values()), covered


def _has_ancestor(sid, name, parent, names) -> bool:
    sid = parent.get(sid, 0)
    while sid:
        if names[sid] == name:
            return True
        sid = parent.get(sid, 0)
    return False


def aggregate(traces) -> dict:
    """Every per-layer metric from [(wall, spans)] of the traced jobs, as
    means per job (ratios over all jobs' totals)."""
    jobs = len(traces)
    pool = metric_name(POOL)
    total = defaultdict(float)
    total.update({f"{metric_name(layer)}.self_s": 0.0 for layer in LAYERS})
    total.update({metric: 0.0 for metric, _ in EXTRAS.values()})
    total.update({name: 0.0 for name in ("cli.import", "cli.job_other_s", "trace.job_wall_s",
                                         f"{pool}.wall_s", "workers.busy_s",
                                         "analyticity.fields_built")})
    calls = defaultdict(int)
    pool_capacity = 0.0
    pool_threads = []
    for wall, spans in traces:
        own, other, _ = job_breakdown(spans, wall)
        total["cli.job_other_s"] += other
        total["trace.job_wall_s"] += wall
        parent = {s[0]: s[1] for s in spans}
        names = {s[0]: s[2] for s in spans}
        for sid, _, name, _, t0, t1, extra in spans:
            task = name.endswith(".task")
            if task:  # the caller's closure on a pool thread
                name = name[:-len(".task")]
                total["workers.busy_s"] += t1 - t0
            else:
                calls[name] += 1
            total[name] += own[sid]
            total[name.split(".", 1)[0] + ".self_s"] += own[sid]
            for key, value in extra.items():
                if key in EXTRAS:
                    metric, scale = EXTRAS[key]
                    total[metric] += value * scale
            if name == pool:
                total[f"{pool}.wall_s"] += t1 - t0
                pool_capacity += extra.get("threads", 0) * (t1 - t0)
                pool_threads.append(extra.get("threads", 0))
            elif (not task and name.startswith(metric_name(PER_ENGINE) + ".")
                  and _has_ancestor(sid, "analyticity.build_probe", parent, names)):
                total["analyticity.fields_built"] += 1
    out = {name: total[name] / jobs for name in list(total)}
    for name in TIMED:
        out[f"{name}.calls"] = calls[name] / jobs
        out[f"{name}.self_s"] = total[name] / jobs
    out["cli.import_s"] = total["cli.import"] / jobs
    out["workers.threads"] = sum(pool_threads) / len(pool_threads) if pool_threads else 0.0
    out["workers.parallel_efficiency"] = (total["workers.busy_s"] / pool_capacity
                                          if pool_capacity else 0.0)
    built = total["analyticity.fields_built"]
    out["analyticity.fields_kept_ratio"] = total["analyticity.fields_kept"] / built if built else 0.0
    return out
