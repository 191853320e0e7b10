"""Run one qcheat CLI job with the public functions of every layer traced.

    PYTHONPATH=src python3 bench/trace_job.py SPANS_JSON ARG...

runs `qcheat.cli.run([ARG...])` like `python -m qcheat.cli ARG...` does,
after replacing every module binding of each layer's public functions
with a wrapper that records a span.  A span is
[id, parent id, name, thread, start, end, extra] on the system-wide
monotonic clock (time.perf_counter), so the client can place it inside
the job's wall time.  Spans stay in memory and are written to SPANS_JSON
when the job exits, together with the traced names that no longer exist.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import sys
import threading
from time import perf_counter

import spans

class Recorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, sig=None, hook=None):
        """fn(*args, **kwargs) inside a span.  `parent` overrides the
        calling thread's innermost span.  `hook(sid, caller, arguments)`
        sees the span id, the caller's span name and the bound arguments
        before the call, may rewrite the arguments, and returns
        `fill(extra, result)`, which runs after a call that returned."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1][0] if stack else 0
        sid = next(self._ids)
        extra, fill = {}, None
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            fill = hook(sid, stack[-1][1] if stack else "", bound.arguments)
            args, kwargs = bound.args, bound.kwargs
        stack.append((sid, name))
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append([sid, parent, name, threading.get_ident(), t0, t1, extra])
        if fill is not None:
            fill(extra, result)
        return result

    def record(self, name, t0, t1):
        self.spans.append([next(self._ids), 0, name, threading.get_ident(), t0, t1, {}])


def _after(fill):
    """A hook that only reads the arguments and the result."""
    return lambda sid, caller, a: lambda extra, result: fill(a, extra, result)


def _hooks(rec: Recorder) -> dict:
    """Per-function extras: counts computed from arguments and results."""

    def lattice_points(a, extra, result):
        m_max = int(math.ceil((a["R"] * a["y"]) / a["period"])) + 3
        extra["points"] = (2 * m_max + 1) * a["n"]

    def levels(a, extra, result):
        extra["levels"] = a["grid"].ny

    def csv_bytes(a, extra, result):
        extra["bytes"] = os.path.getsize(a["path"])

    def probe(a, extra, result):
        extra["kept"] = len(result.fields)
        extra["halvings"] = round(math.log2(a["epsilon"] / result.epsilon))

    def run_indexed(sid, caller, a):
        # a task runs the caller's closure on a pool thread: it is the
        # caller's work (caller + ".task"), and its parent is this span
        fn, threads, name = a["fn"], set(), f"{caller}.task"

        def task(j):
            threads.add(threading.get_ident())
            return rec.call(name, fn, (j,), {}, parent=sid)

        a["fn"] = task
        return lambda extra, result: extra.update(threads=len(threads))

    return {"kernels.wrapped_lattice_weights": _after(lattice_points),
            "extension.beltrami": _after(levels), "extension.extend": _after(levels),
            "extension.classical_ba_extend": _after(levels),
            "cli.write_field_csv": _after(csv_bytes), "analyticity.build_probe": _after(probe),
            spans.POOL: run_indexed}


def _wrap(rec, qualname, fn, hook):
    name = spans.metric_name(qualname)
    per_engine = qualname == spans.PER_ENGINE
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name
        if per_engine:
            w = args[0] if args else kwargs["w"]
            span = spans.engine_span(name, w.periodic)
        return rec.call(span, fn, args, kwargs, sig=sig, hook=hook)

    return wrapper


def install(rec: Recorder) -> list:
    """Wrap the public functions of every layer; return the traced ones
    the metrics name that do not exist."""
    hooks = _hooks(rec)
    wrappers, names = {}, set()
    for layer in spans.LAYERS:
        mod = sys.modules.get(f"qcheat.{layer}")
        if mod is None:
            continue
        for func, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not func.startswith("_")):
                qualname = f"{layer}.{func}"
                wrappers[id(obj)] = _wrap(rec, qualname, obj, hooks.get(qualname))
                names.add(qualname)
    # every binding: qcheat.beltrami, analyticity.beltrami, extension.run_indexed, ...
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "qcheat" or modname.startswith("qcheat.")):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
    return [n for n in spans.TRACED if n not in names]


def main(argv) -> int:
    spans_path, job_argv = argv[0], argv[1:]
    rec = Recorder()
    t0 = perf_counter()
    import qcheat.cli
    rec.record("cli.import", t0, perf_counter())
    absent = install(rec)
    code = 1
    try:
        code = qcheat.cli.run(job_argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"absent": absent, "exit_code": code, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
