"""Seeded job lists for the three benchmark workloads.

Every datum a job can use comes from a finite catalogue, so that
`reference.json` can hold the report numbers of every job any seed can
draw.  A seed picks catalogue entries and their order; it never changes
the number or the kinds of jobs in a cycle.  A workload runs in whole
cycles, so the mix of job kinds (and with it the median job) is the same
for every seed and every run length.  Each cycle has as many jobs below
its middle kind as above it, so the median job is a median of like jobs.

Jobs pass only options the CLI keeps: never --rule, --truncation or --w0,
and the client never sets QCHEAT_THREADS.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("cli_fields", "probe_sweep", "line_baseline")

# circle data on the reference grid (2048 x 97, the CLI defaults)
SMOOTH = (
    [f"sine:{a},{k}" for a in (0.1, 0.2, 0.3, 0.4) for k in (1, 2, 3)]
    + [f"random-trig:{m},{amp},{s}" for m in (4, 8) for amp in (0.1, 0.2) for s in (1, 2)]
)
ROUGH = [f"step:{c}" for c in (0.2, 0.3, 0.4)] + [f"sawtooth:{a}" for a in (0.2, 0.3, 0.4)]
CIRCLE = SMOOTH + ROUGH

# probe directions: amplitude <= 1 keeps every contour node away from a
# vanishing denominator, so epsilon never halves
DIRECTIONS = (
    [f"sine:{a},{k}" for a in (0.5, 1) for k in (1, 2, 3)]
    + ["step:0.3", "step:0.5", "sawtooth:0.5", "sawtooth:1"]
    + [f"random-trig:6,0.5,{s}" for s in (1, 2, 3)]
)
CONTOUR_NODES = (8, 12, 16)

# line data on [-20, 20]; the 256-wide field grid keeps R*y_max = 16 away
# from both ends, and y_min = 0.02 gives 32.8 samples per window
LINE_FILES = tuple(f"line{i}.json" for i in range(6))
LINE_N = 4097
LINE_SPAN = 20.0
LINE_GRID = ("--nx", "256", "--x-min", "-1", "--x-max", "1", "--y-min", "0.02", "--y-max", "2")
BASELINE_GRID = ("--nx", "128", "--x-min", "-1", "--x-max", "1", "--y-min", "0.01", "--y-max", "4")
BASELINE_HALF_WIDTHS = (6, 8)
BASELINE_R = (1, 2, 3)
BASELINE_N = (4097, 8193)


@dataclass(frozen=True)
class Job:
    command: str
    argv: tuple

    @property
    def key(self) -> str:
        """Identifies the job in reference.json (the argv without --out)."""
        return " ".join(self.argv)

    @property
    def datum(self) -> str:
        argv = list(self.argv)
        flag = "--builtin" if "--builtin" in argv else "--input"
        return argv[argv.index(flag) + 1]


def _job(*argv) -> Job:
    return Job(argv[0], tuple(str(a) for a in argv))


def _fields_cycle(rng: random.Random) -> list:
    # one quick report job below, two beltrami jobs in the middle and one
    # extend job above: the median job is a median of beltrami jobs, the
    # everyday command.  extend draws smooth data only, where its identity
    # residuals obey the 1e-8 law.
    jobs = [
        _job(rng.choice(("carleson", "transfer", "contract")), "--builtin", rng.choice(CIRCLE)),
        _job("beltrami", "--builtin", "const:0"),
        _job("beltrami", "--builtin", rng.choice(CIRCLE)),
        _job("extend", "--builtin", rng.choice(SMOOTH)),
    ]
    rng.shuffle(jobs)
    return jobs


def _probe_cycle(rng: random.Random) -> list:
    jobs = [_job("probe", "--builtin", rng.choice(DIRECTIONS), "--eps", "0.1",
                 "--contour-nodes", nodes) for nodes in CONTOUR_NODES]
    rng.shuffle(jobs)
    return jobs


def _baseline(n: int, half: int, r: int) -> Job:
    return _job("baseline", "--builtin", f"id:-{half},{half}", "--n", n, "--r", r,
                *BASELINE_GRID)


def _line_cycle(rng: random.Random) -> list:
    jobs = [
        _job("beltrami", "--input", rng.choice(LINE_FILES), *LINE_GRID),
        *(_baseline(n, rng.choice(BASELINE_HALF_WIDTHS), rng.choice(BASELINE_R))
          for n in BASELINE_N),
        _job("analyze", "--input", rng.choice(LINE_FILES)),
        _job("analyze", "--builtin", rng.choice(CIRCLE)),
    ]
    rng.shuffle(jobs)
    return jobs


_CYCLES = {"cli_fields": _fields_cycle, "probe_sweep": _probe_cycle,
           "line_baseline": _line_cycle}


def cycles(workload: str, seed: int):
    """Endless seeded sequence of job cycles for `workload`."""
    rng = random.Random(f"{workload}/{seed}")
    make = _CYCLES[workload]
    while True:
        yield make(rng)


def catalogue(workload: str) -> list:
    """Every job any seed can draw for `workload`."""
    if workload == "cli_fields":
        return ([_job("beltrami", "--builtin", d) for d in ["const:0"] + CIRCLE]
                + [_job("extend", "--builtin", d) for d in SMOOTH]
                + [_job(c, "--builtin", d) for c in ("carleson", "transfer", "contract")
                   for d in CIRCLE])
    if workload == "probe_sweep":
        return [_job("probe", "--builtin", d, "--eps", "0.1", "--contour-nodes", nodes)
                for d in DIRECTIONS for nodes in CONTOUR_NODES]
    return ([_job("beltrami", "--input", f, *LINE_GRID) for f in LINE_FILES]
            + [_baseline(n, half, r) for n in BASELINE_N
               for half in BASELINE_HALF_WIDTHS for r in BASELINE_R]
            + [_job("analyze", "--input", f) for f in LINE_FILES]
            + [_job("analyze", "--builtin", d) for d in CIRCLE])


def line_datum(name: str) -> dict:
    """The datum JSON of line file `name`: a smooth real random
    trigonometric sum on [-LINE_SPAN, LINE_SPAN] with sup norm 0.3."""
    rng = random.Random(name)
    coef = [(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(6)]
    xs = [-LINE_SPAN + 2 * LINE_SPAN * i / (LINE_N - 1) for i in range(LINE_N)]
    vals = [sum(a * math.cos(k * x / 3) + b * math.sin(k * x / 3)
                for k, (a, b) in enumerate(coef, 1)) for x in xs]
    peak = max(abs(v) for v in vals)
    return {"domain": {"line": [-LINE_SPAN, LINE_SPAN]}, "n": LINE_N,
            "values_re": [0.3 * v / peak for v in vals]}


def write_inputs(workload: str, directory) -> None:
    """Write the input files the workload's jobs read (line data only)."""
    if workload != "line_baseline":
        return
    for name in LINE_FILES:
        with open(f"{directory}/{name}", "w") as fh:
            json.dump(line_datum(name), fh)
