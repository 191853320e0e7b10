"""Output checks for one benchmark job.

A job passes when it exited 0, wrote every file its command writes, every
report parses with only finite numbers, every CSV has its header and the
expected count of finite rows, the command's laws hold, and the numbers
agree with `reference.json` (recorded at the seed commit).

The reference tolerances admit a <= 1e-14 change in the fields, which is
what the roadmap calls "same results", and are tighter than the
acceptance-suite bound of every quantity that suite bounds.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# files each command writes, besides <command>.json
FIELD_CSV = {"beltrami": "mu.csv", "extend": "field.csv", "baseline": "baseline.csv"}
CONTRACT_T = ("0", "0.5", "1")

# (relative, absolute) tolerance per report quantity
DEFAULT_TOL = (1e-9, 1e-11)
TOLERANCE = {
    # distances of difference quotients with steps down to eps/40 magnify a
    # 1e-14 field change to ~1e-9 in the slope
    "quotient_slope": (1e-6, 1e-11),
}
CSV_SUM_TOL = (1e-12, 1e-8)  # column sums over ~2e5 values
# a location, not a quantity: a 1e-14 change may move it between tied boxes
NOT_COMPARED = {"config", "argmax"}

GRID_DEFAULTS = {"--nx": 2048, "--y-min": 1e-3, "--y-max": 4.0, "--levels-per-octave": 8,
                 "--n": 2048, "--r": 2.0}


def _flag(argv, name):
    argv = list(argv)
    return float(argv[argv.index(name) + 1]) if name in argv else GRID_DEFAULTS[name]


def field_rows(argv) -> int:
    """ny * nx of the job's grid: levels y_max * 2^(-k/lpo) down to the
    first one <= y_min, as the CLI documents its grid."""
    lpo = _flag(argv, "--levels-per-octave")
    ny = math.ceil(lpo * math.log2(_flag(argv, "--y-max") / _flag(argv, "--y-min")) - 1e-9) + 1
    return ny * int(_flag(argv, "--nx"))


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _load_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _flatten(obj, prefix, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k not in NOT_COMPARED:
                _flatten(v, f"{prefix}/{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}/{i}", out)
    else:
        out[prefix] = obj
    return out


def _read_csv(path, header, columns) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{os.path.basename(path)}: header {first!r}, want {header!r}")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if table.shape[1] != columns:
        raise ValueError(f"{os.path.basename(path)}: {table.shape[1]} columns, want {columns}")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{os.path.basename(path)}: non-finite value")
    return table


def summarize(job, out_dir) -> dict:
    """The numbers of a finished job that the reference pins: every report
    number, and each CSV's row count and column sums.  Raises ValueError
    on a missing, unparsable or non-finite output."""
    report = _flatten(_load_report(os.path.join(out_dir, f"{job.command}.json")), "", {})
    for path, v in report.items():
        if isinstance(v, float) and not math.isfinite(v):  # e.g. 1e999
            raise ValueError(f"non-finite number at {path}")
    csv = {}
    if job.command in FIELD_CSV:
        csv[FIELD_CSV[job.command]] = ("x,y,re,im", 4, field_rows(job.argv))
    if job.command == "contract":
        for t in CONTRACT_T:
            # the angle map lives on the n + 1 nodes of [0, 1]
            csv[f"contract_t{t}.csv"] = ("x,g", 2, int(_flag(job.argv, "--n")) + 1)
    sums = {}
    for name, (header, columns, rows) in csv.items():
        table = _read_csv(os.path.join(out_dir, name), header, columns)
        if table.shape[0] != rows:
            raise ValueError(f"{name}: {table.shape[0]} rows, want {rows}")
        sums[name] = [float(s) for s in table.sum(axis=0)]
    return {"report": report, "csv": sums}


def law_failures(job, summary) -> list:
    """The identity laws the paper's construction guarantees."""
    rep = summary["report"]
    bad = []
    if job.command == "beltrami" and job.datum == "const:0" and rep["/sup_norm"] > 1e-8:
        bad.append(f"const:0 sup_norm {rep['/sup_norm']:.3e} > 1e-8")
    if job.command == "extend":
        for k in ("/residual_uy_half_vx", "/residual_vy_identity"):
            if rep[k] > 1e-8:
                bad.append(f"extend {k[1:]} {rep[k]:.3e} > 1e-8")
    if job.command == "probe":
        if rep["/cauchy_error"] > 1e-6:
            bad.append(f"probe cauchy_error {rep['/cauchy_error']:.3e} > 1e-6")
        if not math.isfinite(rep["/quotient_slope"]):
            bad.append("probe quotient_slope is not finite")
    if job.command == "baseline":
        # on identity data U = x and V = r*y/2 exactly, so F deviates from
        # x + iy by |r/2 - 1| * y_max (zero for the classical r = 2)
        want = abs(_flag(job.argv, "--r") / 2 - 1) * _flag(job.argv, "--y-max")
        if abs(rep["/max_identity_deviation"] - want) > 1e-8:
            bad.append(f"baseline max_identity_deviation {rep['/max_identity_deviation']:.3e}, "
                       f"want {want:g} within 1e-8")
    return bad


def _close(got, want, tol) -> bool:
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    rel, abs_ = tol
    return abs(got - want) <= abs_ + rel * abs(want)


def reference_failures(summary, ref) -> list:
    bad = []
    got, want = summary["report"], ref["report"]
    if got.keys() != want.keys():
        bad.append(f"report keys differ: {sorted(got.keys() ^ want.keys())}")
    for path in sorted(got.keys() & want.keys()):
        tol = TOLERANCE.get(path.rsplit("/", 1)[-1], DEFAULT_TOL)
        if not _close(got[path], want[path], tol):
            bad.append(f"{path} = {got[path]!r}, reference {want[path]!r}")
    for name, sums in ref["csv"].items():
        if not all(_close(g, w, CSV_SUM_TOL) for g, w in zip(summary["csv"][name], sums)):
            bad.append(f"{name} column sums {summary['csv'][name]}, reference {sums}")
    return bad


def check_job(job, exit_code, out_dir, reference) -> list:
    """Every reason the job failed; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        summary = summarize(job, out_dir)
    except (OSError, ValueError, KeyError) as e:
        return [f"bad output: {e}"]
    if job.key not in reference:
        return [f"no reference values for {job.key!r}"]
    try:
        return law_failures(job, summary) + reference_failures(summary, reference[job.key])
    except (KeyError, TypeError) as e:
        return [f"report lacks {e}"]
