"""Record reference.json: the checked numbers of every catalogue job.

Run from the repository root on the commit whose results are the
reference (the values in the file were recorded at the seed commit):

    python3 bench/record_reference.py

Every workload's catalogue is recorded again into a fresh file.

Jobs run in one process through qcheat.cli.run, which is the code path a
fresh `python -m qcheat.cli` process takes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from qcheat.cli import run  # noqa: E402


def main():
    reference = {}
    work = os.path.join(BENCH, ".work", "reference")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    for name in workloads.WORKLOADS:
        workloads.write_inputs(name, work)
        jobs = workloads.catalogue(name)
        for i, job in enumerate(jobs):
            shutil.rmtree("out", ignore_errors=True)
            code = run(list(job.argv) + ["--out", "out"])
            if code != 0:
                sys.exit(f"{job.key}: exit code {code}")
            summary = checks.summarize(job, "out")
            laws = checks.law_failures(job, summary)
            if laws:
                sys.exit(f"{job.key}: {laws}")
            reference[job.key] = summary
            print(f"{name} {i + 1}/{len(jobs)} {job.key}", flush=True)
    os.chdir(ROOT)
    with open(os.path.join(BENCH, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
