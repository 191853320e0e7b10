"""The benchmark's own tests.  From the repository root:

    python3 -m pytest bench/test_bench.py

The tiny runs take about three minutes on two cores.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)
with open(os.path.join(run.BENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def first_cycles(workload, seed, count=6):
    gen = workloads.cycles(workload, seed)
    return [[job.key for job in next(gen)] for _ in range(count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert first_cycles(workload, 11) == first_cycles(workload, 11)
    assert first_cycles(workload, 11) != first_cycles(workload, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawn_job_has_reference_values(workload):
    keys = {job.key for job in workloads.catalogue(workload)}
    assert keys <= REFERENCE.keys()
    for seed in range(20):
        for cycle in first_cycles(workload, seed):
            assert set(cycle) <= keys


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def test_every_per_layer_metric_is_computed_without_calls():
    # a job that calls no traced function still yields every span metric;
    # run.per_layer adds the two that compare with the plain runs
    names = {m["name"] for m in CONTRACT["per_layer"]}
    assert names - spans.aggregate([(1.0, [])]).keys() == {"cli.job_cpu_s",
                                                           "trace.overhead_frac"}


def test_self_times_add_up_to_covered_time():
    # main thread: run (0-10) > build (1-9) > pool (2-8); two pool tasks
    # overlap on 4-6; a kernel call inside task a on 3-4
    tree = [[1, 0, "cli.run", 1, 0.0, 10.0, {}], [2, 1, "extension.extend", 1, 1.0, 9.0, {}],
            [3, 2, "workers.run_indexed", 1, 2.0, 8.0, {}],
            [4, 3, "extension.extend.task", 2, 2.0, 6.0, {}],
            [5, 3, "extension.extend.task", 3, 4.0, 8.0, {}],
            [6, 4, "kernels.wrapped_lattice_weights", 2, 3.0, 4.0, {}],
            [7, 0, "cli.import", 1, 10.5, 11.0, {}]]
    own, other, covered = spans.job_breakdown(tree, 12.0)
    assert own == pytest.approx({1: 2.0, 2: 2.0, 3: 0.0, 4: 2.0, 5: 3.0, 6: 1.0, 7: 0.5})
    assert sum(own.values()) == pytest.approx(covered) == pytest.approx(10.5)
    assert other == pytest.approx(1.5)


@pytest.fixture(scope="module")
def finished_job(tmp_path_factory):
    """A real beltrami const:0 job and its checked output directory."""
    work = str(tmp_path_factory.mktemp("job"))
    job = workloads.Job("beltrami", ("beltrami", "--builtin", "const:0"))
    result = run.run_job(job, work, run.job_env(), REFERENCE, traced=False)
    assert result["problems"] == []
    return job, os.path.join(work, "out")


def tamper(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def edit_report(key, value):
    def damage(path):
        with open(path) as fh:
            report = json.load(fh)
        report[key] = value
        with open(path, "w") as fh:
            json.dump(report, fh)
    return damage


@pytest.mark.parametrize("name,damage", [
    ("beltrami.json", edit_report("sup_norm", 1e-3)),
    ("beltrami.json", edit_report("denom_min", 0.5)),
    ("beltrami.json", edit_report("denom_min", float("nan"))),
    ("beltrami.json", lambda p: tamper(p, "{", "{,")),
    ("mu.csv", lambda p: tamper(p, "\n0,", "\nnan,")),
    ("mu.csv", lambda p: tamper(p, "\n0,", "\n0.5,")),
    ("mu.csv", lambda p: tamper(p, "x,y,re,im\n", "x,y,re,im\n0,0,0,0\n")),
    ("mu.csv", lambda p: tamper(p, "x,y", "x,Y")),
    ("mu.csv", os.remove),
])
def test_tampered_output_counts_as_failed(finished_job, tmp_path, name, damage):
    job, out = finished_job
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    assert checks.check_job(job, 0, copy, REFERENCE) == []
    damage(os.path.join(copy, name))
    assert checks.check_job(job, 0, copy, REFERENCE) != []


def test_nonzero_exit_counts_as_failed(finished_job):
    job, out = finished_job
    assert checks.check_job(job, 3, out, REFERENCE) == ["exit code 3"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    group = "per_layer" if trace else "end_to_end"
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT[group]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s"))
        assert layers + m["cli.job_other_s"] == pytest.approx(m["trace.job_wall_s"])


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_fields",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
