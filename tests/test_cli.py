import argparse
import ast
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcheat as qc
from qcheat import analyticity, funcspace
from qcheat.cli import _atomic_write, _cell_words, _joined, build_parser, run, write_field_csv

GRID_ARGS = ["--nx", "256", "--y-min", str(1 / 64), "--y-max", "2.0", "--n", "256"]
# analyze and contract build no grid: they read only the sample count
N_ARGS = ["--n", "256"]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_field(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_beltrami_const_zero(tmp_path):
    out = str(tmp_path / "o")
    assert run(["beltrami", "--builtin", "const:0", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "beltrami.json"))
    assert rep["sup_norm"] <= 1e-8
    assert rep["quasiconformal"] is True
    rows = read_field(os.path.join(out, "mu.csv"))
    assert len(rows) == 256 * qc.HalfPlaneGrid.build(nx=256, y_min=1 / 64, y_max=2.0).ny
    assert max(abs(float(r["re"])) + abs(float(r["im"])) for r in rows) <= 1e-8


def test_analyze_matches_direct_estimators(tmp_path):
    out = str(tmp_path / "o")
    assert run(["analyze", "--builtin", "sine:0.3,1", "--out", out] + N_ARGS) == 0
    rep = read_json(os.path.join(out, "analyze.json"))
    assert rep["bmo_norm"] == pytest.approx(qc.bmo_norm(qc.sine(0.3, 1, 256)), rel=1e-12)
    assert rep["a_infty"] >= 1.0
    assert rep["doubling"] >= 1.0
    assert len(rep["jn_fit"]) == 2


def test_transfer_sup_norm_equality(tmp_path):
    out = str(tmp_path / "o")
    assert run(["transfer", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "transfer.json"))
    assert abs(rep["sup_disk"] - rep["sup_halfplane"]) <= 1e-12
    assert rep["bmo_u"] <= rep["bmo_lift"] <= 3 * rep["bmo_u"] + 1e-12


def test_extend_reports_identity_residuals(tmp_path):
    out = str(tmp_path / "o")
    assert run(["extend", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "extend.json"))
    assert rep["residual_uy_half_vx"] <= 1e-8
    assert rep["v_min"] > 0


def test_extend_streams_the_bytes_of_the_whole_field(tmp_path):
    # the CLI writes F block by block; the bytes and the report are those
    # of the field built whole
    out = tmp_path / "o"
    assert run(["extend", "--builtin", "sine:0.3,1", "--out", str(out)] + GRID_ARGS) == 0
    grid = qc.HalfPlaneGrid.build(nx=256, y_min=1 / 64, y_max=2.0)
    field = qc.extend(qc.lift(qc.sine(0.3, 1, 256)), grid)
    write_field_csv(str(tmp_path / "whole.csv"), grid, field.F)
    assert (out / "field.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    rep = read_json(out / "extend.json")
    assert rep["residual_uy_half_vx"] == field.identity_residuals["uy_half_vx"]
    assert rep["residual_vy_identity"] == field.identity_residuals["vy_identity"]
    assert rep["v_min"] == float(np.min(field.V.real))


def test_extend_never_holds_the_whole_field(tmp_path):
    # the reference grid's nine (97, 2048) complex fields take 28.6 MB
    argv = ["extend", "--builtin", "random-trig:8,0.2,1", "--out", str(tmp_path / "o")]
    assert run(argv) == 0  # first-use allocations
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_extend_failing_in_a_late_block_writes_nothing(tmp_path, capsys, monkeypatch):
    from qcheat.extension import _SpectralPlan

    walk = _SpectralPlan.walk
    blocks = []

    def poisoned(self, data):
        for levels, convs in walk(self, data):
            blocks.append(levels)
            convs = list(convs)
            if levels.stop == self.grid.ny:
                convs[0][0][1, -1, -1] = np.nan  # U at the last node of the top level
            yield levels, iter(convs)

    monkeypatch.setattr(_SpectralPlan, "walk", poisoned)
    out = tmp_path / "o"
    assert run(["extend", "--builtin", "sine:0.3,1", "--out", str(out)] + GRID_ARGS) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=resolution")
    assert "U is not finite at x = 0.996094, y = 2" in err[0]
    # the earlier blocks were written before the last failed
    assert len(blocks) > 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [["transfer", "--builtin", "random-trig:8,0.2,2"],
                                  ["carleson", "--builtin", "sawtooth:0.3"]],
                         ids=["transfer", "carleson"])
def test_carleson_commands_never_hold_a_whole_field(tmp_path, argv):
    # on the reference grid mu takes 3 MiB, and |mu|^2 with its prefix sums
    # and nu as much again: whole-field estimators peaked at 14.5 MiB
    # (transfer) and 11.5 MiB (carleson), block-fed sums with tables of
    # every level at 4.8 and 4.3 MiB, and tables of the weighed levels at
    # 3.3 and 3.0 MiB; one running sum per window reads 2.9 and 2.8 MiB
    argv = argv + ["--out", str(tmp_path / "o")]
    assert run(argv) == 0  # first-use allocations
    tracemalloc.start()
    try:
        assert run(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.6 * 2 ** 20


@pytest.mark.parametrize("command", ["beltrami", "carleson", "transfer"])
def test_step_below_the_rounding_floor_writes_nothing(tmp_path, capsys, command):
    # the checks decide after the last block, and the field's blocks are
    # streamed by then: the command still fails as it did on whole arrays
    out = tmp_path / "o"
    assert run([command, "--builtin", "step:20", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error kind=resolution detail=\"dilatation denominator 0.000e+00 at (x, y) = "
        "(0.155762, 0.000976562) is below the engine's rounding floor 2.613e+01 "
        "(e^w spans too wide a range)\""]
    assert not out.exists()


@pytest.mark.parametrize("command", ["beltrami", "carleson", "transfer"])
def test_dilatation_failing_in_a_late_block_writes_nothing(tmp_path, capsys, monkeypatch,
                                                           command):
    from qcheat.extension import _DilatationChecks

    add = _DilatationChecks.add
    blocks = []

    def poisoned(self, levels, mu, denom_mag, factor):
        blocks.append(levels)
        if levels.stop == self.grid.ny:
            mu[-1, -1] = np.nan  # the last node of the top level
        return add(self, levels, mu, denom_mag, factor)

    monkeypatch.setattr(_DilatationChecks, "add", poisoned)
    out = tmp_path / "o"
    assert run([command, "--builtin", "sine:0.3,1", "--out", str(out)] + GRID_ARGS) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=resolution")
    assert "mu is not finite at x = 0.996094, y = 2" in err[0]
    # the earlier blocks were read before the last failed
    assert len(blocks) > 1
    assert not out.exists()


def test_beltrami_report_that_is_not_finite_writes_nothing(tmp_path, capsys, monkeypatch):
    # the report is checked before the streamed mu.csv is renamed into place
    from qcheat import kernels

    monkeypatch.setattr(kernels, "envelope_constant", lambda k: float("nan"))
    out = tmp_path / "o"
    assert run(["beltrami", "--builtin", "sine:0.3,1", "--out", str(out)] + GRID_ARGS) == 3
    assert "error kind=nonfinite" in capsys.readouterr().err
    assert not out.exists()


def test_transfer_on_part_of_a_period_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["transfer", "--builtin", "sine:0.3,1", "--x-max", "0.5", "--out", str(out)]
    assert run(argv + GRID_ARGS) == 2
    err = capsys.readouterr().err
    assert "error kind=validation" in err and "periodic over one unit period" in err
    assert not out.exists()


def test_carleson_report_keys(tmp_path):
    out = str(tmp_path / "o")
    assert run(["carleson", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "carleson.json"))
    for key in ("sup_norm", "carleson_norm", "carleson_profile", "hybrid_norm",
                "argmax", "cutoff", "config"):
        assert key in rep
    assert rep["hybrid_norm"] >= rep["sup_norm"]



def test_transfer_report_keys(tmp_path):
    out = str(tmp_path / "o")
    assert run(["transfer", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "transfer.json"))
    assert set(rep) == {"bmo_u", "bmo_lift", "sup_halfplane", "sup_disk", "halfplane",
                        "disk", "hybrid_ratio", "config"}
    for side in ("halfplane", "disk"):
        assert set(rep[side]) == {"sup_norm", "carleson_norm", "hybrid_norm",
                                  "carleson_profile", "cutoff"}
        assert rep[side]["hybrid_norm"] >= rep[side]["sup_norm"]
    assert set(rep["config"]) == {"command", "builtin", "input", "n", "seed", "nx", "x_min",
                                  "x_max", "y_min", "y_max", "levels_per_octave", "out"}

def test_probe_subcommand(tmp_path):
    out = str(tmp_path / "o")
    assert run(["probe", "--builtin", "sine:1,1", "--eps", "0.1",
                "--contour-nodes", "16", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "probe.json"))
    assert rep["cauchy_error"] <= 1e-6
    assert np.isfinite(rep["cr_residual"])
    assert np.isfinite(rep["quotient_slope"])


def test_contract_subcommand(tmp_path):
    out = str(tmp_path / "o")
    assert run(["contract", "--builtin", "sine:0.3,1", "--t", "0,0.5,1",
                "--out", out] + N_ARGS) == 0
    rep = read_json(os.path.join(out, "contract.json"))
    d = rep["sup_distance_to_identity"]
    assert d[2] == 0.0
    assert 0.0 < d[1] < d[0]
    assert os.path.exists(os.path.join(out, "contract_t0.5.csv"))


def test_baseline_subcommand(tmp_path):
    out = str(tmp_path / "o")
    assert run(["baseline", "--builtin", "id:-8,8", "--n", "4097", "--r", "2",
                "--x-min", "-1", "--x-max", "1", "--nx", "64",
                "--y-min", "0.05", "--y-max", "2", "--out", out]) == 0
    rep = read_json(os.path.join(out, "baseline.json"))
    assert rep["max_identity_deviation"] <= 1e-8


def test_determinism_byte_identical_reports(tmp_path):
    out = str(tmp_path / "o")
    args = ["analyze", "--builtin", "random-trig:8,0.2,7", "--out", out] + N_ARGS
    assert run(args) == 0
    first = open(os.path.join(out, "analyze.json"), "rb").read()
    assert run(args) == 0
    second = open(os.path.join(out, "analyze.json"), "rb").read()
    assert first == second


def test_unknown_builtin_exits_2(tmp_path, capsys):
    code = run(["beltrami", "--builtin", "mystery:1", "--out", str(tmp_path)])
    assert code == 2
    assert "error kind=validation" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path):
    assert run(["beltrami", "--frobnicate", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["extend", "--help"], 0), (["frobnicate"], 2),
    (["extend", "--frobnicate"], 2), (["--out", "o", "extend"], 2), ([], 2),
    (["analyze", "--builtin", "sine:0.3,1", "--nx", "64"], 2)])
def test_parser_exit_codes(argv, code, capsys):
    assert run(argv) == code
    if argv == ["extend", "--help"]:
        assert "--levels-per-octave" in capsys.readouterr().out


def test_run_builds_only_the_chosen_subcommand(tmp_path, monkeypatch):
    from qcheat import cli

    built = []
    add_options = cli._add_options
    monkeypatch.setattr(cli, "_add_options",
                        lambda p, name: (built.append(name), add_options(p, name)))
    assert run(["contract", "--builtin", "sine:0.3,1", "--t", "0.5",
                "--out", str(tmp_path)] + N_ARGS) == 0
    assert built == ["contract"]
    built.clear()
    build_parser()
    assert built == list(cli._COMMANDS)


BASELINE_ARGS = ["baseline", "--builtin", "id:-8,8", "--n", "4097", "--x-min", "-1",
                 "--x-max", "1", "--nx", "64", "--y-min", "0.05", "--y-max", "2"]


@pytest.mark.parametrize("argv", [
    ["beltrami", "--builtin", "sine:0.3,1"] + GRID_ARGS + ["--y-min", "nan"],
    ["beltrami", "--builtin", "sine:0.3,1"] + GRID_ARGS + ["--y-max", "inf"],
    ["beltrami", "--builtin", "sine:0.3,1"] + GRID_ARGS + ["--levels-per-octave", "0"],
    ["beltrami", "--builtin", "sine:0.3,1"] + GRID_ARGS + ["--x-max", "nan"],
    BASELINE_ARGS + ["--r", "nan"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_non_finite_grid_or_r_exits_2(tmp_path, capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=validation")


@pytest.mark.parametrize("y_min,code", [(1 / 128, 0), (0.0075, 3)])
def test_circle_windows_need_32_nodes(tmp_path, capsys, y_min, code):
    # 256 nodes per period: a window of half-width 8y holds 4096 y nodes
    args = ["beltrami", "--builtin", "sine:0.3,1", "--n", "256", "--nx", "256",
            "--y-min", str(y_min), "--y-max", "2.0", "--out", str(tmp_path)]
    assert run(args) == code
    if code:
        assert "error kind=resolution" in capsys.readouterr().err


def _readme_section(title):
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        text = fh.read()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else None]


def test_readme_documents_every_cli_option():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _readme_section("CLI")))
    assert options - documented == set()
    assert documented - options == set()


def test_readme_lists_every_public_name():
    assert set(re.findall(r"`([^`]+)`", _readme_section("Library API"))) == set(qc.__all__)


def test_singular_datum_exits_3(tmp_path, capsys):
    path = tmp_path / "datum.json"
    vals = (np.pi * (qc.step(0.5, 256).values.real + 0.5)).tolist()
    path.write_text(json.dumps({
        "domain": "circle", "n": 256,
        "values_re": [0.0] * 256, "values_im": vals,
    }))
    code = run(["beltrami", "--input", str(path), "--out", str(tmp_path / "o")] + GRID_ARGS)
    assert code == 3
    assert "error kind=singular_denominator" in capsys.readouterr().err


def test_schema_violation_reports_pointer(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "domain": "circle", "n": 16,
        "values_re": [0.0] * 15 + ["oops"],
    }))
    code = run(["analyze", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "/values_re/15" in capsys.readouterr().err


@pytest.mark.parametrize("key, bad", [("values_re", True), ("values_re", "0.5"),
                                      ("values_im", False), ("values_im", None),
                                      ("x", True), ("x", "0.25")])
def test_non_number_sample_reports_its_pointer(tmp_path, capsys, key, bad):
    # booleans are not numbers, numeric strings neither; the first bad entry
    # of the array is the one reported
    datum = {"domain": "circle", "n": 16, "values_re": [0.0] * 16,
             "values_im": [0.0] * 16, "x": (np.arange(16) / 16).tolist()}
    datum[key][6] = bad
    datum[key][11] = "later"
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code = run(["analyze", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error kind=validation" in err
    assert f"/{key}/6: {bad!r} is not of type 'number'" in err


def _circle16(**changes):
    datum = {"domain": "circle", "n": 16, "values_re": [0.0] * 16}
    datum.update(changes)
    return {k: v for k, v in datum.items() if v is not None}


@pytest.mark.parametrize("datum, pointer", [
    ([0.0] * 16, "/"),                                    # not an object
    (_circle16(values_re=None), "/"),                     # a required key missing
    (_circle16(domain=None), "/"),
    (_circle16(weights=[1.0] * 16), "/"),                 # an extra key
    (_circle16(domain="disk"), "/domain"),
    (_circle16(domain={"line": [0.0, 1.0, 2.0]}), "/domain"),
    (_circle16(domain={"line": [0.0, True]}), "/domain"),
    (_circle16(domain={"line": [0.0, "1"]}), "/domain"),
    (_circle16(domain={"line": [0.0, 1.0], "periodic": True}), "/domain"),
    (_circle16(domain={}), "/domain"),
    (_circle16(n=15, values_re=[0.0] * 15), "/n"),
    (_circle16(n=16.0), "/n"),
    (_circle16(n=True), "/n"),
    (_circle16(n="16"), "/n"),
    (_circle16(values_re="0.0"), "/values_re"),
    (_circle16(values_im={"0": 0.0}), "/values_im"),
    (_circle16(x=0.5), "/x"),
    # the first violation by pointer is the one reported
    (_circle16(n=8, values_re=[0.0] * 3 + ["oops"] + [0.0] * 4), "/n"),
    (_circle16(values_re=[0.0] * 15 + [None], x=0.5), "/values_re/15"),
])
def test_structure_violation_reports_its_pointer(tmp_path, capsys, datum, pointer):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code = run(["analyze", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error kind=validation" in err
    assert f"datum schema violation at {pointer}: " in err


def test_loading_a_datum_file_imports_no_jsonschema(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"domain": {"line": [-1.0, 1.0]}, "n": 16,
                                "values_re": np.linspace(-1, 1, 16).tolist()}))
    code = (
        "import sys\n"
        "from qcheat.cli import load_datum_file\n"
        "w = load_datum_file(sys.argv[1])\n"
        "print(w.n, sorted(m for m in sys.modules if m.partition('.')[0] == 'jsonschema'))\n"
    )
    assert _fresh_python(code, str(path)).split() == ["16", "[]"]


@pytest.mark.parametrize("bad", [float("inf"), 10 ** 400])
def test_non_finite_sample_reports_its_pointer(tmp_path, capsys, bad):
    # Infinity, or an integer beyond the float range
    path = tmp_path / "datum.json"
    vals = [0.0] * 16
    vals[9] = bad
    path.write_text(json.dumps({"domain": "circle", "n": 16, "values_re": [0.0] * 16,
                                "values_im": vals}))
    code = run(["analyze", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "/values_im/9: values must be finite" in capsys.readouterr().err


def test_nonuniform_grid_rejected(tmp_path, capsys):
    path = tmp_path / "datum.json"
    xs = (np.arange(16) / 16).tolist()
    xs[3] += 0.01
    path.write_text(json.dumps({
        "domain": "circle", "n": 16, "values_re": [0.0] * 16, "x": xs,
    }))
    code = run(["analyze", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not uniform" in capsys.readouterr().err


def test_valid_file_datum_roundtrip(tmp_path):
    path = tmp_path / "datum.json"
    u = qc.sine(0.3, 1, 256)
    path.write_text(json.dumps({
        "domain": "circle", "n": 256,
        "values_re": u.values.real.tolist(),
    }))
    out = str(tmp_path / "o")
    assert run(["analyze", "--input", str(path), "--out", out] + N_ARGS) == 0
    rep = read_json(os.path.join(out, "analyze.json"))
    assert rep["bmo_norm"] == pytest.approx(qc.bmo_norm(u), rel=1e-12)


def test_field_csv_has_17_digit_format(tmp_path):
    out = str(tmp_path / "o")
    assert run(["beltrami", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
    with open(os.path.join(out, "mu.csv")) as fh:
        header = fh.readline().strip()
        assert header == "x,y,re,im"
        line = fh.readline().strip().split(",")
        assert len(line) == 4


def test_finite_guard_rejects_nan(tmp_path):
    from qcheat.cli import _NonFinite, write_field_csv, write_report

    with pytest.raises(_NonFinite):
        write_report(str(tmp_path / "r.json"), {"value": float("nan")})
    grid = qc.HalfPlaneGrid.build(nx=64, y_min=0.5, y_max=1.0)
    bad = np.full((grid.ny, grid.nx), np.inf, dtype=complex)
    with pytest.raises(_NonFinite):
        write_field_csv(str(tmp_path / "f.csv"), grid, bad)


def test_beltrami_reports_kernel_envelopes(tmp_path):
    out = str(tmp_path / "o")
    assert run(["beltrami", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "beltrami.json"))
    assert rep["kernel_envelope"]["alpha"] <= 10.0
    assert rep["kernel_envelope"]["beta"] <= 10.0


def test_outputs_follow_the_umask(tmp_path):
    out = str(tmp_path / "o")
    old = os.umask(0o027)
    try:
        assert run(["beltrami", "--builtin", "const:0", "--out", out] + GRID_ARGS) == 0
    finally:
        os.umask(old)
    for name in ("beltrami.json", "mu.csv"):
        assert os.stat(os.path.join(out, name)).st_mode & 0o777 == 0o640


def _beltrami_of_line_datum(tmp_path, values_re):
    """Exit code of `qcheat beltrami` on 1025 line samples over [-8, 8]."""
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"domain": {"line": [-8, 8]}, "n": 1025,
                                "values_re": values_re}))
    return run(["beltrami", "--input", str(path), "--out", str(tmp_path / "o"),
                "--nx", "64", "--x-min", "-1", "--x-max", "1",
                "--y-min", "0.25", "--y-max", "0.5"])


def test_bench_line_grid_resolves(tmp_path):
    # line data on [-20, 20] with n = 4097 under the benchmark's 256-wide
    # line grid: 30.4 samples per window at the bottom level, below the
    # circle data's guard of 32, which line data do not have
    x = np.linspace(-20.0, 20.0, 4097)
    values = 0.3 * np.sin(x / 3) * np.cos(2 * x / 3)
    grid = qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=256, y_min=0.02, y_max=2.0)
    mu = qc.beltrami(qc.SampledFunction(qc.Domain.line(-20.0, 20.0), values + 0j), grid)
    assert np.all(np.isfinite(mu.values)) and np.all(np.isfinite(mu.denom_mag))
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"domain": {"line": [-20, 20]}, "n": 4097,
                                "values_re": values.tolist()}))
    out = tmp_path / "o"
    assert run(["beltrami", "--input", str(path), "--out", str(out), "--nx", "256",
                "--x-min", "-1", "--x-max", "1", "--y-min", "0.02", "--y-max", "2"]) == 0
    assert read_json(out / "beltrami.json")["sup_norm"] == pytest.approx(mu.sup_norm, rel=1e-14)


def test_beltrami_overflow_exits_3_as_resolution(tmp_path, capsys):
    code = _beltrami_of_line_datum(tmp_path, [800.0] * 1025)
    assert code == 3
    err = capsys.readouterr().err
    assert "error kind=resolution" in err and "floating range" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("values_re", [
    [-800.0] * 512 + [800.0] * 513,  # the recentered weight still reaches e^800
    (720.0 + 0.3 * np.sin(np.linspace(-8, 8, 1025))).tolist(),  # |e^w * beta_y| overflows
])
def test_beltrami_out_of_range_line_datum_writes_nothing(tmp_path, capsys, values_re):
    assert _beltrami_of_line_datum(tmp_path, values_re) == 3
    assert "error kind=resolution" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["extend", "--builtin", "sine:800,1"], ["beltrami", "--builtin", "sine:800,1"],
    ["carleson", "--builtin", "sine:800,1"], ["transfer", "--builtin", "sine:800,1"],
    ["probe", "--w0", "sine:800,1", "--builtin", "sine:0.5,1", "--contour-nodes", "4"],
    ["analyze", "--builtin", "sine:800,1"], ["contract", "--builtin", "sine:800,1", "--t", "1,0"],
    ["analyze", "--builtin", "sine:709,1"], ["analyze", "--builtin", "const:-800"],
], ids=["extend", "beltrami", "carleson", "transfer", "probe", "analyze", "contract",
        "analyze-sums", "analyze-underflow"])
def test_weight_out_of_floating_range_exits_3_and_writes_nothing(tmp_path, capsys, argv):
    # e^800 overflows: a finite datum whose weight leaves floating range is
    # a resolution failure, with no RuntimeWarning and no file (contract
    # computes every t before it writes one).  analyze also reads the
    # weight's sums over three periods, which overflow for e^709, and a
    # weight e^-800 that underflows to 0
    out = tmp_path / "o"
    grid = N_ARGS if argv[0] in ("analyze", "contract") else GRID_ARGS
    assert run(argv + ["--out", str(out)] + grid) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=resolution")
    assert not out.exists()


def test_step_below_the_rounding_floor_exits_3_as_resolution(tmp_path, capsys):
    # reference grid: |den| of a circle step of height 20 reads 0 below the
    # FFT's rounding floor, which is no vanishing denominator
    out = tmp_path / "o"
    assert run(["beltrami", "--builtin", "step:20", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error kind=resolution" in err and "rounding floor" in err
    assert not out.exists()


@pytest.mark.parametrize("grid", [[], ["--nx", "1024"], ["--nx", "2000"],
                                  ["--x-min", "0.1", "--x-max", "0.6"]],
                         ids=["reference", "nx1024", "nx2000", "part"])
@pytest.mark.parametrize("spec", ["step:19", "step:20"])
def test_denominator_below_a_floor_above_the_threshold_exits_3(tmp_path, capsys, spec, grid):
    # with --nx 2000 the smallest |den| of step:20 reads 3.97e-11 under a
    # rounding floor of ~5.4e-8: above 1e-12, yet unresolved, not a field
    out = tmp_path / "o"
    assert run(["beltrami", "--builtin", spec, "--out", str(out)] + grid) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=resolution")
    assert "rounding floor" in err[0]
    assert not out.exists()


def test_analyze_of_samples_out_of_floating_range_exits_3(tmp_path, capsys):
    # Im w = 1e308 leaves the weight e^(Re w) alone but overflows the mean of w
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"domain": "circle", "n": 64, "values_re": [0.0] * 64,
                                "values_im": [1e308] * 64}))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["analyze", "--input", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error kind=resolution")
    assert not out.exists()


# the classical baseline's line grid: identity data on [-8, 8]
BASELINE_ARGS = ["baseline", "--n", "1025", "--nx", "64", "--x-min", "-1", "--x-max", "1",
                 "--y-max", "1"]


@pytest.mark.parametrize("argv, code, kind", [
    (["beltrami", "--builtin", "sine:inf,1"] + GRID_ARGS, 2, "validation"),
    (["beltrami", "--builtin", "sawtooth:inf"] + GRID_ARGS, 2, "validation"),
    (["analyze", "--builtin", "const:1e308"] + N_ARGS, 3, "resolution"),
    (["analyze", "--builtin", "sine:1e308,1"] + N_ARGS, 3, "resolution"),
    (["analyze", "--builtin", "step:1e308"] + N_ARGS, 3, "resolution"),
    (["analyze", "--builtin", "random-trig:3,1e308"] + N_ARGS, 3, "resolution"),
    (BASELINE_ARGS + ["--builtin", "id:-8,8", "--r", "1e308"], 3, "resolution"),
    (BASELINE_ARGS + ["--builtin", "id:-8,8", "--y-min", "1e-300"], 3, "resolution"),
    (BASELINE_ARGS + ["--builtin", "id:-1e300,1e300"], 3, "resolution"),
    (["contract", "--builtin", "sine:40,1"], 3, "resolution"),
], ids=["sine-inf", "sawtooth-inf", "const-1e308", "sine-1e308", "step-1e308",
        "random-trig-1e308", "baseline-r-1e308", "baseline-y-min-1e-300",
        "baseline-id-1e300", "contract-sine-40"])
def test_typed_errors_come_without_a_runtime_warning(tmp_path, capsys, argv, code, kind):
    # an infinite amplitude makes a NaN sample, and samples near 1e308
    # overflow the mean of the default John-Nirenberg thresholds.  The
    # baseline's V overflows with r = 1e308, its central differences over
    # levels 1e-300 apart, and its window integrals of data near 1e300; an
    # increment of the angle map of e^(40 sin) rounds to 0.  Each fails with
    # its one error line, no RuntimeWarning ahead of it and no file
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error kind={kind} ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# probe base datum: --w0 is a builtin spec, --w0-input a file

PROBE_ARGS = ["probe", "--builtin", "sine:0.5,1", "--contour-nodes", "4"] + GRID_ARGS


def test_w0_is_never_read_as_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "const:0").write_text("not a datum")
    assert run(PROBE_ARGS + ["--out", "a"]) == 0
    assert run(PROBE_ARGS + ["--w0", "const:0", "--out", "b"]) == 0
    default, spec = read_json("a/probe.json"), read_json("b/probe.json")
    for key in ("cr_residual", "cauchy_error", "quotient_slope", "epsilon"):
        assert spec[key] == default[key]
    assert spec["config"]["w0"] == "const:0"


def test_w0_input_reads_a_datum_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "const:0").write_text(json.dumps({
        "domain": "circle", "n": 256, "values_re": [0.0] * 256}))
    assert run(PROBE_ARGS + ["--w0-input", "const:0", "--out", "a"]) == 0
    assert run(PROBE_ARGS + ["--out", "b"]) == 0
    from_file, default = read_json("a/probe.json"), read_json("b/probe.json")
    assert from_file["cauchy_error"] == default["cauchy_error"]
    assert from_file["config"]["w0_input"] == "const:0"
    assert "w0_input" not in default["config"]
    assert run(PROBE_ARGS + ["--w0-input", "missing.json", "--out", "c"]) == 2
    assert "cannot read datum file" in capsys.readouterr().err
    assert run(PROBE_ARGS + ["--w0", "const:0", "--w0-input", "const:0", "--out", "d"]) == 2


# float.hex of each probe report number, recorded before the probe streamed
# its contour: streaming adds the same terms in the same order, so the
# reports stay bit-identical.  The step case's cauchy_error was re-recorded
# (one ulp) when the Carleson sums left BLAS for running sums in level order
PROBE_PINS = [
    (PROBE_ARGS, {"cr_residual": "0x1.37cf10c2f0000p-19",
                  "cauchy_error": "0x1.6fa0fb0b4c84cp-18",
                  "quotient_slope": "0x1.2bd9a756fd48ep-5",
                  "epsilon": "0x1.999999999999ap-4"}),
    (["probe", "--builtin", "step:0.5", "--contour-nodes", "16"] + GRID_ARGS,
     {"cr_residual": "0x1.c9e8d944c5bbdp-18",
      "cauchy_error": "0x1.f96b5a7e72609p-56",
      "quotient_slope": "0x1.3338b21869accp-3",
      "epsilon": "0x1.999999999999ap-4"}),
]


@pytest.mark.parametrize("args,pins", PROBE_PINS, ids=["sine-4-nodes", "step-16-nodes"])
def test_probe_report_is_pinned_to_its_bits(tmp_path, args, pins):
    out = str(tmp_path / "o")
    assert run(args + ["--out", out]) == 0
    rep = read_json(os.path.join(out, "probe.json"))
    assert {k: float.hex(rep[k]) for k in pins} == pins


@pytest.mark.parametrize("option", ["--contour-nodes=0", "--contour-nodes=-3", "--eps=inf",
                                    "--eps=nan", "--eps=-0.1", "--eps=0", "--eps=1e-300"])
def test_probe_rejects_bad_arguments_before_any_field(tmp_path, monkeypatch, capsys, option):
    built = []
    real = analyticity._DilatationMap
    monkeypatch.setattr(analyticity, "_DilatationMap",
                        lambda *a: built.append(a) or real(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(PROBE_ARGS + [option, "--out", str(tmp_path / "o")]) == 2
    assert "error kind=validation" in capsys.readouterr().err
    assert built == []


def test_probe_direction_out_of_floating_range_is_a_validation_error(tmp_path, capsys):
    # w0 + zeta*w1 overflows at the first node off the center: one error
    # line, and no RuntimeWarning from computing the samples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["probe", "--builtin", "sine:1e300,1", "--eps", "1e10", "--contour-nodes", "4",
                    "--out", str(tmp_path / "o")] + GRID_ARGS) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error kind=validation detail='values must be finite'"]


def test_transfer_computes_the_bmo_norm_once(tmp_path, monkeypatch):
    # lift only relabels the samples, so one BMO norm serves both keys
    calls = []
    real = funcspace.bmo_norm
    monkeypatch.setattr(funcspace, "bmo_norm", lambda f: calls.append(f) or real(f))
    out = str(tmp_path / "o")
    assert run(["transfer", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "transfer.json"))
    assert len(calls) == 1
    assert rep["bmo_u"] == rep["bmo_lift"] == real(qc.sine(0.3, 1, 256))


# ---------------------------------------------------------------------------
# the field CSV writer against an independent row-by-row f-string loop

def _field_csv_oracle(grid, values) -> bytes:
    xs = grid.x
    lines = ["x,y,re,im"]
    for j, y in enumerate(grid.y_levels):
        row = values[j]
        for i in range(xs.size):
            v = row[i]
            lines.append(f"{xs[i]:.17g},{y:.17g},{v.real:.17g},{v.imag:.17g}")
    return ("\n".join(lines) + "\n").encode()


def _reference_mu():
    grid = qc.HalfPlaneGrid.build()
    return grid, qc.beltrami(qc.lift(qc.random_trig(8, 0.2, 7, 2048)), grid).values


def _part_period_field():
    grid = qc.HalfPlaneGrid.build(x_min=0.1, x_max=0.6, nx=96, y_min=0.01, y_max=0.7)
    rng = np.random.default_rng(3)
    shape = (grid.ny, grid.nx)
    return grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


SPECIAL = [0.0, -0.0, 5e-324, 1e16, 1 / 3, -2.5e-7]


def _special_field():
    grid = qc.HalfPlaneGrid.build(nx=64, y_min=0.5, y_max=1.0)
    re = np.resize(SPECIAL, grid.ny * grid.nx).reshape(grid.ny, grid.nx)
    im = np.resize(SPECIAL[::-1], grid.ny * grid.nx).reshape(re.shape)
    values = np.empty(re.shape, dtype=complex)
    values.real, values.imag = re, im
    return grid, values


@pytest.mark.parametrize("make", [_reference_mu, _part_period_field, _special_field])
def test_field_csv_bytes_match_the_row_loop(tmp_path, make):
    grid, values = make()
    path = tmp_path / "f.csv"
    write_field_csv(str(path), grid, values)
    assert path.read_bytes() == _field_csv_oracle(grid, values)


def test_contract_csv_bytes_match_the_row_loop(tmp_path):
    out = tmp_path / "o"
    assert run(["contract", "--builtin", "sine:0.3,1", "--t", "0.5",
                "--out", str(out)] + N_ARGS) == 0
    homeo = qc.contraction(qc.sine(0.3, 1, 256), 0.5)
    lines = ["x,g"] + [f"{x:.17g},{g:.17g}" for x, g in zip(homeo.x, homeo.g)]
    assert (out / "contract_t0.5.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


def _fallback_field():
    # every route of the formatter: values outside its decades, an exact
    # tie, scaled values at 1e16 and 1e17, 1 <= |v| < 1e17, zeros
    values = [1e-300, -1e300, 5e-324, -2.2250738585072014e-308, 26215 / 2 ** 18, 1.0, 0.1,
              9.9999999999999997e98, 1e16, 12345678901234567.0, -123.456, 2.5, 100.0,
              7e15, 0.0, -0.0, 1 / 3, 1e-5]
    grid = qc.HalfPlaneGrid.build(nx=64, y_min=0.5, y_max=1.0)
    re = np.resize(values, grid.ny * grid.nx).reshape(grid.ny, grid.nx)
    values = re + 1j * np.roll(re, 5, axis=1)
    values.imag[0, :2] = -0.0
    return grid, values


def test_field_csv_bytes_match_the_row_loop_on_every_route(tmp_path):
    grid, values = _fallback_field()
    path = tmp_path / "f.csv"
    write_field_csv(str(path), grid, values)
    assert path.read_bytes() == _field_csv_oracle(grid, values)


def _cells_text(values) -> str:
    return _joined(_cell_words(np.asarray(values, dtype=float).reshape(-1, 1), "\n")).decode()


def _g17(values) -> str:
    return "".join(f"{v:.17g}\n" for v in np.asarray(values, dtype=float).tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_cells_read_as_17g(values):
    assert _cells_text(values) == _g17(values)


def test_cells_read_as_17g_on_edges():
    tens = np.array([float(f"1e{e}") for e in range(-320, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    small = (np.arange(1, 1000)[:, None] * np.ldexp(1.0, -np.arange(64))).ravel()
    bits = np.random.default_rng(13).integers(0, 2 ** 63, 10 ** 5, dtype=np.int64).view(float)
    bits = np.where(np.isfinite(bits), bits, 0.0) * np.where(np.arange(bits.size) % 2, -1, 1)
    for values in (tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), twos, -twos,
                   small, bits):
        assert _cells_text(values) == _g17(values)


def test_contract_files_never_share_a_name(tmp_path):
    out = tmp_path / "o"
    assert run(["contract", "--builtin", "sine:0.3,1", "--t", "0,0.1234567,0.1234568,1",
                "--out", str(out)] + N_ARGS) == 0
    assert read_json(out / "contract.json")["t"] == [0, 0.1234567, 0.1234568, 1]
    names = ["contract_t0.csv", "contract_t0.1234567.csv", "contract_t0.1234568.csv",
             "contract_t1.csv"]
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(names)
    first, second = ((out / n).read_bytes() for n in names[1:3])
    assert first != second


def test_contract_needs_a_t_value(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["contract", "--builtin", "sine:0.3,1", "--t", ",", "--out", str(out)]
               + N_ARGS) == 2
    assert "error kind=validation" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,given", [(["beltrami", "--builtin", "sine:0.2", "--n", "-5"], -5),
                                        (["beltrami", "--builtin", "const:0", "--n", "-5"], -5),
                                        (["baseline", "--builtin", "id:-8,8", "--n", "-3"], -3),
                                        (["beltrami", "--builtin", "step:0.3", "--n", "15"], 15)])
def test_too_few_builtin_samples_name_the_value(tmp_path, capsys, argv, given):
    assert run(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error kind=validation" in err and f"--n must be at least 16, got {given}" in err


def test_atomic_write_leaves_nothing_when_a_chunk_fails(tmp_path):
    def chunks():
        yield "x,y,re,im\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(tmp_path / "f.csv"), chunks())
    assert os.listdir(tmp_path) == []
    # an existing target keeps its bytes
    (tmp_path / "f.csv").write_text("old\n")
    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(tmp_path / "f.csv"), chunks())
    assert os.listdir(tmp_path) == ["f.csv"]
    assert (tmp_path / "f.csv").read_text() == "old\n"


def test_atomic_write_removes_only_the_empty_directories_it_created(tmp_path):
    def chunks():
        yield "x,y,re,im\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(tmp_path / "a" / "b" / "f.csv"), chunks())
    assert os.listdir(tmp_path) == []
    # a directory that was there before stays, empty or not
    (tmp_path / "kept").mkdir()
    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(tmp_path / "kept" / "b" / "f.csv"), chunks())
    assert os.listdir(tmp_path) == ["kept"] and os.listdir(tmp_path / "kept") == []
    # a directory that another file now shares is not removed
    def shared():
        (tmp_path / "new" / "other.csv").write_text("x\n")
        yield from chunks()

    with pytest.raises(RuntimeError, match="chunk failed"):
        _atomic_write(str(tmp_path / "new" / "f.csv"), shared())
    assert os.listdir(tmp_path / "new") == ["other.csv"]


def _fresh_python(code, *args, env=(), cwd=None):
    """The stdout of `code`, with `args`, in a fresh interpreter that imports
    the package from this checkout, in the directory `cwd`; `env` sets
    environment variables, a value of None unsets one."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    environ = dict(os.environ, PYTHONPATH=src)
    for name, value in dict(env).items():
        if value is None:
            environ.pop(name, None)
        else:
            environ[name] = value
    res = subprocess.run([sys.executable, "-c", code, *args], env=environ, cwd=cwd,
                         capture_output=True, text=True, check=True)
    return res.stdout.strip()


FRESH_IMPORTS = {
    # no route of the package loads a scipy module: the CLI import and a field
    "no-scipy": ("import sys, qcheat.cli, qcheat as qc\n"
                 "qc.beltrami(qc.sine(0.3, 1, 256), "
                 "qc.HalfPlaneGrid.build(nx=64, y_min=0.01, y_max=0.5))\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))", {}, "[]"),
    # the formatter's tables are built from ints and numpy on first use
    "no-fractions-or-decimal": (
        "import sys, qcheat.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.lstrip('_') in ('fractions', 'decimal', 'pydecimal')))", {}, "[]"),
    # the multipliers evaluate their polynomials inline
    "no-numpy-polynomial": (
        "import sys, qcheat.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))", {}, "[]"),
    # the public names load with their modules, on first access
    "package-without-numpy": (
        "import sys, qcheat\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))", {}, "[]"),
    "every-public-name": (
        "import qcheat\n"
        "print([n for n in qcheat.__all__ if n not in dir(qcheat)],\n"
        "      all(getattr(qcheat, n) is not None for n in qcheat.__all__))", {}, "[] True"),
    # the CLI runs BLAS on one thread unless the user chose a count
    "blas-one-thread": ("import os, qcheat.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
                        {"OPENBLAS_NUM_THREADS": None}, "1"),
    "blas-threads-chosen": ("import os, qcheat.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
                            {"OPENBLAS_NUM_THREADS": "2"}, "2"),
}


@pytest.mark.parametrize("case", list(FRESH_IMPORTS))
def test_fresh_interpreter_import(case):
    code, env, want = FRESH_IMPORTS[case]
    assert _fresh_python(code, env=env) == want


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the Carleson reports (carleson, transfer) and the probe's read the
    # same bits on one BLAS thread as on two; each side runs in its own
    # directory with the same --out, which the reports echo
    jobs = ["carleson", "transfer", "probe --contour-nodes 8"]
    code = ("import sys\nfrom qcheat.cli import run\n"
            "for job in sys.argv[1:]:\n"
            "    assert run(job.split() + ['--builtin', 'random-trig:8,0.5,3', '--out', 'o']) == 0")
    outputs = []
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        _fresh_python(code, *jobs, env={"OPENBLAS_NUM_THREADS": threads}, cwd=work)
        outputs.append({path.relative_to(work): path.read_bytes()
                        for path in sorted(work.rglob("*")) if path.is_file()})
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]


def _imported_top_level_names(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_no_third_party_package_but_numpy():
    package = os.path.dirname(os.path.abspath(qc.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            found = set(_imported_top_level_names(os.path.join(package, name)))
            assert found - set(sys.stdlib_module_names) - {"numpy"} == set(), name


BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "vdot", "inner", "linalg"}
# the functions that may multiply matrices: none
BLAS_ALLOWED = set()


def _blas_uses(node, owner=None):
    """(innermost enclosing function, line) of every matrix product, and of
    every name of a BLAS or LAPACK routine, in a module's syntax tree."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _blas_uses(child, child.name)
            continue
        if (isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult)
                or isinstance(child, ast.Attribute) and child.attr in BLAS_NAMES
                or isinstance(child, ast.Name) and child.id in BLAS_NAMES
                or isinstance(child, ast.ImportFrom) and "linalg" in (child.module or "")
                or isinstance(child, ast.alias) and set(child.name.split(".")) & BLAS_NAMES):
            yield owner, child.lineno
        yield from _blas_uses(child, owner)


def test_no_report_path_calls_blas():
    # README: no package function calls BLAS or LAPACK, whose summation
    # order belongs to the BLAS kernel
    package = os.path.dirname(os.path.abspath(qc.__file__))
    stray = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            stray += [(name, owner, line) for owner, line in _blas_uses(tree)
                      if (name, owner) not in BLAS_ALLOWED]
    assert stray == []


def test_oracles_stay_outside_the_package():
    # the real-space oracles read only public names of the package, and no
    # package module defines them again
    tests = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(tests, "oracles.py")) as fh:
        tree = ast.parse(fh.read())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "qcheat"
               for alias in node.names if alias.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr.startswith("_")]
    assert private == []
    moved = {"convolve", "_periodic_point_sum", "numeric_moment", "beltrami_fd_oracle",
             "require_window_nodes", "alias_table", "block_window_sums", "gamma_of"}
    package = os.path.dirname(os.path.abspath(qc.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            defined = {node.name for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            defined |= {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                        for t in node.targets if isinstance(t, ast.Name)}
            assert defined & moved == set(), name


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.split(r"[<>=!~ \[;]", d)[0] for d in deps] == ["numpy"]
