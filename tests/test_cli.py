import csv
import json
import os

import numpy as np
import pytest

import qcheat as qc
from qcheat.cli import run

GRID_ARGS = ["--nx", "256", "--y-min", str(1 / 64), "--y-max", "2.0", "--n", "256"]


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
    assert run(["analyze", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
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


def test_carleson_report_keys(tmp_path):
    out = str(tmp_path / "o")
    assert run(["carleson", "--builtin", "sine:0.3,1", "--out", out] + GRID_ARGS) == 0
    rep = read_json(os.path.join(out, "carleson.json"))
    for key in ("sup_norm", "carleson_norm", "carleson_profile", "hybrid_norm",
                "argmax", "cutoff", "config"):
        assert key in rep
    assert rep["hybrid_norm"] >= rep["sup_norm"]


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
                "--out", out] + GRID_ARGS) == 0
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
    args = ["analyze", "--builtin", "random-trig:8,0.2,7", "--out", out] + GRID_ARGS
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
    assert run(["analyze", "--input", str(path), "--out", out] + GRID_ARGS) == 0
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
