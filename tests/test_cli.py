import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qcheat as qc
from qcheat.cli import _atomic_write, run, write_field_csv

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
                                  "x_max", "y_min", "y_max", "levels_per_octave",
                                  "min_samples", "out"}

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
    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["16", "[]"]


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
    assert not (tmp_path / "o").exists() or not os.listdir(tmp_path / "o")


@pytest.mark.parametrize("values_re", [
    [-800.0] * 512 + [800.0] * 513,  # the recentered weight still reaches e^800
    (720.0 + 0.3 * np.sin(np.linspace(-8, 8, 1025))).tolist(),  # |e^w * beta_y| overflows
])
def test_beltrami_out_of_range_line_datum_writes_nothing(tmp_path, capsys, values_re):
    assert _beltrami_of_line_datum(tmp_path, values_re) == 3
    assert "error kind=resolution" in capsys.readouterr().err
    assert not (tmp_path / "o").exists() or not os.listdir(tmp_path / "o")


def test_step_below_the_rounding_floor_exits_3_as_resolution(tmp_path, capsys):
    # reference grid: |den| of a circle step of height 20 reads 0 below the
    # FFT's rounding floor, which is no vanishing denominator
    out = tmp_path / "o"
    assert run(["beltrami", "--builtin", "step:20", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error kind=resolution" in err and "rounding floor" in err
    assert not out.exists() or not os.listdir(out)


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
                "--out", str(out)] + GRID_ARGS) == 0
    homeo = qc.contraction(qc.sine(0.3, 1, 256), 0.5)
    lines = ["x,g"] + [f"{x:.17g},{g:.17g}" for x, g in zip(homeo.x, homeo.g)]
    assert (out / "contract_t0.5.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


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


def test_cli_import_loads_no_scipy():
    # importing the CLI loads no scipy module; the spline oracle still
    # loads scipy.interpolate when convolve refines a coarse window
    code = (
        "import sys\n"
        "import qcheat.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "import qcheat as qc\n"
        "print(repr(qc.convolve(qc.sine(0.3, 1, 64), qc.BETA, 0.25, 0.01)))\n"
        "print('scipy.interpolate' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loaded, value, spline = res.stdout.splitlines()
    assert loaded == "[]"
    assert complex(value) == qc.convolve(qc.sine(0.3, 1, 64), qc.BETA, 0.25, 0.01)
    assert spline == "True"


def test_cli_import_loads_no_numpy_polynomial():
    # the multipliers evaluate their polynomials inline; numpy loads
    # numpy.polynomial lazily, for the Gauss-Hermite check only
    code = (
        "import sys\n"
        "import qcheat.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert res.stdout.strip() == "[]"
