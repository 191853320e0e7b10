import numpy as np
import pytest

import qcheat as qc
from qcheat.extension import BeltramiField


def synthetic_field(grid, fn, periodic=True):
    vals = np.empty((grid.ny, grid.nx), dtype=complex)
    for j, y in enumerate(grid.y_levels):
        vals[j] = fn(grid.x, y)
    return BeltramiField(grid, vals, periodic=periodic)


def test_zero_field_has_zero_norm(small_grid):
    rep = qc.carleson_norm_halfplane(synthetic_field(small_grid, lambda x, y: 0.0 * x))
    assert rep.norm == 0.0
    assert rep.hybrid_norm == 0.0


def test_linear_height_field_closed_form():
    # mu(x, y) = y: a box of width L contributes (L^2 - cutoff^2) / 2
    grid = qc.HalfPlaneGrid.build()
    rep = qc.carleson_norm_halfplane(synthetic_field(grid, lambda x, y: (y + 0j) * np.ones_like(x)))
    assert rep.norm == pytest.approx(0.5, rel=0.02)
    assert rep.argmax["width"] == pytest.approx(1.0)


def test_scaling_is_quadratic(small_grid, sine_small):
    mu = qc.beltrami(sine_small, small_grid)
    rep1 = qc.carleson_norm_halfplane(mu)
    rep3 = qc.carleson_norm_halfplane(BeltramiField(small_grid, 3.0 * mu.values, periodic=True))
    assert rep3.norm == pytest.approx(9.0 * rep1.norm, rel=1e-12)


def test_profile_monotone_in_scale(small_grid, sine_small):
    mu = qc.beltrami(sine_small, small_grid)
    scales = [1.0, 0.5, 0.25, 0.125]
    prof = qc.vanishing_profile_halfplane(mu, scales)
    vals = [e.value for e in prof]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_profile_of_field_supported_high_vanishes_below_support(small_grid):
    mu = synthetic_field(small_grid, lambda x, y: (0.5 + 0j) * np.ones_like(x) if y >= 0.5 else 0.0 * x)
    prof = qc.vanishing_profile_halfplane(mu, [1.0, 0.25])
    assert prof[0].value > 0.0
    assert prof[1].value == 0.0


def test_cutoff_sensitivity_for_vanishing_datum():
    # halving y_min changes a VMO datum's norm by <= 10%
    def norm_with(y_min):
        grid = qc.HalfPlaneGrid.build(nx=512, y_min=y_min, y_max=2.0, levels_per_octave=8)
        mu = qc.beltrami(qc.sine(0.3, 1, 512), grid)
        return qc.carleson_norm_halfplane(mu).norm

    a = norm_with(1 / 128)
    b = norm_with(1 / 256)
    assert abs(b - a) / a <= 0.10


def test_hybrid_norm_properties(small_grid):
    rng = np.random.default_rng(11)
    shape = (small_grid.ny, small_grid.nx)
    A = BeltramiField(small_grid, 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), periodic=True)
    B = BeltramiField(small_grid, 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)), periodic=True)
    hA, hB = qc.hybrid_norm(A), qc.hybrid_norm(B)
    # absolute homogeneity
    for c in (2.0, -0.7, 1.3j):
        scaled = BeltramiField(small_grid, c * A.values, periodic=True)
        assert qc.hybrid_norm(scaled) == pytest.approx(abs(c) * hA, rel=1e-12)
    # triangle inequality
    S = BeltramiField(small_grid, A.values + B.values, periodic=True)
    assert qc.hybrid_norm(S) <= hA + hB + 1e-12


def test_report_carries_cutoff_and_argmax(small_grid, sine_small):
    mu = qc.beltrami(sine_small, small_grid)
    rep = qc.carleson_norm_halfplane(mu)
    assert rep.cutoff == pytest.approx(small_grid.y_levels[0])
    assert rep.argmax["kind"] == "box"
    assert rep.convention == "box-halfplane"



def test_halfplane_norm_of_line_field_against_box_loop():
    # a field that is not periodic: boxes stay inside [x_min, x_max], at
    # widths nx, nx // 2, ... down to 4 cells and half-step starts
    from qcheat.carleson import _logy_weights

    grid = qc.HalfPlaneGrid.build(x_min=0.1, x_max=0.6, nx=200, y_min=1 / 64, y_max=2.0)
    rng = np.random.default_rng(5)
    shape = (grid.ny, grid.nx)
    vals = 0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    vals[:, 150:] *= 3.0  # the sup sits at the right end, away from x = 0
    rep = qc.carleson_norm_halfplane(BeltramiField(grid, vals, periodic=False))

    dens = np.abs(vals) ** 2
    best, where, per_width = -1.0, None, []
    c = grid.nx
    while c >= 4:
        L = c * grid.hx
        gw = _logy_weights(grid.y_levels, L)
        sups = []
        for s in range(0, grid.nx - c + 1, max(c // 2, 1)):
            v = float(gw @ dens[:, s:s + c].sum(axis=1)) * grid.hx / L
            sups.append(v)
            if v > best:
                best, where = v, (grid.x_min + s * grid.hx, L)
        per_width.append((L, max(sups)))
        c //= 2
    assert rep.norm == pytest.approx(best, rel=1e-12)
    assert (rep.argmax["x_start"], rep.argmax["width"]) == pytest.approx(where, rel=1e-12)
    assert len(rep.profile) == len(per_width)
    running = 0.0
    for entry, (L, v) in zip(reversed(rep.profile), sorted(per_width)):
        running = max(running, v)
        assert entry.scale == pytest.approx(L, rel=1e-12)
        assert entry.value == pytest.approx(running, rel=1e-12)


# ---------------------------------------------------------------------------
# disk sectors

def _disk_field(small_grid, fn):
    mu = synthetic_field(small_grid, lambda x, y: 0.0 * x)
    disk = qc.DiskGrid.from_halfplane(small_grid)
    vals = np.empty((small_grid.ny, small_grid.nx), dtype=complex)
    for j, r in enumerate(disk.radii):
        vals[j] = fn(disk.thetas, r)
    return BeltramiField(disk, vals, periodic=True)


def test_disk_zero_field(small_grid):
    rep = qc.carleson_norm_disk(_disk_field(small_grid, lambda th, r: 0.0 * th))
    assert rep.norm == 0.0
    assert rep.convention == "sector-disk"


def test_disk_field_supported_inside_half_radius(small_grid):
    nu = _disk_field(small_grid, lambda th, r: (0.3 + 0j) * np.ones_like(th) if r < 0.5 else 0.0 * th)
    rep = qc.carleson_norm_disk(nu)
    prof = qc.vanishing_profile_disk(nu, [1.0, 0.25])
    assert rep.norm > 0.0  # the h = 1 sector sees the support
    assert prof[1].value == 0.0  # thin sectors miss r < 1/2 entirely


def _deep_grid():
    # sector heights probe y up to ~h/(2*pi), so the cutoff must sit well
    # below the smallest asserted height
    return qc.HalfPlaneGrid.build(nx=1024, y_min=1 / 512, y_max=2.0, levels_per_octave=8)


def test_disk_profile_of_step_datum_stalls():
    grid = _deep_grid()
    mu = qc.beltrami(qc.lift(qc.step(0.4, 1024)), grid)
    nu = qc.push_to_disk(mu)
    rep = qc.carleson_norm_disk(nu)
    prof = qc.vanishing_profile_disk(nu, [2.0 ** -4])
    assert prof[0].value >= 0.5 * rep.norm


def test_disk_profile_of_vmo_datum_decays():
    grid = _deep_grid()
    mu = qc.beltrami(qc.lift(qc.sine(0.3, 1, 1024)), grid)
    nu = qc.push_to_disk(mu)
    rep = qc.carleson_norm_disk(nu)
    prof = qc.vanishing_profile_disk(nu, [2.0 ** -4])
    assert prof[0].value <= 0.25 * rep.norm


def test_disk_norm_against_sector_loop(small_grid):
    # sectors at dyadic heights and 64 centers, membership by angular
    # distance; the centers at and near theta = 0 take columns on both sides
    from qcheat.carleson import _logy_weights

    rng = np.random.default_rng(9)
    nu = _disk_field(small_grid, lambda th, r: 0.1 * (rng.standard_normal(th.size) + 1j * rng.standard_normal(th.size)))
    vals = nu.values.copy()
    vals[:, :6] *= 4.0  # mass straddling theta = 0
    vals[:, -6:] *= 4.0
    nu = BeltramiField(nu.grid, vals, periodic=True)
    rep = qc.carleson_norm_disk(nu)

    disk = nu.grid
    ys, radii, thetas = disk.y_levels, disk.radii, disk.thetas
    dtheta = 2 * np.pi / thetas.size
    gdens = 2 * np.pi * radii ** 2 / (1.0 - radii ** 2) * ys
    dens = np.abs(vals) ** 2
    best, where, wrapped, per_height = -1.0, None, 0, []
    h = 1.0
    while h >= (1.0 - radii[0]) / 2:
        y_top = np.inf if h >= 1.0 else -np.log1p(-h) / (2 * np.pi)
        weights = _logy_weights(ys, min(y_top, ys[-1] * 2)) * gdens
        sups = []
        for k in range(64):
            theta0 = 2 * np.pi * k / 64
            dist = np.abs((thetas - theta0 + np.pi) % (2 * np.pi) - np.pi)
            cols = np.flatnonzero(dist <= np.pi * h * (1 + 1e-12))
            if h < 1.0 and cols.size and cols.min() == 0 and cols.max() == thetas.size - 1:
                wrapped += 1
            v = float(weights @ dens[:, cols].sum(axis=1)) * dtheta / h
            sups.append(v)
            if v > best:
                best, where = v, (h, theta0)
        per_height.append((h, max(sups)))
        h /= 2
    assert wrapped > 0
    assert rep.norm == pytest.approx(best, rel=1e-12)
    assert (rep.argmax["h"], rep.argmax["theta0"]) == pytest.approx(where)
    assert len(rep.profile) == len(per_height)
    running = 0.0
    for entry, (h, v) in zip(reversed(rep.profile), sorted(per_height)):
        running = max(running, v)
        assert entry.scale == h
        assert entry.value == pytest.approx(running, rel=1e-12)


# ---------------------------------------------------------------------------
# block-fed sums

def _fed(sums, values, parts):
    for levels in parts:
        sums.add(levels, values[levels])
    return repr(sums.report())


@pytest.mark.parametrize("name", ["reference", "part_period"])
def test_sums_read_a_field_the_same_whole_per_level_or_in_blocks(name):
    from qcheat.extension import _SpectralPlan

    if name == "reference":
        w, grid = qc.lift(qc.random_trig(8, 0.2, 2, 2048)), qc.HalfPlaneGrid.build()
    else:
        w = qc.lift(qc.sawtooth(0.3, 256))
        grid = qc.HalfPlaneGrid.build(x_min=0.1, x_max=0.6, nx=128, y_min=1 / 64, y_max=1.0)
    mu = qc.beltrami(w, grid)
    blocks = [block[0] for block in _SpectralPlan(w, grid).blocks()]
    assert len(blocks) > 1
    splits = ([slice(None)], [slice(j, j + 1) for j in range(grid.ny)], blocks)
    cases = [(lambda: qc.HalfPlaneSums(grid, mu.periodic), mu.values)]
    if mu.periodic:
        nu = qc.push_to_disk(mu)
        cases.append((lambda: qc.DiskSums(nu.grid), nu.values))
    for make, values in cases:
        reports = {_fed(make(), values, parts) for parts in splits}
        assert len(reports) == 1
    # the whole-field calls feed the same sums
    assert _fed(cases[0][0](), mu.values, blocks) == repr(qc.carleson_norm_halfplane(mu))
    if mu.periodic:
        assert _fed(cases[1][0](), nu.values, blocks) == repr(qc.carleson_norm_disk(nu))


# ---------------------------------------------------------------------------
# running sums against tables of every level

def _whole_table_disagreements(name):
    """The families whose report differs by more than 1e-14 relative, in
    any profile value, from the quadrature over tables of every level:
    each table is the prefix sums of every level of |field|^2, read with
    a BLAS product as (table.T * hx) for boxes and table.T for sectors.
    The windows are the sums' own."""
    from qcheat.carleson import _logy_weights
    from qcheat.funcspace import _cumulative_profile, _prefix_sums

    if name == "reference":
        w, grid = qc.lift(qc.random_trig(8, 0.2, 2, 2048)), qc.HalfPlaneGrid.build()
    else:
        w = qc.lift(qc.sawtooth(0.3, 256))
        grid = qc.HalfPlaneGrid.build(x_min=0.1, x_max=0.6, nx=128, y_min=1 / 64, y_max=1.0)
    mu = qc.beltrami(w, grid)
    cases = [(qc.HalfPlaneSums(grid, mu.periodic), mu)]
    if mu.periodic:
        nu = qc.push_to_disk(mu)
        cases.append((qc.DiskSums(nu.grid), nu))
    wrong = []
    for sums, field in cases:
        ys = field.grid.y_levels
        pref_t = _prefix_sums(np.abs(field.values) ** 2, 2 if field.periodic else 1).T
        per_scale = []
        for k, (starts, stops, _) in enumerate(sums._families):
            table = np.empty((starts.size, ys.size))
            table[:] = pref_t[stops] - pref_t[starts]
            if isinstance(sums, qc.HalfPlaneSums):
                scale = (stops[0] - starts[0]) * grid.hx
                gw = _logy_weights(ys, scale)
                vals = (gw @ (table.T * grid.hx)) / scale
            else:
                radii = field.grid.radii
                scale = sums._hs[k]
                y_top = np.inf if scale >= 1.0 else -np.log1p(-scale) / (2 * np.pi)
                gw = _logy_weights(ys, min(y_top, float(ys[-1]) * 2))
                gdens = 2 * np.pi * radii ** 2 / (1.0 - radii ** 2) * ys
                vals = ((gw * gdens) @ table.T) * sums._dtheta / scale
            per_scale.append((scale, float(np.max(vals)), bool(np.count_nonzero(gw) < 2)))
        sums.add(slice(None), field.values)
        rep = sums.report()
        got, want = rep.profile, _cumulative_profile(per_scale)
        if ([(e.scale, e.resolution_limited) for e in got]
                != [(e.scale, e.resolution_limited) for e in want]
                or any(abs(g.value - e.value) > 1e-14 * abs(e.value)
                       for g, e in zip(got, want))):
            wrong.append(rep.convention)
    return wrong


@pytest.mark.parametrize("name", ["reference", "part_period"])
def test_compact_tables_read_the_bits_of_every_level(name):
    # the running sums against tables of every level, to 1e-14 relative
    assert _whole_table_disagreements(name) == []
