import warnings

import numpy as np
import pytest

import qcheat as qc
from qcheat.data import Domain, SampledFunction
from qcheat.extension import _CircleEngine, _cumulative_trapezoid, _LineEngine
from qcheat.kernels import (_V_RATE, ALPHA, BETA, DEFAULT_QUADRATURE, KERNELS,
                            TRUNCATION_RADIUS, _periodic_point_sum)


def grid_points(grid):
    return grid.x[None, :] + 1j * grid.y_levels[:, None]


# ---------------------------------------------------------------------------
# gamma

def test_gamma_of_zero_datum():
    assert qc.gamma_of(qc.constant(0.0), 2.0) == pytest.approx(2.0, abs=1e-12)


def test_gamma_of_constant_datum():
    c = 0.5
    assert qc.gamma_of(qc.constant(c), 1.0) == pytest.approx(np.exp(c), abs=1e-12)


def test_gamma_of_linear_datum_closed_form():
    # integral of e^t over [0, 1] = e - 1, cumulative trapezoid on the line
    w = SampledFunction(Domain.line(0.0, 1.0), np.linspace(0, 1, 8192) + 0j)
    assert abs(qc.gamma_of(w, 1.0) - (np.e - 1)) <= 1e-8


def test_cumulative_trapezoid_is_exact_on_linear_data():
    # the interpolant of linear samples is the line itself, so both the
    # lattice values and the partial cells must give the closed form
    a, h = -2.0, 0.01

    def exact(t):
        return 3.0 * (t - a) + 0.25 * (t ** 2 - a ** 2)

    t_nodes = a + h * np.arange(401)
    nodes, at = _cumulative_trapezoid(3.0 + 0.5 * t_nodes, a, h)
    assert np.max(np.abs(nodes - exact(t_nodes))) <= 1e-12
    t = np.array([-2.0, -1.99731, 0.0, 0.123456, 1.9999])
    assert np.max(np.abs(at(t) - exact(t))) <= 1e-12


def test_gamma_of_on_a_shifted_period():
    # the same samples of 0.3 sin(2 pi x) on [0.5, 1.5) and on [0, 1)
    n = 256
    vals = 0.3 * np.sin(2 * np.pi * (0.5 + np.arange(n) / n)) + 0j
    shifted = SampledFunction(Domain.line(0.5, 1.5, periodic=True), vals)
    unshifted = SampledFunction(Domain.circle(), vals)
    grid = qc.HalfPlaneGrid.build(x_min=0.5, x_max=1.5, nx=n, y_min=1 / 64, y_max=1.0)
    nodes = _CircleEngine(shifted, grid, DEFAULT_QUADRATURE).gamma_at_nodes()
    for i in (1, 37, 200, 255):
        x = float(grid.x[i])
        got = qc.gamma_of(shifted, x) - qc.gamma_of(shifted, 0.5)
        assert abs(got - (nodes[i] - nodes[0])) <= 1e-12
        assert abs(got - (qc.gamma_of(unshifted, x - 0.5) - qc.gamma_of(unshifted, 0.0))) <= 1e-12
    # between lattice nodes too
    x = 0.6445
    assert abs(qc.gamma_of(shifted, x) - qc.gamma_of(shifted, 0.5)
               - qc.gamma_of(unshifted, x - 0.5)) <= 1e-12


def test_gamma_of_coverage_error_off_anchor():
    w = SampledFunction(Domain.line(0.5, 1.0), np.zeros(64) + 0j)
    with pytest.raises(qc.CoverageError):
        qc.gamma_of(w, 0.75)  # [0, 0.75] leaves [0.5, 1]


# ---------------------------------------------------------------------------
# extend

def test_identity_law(small_grid):
    field = qc.extend(qc.constant(0.0, 256), small_grid)
    assert np.max(np.abs(field.F - grid_points(small_grid))) <= 1e-8
    mu = qc.beltrami(qc.constant(0.0, 256), small_grid)
    assert mu.sup_norm <= 1e-8


def test_constant_datum_is_a_dilation(small_grid):
    c = 0.4
    field = qc.extend(qc.constant(c, 256), small_grid)
    assert np.max(np.abs(field.F - np.exp(c) * grid_points(small_grid))) <= 1e-8


def test_extend_matches_refined_quadrature_oracle(small_grid):
    # oracle: same construction from the 8x-resampled datum, compared on
    # the coarse grid's columns
    w = qc.sine(0.3, 1, n=256)
    w8 = qc.sine(0.3, 1, n=2048)
    f1 = qc.extend(w, small_grid)
    grid8 = qc.HalfPlaneGrid(0.0, 1.0, 2048, small_grid.y_levels)
    f8 = qc.extend(w8, grid8)
    cols = np.arange(0, 2048, 8)
    assert np.max(np.abs(f1.F - f8.F[:, cols])) <= 1e-10


def test_partial_identities(small_grid, sine_small):
    field = qc.extend(sine_small, small_grid)
    assert field.identity_residuals["uy_half_vx"] <= 1e-8
    assert field.identity_residuals["vy_identity"] <= 1e-8


def test_real_datum_gives_real_field_with_positive_height(small_grid, sine_small):
    field = qc.extend(sine_small, small_grid)
    assert np.max(np.abs(field.U.imag)) <= 1e-12
    assert np.max(np.abs(field.V.imag)) <= 1e-12
    assert np.min(field.V.real) > 0


# ---------------------------------------------------------------------------
# beltrami

def test_beltrami_vanishes_for_constants(small_grid):
    for c in (0.0, 1.3, 0.2 - 0.7j):
        mu = qc.beltrami(qc.constant(c, 256), small_grid)
        assert mu.sup_norm <= 1e-8


def test_two_route_agreement(small_grid, sine_small):
    field = qc.extend(sine_small, small_grid)
    mu = qc.beltrami(sine_small, small_grid)
    oracle = qc.beltrami_fd_oracle(field)
    assert np.max(np.abs(mu.values - oracle.values)) <= 1e-3


def test_two_route_refinement_is_second_order():
    def disagreement(n, lpo):
        grid = qc.HalfPlaneGrid.build(nx=n, y_min=1 / 64, y_max=2.0,
                                      levels_per_octave=lpo)
        w = qc.sine(0.3, 1, n=n)
        field = qc.extend(w, grid)
        mu = qc.beltrami(w, grid)
        return np.max(np.abs(mu.values - qc.beltrami_fd_oracle(field).values))

    coarse = disagreement(256, 8)
    fine = disagreement(512, 16)
    assert 3.0 <= coarse / fine <= 5.0


def test_add_constant_invariance(small_grid, sine_small):
    mu = qc.beltrami(sine_small, small_grid)
    for c in (2.0, -0.3 + 0.45j):
        mu_c = qc.beltrami(sine_small.with_values(sine_small.values + c), small_grid)
        assert np.max(np.abs(mu_c.values - mu.values)) <= 1e-8


def test_translation_equivariance(small_grid, sine_small):
    shift = 37
    mu = qc.beltrami(sine_small, small_grid)
    translated = sine_small.with_values(np.roll(sine_small.values, shift))
    mu_t = qc.beltrami(translated, small_grid)
    assert np.max(np.abs(mu_t.values - np.roll(mu.values, shift, axis=1))) <= 1e-8


def test_dilation_equivariance(small_grid, sine_small):
    # w(2x) sampled on the same lattice; levels double exactly one octave up
    n = sine_small.n
    idx2 = (2 * np.arange(n)) % n
    w2 = sine_small.with_values(sine_small.values[idx2])
    mu = qc.beltrami(sine_small, small_grid)
    mu2 = qc.beltrami(w2, small_grid)
    lpo = 8
    err = 0.0
    for j in range(small_grid.ny - lpo):
        assert small_grid.y_levels[j + lpo] == pytest.approx(2 * small_grid.y_levels[j], rel=1e-12)
        err = max(err, np.max(np.abs(mu2.values[j] - mu.values[j + lpo][idx2])))
    assert err <= 1e-6


@pytest.mark.parametrize("name", ["sine", "step", "sawtooth", "rtrig"])
def test_quasiconformality_witness(small_grid, name):
    w = {"sine": qc.sine(0.3, 1, 256), "step": qc.step(0.4, 256),
         "sawtooth": qc.sawtooth(0.3, 256), "rtrig": qc.random_trig(8, 0.2, 7, 256)}[name]
    field = qc.extend(w, small_grid)
    mu = qc.beltrami(w, small_grid)
    assert mu.sup_norm < 1.0
    assert np.min(field.jacobian) > 0.0


def test_singular_denominator_carries_location(small_grid):
    # e^w is +1 on one half and -1 on the other, so it averages to zero and
    # starves the denominator at large heights
    w = qc.step(0.5, 256).with_values(1j * np.pi * (qc.step(0.5, 256).values + 0.5))
    with pytest.raises(qc.SingularDenominatorError) as exc:
        qc.beltrami(w, small_grid)
    assert exc.value.x is not None
    assert exc.value.y is not None


def test_fd_oracle_needs_fine_levels(sine_small):
    coarse = qc.HalfPlaneGrid(0.0, 1.0, 256, np.array([0.1, 0.4, 1.6]))
    field = qc.extend(sine_small, coarse)
    with pytest.raises(qc.ResolutionError):
        qc.beltrami_fd_oracle(field)


def test_resolution_error_when_lattice_underresolves():
    grid = qc.HalfPlaneGrid.build(nx=256, y_min=1e-4, y_max=1.0, levels_per_octave=8)
    with pytest.raises(qc.ResolutionError):
        qc.extend(qc.sine(0.3, 1, 256), grid)


# ---------------------------------------------------------------------------
# line-domain extension

def test_line_extension_identity():
    w = SampledFunction(Domain.line(-6.0, 6.0), np.zeros(4096) + 0j)
    grid = qc.HalfPlaneGrid.build(x_min=-0.5, x_max=0.5, nx=64,
                                  y_min=0.05, y_max=0.5, levels_per_octave=8)
    field = qc.extend(w, grid)
    expected = grid_points(grid) - (-6.0)  # gamma anchored at the left end
    assert np.max(np.abs(field.F - expected)) <= 1e-6


def test_line_extension_coverage_error():
    w = SampledFunction(Domain.line(-1.0, 1.0), np.zeros(256) + 0j)
    grid = qc.HalfPlaneGrid.build(x_min=-0.5, x_max=0.5, nx=64,
                                  y_min=0.05, y_max=1.0, levels_per_octave=8)
    with pytest.raises(qc.CoverageError):
        qc.extend(w, grid)


def _assert_line_overflow(values):
    w = SampledFunction(Domain.line(-8.0, 8.0), values + 0j)
    grid = qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=64, y_min=0.25, y_max=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for build in (qc.beltrami, qc.extend):
            with pytest.raises(qc.ResolutionError, match="floating range"):
                build(w, grid)


def test_overflowing_line_datum_raises_resolution_error():
    # e^800 overflows: the fields would be all NaN; no RuntimeWarning escapes
    _assert_line_overflow(np.full(1025, 800.0))


def test_overflowing_recentered_line_weight_raises_resolution_error():
    # w = -800 | +800 has mean ~0, so even the recentered weight e^(w - mean w)
    # reaches e^800
    x = np.linspace(-8.0, 8.0, 1025)
    _assert_line_overflow(np.where(x < 0, -800.0, 800.0))


def _line_datum(values, span=10.0):
    return SampledFunction(Domain.line(-span, span), np.asarray(values) + 0j)


def test_line_mu_is_invariant_under_a_large_offset():
    # the line engine sums e^(w - mean w), as the circle engine does, so its
    # mu of a datum offset by exactly 720 (e^720 overflows) is mu of the datum
    x = np.linspace(-10.0, 10.0, 2049)
    w720 = 720.0 + 0.3 * np.sin(x)
    grid = qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=64, y_min=0.05, y_max=1.0)
    mu = qc.beltrami(_line_datum(w720 - 720.0), grid)  # the subtraction is exact
    with np.errstate(over="ignore"):  # scale = e^720, unused by mu
        eng = _LineEngine(_line_datum(w720), grid, DEFAULT_QUADRATURE)
    assert np.max(np.abs(eng.conv_ew(ALPHA) / eng.conv_ew(BETA) - mu.values)) <= 1e-14
    # beltrami also records |e^w * beta_y| itself, which overflows there
    with pytest.raises(qc.ResolutionError, match="denom_mag is not finite"):
        qc.beltrami(_line_datum(w720), grid)
    # below the overflow, beltrami returns the same mu
    w709 = 709.0 + 0.3 * np.sin(x)
    mu709 = qc.beltrami(_line_datum(w709), grid)
    assert np.max(np.abs(mu709.values - qc.beltrami(_line_datum(w709 - 709.0), grid).values)) <= 1e-14


# ---------------------------------------------------------------------------
# classical baseline

def _identity_map(n=4097, a=-4.0, b=4.0):
    return SampledFunction(Domain.line(a, b), np.linspace(a, b, n) + 0j)


def _baseline_grid():
    return qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=64,
                                  y_min=0.05, y_max=2.0, levels_per_octave=8)


def test_classical_identity_r2():
    grid = _baseline_grid()
    field = qc.classical_ba_extend(_identity_map(), 2.0, grid)
    assert np.max(np.abs(field.F - grid_points(grid))) <= 1e-8


def test_classical_identity_r1_halves_height():
    grid = _baseline_grid()
    field = qc.classical_ba_extend(_identity_map(), 1.0, grid)
    expected = grid.x[None, :] + 0.5j * grid.y_levels[:, None]
    assert np.max(np.abs(field.F - expected)) <= 1e-8


def test_classical_square_map_has_positive_height():
    xs = np.linspace(0.0, 1.0, 2049)
    h = SampledFunction(Domain.line(0.0, 1.0), xs ** 2 + 0j)
    grid = qc.HalfPlaneGrid.build(x_min=0.3, x_max=0.7, nx=64,
                                  y_min=0.02, y_max=0.25, levels_per_octave=8)
    field = qc.classical_ba_extend(h, 2.0, grid)
    assert np.min(field.V.real) > 0


def test_classical_rejects_nonmonotone_and_bad_r():
    grid = _baseline_grid()
    bad = _identity_map().with_values(np.linspace(4, -4, 4097) + 0j)
    with pytest.raises(qc.DomainError):
        qc.classical_ba_extend(bad, 2.0, grid)
    with pytest.raises(qc.DomainError):
        qc.classical_ba_extend(_identity_map(), 0.0, grid)


# ---------------------------------------------------------------------------
# grid alignment paths

def test_shifted_grid_rolls_the_field(small_grid, sine_small):
    mu = qc.beltrami(sine_small, small_grid)
    shifted_grid = qc.HalfPlaneGrid(0.25, 1.25, 256, small_grid.y_levels)
    mu_s = qc.beltrami(sine_small, shifted_grid)
    # column i of the shifted grid sits at x = 0.25 + i/256 = lattice node i + 64
    assert np.max(np.abs(mu_s.values - np.roll(mu.values, -64, axis=1))) <= 1e-12


def test_nonaligned_grid_matches_pointwise(small_grid, sine_small):
    mu = qc.beltrami(sine_small, small_grid)
    # 64 columns over one period: every 4th lattice node of the 256 datum
    coarse = qc.HalfPlaneGrid(0.0, 1.0, 64, small_grid.y_levels)
    mu_c = qc.beltrami(sine_small, coarse)
    assert mu_c.periodic  # spans one period, so the disk transfer is valid
    assert np.max(np.abs(mu_c.values - mu.values[:, ::4])) <= 1e-12


# one-period grids (aligned, shifted, coarse, off the lattice) and a grid
# covering part of a period
ENGINE_GRIDS = {
    "aligned": (0.0, 1.0, 256),
    "shifted": (0.25, 1.25, 256),
    "coarse": (0.0, 1.0, 64),
    "off_lattice": (0.013, 1.013, 100),
    "partial_period": (0.1, 0.6, 80),
}


@pytest.mark.parametrize("name", ENGINE_GRIDS)
def test_spectral_engine_matches_real_space_lattice_sum(name):
    # oracle: the point-wise trapezoid sum over the wrapped kernel in real
    # space, for every kernel on both sequences the engine convolves
    u = qc.random_trig(8, 0.4, 3, 256).values
    w = qc.constant(0.0, 256).with_values(u + 0.5j * qc.random_trig(5, 0.3, 11, 256).values)
    x_min, x_max, nx = ENGINE_GRIDS[name]
    grid = qc.HalfPlaneGrid(x_min, x_max, nx, np.array([1 / 64, 0.2, 2.0]))
    eng = _CircleEngine(w, grid, DEFAULT_QUADRATURE)
    for k in list(KERNELS.values()) + [_V_RATE]:
        for data, got in ((eng.ew, eng.conv_ew(k)), (eng.p0, eng.conv_gamma(k))):
            want = np.array([[_periodic_point_sum(w, k, x, y, TRUNCATION_RADIUS, data)
                              for x in grid.x] for y in grid.y_levels])
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
