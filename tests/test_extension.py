import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcheat as qc
from qcheat.data import Domain, SampledFunction
from qcheat import extension
from qcheat.extension import _SpectralEngine, _SpectralPlan, _cumulative_trapezoid
from qcheat.kernels import _V_RATE, ALPHA, BETA, KERNELS, PHI, PHI_SECOND, PSI

from oracles import (alias_table, beltrami_fd_oracle, block_window_sums, gamma_of,
                     periodic_point_sum, window_sum)


def grid_points(grid):
    return grid.x[None, :] + 1j * grid.y_levels[:, None]


def _convolutions(eng, ew_kernels=(), gamma_kernels=()):
    """The engine's convolutions of e^(w - mean w) against each of
    `ew_kernels` and of p0 against each of `gamma_kernels` on every level,
    as two (len(kernels), ny, nx) stacks assembled block by block from one
    walk of the plan."""
    shape = (eng.grid.ny, eng.grid.nx)
    out = (np.empty((len(ew_kernels),) + shape, dtype=complex),
           np.empty((len(gamma_kernels),) + shape, dtype=complex))
    rows = (eng.plan.block_rows, eng.grid.nx)
    data = [(weighed, kerns, [np.empty(rows, dtype=complex) for _ in kerns])
            for weighed, kerns in zip(eng._weighed, (ew_kernels, gamma_kernels))]
    for levels, convs in eng.plan.walk(data):
        for stack, conv in zip(out, convs):
            for t, row in zip(stack, conv):
                t[levels] = row
    return out


# ---------------------------------------------------------------------------
# gamma

def test_gamma_of_zero_datum():
    assert gamma_of(qc.constant(0.0), 2.0) == pytest.approx(2.0, abs=1e-12)


def test_gamma_of_constant_datum():
    c = 0.5
    assert gamma_of(qc.constant(c), 1.0) == pytest.approx(np.exp(c), abs=1e-12)


def test_gamma_of_linear_datum_closed_form():
    # integral of e^t over [0, 1] = e - 1, cumulative trapezoid on the line
    w = SampledFunction(Domain.line(0.0, 1.0), np.linspace(0, 1, 8192) + 0j)
    assert abs(gamma_of(w, 1.0) - (np.e - 1)) <= 1e-8


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
    nodes = _SpectralEngine(shifted, grid).gamma_at_nodes()
    for i in (1, 37, 200, 255):
        x = float(grid.x[i])
        got = gamma_of(shifted, x) - gamma_of(shifted, 0.5)
        assert abs(got - (nodes[i] - nodes[0])) <= 1e-12
        assert abs(got - (gamma_of(unshifted, x - 0.5) - gamma_of(unshifted, 0.0))) <= 1e-12
    # between lattice nodes too
    x = 0.6445
    assert abs(gamma_of(shifted, x) - gamma_of(shifted, 0.5)
               - gamma_of(unshifted, x - 0.5)) <= 1e-12


def test_gamma_of_coverage_error_off_anchor():
    w = SampledFunction(Domain.line(0.5, 1.0), np.zeros(64) + 0j)
    with pytest.raises(qc.CoverageError):
        gamma_of(w, 0.75)  # [0, 0.75] leaves [0.5, 1]


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
    oracle = beltrami_fd_oracle(field)
    assert np.max(np.abs(mu.values - oracle.values)) <= 1e-3


def test_two_route_refinement_is_second_order():
    def disagreement(n, lpo):
        grid = qc.HalfPlaneGrid.build(nx=n, y_min=1 / 64, y_max=2.0,
                                      levels_per_octave=lpo)
        w = qc.sine(0.3, 1, n=n)
        field = qc.extend(w, grid)
        mu = qc.beltrami(w, grid)
        return np.max(np.abs(mu.values - beltrami_fd_oracle(field).values))

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


@pytest.mark.parametrize("height", [20, 200])
def test_step_below_the_fft_rounding_floor_is_a_resolution_error(height):
    # e^(w - mean w) is e^height on one half and e^-height on the other: the
    # inverse FFT rounds every node to about eps * e^height / 2, which swamps
    # the low half, where |den| reads exactly 0 although it does not vanish
    with pytest.raises(qc.ResolutionError, match="rounding floor"):
        qc.beltrami(qc.lift(qc.step(height)), qc.HalfPlaneGrid.build())


def test_fd_oracle_needs_fine_levels(sine_small):
    coarse = qc.HalfPlaneGrid(0.0, 1.0, 256, np.array([0.1, 0.4, 1.6]))
    field = qc.extend(sine_small, coarse)
    with pytest.raises(qc.ResolutionError):
        beltrami_fd_oracle(field)


def test_resolution_error_when_lattice_underresolves():
    grid = qc.HalfPlaneGrid.build(nx=256, y_min=1e-4, y_max=1.0, levels_per_octave=8)
    with pytest.raises(qc.ResolutionError, match="samples per window at y=.*; need 32"):
        qc.extend(qc.sine(0.3, 1, 256), grid)


# ---------------------------------------------------------------------------
# line-domain extension

def test_line_extension_identity():
    w = SampledFunction(Domain.line(-6.0, 6.0), np.zeros(4096) + 0j)
    grid = qc.HalfPlaneGrid.build(x_min=-0.5, x_max=0.5, nx=64,
                                  y_min=0.05, y_max=0.5, levels_per_octave=8)
    field = qc.extend(w, grid)
    # gamma is anchored at 0, as in gamma_of: F = x + iy (to 5.5e-15)
    assert np.max(np.abs(field.F - grid_points(grid))) <= 1e-12


def test_line_extension_gamma_is_gamma_of_between_lattice_nodes():
    n = 1025
    x = np.linspace(-4.0, 4.0, n)
    # the field recenters the weight by exp(mean w), gamma_of does not:
    # they agree to rounding (5.0e-15 measured)
    w = SampledFunction(Domain.line(-4.0, 4.0), 0.5 + 0.3 * np.sin(3 * x) + 0.2j * np.cos(x))
    grid = qc.HalfPlaneGrid.build(x_min=-0.503, x_max=0.497, nx=100, y_min=0.05, y_max=0.375)
    assert not np.any(np.isclose((grid.x + 4.0) / w.h % 1, 0.0, atol=1e-6))
    field = qc.extend(w, grid)
    want = np.array([gamma_of(w, float(t)) for t in grid.x])
    assert np.max(np.abs(field.gamma - want)) <= 1e-13


def test_line_extension_coverage_error():
    w = SampledFunction(Domain.line(-1.0, 1.0), np.zeros(256) + 0j)
    grid = qc.HalfPlaneGrid.build(x_min=-0.5, x_max=0.5, nx=64,
                                  y_min=0.05, y_max=1.0, levels_per_octave=8)
    with pytest.raises(qc.CoverageError):
        qc.extend(w, grid)


def test_line_window_without_a_lattice_node_is_a_resolution_error():
    # line data are not held to the circle's 32 nodes per window, but the
    # alias count grows as the windows hold fewer, and a window needs one
    w = SampledFunction(Domain.line(-6.0, 6.0), np.zeros(257) + 0j)
    grid = qc.HalfPlaneGrid.build(x_min=-0.5, x_max=0.5, nx=64, y_min=1e-3, y_max=0.5)
    with pytest.raises(qc.ResolutionError, match="need 1 "):
        qc.beltrami(w, grid)


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
    # the engine sums e^(w - mean w) for line data as for circle data, so
    # its mu of a datum offset by exactly 720 (e^720 overflows) is mu of the
    # datum
    x = np.linspace(-10.0, 10.0, 2049)
    w720 = 720.0 + 0.3 * np.sin(x)
    grid = qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=64, y_min=0.05, y_max=1.0)
    mu = qc.beltrami(_line_datum(w720 - 720.0), grid)  # the subtraction is exact
    with np.errstate(over="ignore"):  # scale = e^720, unused by mu
        eng = _SpectralEngine(_line_datum(w720), grid)
    num, den = _convolutions(eng, (ALPHA, BETA))[0]
    assert np.max(np.abs(num / den - mu.values)) <= 1e-14
    # beltrami also records |e^w * beta_y| itself, which overflows there
    with pytest.raises(qc.ResolutionError, match="denom_mag is not finite"):
        qc.beltrami(_line_datum(w720), grid)
    # below the overflow, beltrami returns the same mu
    w709 = 709.0 + 0.3 * np.sin(x)
    mu709 = qc.beltrami(_line_datum(w709), grid)
    assert np.max(np.abs(mu709.values - qc.beltrami(_line_datum(w709 - 709.0), grid).values)) <= 1e-14


# ---------------------------------------------------------------------------
# the spectral line route against two real-space window sums

def _window_sums(w, grid, data, kern):
    return np.array([[window_sum(w, data, kern, x, y) for x in grid.x]
                     for y in grid.y_levels])


def _smooth_line(a, b, n, seed, amp=0.3):
    """Real random trigonometric sum on [a, b] with sup norm amp."""
    rng = np.random.default_rng(seed)
    x = np.linspace(a, b, n)
    k = np.arange(1, 7)[:, None] / 3
    u = rng.standard_normal(6) @ np.cos(k * x) + rng.standard_normal(6) @ np.sin(k * x)
    return amp * u / np.max(np.abs(u))


def _bench_line_case():
    # data on [-20, 20] with n = 4097 and the benchmark's 256-wide field grid
    # (hx/h = 0.8, 30.4 samples per window at the bottom level), every 9th level
    w = _line_datum(_smooth_line(-20.0, 20.0, 4097, 1), span=20.0)
    levels = qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=256,
                                    y_min=0.02, y_max=2.0).y_levels
    return w, qc.HalfPlaneGrid(-1.0, 1.0, 256, levels[::9])


def _both_ends_case():
    # the top windows of the first and the last x node end on the first and
    # the last lattice node: -1 - 8 * 0.375 = -4 and 0.96875 + 8 * 0.375 = 3.96875
    w = SampledFunction(Domain.line(-4.0, 3.96875), _smooth_line(-4.0, 3.96875, 1021, 2) + 0j)
    return w, qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=64, y_min=0.05, y_max=0.375)


def _complex_case():
    values = _smooth_line(-6.0, 6.0, 1537, 3) + 0.5j * _smooth_line(-6.0, 6.0, 1537, 4)
    w = SampledFunction(Domain.line(-6.0, 6.0), values)
    return w, qc.HalfPlaneGrid.build(x_min=-0.5, x_max=0.5, nx=64, y_min=0.03, y_max=0.6)


LINE_KERNELS = (PHI, PSI, PHI_SECOND, ALPHA, BETA, _V_RATE)


@pytest.mark.parametrize("make", [_bench_line_case, _both_ends_case, _complex_case])
def test_line_engine_matches_the_point_wise_window_sum(make):
    # line data are one period of length n h on the spectral plan; every
    # window stays inside [a, b], so the seam is invisible to rounding
    w, grid = make()
    eng = _SpectralEngine(w, grid)
    assert not eng.plan.fold
    assert np.all(np.diff(grid.y_levels) > 0) and grid.ny >= 5
    for data, stack in zip((eng.ew, eng.p0), _convolutions(eng, LINE_KERNELS, LINE_KERNELS)):
        blocks = block_window_sums(w, grid, data, LINE_KERNELS)
        for kern, got, block in zip(LINE_KERNELS, stack, blocks):
            want = _window_sums(w, grid, data, kern)
            bound = 1e-14 * max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= bound
            assert np.max(np.abs(got - block)) <= bound


def _line_extend_errors(w, grid, field, cols):
    """The largest errors of the line field's V, U_y and V_y at the nodes
    of the columns `cols` against window sums in np.longdouble, with the
    weight and gamma computed in np.longdouble too."""
    vals = w.values.astype(np.clongdouble)
    wbar = np.mean(vals)
    ew = np.exp(vals - wbar)
    h = (np.longdouble(w.domain.b) - np.longdouble(w.domain.a)) / (w.n - 1)
    gamma = np.concatenate([[0], np.cumsum((ew[1:] + ew[:-1]) * (h / 2))])
    scale = np.exp(wbar)
    err = {"V": 0.0, "U_y": 0.0, "V_y": 0.0}
    for j, y in enumerate(grid.y_levels):
        for i in cols:
            conv = {kern: scale * window_sum(w, gamma, kern, grid.x[i], y, np.longdouble)
                    for kern in (PSI, PHI_SECOND, _V_RATE)}
            want = {"V": conv[PSI], "U_y": conv[PHI_SECOND] / (2 * np.longdouble(y)),
                    "V_y": conv[_V_RATE] / np.longdouble(y)}
            for name, v in want.items():
                err[name] = max(err[name], float(abs(getattr(field, name)[j, i] - v)))
    return err


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than double here")
def test_line_extend_matches_a_longdouble_window_sum():
    # V, U_y and V_y convolve gamma (up to ~21 here) against kernels of mean
    # zero, and U_y and V_y then divide by y down to 0.0186.  At these 105
    # nodes the real-space window sums in double erred by up to 7.1e-15,
    # 1.9e-13 and 2.7e-13; the bounds are three times those.
    w, grid = _bench_line_case()
    cols = np.linspace(0, grid.nx - 1, 15).astype(int)
    assert grid.ny * cols.size >= 100
    err = _line_extend_errors(w, grid, qc.extend(w, grid), cols)
    assert err["V"] <= 3 * 7.1e-15
    assert err["U_y"] <= 3 * 1.9e-13
    assert err["V_y"] <= 3 * 2.7e-13


@given(seed=st.integers(0, 2 ** 16), amp=st.floats(0.0, 1.0), imag=st.floats(-0.5, 0.5),
       offset=st.one_of(st.floats(-3.0, 3.0), st.floats(-700.0, 700.0)),
       y_max=st.floats(0.1, 0.3), octaves=st.integers(1, 3), place=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_line_beltrami_is_the_window_sum_ratio_or_a_typed_error(
        seed, amp, imag, offset, y_max, octaves, place):
    # data on [-4, 4]; a grid of width 1 whose top windows stay inside it
    values = (offset + _smooth_line(-4.0, 4.0, 1025, seed, amp)
              + 1j * _smooth_line(-4.0, 4.0, 1025, seed + 1, abs(imag)))
    w = SampledFunction(Domain.line(-4.0, 4.0), values)
    x_min = -4.0 + 8 * y_max + place * (7.0 - 16 * y_max)
    grid = qc.HalfPlaneGrid.build(x_min=x_min, x_max=x_min + 1.0, nx=64,
                                  y_min=y_max / 2 ** octaves, y_max=y_max,
                                  levels_per_octave=2)
    try:
        mu = qc.beltrami(w, grid)
    except qc.QcheatError:
        return
    assert np.all(np.isfinite(mu.values)) and np.all(np.isfinite(mu.denom_mag))
    ew = np.exp(values - np.mean(values))
    want = _window_sums(w, grid, ew, ALPHA) / _window_sums(w, grid, ew, BETA)
    assert np.max(np.abs(mu.values - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


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
    for r in (0.0, np.nan, np.inf):
        with pytest.raises(qc.DomainError):
            qc.classical_ba_extend(_identity_map(), r, grid)


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


# one-period grids that fold (aligned, shifted, coarse) and that do not
# (off the lattice, nx not dividing n), and a grid covering part of a period
ENGINE_GRIDS = {
    "aligned": (0.0, 1.0, 256),
    "shifted": (0.25, 1.25, 256),
    "coarse": (0.0, 1.0, 64),
    "off_lattice": (0.013, 1.013, 100),
    "partial_period": (0.1, 0.6, 80),
    "nx_not_dividing_n": (0.0, 1.0, 200),
}


@pytest.mark.parametrize("name", ENGINE_GRIDS)
def test_spectral_engine_matches_real_space_lattice_sum(name):
    # oracle: the point-wise trapezoid sum over the wrapped kernel in real
    # space, for every kernel on both sequences the engine convolves
    u = qc.random_trig(8, 0.4, 3, 256).values
    w = qc.constant(0.0, 256).with_values(u + 0.5j * qc.random_trig(5, 0.3, 11, 256).values)
    x_min, x_max, nx = ENGINE_GRIDS[name]
    grid = qc.HalfPlaneGrid(x_min, x_max, nx, np.array([1 / 64, 0.2, 2.0]))
    eng = _SpectralEngine(w, grid)
    kernels = tuple(KERNELS.values()) + (_V_RATE,)
    for k, conv_ew, conv_p0 in zip(kernels, *_convolutions(eng, kernels, kernels)):
        for data, got in ((eng.ew, conv_ew), (eng.p0, conv_p0)):
            want = np.array([[periodic_point_sum(w, k, x, y, data)
                              for x in grid.x] for y in grid.y_levels])
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# the banded folding rows against every alias

def _edge_size(kern):
    """sum |c_m| 16^m: where 2 pi |nu| = |z| > 16 the Gaussian factor
    exp(-z^2/4) is below e^-64 and falls faster than |z|^m grows, so
    |k^(nu)| < e^-64 times this."""
    return sum(abs(c) * 16.0 ** m for m, c in kern.derivatives)


FOLDING_GRIDS = {name: ENGINE_GRIDS[name] for name in ("aligned", "shifted", "coarse")}
FOLDING_GRIDS["coarse_shifted"] = (0.5, 1.5, 128)  # nx | n, nx < n, off x = 0


def _circle_case(name, small_grid):
    if name == "reference":
        return qc.random_trig(8, 0.4, 3, 2048), qc.HalfPlaneGrid.build()
    u = qc.random_trig(8, 0.4, 3, 256).values
    w = qc.constant(0.0, 256).with_values(u + 0.5j * qc.random_trig(5, 0.3, 11, 256).values)
    x_min, x_max, nx = {**ENGINE_GRIDS, **FOLDING_GRIDS}[name]
    return w, qc.HalfPlaneGrid(x_min, x_max, nx, small_grid.y_levels)


@pytest.mark.parametrize("name", ["reference", *FOLDING_GRIDS, "partial_period", "line"])
def test_entries_span_all_slots_when_folding_and_the_band_otherwise(name, small_grid):
    # a block's rows span all n lattice slots on a folding grid and its
    # band on the chirp-z route, whose band holds the f = 0 column that
    # the zero-frequency term reads
    w, grid = _complex_case() if name == "line" else _circle_case(name, small_grid)
    plan = _SpectralPlan(w, grid)
    assert plan.fold == (name not in ("partial_period", "line"))
    for block in plan.blocks():
        levels, band, _ = block
        size = plan.n if plan.fold else band.stop - band.start
        assert np.shape(plan.entries(block, ALPHA, BETA)) == (2, levels.stop - levels.start, size)
        assert band.start <= -plan._f0 < band.stop


@pytest.mark.parametrize("name", ["reference", *FOLDING_GRIDS])
def test_banded_tables_drop_only_entries_below_e64(name, small_grid):
    # every alias outside a level's band has a Gaussian factor below e^-64,
    # so an entry moves by less than e^-64 times the kernel's polynomial at
    # the band edge (e.g. 69 for BETA, 2.1e3 for _V_RATE); a slot that no
    # alias of a block's band reaches is checked as an entry of 0
    w, grid = _circle_case(name, small_grid)
    plan = _SpectralPlan(w, grid)
    assert plan.fold
    kernels = tuple(KERNELS.values()) + (_V_RATE,)
    want = alias_table(plan, *kernels)
    got = np.zeros_like(want)
    for block in plan.blocks():
        got[:, block[0]] = plan.entries(block, *kernels)
    for kern, g, v in zip(kernels, got, want):
        assert np.max(np.abs(g - v)) < np.exp(-64.0) * _edge_size(kern)
    # the bands hold a small share of the (2J + 1) n aliases of each level
    evaluated = sum((band.stop - band.start) * len(range(grid.ny)[levels])
                    for levels, band, _ in plan._chunks)
    assert evaluated <= 0.5 * grid.ny * (2 * plan.J + 1) * plan.n


@pytest.mark.parametrize("name", FOLDING_GRIDS)
def test_banded_tables_give_the_alias_table_fields(name, small_grid, monkeypatch):
    w, grid = _circle_case(name, small_grid)
    mu, field = qc.beltrami(w, grid), qc.extend(w, grid)
    # every multiplier row either field reads comes from `entries`, block by
    # block
    patched = []

    def alias_entries(plan, block, *kerns, out=None):
        patched.append(block[0])
        return alias_table(plan, *kerns)[:, block[0]]

    monkeypatch.setattr(_SpectralPlan, "entries", alias_entries)
    want_mu = qc.beltrami(w, grid)
    assert len(patched) == len(list(_SpectralPlan(w, grid).blocks()))
    want_field = qc.extend(w, grid)
    assert len(patched) == 2 * len(list(_SpectralPlan(w, grid).blocks()))
    pairs = [(mu.values, want_mu.values)] + [
        (getattr(field, k), getattr(want_field, k))
        for k in ("gamma", "U", "V", "U_x", "V_x", "U_y", "V_y", "F_z", "F_zbar")]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
    assert np.array_equal(mu.denom_mag, want_mu.denom_mag)


@pytest.mark.parametrize("name", ["reference", "partial_period", "line"])
def test_extend_builds_each_blocks_entries_once(name, small_grid, monkeypatch):
    # one walk serves every convolution of extend: each block builds the
    # entries of its six distinct kernels in one call, on both routes
    w, grid = _complex_case() if name == "line" else _circle_case(name, small_grid)
    calls = []
    entries = _SpectralPlan.entries

    def counted(plan, block, *kerns, out=None):
        calls.append((block[0], kerns))
        return entries(plan, block, *kerns, out=out)

    monkeypatch.setattr(_SpectralPlan, "entries", counted)
    qc.extend(w, grid)
    assert calls == [(block[0], (PHI, PSI, PHI_SECOND, ALPHA, BETA, _V_RATE))
                     for block in _SpectralPlan(w, grid).blocks()]


# ---------------------------------------------------------------------------
# block sizes

def _one_level_blocks(plan):
    for levels, band, chirp in plan._chunks:
        for i in range(levels.start, levels.stop):
            yield slice(i, i + 1), band, chirp


def _whole_chunk_blocks(plan):
    yield from plan._chunks


@pytest.mark.parametrize("name", ["reference", "aligned", "coarse", "partial_period", "line"])
def test_block_size_changes_no_bit(name, small_grid, monkeypatch):
    # every level is computed alone, so a block of one level, of the
    # default size or of a whole chunk gives the same bits on both routes
    w, grid = _complex_case() if name == "line" else _circle_case(name, small_grid)
    plan = _SpectralPlan(w, grid)
    assert plan.fold == (name in ("reference", "aligned", "coarse"))
    default = [b[0] for b in plan.blocks()]
    assert default != [b[0] for b in _one_level_blocks(plan)]
    if name == "reference":  # 8 levels a block split the chunks
        assert default != [b[0] for b in _whole_chunk_blocks(plan)]

    def fields():
        f, mu = qc.extend(w, grid), qc.beltrami(w, grid)
        return ([getattr(f, k) for k in ("gamma",) + extension.FIELD_NAMES]
                + [mu.values, mu.denom_mag], f.identity_residuals)

    want, want_res = fields()
    for blocks in (_one_level_blocks, _whole_chunk_blocks):
        monkeypatch.setattr(_SpectralPlan, "blocks", blocks)
        got, got_res = fields()
        assert all(np.array_equal(g, v) for g, v in zip(got, want))
        assert got_res == want_res


# ---------------------------------------------------------------------------
# the recorded denominator magnitude against per-level window means

def _local_real_means(w, grid):
    """Mean of Re w over I(x, y) = (x-y, x+y) at every grid point, one level
    at a time (periodic data); grids whose x nodes are not the lattice nodes
    get the global mean, and so do levels whose window covers the period."""
    n = w.n
    u = w.values.real
    h = w.domain.length / n
    global_mean = float(np.mean(u))
    offset = (grid.x_min - w.domain.a) / h
    if (grid.nx != n or abs((grid.x_max - grid.x_min) - w.domain.length) >= 1e-12
            or abs(offset - round(offset)) >= 1e-9):
        return np.full((grid.ny, grid.nx), global_mean)
    shift = int(round(offset)) % n
    out = np.empty((grid.ny, grid.nx))
    csum = np.concatenate([[0.0], np.cumsum(np.tile(np.roll(u, -shift), 3))])
    for j, y in enumerate(grid.y_levels):
        m = int(np.floor(y / h))
        if 2 * m + 1 >= n:
            out[j] = global_mean
            continue
        i = np.arange(grid.nx) + n  # center copy
        out[j] = (csum[i + m + 1] - csum[i - m]) / (2 * m + 1)
    return out


@pytest.mark.parametrize("name", ["reference", "shifted", "upper_windows_cover", "off_lattice"])
def test_denom_mag_is_the_per_level_window_mean_magnitude(name, small_grid):
    w = qc.random_trig(8, 0.4, 3, 256)
    w = w.with_values(w.values + 0.3j * qc.sine(1.0, 2, 256).values)
    if name == "reference":
        w, grid = qc.sawtooth(0.5, 2048), qc.HalfPlaneGrid.build()
    elif name == "upper_windows_cover":
        # windows from y = 1/2 on hold all 256 lattice nodes
        grid = qc.HalfPlaneGrid.build(nx=256, y_min=1 / 8, y_max=4.0)
        assert np.sum(2 * np.floor(grid.y_levels * 256) + 1 >= 256) >= grid.ny // 2
    else:
        x_min, x_max, nx = ENGINE_GRIDS[name]
        grid = qc.HalfPlaneGrid(x_min, x_max, nx, small_grid.y_levels)
    (den,), _ = _convolutions(_SpectralEngine(w, grid), (BETA,))
    local = _local_real_means(w, grid)
    want = np.abs(den) * np.exp(float(np.mean(w.values.real)) - local)
    assert np.array_equal(qc.beltrami(w, grid).denom_mag, want)
    # the local means differ from the global one where they apply
    assert (name == "off_lattice") == bool(np.all(local == np.mean(w.values.real)))



# ---------------------------------------------------------------------------
# the checks of a dilatation field across blocks, and its memory

def _check_reference(mu_at=(), mag_at=(), factor_at=(), floor=1e-20):
    """The running checks of a dilatation field fed synthetic arrays of the
    reference grid block by block, over its 15 blocks of levels: mu = 1,
    denom_mag = 1 and its magnitude factor 1 but for the (level, node) or
    level: value entries of `mu_at`, `mag_at` and `factor_at`."""
    grid = qc.HalfPlaneGrid.build()
    blocks = [block[0] for block in _SpectralPlan(qc.constant(0.0, 2048), grid).blocks()]
    assert len(blocks) == 15
    mu = np.ones((grid.ny, grid.nx), dtype=complex)
    denom_mag = np.ones((grid.ny, grid.nx))
    factor = np.ones((grid.ny, grid.nx))
    for a, entries in ((mu, mu_at), (denom_mag, mag_at), (factor, factor_at)):
        for at, value in entries:
            a[at] = value
    checks = extension._DilatationChecks(grid, floor)
    for levels in blocks:
        checks.add(levels, mu[levels], denom_mag[levels], factor[levels])
    checks.close()


# each message as the checks gave it when they read whole arrays of the
# numerator and denominator; (3, 5) lies in the second block of levels,
# (90, 7) in the fourteenth
@pytest.mark.parametrize("case, error, message", [
    (dict(mu_at=[((3, 5), np.nan)], mag_at=[((3, 5), np.nan), ((90, 7), 1e-13)]),
     qc.ResolutionError, "mu is not finite at x = 0.00244141, y = 0.00126644"),
    (dict(mag_at=[((3, 5), np.nan), ((90, 7), 1e-13)]),
     qc.ResolutionError, "denom_mag is not finite at x = 0.00244141, y = 0.00126644"),
    (dict(mag_at=[((60, 100), 1e-13)], floor=2e-12),
     qc.ResolutionError, "dilatation denominator 1.000e-13 at (x, y) = (0.0488281, 0.176777) "
                         "is below the engine's rounding floor 2.000e-12"),
    # the floor is recorded with the factor of its own node
    (dict(mag_at=[((60, 100), 1e-13)], floor=4e-13, factor_at=[(60, 3.0)]),
     qc.ResolutionError, "rounding floor 1.200e-12"),
    (dict(mag_at=[((60, 100), 1e-13)], floor=3e-13, factor_at=[(60, 3.0)]),
     qc.SingularDenominatorError, "dilatation denominator 1.000e-13 below 1e-12 "
                                  "at (x, y) = (0.0488281, 0.176777)"),
])
def test_dilatation_checks_keep_their_precedence_across_blocks(case, error, message):
    # a NaN is not below the threshold: a non-finite node in an early block
    # is named before a small magnitude in a late one
    with pytest.raises(error) as exc:
        _check_reference(**case)
    assert message in str(exc.value)


def test_singular_denominator_names_the_first_smallest_node():
    with pytest.raises(qc.SingularDenominatorError) as exc:
        _check_reference(mag_at=[((20, 9), 5e-13), ((80, 3), 5e-13), ((50, 1), 8e-13)])
    err = exc.value
    assert (err.x, err.y, err.magnitude) == (0.00439453125, 0.005524271728019903, 5e-13)
    assert "5.000e-13 below 1e-12 at (x, y) = (0.00439453, 0.00552427)" in str(err)


@pytest.mark.parametrize("name", ["reference", "line"])
def test_beltrami_collects_the_blocks_it_streams(name):
    if name == "reference":
        w, grid = qc.lift(qc.sawtooth(0.3, 2048)), qc.HalfPlaneGrid.build()
    else:
        x = np.linspace(-10.0, 10.0, 1025)
        w = SampledFunction(Domain.line(-10.0, 10.0), 0.2 * np.cos(x) + 0.1j * np.sin(x))
        grid = qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=64, y_min=0.2, y_max=1.0)
    periodic, blocks = qc.beltrami_blocks(w, grid)
    # each block's rows are read before the next block overwrites them
    rows = [(levels, mu.copy(), mag.copy()) for levels, mu, mag in blocks]
    f = qc.beltrami(w, grid)
    assert [levels for levels, _, _ in rows] == [b[0] for b in _SpectralPlan(w, grid).blocks()]
    assert np.array_equal(np.concatenate([mu for _, mu, _ in rows]), f.values)
    assert np.array_equal(np.concatenate([mag for _, _, mag in rows]), f.denom_mag)
    assert periodic == f.periodic == (name == "reference")


def test_beltrami_fills_its_field_block_by_block_in_place():
    # mu and denom_mag take 4.5 MiB; one block's banded ALPHA/BETA rows and
    # block-sized temporaries add the rest (7.2 MiB in all)
    w, grid = qc.lift(qc.random_trig(8, 0.2, 1, 2048)), qc.HalfPlaneGrid.build()
    qc.beltrami(w, grid)  # first-use allocations
    tracemalloc.start()
    try:
        qc.beltrami(w, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20
