import numpy as np
import pytest

import qcheat as qc
from qcheat import analyticity, kernels
from qcheat.analyticity import HolomorphyProbe
from qcheat.data import Domain, SampledFunction
from qcheat.extension import BeltramiField


def _const_field(grid, value):
    return BeltramiField(grid, np.full((grid.ny, grid.nx), value, dtype=complex),
                         periodic=True)


def _synthetic_probe(grid, fn, epsilon=0.1, n_contour=32):
    """Probe whose fields are fn(zeta) * unit normalized field (hybrid 1)."""
    ones = _const_field(grid, 1.0)
    unit = BeltramiField(grid, ones.values / qc.hybrid_norm(ones), periodic=True)

    def make(zeta):
        return BeltramiField(grid, fn(zeta) * unit.values, periodic=True)

    delta = epsilon / 8
    centers = np.array([0, delta, -delta, 1j * delta, -1j * delta], dtype=complex)
    contour = 2 * epsilon * np.exp(2j * np.pi * np.arange(n_contour) / n_contour)
    fields = [make(z) for z in np.concatenate([centers, contour])]
    w = qc.sine(0.1, 1, grid.nx)
    return HolomorphyProbe(w, w, epsilon, centers, contour, fields, builder=make)


# ---------------------------------------------------------------------------
# synthetic families (exact algebra)

def test_affine_family_has_zero_cr_residual(small_grid):
    p = _synthetic_probe(small_grid, lambda z: 0.3 + (0.2 - 0.1j) * z)
    assert qc.cr_residual(p) <= 1e-12


def test_affine_family_reconstructs_exactly(small_grid):
    p = _synthetic_probe(small_grid, lambda z: 0.3 + (0.2 - 0.1j) * z)
    _, err = qc.cauchy_reconstruct(p, 0.005 + 0.001j)
    assert err <= 1e-12


def test_quadratic_family_quotient_slope_is_coefficient_modulus(small_grid):
    B = 0.4 - 0.3j
    p = _synthetic_probe(small_grid, lambda z: B * z * z)
    steps = np.array([0.01, 0.005, 0.0025])
    dists, slope = qc.quotient_convergence(p, 0.0, steps)
    # quotient minus derivative is exactly B*s on the unit-hybrid field
    assert np.allclose(dists, np.abs(B) * steps, rtol=1e-9)
    assert slope == pytest.approx(abs(B), rel=1e-9)


def test_constant_direction_probe_is_trivial(small_grid):
    w0 = qc.sine(0.3, 1, 256)
    w1 = qc.constant(0.0, 256)
    p = qc.build_probe(qc.lift(w0), qc.lift(w1), 0.1, 16, small_grid)
    assert qc.cr_residual(p) <= 1e-13
    _, err = qc.cauchy_reconstruct(p, 0.0)
    assert err <= 1e-12
    dists, slope = qc.quotient_convergence(p, 0.0, [0.01, 0.005])
    assert np.max(dists) <= 1e-12


# ---------------------------------------------------------------------------
# real data

@pytest.fixture(scope="module")
def sine_probe():
    grid = qc.HalfPlaneGrid.build(nx=256, y_min=1 / 64, y_max=2.0, levels_per_octave=8)
    w0 = qc.lift(qc.constant(0.0, 256))
    w1 = qc.lift(qc.sine(1.0, 1, 256))
    return grid, qc.build_probe(w0, w1, 0.1, 32, grid)


def test_sine_probe_fields_differ_across_directions(sine_probe):
    _, p = sine_probe
    assert np.max(np.abs(p.fields[1].values - p.fields[2].values)) > 1e-6


def test_cr_residual_vanishes_second_order(sine_probe):
    grid, p = sine_probe
    p_half = qc.build_probe(p.w0, p.w1, p.epsilon / 2, 4, grid)
    r1, r2 = qc.cr_residual(p), qc.cr_residual(p_half)
    assert r2 <= 0.35 * r1
    assert 3.0 <= r1 / r2 <= 5.0


def test_cauchy_reconstruction_accuracy(sine_probe):
    _, p = sine_probe
    _, err = qc.cauchy_reconstruct(p, 0.0)
    assert err <= 1e-6


def test_cauchy_error_decreases_with_contour_size(sine_probe):
    grid, p = sine_probe
    p_coarse = qc.build_probe(p.w0, p.w1, p.epsilon, 8, grid)
    _, err_coarse = qc.cauchy_reconstruct(p_coarse, 0.003)
    _, err_fine = qc.cauchy_reconstruct(p, 0.003)
    assert err_fine <= err_coarse + 1e-14


def test_quotient_convergence_is_linear(sine_probe):
    _, p = sine_probe
    steps = [0.01, 0.005, 0.0025]
    dists, slope = qc.quotient_convergence(p, 0.0, steps)
    assert np.isfinite(slope) and slope > 0
    # linear remainder: halving the step halves the distance (within 25%)
    assert dists[1] == pytest.approx(dists[0] / 2, rel=0.25)
    assert dists[2] == pytest.approx(dists[1] / 2, rel=0.25)


def test_real_direction_restriction_is_differentiable(sine_probe):
    # real steps only: first-order convergence with a Lipschitz remainder
    _, p = sine_probe
    steps = [0.012, 0.006, 0.003]
    dists, slope = qc.quotient_convergence(p, 0.0, steps)
    assert np.all(np.diff(dists) < 0)
    assert np.isfinite(slope)


def test_probe_boundedness_on_nodes(sine_probe):
    _, p = sine_probe
    norms = [qc.hybrid_norm(f) for f in p.fields]
    assert np.all(np.isfinite(norms))
    assert max(norms) < 5.0


def test_probe_succeeds_on_step_base(small_grid):
    w0 = qc.lift(qc.step(0.2, 256))
    w1 = qc.lift(qc.sine(1.0, 1, 256))
    p = qc.build_probe(w0, w1, 0.1, 8, small_grid)
    assert p.epsilon == pytest.approx(0.1)


def test_probe_shrinks_epsilon_on_singular_directions(small_grid):
    # strong imaginary direction: at |zeta| ~ 1 the weight becomes balanced
    # unimodular and the denominator dies at large heights; small zeta is safe
    w0 = qc.lift(qc.constant(0.0, 256))
    vals = 1j * np.pi * (qc.step(0.5, 256).values + 0.5)
    w1 = qc.lift(qc.constant(0.0, 256)).with_values(vals)
    p = qc.build_probe(w0, w1, 0.5, 8, small_grid)
    assert p.epsilon < 0.5


def test_probe_failure_names_node(small_grid):
    # base datum itself singular: no shrinking can help
    vals = 1j * np.pi * (qc.step(0.5, 256).values + 0.5)
    w0 = qc.lift(qc.constant(0.0, 256)).with_values(vals)
    w1 = qc.lift(qc.sine(0.1, 1, 256))
    with pytest.raises(qc.ProbeFailure) as exc:
        qc.build_probe(w0, w1, 0.1, 8, small_grid)
    assert exc.value.node is not None


def test_integral_type_property_of_hybrid_norm(small_grid, sine_small):
    # trapezoid average of a sampled field family stays below the max hybrid
    A = qc.beltrami(sine_small, small_grid)
    B = qc.beltrami(qc.random_trig(6, 0.2, 3, 256), small_grid)
    ss = np.linspace(0, 1, 11)
    fields = [A.values * s + B.values * (1 - s) for s in ss]
    avg = np.trapezoid(np.stack(fields), ss, axis=0)
    avg_field = BeltramiField(small_grid, avg, periodic=True)
    hmax = max(qc.hybrid_norm(BeltramiField(small_grid, f, periodic=True)) for f in fields)
    assert qc.hybrid_norm(avg_field) <= hmax + 1e-10


def test_trivial_probe_has_zero_fields(small_grid):
    w0 = qc.lift(qc.constant(0.0, 256))
    p = qc.build_probe(w0, w0.with_values(np.zeros(256) + 0j), 0.1, 8, small_grid)
    assert max(f.sup_norm for f in p.fields) <= 1e-12


def test_cauchy_resolution_check_passes_on_converged_contour(sine_probe):
    grid, p = sine_probe
    _, err = qc.cauchy_reconstruct(p, 0.002, check_resolution=True)
    assert err <= 1e-6


def test_cauchy_resolution_check_rebuilds_with_the_probe_quadrature(monkeypatch):
    grid = qc.HalfPlaneGrid.build(nx=256, y_min=1 / 32, y_max=2.0, levels_per_octave=4)
    q = qc.QuadratureSpec(min_samples_per_window=48)
    w0 = qc.lift(qc.constant(0.0, 256))
    p = qc.build_probe(w0, qc.lift(qc.sine(0.5, 1, 256)), 0.05, 8, grid, q)
    assert p.q == q
    seen = []
    build = analyticity.build_probe

    def spy(*args, **kwargs):
        probe = build(*args, **kwargs)
        seen.append(probe.q)
        return probe

    monkeypatch.setattr(analyticity, "build_probe", spy)
    qc.cauchy_reconstruct(p, 0.001, check_resolution=True)
    assert seen == [q]


# ---------------------------------------------------------------------------
# one plan per probe

def _plan_case(name):
    """(w0, w1, grid): the reference grid (folding engine), a grid over part
    of the period (direct Fourier sums) and line data (the line engine)."""
    if name == "reference":
        n, grid = 2048, qc.HalfPlaneGrid.build()
    elif name == "partial_period":
        n, grid = 256, qc.HalfPlaneGrid.build(x_min=0.1, x_max=0.6, nx=80,
                                              y_min=1 / 32, y_max=1.0)
    else:
        x = np.linspace(-10.0, 10.0, 1025)
        line = Domain.line(-10.0, 10.0)
        grid = qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=64, y_min=0.2, y_max=1.0)
        return (SampledFunction(line, 0.2 * np.cos(x) + 0j),
                SampledFunction(line, np.sin(0.5 * x) + 0j), grid)
    return qc.lift(qc.sine(0.2, 2, n)), qc.lift(qc.sine(1.0, 1, n)), grid


@pytest.mark.parametrize("name", ["reference", "partial_period", "line"])
def test_probe_fields_equal_independent_beltrami_calls(name):
    w0, w1, grid = _plan_case(name)
    p = qc.build_probe(w0, w1, 0.1, 4, grid)
    nodes = np.concatenate([p.center_nodes, p.contour_nodes])
    # the builder's off-node field and a quotient step share the plan too
    extra = [0.003 + 0.001j, 0.003 + 0.001j + 0.0025]
    fields = p.fields + [p.dilatation_at(z) for z in extra]
    for zeta, f in zip(list(nodes) + extra, fields):
        direct = qc.beltrami(w0.with_values(w0.values + zeta * w1.values), grid)
        assert np.max(np.abs(f.values - direct.values)) <= 1e-14
        assert np.max(np.abs(f.denom_mag - direct.denom_mag)) <= 1e-14 * np.max(direct.denom_mag)
        assert f.periodic == direct.periodic


def test_probe_builds_its_multiplier_tables_once(monkeypatch, small_grid):
    calls = []
    multiplier = kernels.multiplier

    def counted(k, nu):
        calls.append(k)
        return multiplier(k, nu)

    monkeypatch.setattr(kernels, "multiplier", counted)
    w0, w1 = qc.lift(qc.sine(0.3, 1, 256)), qc.lift(qc.sine(1.0, 2, 256))
    counts = []
    for n_contour in (8, 16):
        calls.clear()
        qc.build_probe(w0, w1, 0.1, n_contour, small_grid)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
