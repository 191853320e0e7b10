import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import qcheat as qc
from qcheat import analyticity, kernels
from qcheat.data import Domain, SampledFunction
from qcheat.extension import BeltramiField, _SpectralPlan


def _const_field(grid, value):
    return BeltramiField(grid, np.full((grid.ny, grid.nx), value, dtype=complex),
                         periodic=True)


class _SyntheticFamily:
    """Fields fn(zeta) * a unit normalized field (hybrid 1), walked block
    by block (8 levels) as a dilatation map walks its data, with
    magnitudes mag(zeta), the datum's smallest; the datum at zeta raises
    failure(zeta), unless None, when it is closed."""

    def __init__(self, grid, fn, mag, failure):
        ones = _const_field(grid, 1.0)
        self.unit = ones.values / qc.hybrid_norm(ones)
        self.grid, self.periodic, self.block_rows = grid, True, 8
        self.fn, self.mag, self.failure = fn, mag, failure

    def at(self, zeta):
        def close():
            if self.failure(zeta) is not None:
                raise self.failure(zeta)
        return SimpleNamespace(zeta=zeta, close=close, smallest=self.mag(zeta))

    def walk(self, data):
        for i in range(0, self.grid.ny, 8):
            levels = slice(i, min(i + 8, self.grid.ny))
            rows = self.unit[levels]
            yield levels, ((self.fn(d.zeta) * rows, np.full(rows.shape, self.mag(d.zeta)))
                           for d in data)


def _synthetic_probe(grid, fn, epsilon=0.1, n_contour=32, at=(0.0,), mag=lambda zeta: 1.0,
                     steps=None, failure=lambda zeta: None):
    """Probe of a `_SyntheticFamily`, built by the same walk and halving
    loop as build_probe."""
    w = qc.sine(0.1, 1, grid.nx)
    family = _SyntheticFamily(grid, fn, mag, failure)
    return analyticity._probe(family, w, w, epsilon, n_contour, at, steps)


# ---------------------------------------------------------------------------
# synthetic families (exact algebra)

def test_affine_family_has_zero_cr_residual(small_grid):
    p = _synthetic_probe(small_grid, lambda z: 0.3 + (0.2 - 0.1j) * z)
    assert qc.cr_residual(p) <= 1e-12


def test_affine_family_reconstructs_exactly(small_grid):
    p = _synthetic_probe(small_grid, lambda z: 0.3 + (0.2 - 0.1j) * z, at=(0.005 + 0.001j,))
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

SINE_PROBE_POINTS = (0.0, 0.002, 0.003, 0.003 - 0.001j)


@pytest.fixture(scope="module")
def sine_probe():
    grid = qc.HalfPlaneGrid.build(nx=256, y_min=1 / 64, y_max=2.0, levels_per_octave=8)
    w0 = qc.lift(qc.constant(0.0, 256))
    w1 = qc.lift(qc.sine(1.0, 1, 256))
    return grid, qc.build_probe(w0, w1, 0.1, 32, grid, at=SINE_PROBE_POINTS)


def test_sine_probe_fields_differ_across_directions(sine_probe):
    _, p = sine_probe
    plus, minus = (p.dilatation_at(z) for z in p.center_nodes[1:3])
    assert np.max(np.abs(plus.values - minus.values)) > 1e-6


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
    p_coarse = qc.build_probe(p.w0, p.w1, p.epsilon, 8, grid, at=(0.003,))
    _, err_coarse = qc.cauchy_reconstruct(p_coarse, 0.003)
    _, err_fine = qc.cauchy_reconstruct(p, 0.003)
    assert err_fine <= err_coarse + 1e-14


def test_contour_average_accumulates_like_the_plain_sum(sine_probe):
    # the streamed running sums add the same terms in the same order as a
    # plain sum over freshly built contour fields
    _, p = sine_probe
    taus = p.contour_nodes
    contour_fields = [p.dilatation_at(tau) for tau in taus]
    for zeta0 in SINE_PROBE_POINTS:
        value = np.zeros_like(contour_fields[0].values)
        deriv = np.zeros_like(value)
        for tau, f in zip(taus, contour_fields):
            value = value + f.values * (tau / (tau - zeta0))
            deriv = deriv + f.values * (tau / (tau - zeta0) ** 2)
        assert np.array_equal(qc.contour_derivative(p, zeta0), deriv / taus.size)
        assert np.array_equal(qc.cauchy_reconstruct(p, zeta0)[0].values, value / taus.size)


def test_probe_serves_only_the_points_it_was_built_for(sine_probe, small_grid):
    _, p = sine_probe
    assert set(p.served) == {complex(z) for z in SINE_PROBE_POINTS}
    with pytest.raises(qc.DomainError, match="not built for"):
        qc.cauchy_reconstruct(p, 0.001)
    with pytest.raises(qc.DomainError, match="not built for"):
        qc.contour_derivative(p, 0.001j)
    with pytest.raises(qc.DomainError, match="not built for"):
        qc.quotient_convergence(p, 0.001, [0.001])
    # a point outside radius epsilon is refused before any field
    w = qc.lift(qc.sine(0.3, 1, 256))
    with pytest.raises(qc.DomainError, match="epsilon"):
        qc.build_probe(w, w, 0.1, 8, small_grid, at=(0.1,))
    # the collected averages are read-only
    with pytest.raises(ValueError):
        qc.contour_derivative(p, 0.0)[0, 0] = 0


def test_served_points_read_the_same_bits_together_or_alone(sine_probe):
    # a point's readers fold only the contour and its own nodes, so a probe
    # serving every point gives each the statistics of a probe built for it
    grid, p = sine_probe
    steps = np.array([0.004, 0.002, 0.001 + 0.001j])

    def probe(at):
        return qc.build_probe(p.w0, p.w1, 0.1, 32, grid, at=at, steps=lambda eps: steps)

    together = probe(SINE_PROBE_POINTS)
    for zeta0 in SINE_PROBE_POINTS:
        alone = probe((zeta0,))
        assert np.array_equal(together.point(zeta0).steps, steps)
        assert qc.cauchy_error(together, zeta0) == qc.cauchy_error(alone, zeta0)
        dists, slope = qc.quotient_convergence(together, zeta0, steps)
        assert np.array_equal(dists, qc.quotient_convergence(alone, zeta0, steps)[0])
        assert slope == qc.quotient_convergence(alone, zeta0, steps)[1]


def _probe_peak_bytes(w0, w1, grid, n_contour):
    """tracemalloc peak of the CLI's probe: one probe built with the
    quotient steps, its residual, Cauchy error and quotient slope read."""
    def steps(eps):
        return [eps / 10, eps / 20, eps / 40]

    tracemalloc.start()
    try:
        p = qc.build_probe(w0, w1, 0.1, n_contour, grid, steps=steps)
        qc.cr_residual(p)
        qc.cauchy_error(p, 0.0)
        qc.quotient_convergence(p, 0.0, steps(p.epsilon))
        del p
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_memory_does_not_grow_with_contour_nodes(small_grid):
    # a node keeps only its weighed spectrum: 64 nodes may peak at most one
    # field (mu and denom_mag) above 8 nodes
    w0, w1 = qc.lift(qc.sine(0.3, 1, 256)), qc.lift(qc.sine(1.0, 1, 256))
    _probe_peak_bytes(w0, w1, small_grid, 8)  # first-use allocations
    peak8 = _probe_peak_bytes(w0, w1, small_grid, 8)
    peak64 = _probe_peak_bytes(w0, w1, small_grid, 64)
    f = qc.beltrami(w0, small_grid)
    assert peak64 <= peak8 + f.values.nbytes + f.denom_mag.nbytes


def test_reference_probe_holds_no_whole_field_temporaries():
    # the reference grid (2048 x 97), where a field's values take 3.03 MiB:
    # the walk holds no whole field, only each node's weighed spectrum
    # (32 KiB), block rows and the half-plane sums of the Cauchy error and
    # the three quotients, one running sum per box.  It peaks at 1.66 such
    # arrays at 12 nodes and 2.23 at 64; with tables of the weighed levels
    # it peaked at 1.99 and 2.55, with tables of every level at 3.62 and
    # 4.19, and walking the nodes one whole field after another at 5.67.
    # The bounds leave about 0.4 of an array for allocator and numpy
    # changes.
    w0, w1 = qc.lift(qc.constant(0.0, 2048)), qc.lift(qc.sine(0.5, 2, 2048))
    grid = qc.HalfPlaneGrid.build()
    field_bytes = grid.ny * grid.nx * 16
    _probe_peak_bytes(w0, w1, grid, 12)  # first-use allocations
    for n_contour, bound in ((12, 2.1), (64, 2.7)):
        assert _probe_peak_bytes(w0, w1, grid, n_contour) <= bound * field_bytes


def test_non_finite_quotient_distance_is_a_resolution_error(small_grid):
    # fields beyond radius 0.1 (the contour) are NaN, so the contour
    # derivative is too: no distance may read as a slope of 0
    p = _synthetic_probe(small_grid, lambda z: z if abs(z) < 0.1 else np.nan)
    with pytest.raises(qc.ResolutionError, match="not finite"):
        qc.quotient_convergence(p, 0.0, [0.01, 0.005])


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def test_probe_values_are_pinned_to_their_bits(sine_probe):
    # recorded before the probe streamed its contour
    _, p = sine_probe
    recon, err = qc.cauchy_reconstruct(p, 0.003, check_resolution=True)
    assert float.hex(err) == "0x1.1204de5a94902p-53"
    assert _digest(recon.values) == (
        "c050abb830af02b64e25328ec1d658df541b6479191a390d38822166188304e7")
    assert _digest(qc.contour_derivative(p, 0.003 - 0.001j)) == (
        "c8c4844432a7b51879922401ec5ce3de1fc1261a25bc889a4432419ae187d1a9")


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
    norms = [qc.hybrid_norm(p.dilatation_at(z)) for z in p.center_nodes]
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


def test_probe_does_not_shrink_epsilon_on_a_resolution_error(monkeypatch, small_grid):
    # a step of height 20 puts |den| below the engine's rounding floor: a
    # ResolutionError, which no smaller epsilon can help, so it propagates
    # from the first field instead of halving epsilon
    from qcheat import extension
    calls = []
    real = extension._DilatationChecks.close

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(extension._DilatationChecks, "close", counted)
    w0 = qc.lift(qc.step(20.0, 256))
    w1 = qc.lift(qc.sine(0.1, 1, 256))
    with pytest.raises(qc.ResolutionError, match="rounding floor"):
        qc.build_probe(w0, w1, 0.1, 8, small_grid)
    assert len(calls) == 1


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
    assert max(p.dilatation_at(z).sup_norm for z in p.center_nodes) <= 1e-12


def test_cauchy_resolution_check_passes_on_converged_contour(sine_probe):
    grid, p = sine_probe
    _, err = qc.cauchy_reconstruct(p, 0.002, check_resolution=True)
    assert err <= 1e-6


def test_cauchy_resolution_check_rebuilds_on_the_probe_grid(monkeypatch):
    grid = qc.HalfPlaneGrid.build(nx=256, y_min=1 / 32, y_max=2.0, levels_per_octave=4)
    w0 = qc.lift(qc.constant(0.0, 256))
    seen = []
    build = analyticity.build_probe

    def spy(*args, **kwargs):
        probe = build(*args, **kwargs)
        seen.append((probe.family.grid, probe.contour_nodes.size, list(probe.served)))
        return probe

    p = qc.build_probe(w0, qc.lift(qc.sine(0.5, 1, 256)), 0.05, 8, grid, at=(0.0, 0.001))
    monkeypatch.setattr(analyticity, "build_probe", spy)
    qc.cauchy_reconstruct(p, 0.001, check_resolution=True)
    # the doubled probe serves only the point it checks
    assert seen == [(grid, 16, [0.001])]


# ---------------------------------------------------------------------------
# one plan per probe

def _plan_case(name):
    """(w0, w1, grid): the reference grid (it folds), a grid over part of
    the period and line data (both chirp-z)."""
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
    # the contour fields, an off-node field and a quotient step share the
    # plan too
    extra = [0.003 + 0.001j, 0.003 + 0.001j + 0.0025]
    fields = [p.dilatation_at(z) for z in list(p.center_nodes) + list(p.contour_nodes) + extra]
    # the probe keeps no field; every node is walked again
    assert p.fields == []
    for zeta, f in zip(list(nodes) + extra, fields):
        direct = qc.beltrami(w0.with_values(w0.values + zeta * w1.values), grid)
        assert np.max(np.abs(f.values - direct.values)) <= 1e-14
        assert (np.max(np.abs(f.denom_mag - direct.denom_mag))
                <= 1e-14 * np.max(direct.denom_mag))
        assert f.periodic == direct.periodic


def test_probe_builds_its_multiplier_tables_once(monkeypatch):
    # each block evaluates the multipliers of ALPHA and BETA once, on the
    # folding grid and both chirp-z grids, whatever the number of nodes
    calls = []
    multiplier = kernels.multiplier

    def counted(k, nu):
        calls.append(k)
        return multiplier(k, nu)

    monkeypatch.setattr(kernels, "multiplier", counted)
    for name in ("reference", "partial_period", "line"):
        w0, w1, grid = _plan_case(name)
        blocks = len(list(_SpectralPlan(w0, grid).blocks()))
        for n_contour in (8, 16):
            calls.clear()
            assert qc.build_probe(w0, w1, 0.1, n_contour, grid).epsilon == 0.1
            assert len(calls) == 2 * blocks, (name, n_contour)


# ---------------------------------------------------------------------------
# the streamed statistics against their whole-array formulas

def _whole_array_cr_residual(fields, d):
    """The residual from four whole fields at d, -d, i*d and -i*d."""
    mu_p, mu_m, mu_ip, mu_im = (f.values for f in fields)
    res = (mu_p - mu_m) / (2 * d) + 1j * (mu_ip - mu_im) / (2 * d)
    return float(np.max(np.abs(res)) / 2.0)


@pytest.mark.parametrize("name", ["reference", "partial_period", "line"])
def test_streamed_probe_statistics_equal_the_whole_array_formulas(name):
    # every statistic of the one walk against whole fields built apart,
    # each formula as the probe evaluated it before it walked block-outer
    w0, w1, grid = _plan_case(name)
    steps = np.array([0.01, 0.005, 0.0025 + 0.001j])
    p = qc.build_probe(w0, w1, 0.1, 4, grid, steps=lambda eps: steps)

    def direct(zeta):
        return qc.beltrami(w0.with_values(w0.values + zeta * w1.values), grid)

    assert qc.cr_residual(p) == _whole_array_cr_residual(
        [direct(z) for z in p.center_nodes[1:]], p.delta)
    center = direct(0.0)
    fields = [direct(tau) for tau in p.contour_nodes]
    value = np.zeros_like(center.values)
    deriv = np.zeros_like(value)
    for tau, f in zip(p.contour_nodes, fields):
        value += f.values * (tau / (tau - 0.0))
        deriv += f.values * (tau / (tau - 0.0) ** 2)
    value /= p.contour_nodes.size
    deriv /= p.contour_nodes.size
    diff = BeltramiField(grid, value - center.values, periodic=center.periodic)
    assert qc.cauchy_error(p, 0.0) == qc.hybrid_norm(diff)
    dists = []
    for s in steps:
        quot = (direct(s).values - center.values) / s - deriv
        dists.append(qc.hybrid_norm(BeltramiField(grid, quot, periodic=center.periodic)))
    mags = np.abs(steps)
    assert np.array_equal(p.point(0.0).distances, dists)
    got, slope = qc.quotient_convergence(p, 0.0, steps)
    assert np.array_equal(got, dists)
    assert slope == float(np.dot(mags, dists) / np.dot(mags, mags))
    # the accessors that return whole arrays collect them from a new walk
    assert np.array_equal(qc.contour_derivative(p, 0.0), deriv)
    recon, err = qc.cauchy_reconstruct(p, 0.0)
    assert np.array_equal(recon.values, value)
    assert np.array_equal(recon.denom_mag, center.denom_mag)
    assert err == qc.cauchy_error(p, 0.0)


def test_singular_quotient_node_surfaces_only_in_quotient_convergence(small_grid):
    # every probe node is safe, so a quotient node's error neither halves
    # epsilon nor hides the other statistics: quotient_convergence raises
    # the error of the first failing node in step order
    def steps(eps):
        return [eps / 10, eps / 20, eps / 40]

    second, third = (complex(s) for s in steps(0.1)[1:])
    errors = {second: qc.SingularDenominatorError("at the second step", magnitude=0.0),
              third: qc.ResolutionError("at the third step")}

    def fn(zeta):
        return zeta * zeta

    p = _synthetic_probe(small_grid, fn, steps=steps, failure=lambda z: errors.get(complex(z)))
    q = _synthetic_probe(small_grid, fn, steps=steps)
    assert p.epsilon == q.epsilon == 0.1
    assert qc.cr_residual(p) == qc.cr_residual(q)
    assert qc.cauchy_error(p, 0.0) == qc.cauchy_error(q, 0.0)
    with pytest.raises(qc.SingularDenominatorError, match="second step"):
        qc.quotient_convergence(p, 0.0, steps(p.epsilon))
    assert np.all(np.isfinite(qc.quotient_convergence(q, 0.0, steps(q.epsilon))[0]))
    # with the second step safe, the third one's error surfaces
    errors.pop(second)
    with pytest.raises(qc.ResolutionError, match="third step"):
        qc.quotient_convergence(
            _synthetic_probe(small_grid, fn, steps=steps, failure=lambda z: errors.get(complex(z))),
            0.0, steps(0.1))


def test_halving_on_a_streamed_node_discards_the_first_try(small_grid):
    # the field at -i*delta, the last one the residual streams, has a
    # magnitude below SAFE_DENOMINATOR at epsilon 0.1 only
    def fn(zeta):
        return zeta.real ** 3  # residual delta^2 / 2: 4 times larger at 0.1

    def mag(zeta):
        return 1e-7 if abs(zeta + 0.0125j) < 1e-15 else 1.0

    p = _synthetic_probe(small_grid, fn, mag=mag)
    assert p.epsilon == 0.05
    ones = _const_field(small_grid, 1.0)
    unit = ones.values / qc.hybrid_norm(ones)
    assert qc.cr_residual(p) == _whole_array_cr_residual(
        [BeltramiField(small_grid, fn(z) * unit) for z in p.center_nodes[1:]], p.delta)
    assert 0 < qc.cr_residual(p) < qc.cr_residual(_synthetic_probe(small_grid, fn))
    # a probe built at the halved epsilon to begin with is the same to the bit
    q = _synthetic_probe(small_grid, fn, epsilon=0.05)
    assert qc.cr_residual(p) == qc.cr_residual(q)
    assert np.array_equal(p.dilatation_at(0.0).values, q.dilatation_at(0.0).values)
    assert np.array_equal(p.center_nodes, q.center_nodes)
    assert np.array_equal(p.contour_nodes, q.contour_nodes)
    assert qc.cauchy_error(p, 0.0) == qc.cauchy_error(q, 0.0)
    assert np.array_equal(qc.cauchy_reconstruct(p, 0.0)[0].values,
                          qc.cauchy_reconstruct(q, 0.0)[0].values)
    assert np.array_equal(qc.contour_derivative(p, 0.0), qc.contour_derivative(q, 0.0))
