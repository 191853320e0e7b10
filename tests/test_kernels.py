import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.polynomial import polyval

import qcheat as qc
from qcheat.kernels import _V_RATE, KERNELS, envelope_constant, multiplier

from oracles import convolve, numeric_moment

ALL_KERNELS = list(KERNELS.values()) + [_V_RATE]

# the closed forms P(s) of the module docstring, with k(s) = P(s) phi(s)
CLOSED_FORM = {
    qc.PHI.id: lambda s: np.ones_like(s),
    qc.PSI.id: lambda s: -2.0 * s,
    qc.PHI_SECOND.id: lambda s: 4.0 * s ** 2 - 2.0,
    qc.ALPHA.id: lambda s: (0.5 - s ** 2) - 1.5j * s,
    qc.BETA.id: lambda s: (0.5 + s ** 2) - 0.5j * s,
    _V_RATE.id: lambda s: 4.0 * s * (1.0 - s ** 2),
}


@pytest.mark.parametrize("k,s,expected", [
    (qc.PHI, 0.0, 1 / np.sqrt(np.pi)),
    (qc.PSI, 1.0, -2 * np.exp(-1) / np.sqrt(np.pi)),
    (qc.ALPHA, 0.0, 0.5 / np.sqrt(np.pi)),
    (qc.BETA, 0.0, 0.5 / np.sqrt(np.pi)),
    (qc.PHI_SECOND, 0.0, -2 / np.sqrt(np.pi)),
])
def test_kernel_spot_values(k, s, expected):
    assert complex(k.evaluator(s)) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: str(k.id))
def test_moments_match_analytic(k):
    # of the phi^(m), only phi has mass (1), and only psi = phi' a first
    # moment (-1): k has mass c_0 and first moment -c_1
    c = dict(k.derivatives)
    assert abs(numeric_moment(k, 0, R=10.0) - c.get(0, 0)) <= 1e-10
    assert abs(numeric_moment(k, 1, R=10.0) + c.get(1, 0)) <= 1e-10


def test_psi_first_moment_is_minus_one():
    # pins F = id for the zero datum
    assert abs(numeric_moment(qc.PSI, 1, R=10.0) + 1.0) <= 1e-10


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: str(k.id))
def test_exponential_decay_envelope(k):
    assert envelope_constant(k) <= 10.0


# ---------------------------------------------------------------------------
# the real-space oracle `convolve`

def test_convolve_constant_zero_gives_one():
    w = qc.constant(0.0)
    for x, y in [(0.0, 0.001), (0.37, 0.25), (0.9, 3.0)]:
        assert abs(convolve(w, qc.PHI, x, y) - 1.0) <= 1e-10


def test_convolve_constant_ipi_gives_minus_one():
    w = qc.constant(1j * np.pi)
    assert abs(convolve(w, qc.PHI, 0.2, 0.03) + 1.0) <= 1e-10


def test_convolve_alpha_against_refined_oracle():
    # oracle: the same trapezoid quadrature at 8x sampling of the datum
    w = qc.sine(0.3, 1, n=2048)
    w8 = qc.sine(0.3, 1, n=8 * 2048)
    got = convolve(w, qc.ALPHA, 0.0, 0.25)
    oracle = convolve(w8, qc.ALPHA, 0.0, 0.25)
    assert abs(got - oracle) <= 1e-10


def _gauss_hermite(datum, k, x, y):
    """64-node Gauss-Hermite rule for the integral of e^datum(t) k_y(x - t)
    in t = x - y s, with k's closed-form polynomial factor."""
    nodes, weights = hermgauss(64)
    integrand = np.exp(datum(x - y * nodes)) * CLOSED_FORM[k.id](nodes)
    return complex(np.dot(weights, integrand) / np.sqrt(np.pi))


def test_convolve_gauss_hermite_matches_trapezoid():
    w = qc.sine(0.3, 1)
    for k in (qc.PHI, qc.ALPHA, qc.BETA):
        a = convolve(w, k, 0.123, 0.2)
        b = _gauss_hermite(lambda t: 0.3 * np.sin(2 * np.pi * t), k, 0.123, 0.2)
        assert abs(a - b) <= 1e-10


def test_convolve_coarse_circle_window_is_a_resolution_error():
    # 64 nodes per period leave 10.24 nodes in a window of half-width 8y at
    # y = 0.01; every route that convolves e^w against the kernels keeps the
    # engine's one window rule and its message
    w = qc.sine(0.3, 1, n=64)
    grid = qc.HalfPlaneGrid(0.0, 1.0, 64, np.array([0.01, 0.5]))
    with pytest.raises(qc.ResolutionError) as direct:
        qc.extend(w, grid)
    with pytest.raises(qc.ResolutionError) as field:
        qc.beltrami(w, grid)
    assert str(direct.value) == str(field.value)
    assert "need 32" in str(direct.value)


def test_convolve_scale_covariance():
    # dilating the datum by 2 moves the evaluation point to (2x, 2y)
    w = qc.sine(0.3, 1)
    idx2 = (2 * np.arange(w.n)) % w.n
    w2 = w.with_values(w.values[idx2])
    for k in (qc.PHI, qc.PSI, qc.BETA):
        assert abs(convolve(w2, k, 0.25, 0.1) - convolve(w, k, 0.5, 0.2)) <= 1e-8


def test_aliased_multiplier_at_zero_frequency_is_moment0():
    # the k = 0 entry of the lattice multiplier sum_j k^(j*n*y) over the
    # aliases j = -1, 0, 1 is the kernel's total mass
    n = 512
    for k in ALL_KERNELS:
        for y in (0.01, 0.3, 2.0):
            m0 = sum(multiplier(k, j * n * y) for j in (-1, 0, 1))
            assert abs(m0 - dict(k.derivatives).get(0, 0)) <= 1e-12


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: str(k.id))
def test_multiplier_is_bit_identical_to_numpy_polyval(k):
    # the inline Horner rule keeps numpy.polynomial off the import path and
    # does polyval's operations in its order
    coeffs = dict(k.derivatives)
    d = [coeffs.get(m, 0.0) * 1j ** m for m in range(max(coeffs) + 1)]
    for nu in (np.linspace(-12.0, 12.0, 4002).reshape(3, -1), np.array(0.0), np.array(-0.3)):
        z = 2 * np.pi * nu
        gauss = np.exp(-np.square(z) / 4)
        want = np.empty(z.shape, dtype=complex)
        want.real = gauss * polyval(z, [c.real for c in d])
        want.imag = gauss * polyval(z, [c.imag for c in d])
        got = multiplier(k, nu)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


@pytest.mark.parametrize("k", ALL_KERNELS, ids=lambda k: str(k.id))
def test_evaluator_is_the_heat_derivative_combination(k):
    # the coefficients c_m of k = sum_m c_m phi^(m) give the closed forms
    # of the module docstring
    s = np.linspace(-9.0, 9.0, 2001)
    want = CLOSED_FORM[k.id](s) * np.exp(-s ** 2) / np.sqrt(np.pi)
    got = k.evaluator(s)
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_off_lattice_x_matches_refined_oracle():
    w = qc.sine(0.3, 1, n=2048)
    w8 = qc.sine(0.3, 1, n=8 * 2048)
    x = 0.123456789
    got = convolve(w, qc.BETA, x, 0.05)
    oracle = convolve(w8, qc.BETA, x, 0.05)
    assert abs(got - oracle) <= 1e-9
