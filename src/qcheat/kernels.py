"""Gaussian kernel family and the quadrature engine for (e^w * k_y)(x).

The family is built from the heat kernel phi(s) = exp(-s^2)/sqrt(pi) and its
derivative psi = phi'.  The complex kernels Alpha and Beta are the fixed
combinations that produce the anti-holomorphic and holomorphic derivatives
of the extension field when convolved against e^w:

    alpha(s) = -phi''(s)/4 + (3i/4) psi(s) = ((1/2 - s^2) - (3i/2) s) phi(s)
    beta(s)  = phi(s) + phi''(s)/4 + (i/4) psi(s) = ((1/2 + s^2) - (i/2) s) phi(s)

They follow from expanding F_zbar = ((U_x - V_y) + i U_y + i V_x)/2 and
F_z = U_x + (-(U_x - V_y) - i U_y + i V_x)/2 with the convolution identities
U_x = e^u * phi_y, V_x = e^u * psi_y, U_y = V_x / 2, and
V_y = U_x + e^u * (phi''/2)_y.  Moments: integral of alpha is 0, of beta
is 1, and the first moment of psi is -1 (which pins F = id for u = 0).

All kernels are scaled by a_y(t) = a(t/y) / y.  Every kernel is a fixed
combination k = sum_m c_m phi^(m) of heat-kernel derivatives, so its
Fourier transform is the closed-form multiplier

    k^(nu) = exp(eta^2/4) * sum_m c_m eta^m,   eta = 2 pi i nu,

and k_y has transform k^(nu y).  The field engines use these multipliers;
`convolve` below is the independent real-space route: a trapezoid sum on
the data lattice, truncated at |t| <= TRUNCATION_RADIUS * y, with periodic
data summed over integer translates of the period.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import SampledFunction
from .errors import DomainError

SQRT_PI = np.sqrt(np.pi)


class KernelId(str, enum.Enum):
    Phi = "Phi"
    Psi = "Psi"
    Alpha = "Alpha"
    Beta = "Beta"
    PhiSecond = "PhiSecond"


def _gauss(s):
    return np.exp(-np.square(s)) / SQRT_PI


@dataclass(frozen=True)
class Kernel:
    """One member of the kernel family.

    `evaluator` maps real s to the (complex) kernel value; `gauss_factor`
    is the polynomial P with k(s) = P(s) exp(-s^2)/sqrt(pi), used by the
    Gauss-Hermite rule.  `derivatives` holds the pairs (m, c_m) with
    k = sum_m c_m phi^(m); `moment0`/`moment1` are the analytic values of
    the zeroth and first moments.
    """

    id: KernelId | str
    evaluator: Callable[[np.ndarray], np.ndarray]
    gauss_factor: Callable[[np.ndarray], np.ndarray]
    derivatives: tuple[tuple[int, complex], ...]
    moment0: complex
    moment1: complex


PHI = Kernel(KernelId.Phi, lambda s: _gauss(s) + 0j, lambda s: np.ones_like(s) + 0j,
             ((0, 1.0),), 1.0, 0.0)
PSI = Kernel(KernelId.Psi, lambda s: -2.0 * s * _gauss(s) + 0j, lambda s: -2.0 * s + 0j,
             ((1, 1.0),), 0.0, -1.0)
PHI_SECOND = Kernel(
    KernelId.PhiSecond,
    lambda s: (4.0 * np.square(s) - 2.0) * _gauss(s) + 0j,
    lambda s: 4.0 * np.square(s) - 2.0 + 0j,
    ((2, 1.0),),
    0.0,
    0.0,
)
ALPHA = Kernel(
    KernelId.Alpha,
    lambda s: ((0.5 - np.square(s)) - 1.5j * s) * _gauss(s),
    lambda s: (0.5 - np.square(s)) - 1.5j * s,
    ((1, 0.75j), (2, -0.25)),
    0.0,
    -0.75j,
)
BETA = Kernel(
    KernelId.Beta,
    lambda s: ((0.5 + np.square(s)) - 0.5j * s) * _gauss(s),
    lambda s: (0.5 + np.square(s)) - 0.5j * s,
    ((0, 1.0), (1, 0.25j), (2, 0.25)),
    1.0,
    -0.25j,
)

# Rate-of-change kernel for the vertical derivative of V: the y-derivative
# of psi_y equals (1/y) e_y with e(s) = 4 s (1 - s^2) phi(s).  Internal use.
_V_RATE = Kernel(
    "_VRate",
    lambda s: 4.0 * s * (1.0 - np.square(s)) * _gauss(s) + 0j,
    lambda s: 4.0 * s * (1.0 - np.square(s)) + 0j,
    ((1, 1.0), (3, 0.5)),
    0.0,
    -1.0,
)

KERNELS: dict[KernelId, Kernel] = {
    KernelId.Phi: PHI,
    KernelId.Psi: PSI,
    KernelId.Alpha: ALPHA,
    KernelId.Beta: BETA,
    KernelId.PhiSecond: PHI_SECOND,
}

# half-width of the real-space integration window, in units of s = t/y
TRUNCATION_RADIUS = 8.0
# the fewest lattice nodes a window of circle data may hold: the spectral
# engine's resolution gate, and the node count of `convolve`'s refined window
MIN_SAMPLES_PER_WINDOW = 32


def eval_kernel(k: Kernel, s) -> complex | np.ndarray:
    """Kernel value at s (scalar or array); a total function."""
    out = k.evaluator(np.asarray(s, dtype=float))
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return complex(out)
    return out


def scale(k: Kernel, y: float, t) -> complex | np.ndarray:
    """Scaled kernel k_y(t) = k(t/y) / y; y must be positive."""
    if y <= 0:
        raise DomainError(f"kernel scale requires y > 0, got {y}")
    return eval_kernel(k, np.asarray(t, dtype=float) / y) / y


def _horner(z: np.ndarray, coeffs) -> np.ndarray:
    """sum_m coeffs[m] z^m by Horner's rule, in numpy polyval's order of
    operations (so with its rounding)."""
    acc = coeffs[-1] + z * 0
    for c in coeffs[-2::-1]:
        acc = c + acc * z
    return acc


def multiplier(k: Kernel, nu) -> np.ndarray:
    """Fourier transform of k at frequency nu, the integral of
    k(s) exp(-2 pi i nu s) ds: exp(eta^2/4) * sum_m c_m eta^m with
    eta = 2 pi i nu = i z, evaluated as real and imaginary polynomials in z."""
    z = 2 * np.pi * np.asarray(nu, dtype=float)
    gauss = np.exp(-np.square(z) / 4)
    coeffs = dict(k.derivatives)
    d = [coeffs.get(m, 0.0) * 1j ** m for m in range(max(coeffs) + 1)]
    out = np.empty(z.shape, dtype=complex)
    out.real = gauss * _horner(z, [c.real for c in d])
    out.imag = gauss * _horner(z, [c.imag for c in d])
    return out


# ---------------------------------------------------------------------------
# real-space quadrature

def _periodic_point_sum(w: SampledFunction, k: Kernel, x: float, y: float,
                        R: float, data: np.ndarray) -> complex:
    """Trapezoid lattice sum h * sum_l data_l * sum_m k_y(x - t_l + m*period)
    at one point: the real-space oracle for the spectral field engine."""
    n = w.n
    period = w.domain.length
    h = period / n
    t = w.domain.a + h * np.arange(n)
    delta = x - t
    delta = ((delta + period / 2) % period) - period / 2
    m_max = int(np.ceil((R * y) / period)) + 3
    m = np.arange(-m_max, m_max + 1) * period
    offs = delta[None, :] + m[:, None]
    kern = (k.evaluator(offs / y) / y).sum(axis=0)
    return complex(h * np.dot(data, kern))


def _spline_evaluator(w: SampledFunction):
    """Cubic interpolant of the raw samples of w (periodic where the data are)."""
    # imported here: scipy.interpolate costs most of the package's import time
    from scipy.interpolate import CubicSpline

    if w.periodic:
        xs = np.append(w.x, w.domain.b)
        vals = np.append(w.values, w.values[0])
        re = CubicSpline(xs, vals.real, bc_type="periodic")
        im = CubicSpline(xs, vals.imag, bc_type="periodic")
        period = w.domain.length
        a = w.domain.a

        def ev(t):
            tt = a + ((np.asarray(t, dtype=float) - a) % period)
            return re(tt) + 1j * im(tt)

        return ev
    re = CubicSpline(w.x, w.values.real)
    im = CubicSpline(w.x, w.values.imag)
    return lambda t: re(np.asarray(t, dtype=float)) + 1j * im(np.asarray(t, dtype=float))


def convolve(w: SampledFunction, k: Kernel, x: float, y: float) -> complex:
    """Numeric (e^w * k_y)(x); deterministic for fixed inputs.

    Periodic data wrap; line data must cover the truncated window, else
    a CoverageError names the missing range.  If the window holds fewer
    than MIN_SAMPLES_PER_WINDOW lattice nodes, it is re-sampled on that
    many uniform cells through a cubic interpolant of w.
    """
    if y <= 0:
        raise DomainError(f"convolve requires y > 0, got {y}")
    R = TRUNCATION_RADIUS
    lo, hi = x - R * y, x + R * y
    w.domain.require_covers(lo, hi)
    if w.periodic:
        window_nodes = 2 * R * y * w.n / w.domain.length
        if window_nodes >= MIN_SAMPLES_PER_WINDOW or window_nodes >= w.n:
            data = np.exp(w.values)
            return _periodic_point_sum(w, k, x, y, R, data)
        return _refined_window_sum(w, k, x, y)

    a, h = w.domain.a, w.h
    j0 = int(np.ceil((lo - a) / h - 1e-12))
    j1 = int(np.floor((hi - a) / h + 1e-12))
    count = j1 - j0 + 1
    if count < MIN_SAMPLES_PER_WINDOW:
        return _refined_window_sum(w, k, x, y)
    t = a + h * np.arange(j0, j1 + 1)
    kern = k.evaluator((x - t) / y) / y
    vals = np.exp(w.values[j0:j1 + 1]) * kern
    weights = np.full(count, h)
    weights[0] = weights[-1] = h / 2
    return complex(np.dot(vals, weights))


def _refined_window_sum(w: SampledFunction, k: Kernel, x: float, y: float) -> complex:
    """Trapezoid sum over the window [x - R y, x + R y], which `convolve`
    has checked, on MIN_SAMPLES_PER_WINDOW cells of a cubic interpolant."""
    ev = _spline_evaluator(w)
    R = TRUNCATION_RADIUS
    t = np.linspace(x - R * y, x + R * y, MIN_SAMPLES_PER_WINDOW + 1)
    vals = np.exp(ev(t)) * (k.evaluator((x - t) / y) / y)
    return complex(np.trapezoid(vals, t))


def _gauss_hermite(w: SampledFunction, k: Kernel, x: float, y: float) -> complex:
    """64-node Gauss-Hermite rule on a cubic interpolant of w; an
    independent check of the trapezoid sum in `convolve`."""
    nodes, weights = np.polynomial.hermite.hermgauss(64)
    t = x - y * nodes
    w.domain.require_covers(float(t.min()), float(t.max()), "Gauss-Hermite window")
    ev = _spline_evaluator(w)
    integrand = np.exp(ev(t)) * k.gauss_factor(nodes)
    return complex(np.dot(weights, integrand) / SQRT_PI)


# ---------------------------------------------------------------------------
# diagnostics

def numeric_moment(k: Kernel, order: int = 0, R: float = 10.0, n: int = 40001) -> complex:
    """Dense trapezoid of s^order * k(s) over [-R, R]; independent check of
    the analytic moment attributes."""
    s = np.linspace(-R, R, n)
    vals = (s ** order) * k.evaluator(s)
    return complex(np.trapezoid(vals, s))


def envelope_constant(k: Kernel, s_min: float = 4.0, s_max: float = 30.0,
                      n: int = 4001) -> float:
    """Smallest C with |k(s)| <= C exp(-|s|) on |s| >= s_min (sampled)."""
    s = np.linspace(s_min, s_max, n)
    s = np.concatenate([-s[::-1], s])
    return float(np.max(np.abs(k.evaluator(s)) * np.exp(np.abs(s))))
