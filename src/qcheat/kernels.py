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

and k_y has transform k^(nu y).  The field engine uses these multipliers;
its real-space check, the trapezoid sum on the data lattice truncated at
|t| <= TRUNCATION_RADIUS * y, is in tests/oracles.py.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

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
    """One member of the kernel family, k = sum_m c_m phi^(m), given by the
    pairs (m, c_m) in `derivatives`."""

    id: KernelId | str
    derivatives: tuple[tuple[int, complex], ...]

    def gauss_factor(self, s) -> np.ndarray:
        """The polynomial P with k(s) = P(s) phi(s): phi^(m) = (-1)^m H_m phi
        with H_m the physicists' Hermite polynomials, built by their
        recurrence H_(m+1) = 2 s H_m - 2 m H_(m-1)."""
        s = np.asarray(s, dtype=float)
        coeffs = dict(self.derivatives)
        out = np.zeros(s.shape, dtype=complex)
        h_prev, h = np.zeros_like(s), np.ones_like(s)
        for m in range(max(coeffs) + 1):
            if m in coeffs:
                out = out + coeffs[m] * (-1) ** m * h
            h_prev, h = h, 2 * s * h - 2 * m * h_prev
        return out

    def evaluator(self, s) -> np.ndarray:
        """Kernel value k(s) = P(s) phi(s) at real s."""
        return self.gauss_factor(s) * _gauss(s)


PHI = Kernel(KernelId.Phi, ((0, 1.0),))
PSI = Kernel(KernelId.Psi, ((1, 1.0),))
PHI_SECOND = Kernel(KernelId.PhiSecond, ((2, 1.0),))
ALPHA = Kernel(KernelId.Alpha, ((1, 0.75j), (2, -0.25)))
BETA = Kernel(KernelId.Beta, ((0, 1.0), (1, 0.25j), (2, 0.25)))
# Rate-of-change kernel for the vertical derivative of V: the y-derivative
# of psi_y equals (1/y) e_y with e(s) = 4 s (1 - s^2) phi(s).  Internal use.
_V_RATE = Kernel("_VRate", ((1, 1.0), (3, 0.5)))

KERNELS: dict[KernelId, Kernel] = {
    KernelId.Phi: PHI,
    KernelId.Psi: PSI,
    KernelId.Alpha: ALPHA,
    KernelId.Beta: BETA,
    KernelId.PhiSecond: PHI_SECOND,
}

# half-width of the real-space integration window, in units of s = t/y
TRUNCATION_RADIUS = 8.0


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
# diagnostics

def envelope_constant(k: Kernel) -> float:
    """Smallest C with |k(s)| <= C exp(-|s|) on |s| >= 4, sampled at 4001
    points of [4, 30] on either side."""
    s = np.linspace(4.0, 30.0, 4001)
    s = np.concatenate([-s[::-1], s])
    return float(np.max(np.abs(k.evaluator(s)) * np.exp(np.abs(s))))
