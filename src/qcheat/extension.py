"""Extension fields on the upper half-plane and their complex dilatations.

Given a boundary datum w, the boundary curve is gamma(x) = integral of e^w
from 0 to x, and the extension is F = U + iV with U = gamma * phi_y and
V = gamma * psi_y.  The partials come from the kernel identities

    U_x = e^w * phi_y            V_x = e^w * psi_y
    U_y = gamma * d(phi_y)/dy    V_y = gamma * d(psi_y)/dy

and the complex derivatives from the fixed kernels Alpha and Beta:

    F_zbar = e^w * alpha_y       F_z = e^w * beta_y
    mu = F_zbar / F_z

For periodic data, gamma splits into a linear part (integrated in closed
form) plus a periodic part p0 obtained by spectral antiderivative.  Every
kernel is a combination of heat-kernel derivatives with a closed-form
Fourier multiplier (see `kernels`), so by Poisson summation the trapezoid
lattice sum of periodic samples f against k_y is

    (1/n) sum_l fft(f)_l sum_j k^((l + j n) y / P) e^(2 pi i (l + j n)(x - a) / P)

over the n lattice frequencies l and their aliases l + j n, where k^ is the
kernel's multiplier and a the first lattice node.  One batched pass
computes it on every level at once.  Only the aliases j = -1, 0, 1 are
kept: the resolution guard (at least 32 lattice nodes in a window of
half-width 8y) gives y n / P >= 2 at every level, so the first omitted
term carries the factor exp(-pi^2 (3n/2)^2 y^2 / P^2) < e^(-88).

The vertical partials are convolved against p0 and the horizontal ones
against e^w.  Both go through the same multipliers, and on the lattice
frequencies p0 is an exact antiderivative of e^w, so the recorded identity
residuals see only the aliases j = -1, 1 and rounding; the real-space
check of the engine is the point-wise lattice sum in `kernels`.

The multipliers depend on the grid and the data lattice, not on the datum,
so the periodic engine comes in two parts.  A `_CirclePlan` holds what one
lattice and one grid fix: the resolution guard, the frequencies, where the
grid nodes sit, and each kernel's multiplier table (on a grid that folds,
the aliases and the phase of the first grid node summed into one (ny, n)
array).  The per-datum part is the FFTs of e^(w - mean w) and of p0, their
products with the tables and the inverse transforms.  `extend` builds each
kernel's table once for both spectra; a holomorphy probe builds one plan
and one stacked ALPHA/BETA table for all of its fields.

Line data are summed in real space by `_LineEngine`: the trapezoid rule
over the lattice window of half-width 8y at every node, in one vectorised
pass per level over blocks of x nodes.  The Gaussian and the trapezoid
weights of a block are computed once and shared by every kernel asked for,
so `extend` makes one pass over e^w and one over gamma, and `beltrami` one
pass for ALPHA and BETA together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels as kq
from .data import SampledFunction
from .errors import CoverageError, DomainError, ResolutionError, SingularDenominatorError
from .kernels import (ALPHA, BETA, DEFAULT_QUADRATURE, PHI, PHI_SECOND, PSI, SQRT_PI,
                      QuadratureSpec, _V_RATE)

SINGULAR_THRESHOLD = 1e-12
# absolute rounding floor of a periodic convolution of e^(w - mean w), per
# unit of its mean modulus: the inverse FFT spreads the rounding of the
# largest terms over every node (for a circle step of height 20, |den| on
# the low side lands on multiples of 2^-25, about 0.55 of this floor)
FFT_ROUNDING_FLOOR = np.finfo(float).eps
# aliases j of the lattice frequencies k + j*n kept in every multiplier
ALIASES = (-1, 0, 1)


@dataclass(frozen=True)
class HalfPlaneGrid:
    """Tensor grid on the upper half-plane: uniform x nodes (right endpoint
    excluded) and log-spaced y levels, ascending."""

    x_min: float
    x_max: float
    nx: int
    y_levels: np.ndarray = field(repr=False)

    def __post_init__(self):
        ys = np.ascontiguousarray(np.asarray(self.y_levels, dtype=float))
        object.__setattr__(self, "y_levels", ys)
        if self.nx < 64:
            raise DomainError(f"grid needs nx >= 64, got {self.nx}")
        if self.x_max <= self.x_min:
            raise DomainError("grid needs x_max > x_min")
        if ys.ndim != 1 or ys.size < 2:
            raise DomainError("need at least two y levels")
        if not (np.all(ys > 0) and np.all(np.diff(ys) > 0)):
            raise DomainError("y levels must be positive and strictly increasing")

    @staticmethod
    def build(x_min: float = 0.0, x_max: float = 1.0, nx: int = 2048,
              y_min: float = 1e-3, y_max: float = 4.0,
              levels_per_octave: int = 8) -> "HalfPlaneGrid":
        """Levels y_max * 2^(-k/levels_per_octave), descending until the
        first level <= y_min is included."""
        if y_min <= 0 or y_max <= y_min:
            raise DomainError("need 0 < y_min < y_max")
        K = int(np.ceil(levels_per_octave * np.log2(y_max / y_min) - 1e-9))
        ys = y_max * 2.0 ** (-np.arange(K, -1, -1) / levels_per_octave)
        return HalfPlaneGrid(x_min, x_max, nx, ys)

    @property
    def x(self) -> np.ndarray:
        return self.x_min + (self.x_max - self.x_min) * np.arange(self.nx) / self.nx

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def ny(self) -> int:
        return self.y_levels.size

    @property
    def y_min(self) -> float:
        return float(self.y_levels[0])


@dataclass(frozen=True)
class ExtensionField:
    """F = U + iV with its partials and complex derivatives on a grid.

    Arrays are (ny, nx), row j at height y_levels[j].  `gamma` holds the
    boundary curve at the x nodes.  `identity_residuals` records the sup of
    |U_y - V_x/2| and of |V_y - U_x - e^w * (phi''/2)_y| over the grid, the
    two-route consistency checks of the construction.
    """

    grid: HalfPlaneGrid
    datum: SampledFunction
    gamma: np.ndarray = field(repr=False)
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    U_x: np.ndarray = field(repr=False)
    V_x: np.ndarray = field(repr=False)
    U_y: np.ndarray = field(repr=False)
    V_y: np.ndarray = field(repr=False)
    F_z: np.ndarray = field(repr=False)
    F_zbar: np.ndarray = field(repr=False)
    identity_residuals: dict = field(default_factory=dict)
    partials_via: str = "kernel_identities"

    @property
    def F(self) -> np.ndarray:
        return self.U + 1j * self.V

    @property
    def jacobian(self) -> np.ndarray:
        return np.abs(self.F_z) ** 2 - np.abs(self.F_zbar) ** 2

    @property
    def periodic(self) -> bool:
        return self.datum.periodic


@dataclass(frozen=True)
class BeltramiField:
    """Complex dilatation samples on a half-plane (or disk) grid."""

    grid: object
    values: np.ndarray = field(repr=False)
    denom_mag: np.ndarray | None = field(default=None, repr=False)
    periodic: bool = False

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def quasiconformal(self) -> bool:
        return self.sup_norm < 1.0

    @property
    def denom_min(self) -> float:
        if self.denom_mag is None:
            return float("nan")
        return float(np.min(self.denom_mag))


# ---------------------------------------------------------------------------
# gamma

def _recentered(w: SampledFunction):
    """(wbar, ew): the mean of w and the weight e^(w - wbar) on the lattice."""
    wbar = complex(np.mean(w.values))
    return wbar, np.exp(w.values - wbar)


def _periodic_parts(w: SampledFunction):
    """Split gamma' = e^w into scale * (mhat + p0') with p0 periodic.

    Returns (scale, mhat, ew, p0) where scale = exp(mean w), ew is the
    recentered weight e^(w - mean w) on the lattice, mhat its mean, and p0
    the spectral antiderivative of ew - mhat with p0(start of lattice) = 0.
    """
    wbar, ew = _recentered(w)
    scale_const = np.exp(wbar)
    n = w.n
    L = w.domain.length
    spec = np.fft.fft(ew)
    k = np.fft.fftfreq(n, d=1.0 / n)
    divisor = 2j * np.pi * k / L
    divisor[0] = 1.0
    phat = spec / divisor
    phat[0] = 0.0
    p = np.fft.ifft(phat)
    p0 = p - p[0]
    mhat = spec[0] / n
    return scale_const, mhat, ew, p0


def _periodic_eval(w: SampledFunction, p0: np.ndarray, x):
    """Evaluate the periodic antiderivative part at arbitrary x (Fourier sum;
    p0 holds samples at the lattice nodes, which start at domain.a)."""
    n = w.n
    L = w.domain.length
    coef = np.fft.fft(p0) / n
    k = np.fft.fftfreq(n, d=1.0 / n)
    x = np.asarray(x, dtype=float) - w.domain.a
    phase = np.exp(2j * np.pi * np.outer(x, k) / L)
    return phase @ coef


def _cumulative_trapezoid(vals: np.ndarray, a: float, h: float):
    """Antiderivative from a of the piecewise-linear interpolant of vals on
    the lattice a + h*j.  Returns (nodes, at): its values at the lattice
    nodes, and a vectorised evaluator at points inside the lattice that
    integrates the partial cell exactly."""
    nodes = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * (h / 2))])

    def at(t):
        t = np.asarray(t, dtype=float)
        j = np.clip(np.floor((t - a) / h + 1e-12).astype(int), 0, vals.size - 2)
        d = t - (a + j * h)
        v_t = vals[j] + (vals[j + 1] - vals[j]) * (d / h)
        return nodes[j] + (vals[j] + v_t) * d / 2

    return nodes, at


def gamma_of(w: SampledFunction, x: float) -> complex:
    """Boundary curve value gamma(x) = integral of e^w over [0, x].

    Periodic data extend over all of R; plain line data must contain
    [0, x] (gamma(0) = 0 convention), integrated by cumulative trapezoid.
    """
    if w.periodic:
        scale_const, mhat, _, p0 = _periodic_parts(w)
        px = _periodic_eval(w, p0, [x, 0.0])
        return complex(scale_const * (mhat * x + px[0] - px[1]))
    a, b = w.domain.a, w.domain.b
    lo, hi = min(0.0, x), max(0.0, x)
    if lo < a - 1e-12 or hi > b + 1e-12:
        raise CoverageError(
            f"gamma_of needs [{lo:.6g}, {hi:.6g}] inside [{a:.6g}, {b:.6g}]",
            missing=(lo, hi),
        )
    _, at = _cumulative_trapezoid(np.exp(w.values), a, w.h)
    return complex(at(x) - at(0.0))


# ---------------------------------------------------------------------------
# convolution engines

class _CirclePlan:
    """The datum-independent part of the periodic engine, for one data
    lattice and one grid: the resolution guard, the lattice frequencies,
    the grid nodes in periods from the first lattice node, and the kernel
    multiplier tables.

    A grid that spans one period with nx dividing n folds the frequencies
    modulo nx: a kernel's table sums its aliases, each with the phase of
    the first grid node, into one (ny, n) array, and each datum then takes
    one length-nx inverse FFT per level.  Any other uniform grid keeps one
    table per alias and sums the Fourier series directly, in chunks of x
    nodes.
    """

    def __init__(self, w: SampledFunction, grid: HalfPlaneGrid, q: QuadratureSpec):
        n, L = w.n, w.domain.length
        nodes_at_bottom = 2 * kq.TRUNCATION_RADIUS * grid.y_min * n / L
        if nodes_at_bottom < q.min_samples_per_window - 1e-9:
            raise ResolutionError(
                f"data lattice gives {nodes_at_bottom:.1f} samples per window at "
                f"y={grid.y_min:g}; need {q.min_samples_per_window} "
                f"(refine the datum or raise y_min)"
            )
        self.grid = grid
        self.n = n
        self.period = L
        self.freq = np.fft.fftfreq(n, d=1.0 / n)
        # grid nodes in periods from the first lattice node
        self.x_rel = (grid.x - w.domain.a) / L
        self.fold = abs((grid.x_max - grid.x_min) - L) < 1e-12 and n % grid.nx == 0
        self._aliased = [self.freq + j * n for j in ALIASES]

    def table(self, *kerns) -> np.ndarray:
        """The multiplier tables of `kerns`, stacked on the first axis:
        (len(kerns), ny, n) when folding, else (len(kerns), len(ALIASES),
        ny, n)."""
        ny, n = self.grid.ny, self.n
        y_per_period = self.grid.y_levels[:, None] / self.period
        if self.fold:
            out = np.zeros((len(kerns), ny, n), dtype=complex)
            for xi in self._aliased:
                nu = xi * y_per_period
                phase = np.exp(2j * np.pi * xi * self.x_rel[0])
                for t, kern in zip(out, kerns):
                    t += kq.multiplier(kern, nu) * phase
            return out
        out = np.empty((len(kerns), len(ALIASES), ny, n), dtype=complex)
        for a, xi in enumerate(self._aliased):
            nu = xi * y_per_period
            for k, kern in enumerate(kerns):
                out[k, a] = kq.multiplier(kern, nu)
        return out

    def apply(self, table: np.ndarray, spectra: np.ndarray, aliased=None) -> np.ndarray:
        """(1/n) * sum over the columns c of table[..., c] * spectra[..., c]
        * exp(2 pi i xi_c x_rel) at the grid's x nodes, for lattice
        frequencies xi_c and their aliases; `spectra` holds FFTs of lattice
        data and broadcasts against the table without its alias axis.  The
        result has shape (..., rows, nx).  A table that does not fold has
        one alias row per frequency array in `aliased` (default: all)."""
        n, nx = self.n, self.grid.nx
        if self.fold:
            acc = np.multiply(table, spectra)
            if n != nx:
                acc = acc.reshape(acc.shape[:-1] + (n // nx, nx)).sum(axis=-2)
            acc = np.fft.ifft(acc, axis=-1)
            if n != nx:
                acc *= nx / n
            return acc
        out = 0
        chunk = self.grid.ny  # keeps each phase block at (n, ny)
        for a, xi in enumerate(self._aliased if aliased is None else aliased):
            T = spectra * table[..., a, :, :]
            part = [T @ np.exp(2j * np.pi * np.outer(xi, self.x_rel[i:i + chunk]))
                    for i in range(0, nx, chunk)]
            out = out + np.concatenate(part, axis=-1)
        return out / n


class _Engine:
    """Single-kernel views of an engine's `convolutions`, which returns
    two sequences of (ny, nx) arrays, one per kernel asked for."""

    def conv_ew(self, kern) -> np.ndarray:
        return self.convolutions((kern,), ())[0][0]

    def conv_gamma(self, kern) -> np.ndarray:
        return self.convolutions((), (kern,))[1][0]

    def conv_both(self, kern):
        """(conv_ew(kern), conv_gamma(kern))."""
        on_ew, on_gamma = self.convolutions((kern,), (kern,))
        return on_ew[0], on_gamma[0]


class _CircleEngine(_Engine):
    """Every lattice convolution of one periodic datum, on all levels at
    once: the FFTs of e^(w - mean w) and of p0, times a plan's tables.
    The convolutions against gamma cover its periodic part p0; `scale` and
    `mhat` carry the linear part, which extend adds in closed form."""

    def __init__(self, w: SampledFunction, grid: HalfPlaneGrid, q: QuadratureSpec):
        self.plan = _CirclePlan(w, grid, q)
        self.grid = grid
        self.scale, self.mhat, self.ew, self.p0 = _periodic_parts(w)
        self._fft_ew = np.fft.fft(self.ew)
        self._fft_p0 = np.fft.fft(self.p0)

    def convolutions(self, ew_kernels=(), gamma_kernels=()):
        """The convolutions of e^(w - mean w) against each of `ew_kernels`
        and of p0 against each of `gamma_kernels`, as two lists of (ny, nx)
        arrays.  Each kernel's table is built once, applied to every
        spectrum that asks for it in one pass, and dropped before the next
        table is built."""
        asked = (ew_kernels, gamma_kernels)
        spectra = (self._fft_ew, self._fft_p0)
        out = ([None] * len(ew_kernels), [None] * len(gamma_kernels))
        for kern in dict.fromkeys(ew_kernels + gamma_kernels):
            which = [i for i, kernels in enumerate(asked) if kern in kernels]
            convs = self.plan.apply(self.plan.table(kern)[0],
                                    np.stack([spectra[i] for i in which])[:, None, :])
            for i, conv in zip(which, convs):
                out[i][asked[i].index(kern)] = conv
        return out

    def gamma_at_nodes(self):
        # the Fourier series of p0 itself: multiplier 1, no aliases
        plan = self.plan
        if plan.fold:
            table = np.exp(2j * np.pi * plan.freq * plan.x_rel[0])[None, :]
        else:
            table = np.ones((1, 1, plan.n))
        p0x = plan.apply(table, self._fft_p0, aliased=[plan.freq])[0]
        return self.scale * (self.mhat * self.grid.x + p0x)


# entries of one block of windows in the line engine: each real temporary
# of a block holds 128 kB, each complex one 256 kB
_BLOCK_ENTRIES = 2 ** 14


class _LineEngine(_Engine):
    """Windowed lattice sums for non-periodic data; gamma by cumulative
    trapezoid anchored at the left end (an additive constant, immaterial
    for the dilatation).  As on the circle, the sums run over the weight
    recentered by the mean of w, and `scale` = exp(mean w) restores it.

    The trapezoid sum at a node (x, y) runs over the lattice window
    [j0, j1] of [x - R y, x + R y], with half weights at both ends.  A
    level is summed in blocks of x nodes: every window of the level is read
    with the length of the longest, through a sliding view of the
    zero-padded data, and the entries past a window's own end get weight 0.
    The Gaussian exp(-s^2) / (sqrt(pi) y) times the weights, s = (x - t)/y,
    is computed once per block and shared by every kernel asked for; each
    kernel's polynomial factor is evaluated per entry and its product with
    the weighted data summed row by row.
    """

    # gamma has no linear part to add in closed form
    mhat = 0.0

    def __init__(self, w: SampledFunction, grid: HalfPlaneGrid, q: QuadratureSpec):
        self.w = w
        self.grid = grid
        self.wbar, self.ew = _recentered(w)
        self.scale = np.exp(self.wbar)
        self.gamma_lattice, _ = _cumulative_trapezoid(self.ew, w.domain.a, w.h)
        y_top = grid.y_levels[-1]
        R = kq.TRUNCATION_RADIUS
        lo = grid.x[0] - R * y_top
        hi = grid.x[-1] + R * y_top
        if lo < w.domain.a - 1e-12 or hi > w.domain.b + 1e-12:
            raise CoverageError(
                f"grid window [{lo:.6g}, {hi:.6g}] exits data domain "
                f"[{w.domain.a:.6g}, {w.domain.b:.6g}] at grid point "
                f"x={grid.x[0] if lo < w.domain.a else grid.x[-1]:.6g}, y={y_top:.6g}",
                missing=(lo, hi),
            )

    def _conv(self, data, *kernels) -> np.ndarray:
        """The window sums of `data` against each of `kernels` on every
        grid node, stacked: (len(kernels), ny, nx)."""
        grid, w = self.grid, self.w
        R = kq.TRUNCATION_RADIUS
        a, h, x = w.domain.a, w.h, grid.x
        out = np.empty((len(kernels), grid.ny, grid.nx), dtype=complex)
        if not kernels:
            return out
        for level, y in enumerate(grid.y_levels):
            j0 = np.maximum(0, np.ceil((x - R * y - a) / h - 1e-12).astype(int))
            j1 = np.minimum(w.n - 1, np.floor((x + R * y - a) / h + 1e-12).astype(int))
            last = j1 - j0  # the offset of each window's last node
            width = int(last.max()) + 1
            windows = sliding_window_view(
                np.concatenate([data, np.zeros(width, dtype=data.dtype)]), width)
            k = np.arange(width)
            # offsets from `ragged` on may lie past the end of some window
            ragged = int(last.min()) + 1
            rows = max(1, _BLOCK_ENTRIES // width)
            for i in range(0, grid.nx, rows):
                block = slice(i, i + rows)
                start, end = j0[block], last[block]
                s = (x[block, None] - (a + h * (start[:, None] + k))) / y
                g = np.exp(-np.square(s))
                g *= h / (SQRT_PI * y)
                g[:, 0] *= 0.5
                # a window of one node keeps its single half weight
                g[np.arange(end.size), end] *= np.where(end > 0, 0.5, 1.0)
                g[:, ragged:] *= k[ragged:] <= end[:, None]
                weighted = windows[start]  # advanced indexing: a copy
                weighted *= g
                for m, kern in enumerate(kernels):
                    out[m, level, block] = (kern.gauss_factor(s) * weighted).sum(axis=1)
        return out

    def convolutions(self, ew_kernels=(), gamma_kernels=()):
        """The window sums of e^(w - mean w) against each of `ew_kernels`
        and of gamma against each of `gamma_kernels`, one pass per data
        array, as two (len, ny, nx) stacks."""
        return self._conv(self.ew, *ew_kernels), self._conv(self.gamma_lattice, *gamma_kernels)

    def gamma_at_nodes(self):
        return self.scale * (np.interp(self.grid.x, self.w.x, self.gamma_lattice.real)
                             + 1j * np.interp(self.grid.x, self.w.x, self.gamma_lattice.imag))


def _engine(w: SampledFunction, grid: HalfPlaneGrid, q: QuadratureSpec):
    return (_CircleEngine if w.periodic else _LineEngine)(w, grid, q)


# ---------------------------------------------------------------------------
# field construction

def _require_finite(grid: HalfPlaneGrid, **fields):
    """Raise ResolutionError naming the first grid node where one of the
    (ny, nx) or (nx,) arrays in `fields` is not finite."""
    for name, a in fields.items():
        bad = ~np.isfinite(a)
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), a.shape)
            where = f"x = {grid.x[at[-1]]:.6g}"
            if a.ndim == 2:
                where += f", y = {grid.y_levels[at[0]]:.6g}"
            raise ResolutionError(
                f"e^w left floating range: {name} is not finite at {where}")


def extend(w: SampledFunction, grid: HalfPlaneGrid,
           q: QuadratureSpec = DEFAULT_QUADRATURE) -> ExtensionField:
    """Build the extension field of w with all partials on `grid`; a field
    that is not finite everywhere raises ResolutionError."""
    # e^w out of floating range shows as a non-finite field, reported below
    with np.errstate(all="ignore"):
        eng = _engine(w, grid, q)
        s, mhat = eng.scale, eng.mhat
        x = grid.x
        y = grid.y_levels[:, None]
        # one pass per data array on the line, one table per kernel on the
        # circle; every field is scaled in place
        on_ew, on_gamma = eng.convolutions((PHI, PSI, PHI_SECOND, ALPHA, BETA),
                                           (PHI, PSI, PHI_SECOND, _V_RATE))
        U_x, V_x, vy_check, F_zbar, F_z = on_ew
        U, V, U_y, V_y = on_gamma
        for f in on_ew:
            f *= s
        vy_check *= 0.5
        U += mhat * x
        U *= s
        V += mhat * y
        V *= s
        U_y *= (s / y) * 0.5
        V_y /= y
        V_y += mhat
        V_y *= s
        gamma = eng.gamma_at_nodes()
    _require_finite(grid, gamma=gamma, U=U, V=V, U_x=U_x, V_x=V_x, U_y=U_y, V_y=V_y,
                    F_z=F_z, F_zbar=F_zbar, vy_check=vy_check)

    residuals = {
        "uy_half_vx": float(np.max(np.abs(U_y - 0.5 * V_x))),
        "vy_identity": float(np.max(np.abs(V_y - U_x - vy_check))),
    }
    return ExtensionField(grid, w, gamma, U, V, U_x, V_x, U_y, V_y,
                          F_z, F_zbar, residuals)


def _local_real_means(w: SampledFunction, grid: HalfPlaneGrid) -> np.ndarray:
    """Mean of Re w over I(x, y) = (x-y, x+y) at every grid point (periodic
    data only; used to report the recentered denominator magnitude).  Grids
    whose x nodes are not the lattice nodes get the global mean."""
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
    base = np.roll(u, -shift)
    csum = np.concatenate([[0.0], np.cumsum(np.tile(base, 3))])
    for j, y in enumerate(grid.y_levels):
        m = int(np.floor(y / h))
        if 2 * m + 1 >= n:
            out[j] = global_mean  # window covers the whole period
            continue
        width = 2 * m + 1
        i = np.arange(grid.nx) + n  # center copy
        out[j] = (csum[i + m + 1] - csum[i - m]) / width
    return out


def _dilatation(grid: HalfPlaneGrid, num: np.ndarray, den: np.ndarray,
                mag_factor, floor: float, periodic: bool) -> BeltramiField:
    """mu = num / den with the checks of `beltrami`, computed in place of
    num; `mag_factor` turns |den| into the recorded denominator magnitude,
    and `floor` is the absolute rounding floor of den (0 where none is
    known)."""
    with np.errstate(all="ignore"):
        mu = np.divide(num, den, out=num)
        denom_mag = np.abs(den)
        denom_mag *= mag_factor
    ys = grid.y_levels
    flat = int(np.argmin(denom_mag))
    smallest = denom_mag.flat[flat]
    if smallest < SINGULAR_THRESHOLD:
        jj, ii = np.unravel_index(flat, denom_mag.shape)
        where = f"at (x, y) = ({grid.x[ii]:.6g}, {ys[jj]:.6g})"
        # the engine cannot tell a magnitude below the threshold from zero
        # where its rounding floor, recorded the same way, exceeds it
        noise = floor * float(np.broadcast_to(mag_factor, denom_mag.shape)[jj, ii])
        if noise >= SINGULAR_THRESHOLD:
            raise ResolutionError(
                f"dilatation denominator {smallest:.3e} {where} is below the "
                f"engine's rounding floor {noise:.3e} (e^w spans too wide a range)")
        raise SingularDenominatorError(
            f"dilatation denominator {smallest:.3e} below "
            f"{SINGULAR_THRESHOLD:g} {where}",
            x=float(grid.x[ii]), y=float(ys[jj]),
            magnitude=float(smallest),
        )
    _require_finite(grid, mu=mu, denom_mag=denom_mag)
    return BeltramiField(grid, mu, denom_mag, periodic=periodic)


def _dilatation_map(w0: SampledFunction, grid: HalfPlaneGrid, q: QuadratureSpec):
    """The map w -> beltrami(w, grid, q) for data on the lattice of w0.

    Periodic data share one plan and one stacked ALPHA/BETA table, built
    here; each datum then costs its own FFT, the products with the two
    tables and their inverse FFTs.  Line data build a `_LineEngine` per
    datum.
    """
    if not w0.periodic:
        def line_mu(w: SampledFunction) -> BeltramiField:
            # e^w out of floating range shows as a non-finite field
            with np.errstate(all="ignore"):
                eng = _LineEngine(w, grid, q)
                num, den = eng.convolutions((ALPHA, BETA))[0]
                mag_factor = np.exp(eng.wbar.real)  # back to |e^w * beta_y|
            # a window sum rounds relative to its own terms: no global floor
            return _dilatation(grid, num, den, mag_factor, 0.0, periodic=False)

        return line_mu

    plan = _CirclePlan(w0, grid, q)
    table = plan.table(ALPHA, BETA)
    periodic = abs((grid.x_max - grid.x_min) - w0.domain.length) < 1e-12

    def circle_mu(w: SampledFunction) -> BeltramiField:
        with np.errstate(all="ignore"):
            _, ew = _recentered(w)
            spectrum = np.fft.fft(ew)
            # one kernel at a time, so mu can take the numerator's place
            # without keeping a stacked (2, ny, nx) array alive per field
            num, den = (plan.apply(t, spectrum) for t in table)
            wbar_re = float(np.mean(w.values.real))
            mag_factor = np.exp(wbar_re - _local_real_means(w, grid))
            floor = FFT_ROUNDING_FLOOR * float(np.mean(np.abs(ew)))
        return _dilatation(grid, num, den, mag_factor, floor, periodic)

    return circle_mu


def beltrami(w: SampledFunction, grid: HalfPlaneGrid,
             q: QuadratureSpec = DEFAULT_QUADRATURE) -> BeltramiField:
    """Complex dilatation mu = (e^w * alpha_y) / (e^w * beta_y) on `grid`.

    The ratio is evaluated with the weight recentered by a constant (the
    mean of w), which leaves mu unchanged and keeps e^w in floating range.
    For periodic data the recorded denominator magnitude is the fully
    recentered |beta_y * e^(w - w_I(x,y))|; for line data it is
    |beta_y * e^w| itself.  A magnitude below 1e-12 raises
    SingularDenominatorError carrying the offending (x, y), unless the
    periodic engine's rounding floor there (FFT_ROUNDING_FLOOR * mean
    |e^(w - mean w)|, recorded the same way) is itself at least 1e-12: then
    the denominator is unresolved, not vanishing, and ResolutionError is
    raised.  A mu or magnitude that is not finite raises ResolutionError.
    """
    return _dilatation_map(w, grid, q)(w)


def beltrami_fd_oracle(extension: ExtensionField) -> BeltramiField:
    """Independent dilatation estimate by central differences of F.

    Second-order stencils in x (periodic wrap when the datum wraps) and in
    the non-uniform y levels; requires at least 3 levels per octave.
    """
    grid = extension.grid
    ys = grid.y_levels
    if ys.size < 3:
        raise ResolutionError("finite-difference oracle needs >= 3 y levels")
    ratios = ys[1:] / ys[:-1]
    if np.max(ratios) > 2.0 ** (1.0 / 3.0) + 1e-9:
        raise ResolutionError(
            "finite-difference oracle needs >= 3 y levels per octave; "
            f"coarsest spacing ratio is {np.max(ratios):.4f}"
        )
    F = extension.F
    hx = grid.hx
    if extension.periodic and abs((grid.x_max - grid.x_min) - extension.datum.domain.length) < 1e-12:
        # F is periodic only up to the period mass of gamma: F(x+1) = F(x) + mass
        scale_const, mhat, _, _ = _periodic_parts(extension.datum)
        mass = scale_const * mhat * extension.datum.domain.length
        F_plus = np.roll(F, -1, axis=1)
        F_plus[:, -1] += mass
        F_minus = np.roll(F, 1, axis=1)
        F_minus[:, 0] -= mass
        F_x = (F_plus - F_minus) / (2 * hx)
    else:
        F_x = np.gradient(F, hx, axis=1, edge_order=2)
    F_y = np.gradient(F, ys, axis=0, edge_order=2)
    F_zbar = 0.5 * (F_x + 1j * F_y)
    F_z = 0.5 * (F_x - 1j * F_y)
    mag = np.abs(F_z)
    if np.min(mag) < SINGULAR_THRESHOLD:
        jj, ii = np.unravel_index(int(np.argmin(mag)), mag.shape)
        raise SingularDenominatorError(
            "finite-difference F_z vanished",
            x=float(grid.x[ii]), y=float(ys[jj]), magnitude=float(np.min(mag)),
        )
    return BeltramiField(grid, F_zbar / F_z, mag, periodic=extension.periodic)


# ---------------------------------------------------------------------------
# classical box-kernel baseline

def classical_ba_extend(h: SampledFunction, r: float, grid: HalfPlaneGrid) -> ExtensionField:
    """Box-kernel extension baseline: U averages h over [x-y, x+y] and V is
    (r/2y) times the difference of the right and left half-window integrals.
    Partials are filled by central differences (flagged on the field)."""
    if r <= 0:
        raise DomainError(f"classical extension needs r > 0, got {r}")
    if not h.is_real:
        raise DomainError("classical extension needs a real-valued datum")
    hu = h.values.real
    if np.any(np.diff(hu) <= 0):
        raise DomainError("classical extension needs strictly increasing data")
    if h.periodic:
        raise DomainError("classical baseline is defined for line-interval data")
    a, b = h.domain.a, h.domain.b
    ys = grid.y_levels
    gx = grid.x
    lo_needed, hi_needed = gx[0] - ys[-1], gx[-1] + ys[-1]
    if lo_needed < a - 1e-12 or hi_needed > b + 1e-12:
        raise CoverageError(
            f"windows [{lo_needed:.6g}, {hi_needed:.6g}] exit data domain "
            f"[{a:.6g}, {b:.6g}]",
            missing=(lo_needed, hi_needed),
        )
    _, at = _cumulative_trapezoid(hu, a, h.h)
    y = ys[:, None]
    mid = at(gx)
    left = mid - at(gx - y)
    right = at(gx + y) - mid
    U = (left + right) / (2 * y) + 0j
    V = (r / (2 * y)) * (right - left) + 0j

    F = U + 1j * V
    U_x = np.gradient(U, grid.hx, axis=1, edge_order=2)
    V_x = np.gradient(V, grid.hx, axis=1, edge_order=2)
    U_y = np.gradient(U, ys, axis=0, edge_order=2)
    V_y = np.gradient(V, ys, axis=0, edge_order=2)
    F_x = U_x + 1j * V_x
    F_y = U_y + 1j * V_y
    gamma = np.interp(gx, h.x, hu) + 0j
    return ExtensionField(grid, h, gamma, U, V, U_x, V_x, U_y, V_y,
                          0.5 * (F_x - 1j * F_y), 0.5 * (F_x + 1j * F_y),
                          identity_residuals={},
                          partials_via="finite_differences")
