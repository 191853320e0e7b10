"""Real-space checks of the spectral field engine.

The engine (`qcheat.extension._SpectralPlan`) convolves on the Fourier side.
These oracles compute the same numbers in real space from the public kernel
values `Kernel.evaluator` and nothing else of the engine, so they stay
independent of the code they check:

- `window_sum`: the trapezoid lattice sum of line data against k_y over the
  window of half-width TRUNCATION_RADIUS * y, at one point;
- `block_window_sums`: the same sums on every node of a grid, vectorised;
- `periodic_point_sum`: the same sum for periodic data, over integer
  translates of the period, at one point;
- `convolve`: (e^w * k_y)(x) through one of the two;
- `numeric_moment`: a dense trapezoid of a kernel's moment;
- `beltrami_fd_oracle`: the dilatation by central differences of F.

Two oracles work on the Fourier side.  `alias_table`: the folding route's
multiplier rows summed alias by alias over every alias the plan's J
allows, from the public `kernels.multiplier` and public attributes of a
plan.  `gamma_of`: the boundary curve, by the dense Fourier series of e^w
on periodic data (and cell by cell on line data), from the samples alone.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import qcheat as qc
from qcheat import kernels as kq
from qcheat.extension import SINGULAR_THRESHOLD
from qcheat.kernels import SQRT_PI, TRUNCATION_RADIUS


def window_sum(w, data, kern, x, y, real=np.float64):
    """The trapezoid sum of data * k_y(x - t) over the lattice nodes t of
    line data w in [x - R y, x + R y], cut at the ends of the data, with
    the lattice, x and y taken in the floating type `real`."""
    R = TRUNCATION_RADIUS
    j0 = max(0, int(np.ceil((x - R * y - w.domain.a) / w.h - 1e-12)))
    j1 = min(w.n - 1, int(np.floor((x + R * y - w.domain.a) / w.h + 1e-12)))
    a = real(w.domain.a)
    h = (real(w.domain.b) - a) / (w.n - 1)
    t = a + h * np.arange(j0, j1 + 1)
    y = real(y)
    weights = np.full(t.size, h)
    weights[0] = weights[-1] = h / 2
    return np.dot(data[j0:j1 + 1] * weights, kern.evaluator((real(x) - t) / y) / y)


def block_window_sums(w, grid, data, kernels, block_entries=2 ** 14):
    """The window sums of `window_sum` on every node for each of `kernels`,
    stacked as (len(kernels), ny, nx), one level at a time in blocks of x
    nodes: every window of a level is read with the length of the longest
    through a sliding view of the zero-padded data, entries past a window's
    own end get weight 0, and the Gaussian times the trapezoid weights is
    computed once per block and shared by every kernel."""
    R = TRUNCATION_RADIUS
    a, h, x = w.domain.a, w.h, grid.x
    out = np.empty((len(kernels), grid.ny, grid.nx), dtype=complex)
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
        rows = max(1, block_entries // width)
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


def periodic_point_sum(w, kern, x, y, data) -> complex:
    """The trapezoid lattice sum h * sum_l data_l * sum_m k_y(x - t_l + m P)
    of periodic data w with period P, at one point."""
    period = w.domain.length
    h = period / w.n
    t = w.domain.a + h * np.arange(w.n)
    delta = ((x - t + period / 2) % period) - period / 2
    m_max = int(np.ceil(TRUNCATION_RADIUS * y / period)) + 3
    m = np.arange(-m_max, m_max + 1) * period
    kern_vals = (kern.evaluator((delta[None, :] + m[:, None]) / y) / y).sum(axis=0)
    return complex(h * np.dot(data, kern_vals))


def convolve(w, kern, x, y) -> complex:
    """(e^w * k_y)(x) by the lattice sum of the data's kind."""
    data = np.exp(w.values)
    if w.periodic:
        return periodic_point_sum(w, kern, x, y, data)
    return complex(window_sum(w, data, kern, x, y))


def gamma_of(w, x: float) -> complex:
    """gamma(x), the integral of e^w over [0, x]: for periodic data that of
    the Fourier series of the samples of e^w, term by term; for line data,
    which must contain [0, x], that of their piecewise-linear interpolant,
    summed exactly over the part of each lattice cell inside [0, x]."""
    ew = np.exp(w.values)
    a = w.domain.a
    if w.periodic:
        period = w.domain.length
        coef = np.fft.fft(ew) / w.n
        k = np.fft.fftfreq(w.n, d=1.0 / w.n)[1:]

        def wave(t):
            return np.exp(2j * np.pi * k * (t - a) / period)

        return complex(coef[0] * x + np.sum(coef[1:] * (wave(x) - wave(0.0))
                                            * (period / (2j * np.pi * k))))
    w.domain.require_covers(min(0.0, x), max(0.0, x))
    t = a + w.h * np.arange(w.n)
    slope = np.diff(ew) / w.h

    def interpolant(s):
        return ew[:-1] + slope * (s - t[:-1])

    lo, hi = np.clip(min(0.0, x), t[:-1], t[1:]), np.clip(max(0.0, x), t[:-1], t[1:])
    total = complex(np.sum((hi - lo) * (interpolant(lo) + interpolant(hi)) / 2))
    return total if x >= 0 else -total


def alias_table(plan, *kerns):
    """The multiplier rows of `kerns` on every level and all n lattice slots
    of a folding plan, (len(kerns), ny, n), summed alias by alias over every
    alias |j| <= J: the oracle for the plan's banded `entries`."""
    n = plan.n
    y_per_period = plan.grid.y_levels[:, None] / plan.period
    out = np.zeros((len(kerns), plan.grid.ny, n), dtype=complex)
    for j in range(-plan.J, plan.J + 1):
        xi = plan.freq + j * n
        nu = xi * y_per_period
        phase = np.exp(2j * np.pi * xi * plan.x_rel[0])
        for t, kern in zip(out, kerns):
            t += kq.multiplier(kern, nu) * phase
    return out


def numeric_moment(kern, order: int = 0, R: float = 10.0, n: int = 40001) -> complex:
    """Dense trapezoid of s^order * k(s) over [-R, R]."""
    s = np.linspace(-R, R, n)
    return complex(np.trapezoid(s ** order * kern.evaluator(s), s))


def beltrami_fd_oracle(extension) -> qc.BeltramiField:
    """The dilatation F_zbar / F_z by central differences of F: second
    order in x (across the seam when the grid spans one period of periodic
    data) and in the non-uniform y levels, which need at least 3 levels
    per octave."""
    grid = extension.grid
    ys = grid.y_levels
    if ys.size < 3:
        raise qc.ResolutionError("finite-difference oracle needs >= 3 y levels")
    ratios = ys[1:] / ys[:-1]
    if np.max(ratios) > 2.0 ** (1.0 / 3.0) + 1e-9:
        raise qc.ResolutionError(
            "finite-difference oracle needs >= 3 y levels per octave; "
            f"coarsest spacing ratio is {np.max(ratios):.4f}")
    F = extension.F
    hx = grid.hx
    datum = extension.datum
    if datum.periodic and grid.spans_period(datum.domain.length):
        # F(x + P) = F(x) + the period mass of gamma, the integral of e^w
        mass = datum.domain.length * np.mean(np.exp(datum.values))
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
        raise qc.SingularDenominatorError(
            "finite-difference F_z vanished",
            x=float(grid.x[ii]), y=float(ys[jj]), magnitude=float(np.min(mag)))
    return qc.BeltramiField(grid, F_zbar / F_z, mag, periodic=extension.periodic)
