"""Extension fields on the upper half-plane and their complex dilatations.

Given a boundary datum w, the boundary curve is gamma(x) = integral of e^w
from 0 to x, and the extension is F = U + iV with U = gamma * phi_y and
V = gamma * psi_y.  The partials come from the kernel identities

    U_x = e^w * phi_y            V_x = e^w * psi_y
    U_y = gamma * d(phi_y)/dy    V_y = gamma * d(psi_y)/dy

and the complex derivatives from the fixed kernels Alpha and Beta:

    F_zbar = e^w * alpha_y       F_z = e^w * beta_y
    mu = F_zbar / F_z

Every kernel is a combination of heat-kernel derivatives with a closed-form
Fourier multiplier (see `kernels`), so by Poisson summation the trapezoid
lattice sum of n samples f with period P against k_y is

    (1/n) sum_l fft(f)_l sum_j k^((l + j n) y / P) e^(2 pi i (l + j n)(x - a) / P)

over the lattice frequencies l and their aliases l + j n, |j| <= J, where
k^ is the kernel's multiplier and a the first lattice node.  One spectral
engine evaluates it for all data: a `_SpectralPlan` holds what the lattice
and the grid fix, and the datum adds its FFTs, their products with the
multipliers and the inverse transforms (a holomorphy probe shares one plan
over all of its fields).  Both of the plan's routes follow one band rule: a
level sums only the aliases whose Gaussian factor it leaves above e^-64.

For circle data gamma splits into a linear part (integrated in closed form)
plus a periodic part p0 obtained by spectral antiderivative; the vertical
partials are convolved against p0 and the horizontal ones against e^w.  On
the lattice frequencies p0 is an exact antiderivative of e^w, so the
recorded identity residuals see only the aliases and rounding.

Line data on [a, b] are taken as one period, of length n h, of a periodic
lattice, and gamma (by cumulative trapezoid) is convolved itself.  The
coverage check keeps every window of half-width 8y around a grid node
inside [a, b], so the seam and every translate of the data lie at least
8y from the node, where the kernels are below e^-64 of their peak: the
periodised lattice sum is the window sum to rounding.  The real-space
checks of the engine are the point-wise lattice sum in `kernels` and the
window sums in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels as kq
from .data import SampledFunction
from .errors import CoverageError, DomainError, ResolutionError, SingularDenominatorError
from .kernels import (ALPHA, BETA, DEFAULT_QUADRATURE, PHI, PHI_SECOND, PSI, QuadratureSpec,
                      _V_RATE)

SINGULAR_THRESHOLD = 1e-12
# absolute rounding floor of a spectral convolution of e^(w - mean w), per
# unit of its mean modulus: the inverse FFT spreads the rounding of the
# largest terms over every node (for a circle step of height 20, |den| on
# the low side lands on multiples of 2^-25, about 0.55 of this floor)
FFT_ROUNDING_FLOOR = np.finfo(float).eps


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
# convolution engine

_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter for doubles
_CHUNK_ENTRIES = 2 ** 14  # FFT entries per chunk of chirp-z levels: 256 kB


def _turns(a, b):
    """a * b modulo 1, in [-1/2, 1/2], from the error-free product of a and
    b (Dekker 1971): exact to rounding where a * b reaches 2^40 turns."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return (p - np.round(p)) + err


def _cis(turns):
    return np.exp(2j * np.pi * turns)


def _fast_len(m: int) -> int:
    """The smallest 5-smooth integer >= m, an FFT length that pocketfft
    transforms without a Bluestein pass of its own."""
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class _SpectralPlan:
    """The datum-independent part of the engine, for one data lattice and
    one grid.  Circle data must leave `min_samples_per_window` lattice
    nodes in a window of half-width 8 y_min, line data one; J is the
    smallest J >= 1 whose first omitted alias carries
    exp(-pi^2 ((J + 1/2) n y_min / P)^2) < e^-64.

    The aliased frequencies f = f0 + m, 0 <= m < (2J + 1) n, are
    contiguous, and both routes sum, per chunk of levels, only the band of
    them whose Gaussian factor stays above e^-64 at the chunk's lowest
    level.  A grid that spans one period with nx dividing n folds the
    frequencies modulo nx: a kernel's table adds its band's multipliers,
    each with the phase of the first grid node, into the n slots f mod n of
    one (ny, n) array, and a datum takes one length-nx inverse FFT per
    level.  Every other grid takes one chirp-z transform per level
    (Bluestein): the nodes x_rel = x0 + i d (in periods) are uniform, so
    f x_rel = f x0 + f0 i d + (m^2 + i^2 - (m - i)^2) d / 2 and the sum
    over m is a convolution with the chirp exp(-pi i d k^2).  The plan
    holds the pre- and post-chirps and, per chunk, the FFT of the chirp
    filter over the band, every phase reduced modulo 1 by `_turns`.
    """

    def __init__(self, w: SampledFunction, grid: HalfPlaneGrid, q: QuadratureSpec):
        n, R = w.n, kq.TRUNCATION_RADIUS
        period = w.domain.length if w.periodic else n * w.h
        if not w.periodic:
            y_top = grid.y_levels[-1]
            lo = grid.x[0] - R * y_top
            hi = grid.x[-1] + R * y_top
            if lo < w.domain.a - 1e-12 or hi > w.domain.b + 1e-12:
                raise CoverageError(
                    f"grid window [{lo:.6g}, {hi:.6g}] exits data domain "
                    f"[{w.domain.a:.6g}, {w.domain.b:.6g}] at grid point "
                    f"x={grid.x[0] if lo < w.domain.a else grid.x[-1]:.6g}, y={y_top:.6g}",
                    missing=(lo, hi),
                )
        # circle data keep the guard; line data need one node, which bounds J
        need = q.min_samples_per_window if w.periodic else 1
        nodes_at_bottom = 2 * R * grid.y_min * n / period
        if nodes_at_bottom < need - 1e-9:
            raise ResolutionError(
                f"data lattice gives {nodes_at_bottom:.1f} samples per window at "
                f"y={grid.y_min:g}; need {need} "
                f"(refine the datum or raise y_min)"
            )
        self.grid = grid
        self.n = n
        self.period = period
        self.J = J = max(1, int(np.ceil(8 * period / (np.pi * n * grid.y_min) - 0.5)))
        self.freq = np.fft.fftfreq(n, d=1.0 / n)
        # grid nodes in periods from the first lattice node
        self.x_rel = (grid.x - w.domain.a) / period
        self.fold = (w.periodic and abs((grid.x_max - grid.x_min) - period) < 1e-12
                     and n % grid.nx == 0)
        # the aliased frequencies f = f0 + m, 0 <= m < (2J + 1) n, ascending
        self._f0 = f0 = -(n // 2) - J * n
        m = np.arange((2 * J + 1) * n)
        self._f = (f0 + m).astype(float)
        if not self.fold:
            self._slot = (f0 + m) % n
            self._half = half = grid.hx / period / 2  # d / 2, halved before any product
            m = m.astype(float)
            self._pre = _cis(_turns(self._f, self.x_rel[0]) + _turns(m * m, half))
            i = np.arange(grid.nx, dtype=float)
            self._post = _cis(_turns(f0 * i, 2 * half) + _turns(i * i, half)) / n
        # chunks of levels, each with the band of m whose Gaussian factor
        # exp(-pi^2 nu^2) stays above e^-64 at its lowest level and, off a
        # folding grid, the FFT of the band's chirp filter; a chunk holds
        # about _CHUNK_ENTRIES table entries or chirp-z FFT entries
        self._chunks = []
        i = 0
        while i < grid.ny:
            top = int(8 * period / (np.pi * grid.y_levels[i]))
            band = slice(max(0, -top - f0), min(self._f.size, top - f0 + 1))
            chirp = None if self.fold else self._chirp(band)
            rows = max(1, _CHUNK_ENTRIES // (band.stop - band.start if self.fold else chirp.size))
            self._chunks.append((slice(i, i + rows), band, chirp))
            i += rows

    def _chirp(self, band: slice) -> np.ndarray:
        """The FFT of the chirp filter that sums over the band [lo, hi) of
        m: the filter exp(-pi i d (k - lo)^2) at every k in [lo - hi + 1,
        nx), on an FFT of 5-smooth length."""
        nx = self.grid.nx
        size = _fast_len(band.stop - band.start + nx - 1)
        k = np.arange(size, dtype=float)
        k[nx:] -= size
        k -= band.start
        return np.fft.fft(_cis(-_turns(k * k, self._half)))

    def table(self, *kerns):
        """What `apply` takes for each of `kerns`: on a folding grid its
        multiplier table, stacked as (len(kerns), ny, n); otherwise the
        kernel itself, whose multipliers `apply` evaluates level by level.

        A table entry sums the multipliers of the aliases f of its lattice
        frequency, each with the phase of the first grid node, in ascending
        f; a level takes only the aliases in its chunk's band.  The band's
        frequencies are contiguous, so they fall into the slots f mod n in
        runs that end where f crosses a multiple of n."""
        if not self.fold:
            return kerns
        n, ys = self.n, self.grid.y_levels / self.period
        out = np.zeros((len(kerns), self.grid.ny, n), dtype=complex)
        for levels, band, _ in self._chunks:
            f = self._f[band]
            phase = np.exp(2j * np.pi * f * self.x_rel[0])
            nu = ys[levels, None] * f
            for t, kern in zip(out, kerns):
                mult = kq.multiplier(kern, nu)
                mult *= phase
                lo = band.start
                while lo < band.stop:
                    slot = (self._f0 + lo) % n
                    hi = min(band.stop, lo + n - slot)
                    t[levels, slot:slot + hi - lo] += mult[:, lo - band.start:hi - band.start]
                    lo = hi
        return out

    def apply(self, table, spectra: np.ndarray) -> np.ndarray:
        """(1/n) * sum over the aliased frequencies f of k^(f y / P) *
        spectra[..., f mod n] * exp(2 pi i f x_rel) at every grid node,
        for one entry of `table`; `spectra` holds FFTs of lattice data, and
        the result has shape (..., ny, nx)."""
        n, nx = self.n, self.grid.nx
        if self.fold:
            acc = np.multiply(table, spectra[..., None, :])
            if n != nx:
                acc = acc.reshape(acc.shape[:-1] + (n // nx, nx)).sum(axis=-2)
            acc = np.fft.ifft(acc, axis=-1)
            if n != nx:
                acc *= nx / n
            return acc
        # the zero frequency is added exactly, so that the chirp-z rounds
        # relative to the oscillating part of the data
        weighted = spectra[..., self._slot] * self._pre
        weighted[..., self.J * n + n // 2] = 0
        ys = self.grid.y_levels / self.period
        out = np.empty(spectra.shape[:-1] + (ys.size, nx), dtype=complex)
        for levels, band, chirp in self._chunks:
            nu = ys[levels, None] * self._f[band]
            out[..., levels, :] = self._czt(weighted[..., None, band] * kq.multiplier(table, nu),
                                            chirp)
        out += (spectra[..., 0, None, None] / n) * kq.multiplier(table, 0.0)
        return out

    def series(self, spectrum: np.ndarray) -> np.ndarray:
        """(1/n) * sum over the n lattice frequencies of spectrum * exp(2 pi
        i f x_rel): the lattice data's own Fourier series at the x nodes."""
        if self.fold:
            return self.apply(np.exp(2j * np.pi * self.freq * self.x_rel[0])[None, :],
                              spectrum)[0]
        base = slice(self.J * self.n, (self.J + 1) * self.n)
        return self._czt(spectrum[self._slot[base]] * self._pre[base], self._chirp(base))

    def _czt(self, a: np.ndarray, chirp: np.ndarray) -> np.ndarray:
        """The sums over m in a band of a[..., m] exp(2 pi i m i d) at the
        nodes i, times the post-chirp, for pre-chirped a and the band's
        chirp filter."""
        spec = np.fft.fft(a, chirp.size, axis=-1)
        spec *= chirp
        return np.fft.ifft(spec, axis=-1)[..., :self.grid.nx] * self._post


def _stepwise_fft(p: np.ndarray) -> np.ndarray:
    """fft(p) from the FFT of the steps p_(l+1) - p_l, (e^(2 pi i f / n) - 1)
    fft(p)_f, with the fall p_0 - p_(n-1) at the seam added in closed form:
    for gamma on a line the steps are exact, and the FFT rounds relative
    to them, not to the range of p."""
    n = p.size
    f = np.fft.fftfreq(n, d=1.0 / n)
    spec = np.fft.fft(np.diff(p, append=p[-1])) + (p[0] - p[-1]) * np.exp(2j * np.pi * f / n)
    half = np.pi * f / n
    with np.errstate(divide="ignore", invalid="ignore"):
        spec *= np.exp(-1j * half) / (2j * np.sin(half))
    spec[0] = p.sum()
    return spec


class _SpectralEngine:
    """Every lattice convolution of one datum, on all levels at once: the
    FFTs of e^(w - mean w) and of p0, applied through a plan.  For circle
    data p0 is the periodic part of gamma and `scale` and `mhat` carry the
    linear part, which extend adds in closed form; for line data p0 is
    gamma itself, by cumulative trapezoid anchored at the left end (an
    additive constant, immaterial for the dilatation), and `mhat` = 0."""

    def __init__(self, w: SampledFunction, grid: HalfPlaneGrid, q: QuadratureSpec):
        self.plan = _SpectralPlan(w, grid, q)
        self.w = w
        self.grid = grid
        if w.periodic:
            self.scale, self.mhat, self.ew, self.p0 = _periodic_parts(w)
            self._fft_p0 = np.fft.fft(self.p0)
        else:
            wbar, self.ew = _recentered(w)
            self.scale, self.mhat = np.exp(wbar), 0.0
            self.p0, _ = _cumulative_trapezoid(self.ew, w.domain.a, w.h)
            self._fft_p0 = _stepwise_fft(self.p0)
        self._fft_ew = np.fft.fft(self.ew)

    def convolutions(self, ew_kernels=(), gamma_kernels=()):
        """The convolutions of e^(w - mean w) against each of `ew_kernels`
        and of p0 against each of `gamma_kernels`, as two lists of (ny, nx)
        arrays.  Each kernel is applied to every spectrum that asks for it
        in one pass; on a folding grid its table is built once for them and
        dropped before the next is built."""
        asked = (ew_kernels, gamma_kernels)
        spectra = (self._fft_ew, self._fft_p0)
        out = ([None] * len(ew_kernels), [None] * len(gamma_kernels))
        for kern in dict.fromkeys(ew_kernels + gamma_kernels):
            which = [i for i, kernels in enumerate(asked) if kern in kernels]
            convs = self.plan.apply(self.plan.table(kern)[0],
                                    np.stack([spectra[i] for i in which]))
            for i, conv in zip(which, convs):
                out[i][asked[i].index(kern)] = conv
        return out

    def gamma_at_nodes(self):
        x = self.grid.x
        if self.w.periodic:
            return self.scale * (self.mhat * x + self.plan.series(self._fft_p0))
        t = self.w.x
        return self.scale * (np.interp(x, t, self.p0.real) + 1j * np.interp(x, t, self.p0.imag))


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
        eng = _SpectralEngine(w, grid, q)
        s, mhat = eng.scale, eng.mhat
        x = grid.x
        y = grid.y_levels[:, None]
        # each kernel's multipliers serve both spectra; fields scale in place
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


def _magnitude_factor(w0: SampledFunction, grid: HalfPlaneGrid):
    """The map u -> e^(mean u - mean of u over I(x, y) = (x - y, x + y)) at
    the grid points, for real data u on the lattice of periodic w0: the
    factor that turns |e^(w - mean w) * beta_y| into the recorded magnitude
    |e^(w - w_I) * beta_y|, u = Re w.  The windows are fixed here; a datum
    costs one cumulative sum, read in contiguous slices on the levels whose
    window is shorter than the period.  On every other level, and on every
    level of a grid whose x nodes are not the lattice nodes, w_I is the
    global mean and the factor is exactly 1."""
    n = w0.n
    h = w0.h
    offset = (grid.x_min - w0.domain.a) / h
    if (grid.nx != n or abs((grid.x_max - grid.x_min) - w0.domain.length) >= 1e-12
            or abs(offset - round(offset)) >= 1e-9):
        half_widths = []
    else:
        # the lowest levels: m grows with y
        half_widths = [int(m) for m in np.floor(grid.y_levels / h) if 2 * m + 1 < n]
    shift = int(round(offset)) % n

    def factor(u: np.ndarray) -> np.ndarray:
        # a full-size array, although only the window levels need one: with
        # a (levels, nx) array instead, each field of a probe left a hole in
        # the glibc heap (+30 MB of peak RSS over 21 reference-grid fields)
        out = np.ones((grid.ny, grid.nx))
        if half_widths:
            # the window of grid node i, lattice node i + shift, read in the
            # middle of three periods from a cumulative sum with a leading 0
            csum = np.concatenate([[0.0], np.cumsum(np.tile(np.roll(u, -shift), 3))])
            for row, m in zip(out, half_widths):
                np.subtract(csum[n + m + 1:n + m + 1 + grid.nx], csum[n - m:n - m + grid.nx],
                            out=row)
                row /= 2 * m + 1
            local = out[:len(half_widths)]
            np.subtract(float(np.mean(u)), local, out=local)
            np.exp(local, out=local)
        return out

    return factor


def _dilatation(grid: HalfPlaneGrid, num: np.ndarray, den: np.ndarray,
                mag_factor, floor: float, periodic: bool) -> BeltramiField:
    """mu = num / den with the checks of `beltrami`, computed in place of
    num; `mag_factor` turns |den| into the recorded denominator magnitude,
    and `floor` is the absolute rounding floor of den."""
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

    Every datum shares what the grid fixes, built here: one plan and its
    ALPHA/BETA entries (on a folding grid the stacked table) and, for
    circle data, the windows of the local means of Re w; each datum then
    costs its own FFT, the products with the multipliers, the inverse
    transforms and one cumulative sum of Re w.
    """
    plan = _SpectralPlan(w0, grid, q)
    table = plan.table(ALPHA, BETA)
    periodic = w0.periodic and abs((grid.x_max - grid.x_min) - w0.domain.length) < 1e-12
    circle_factor = _magnitude_factor(w0, grid) if w0.periodic else None

    def mu_of(w: SampledFunction) -> BeltramiField:
        # e^w out of floating range shows as a non-finite field
        with np.errstate(all="ignore"):
            _, ew = _recentered(w)
            spectrum = np.fft.fft(ew)
            # one kernel at a time, so mu can take the numerator's place
            # without keeping a stacked (2, ny, nx) array alive per field
            num, den = (plan.apply(t, spectrum) for t in table)
            # circle data: |e^(w - w_I) * beta_y|; line data: |e^w * beta_y|
            u = w.values.real
            mag_factor = circle_factor(u) if circle_factor else np.exp(float(np.mean(u)))
            floor = FFT_ROUNDING_FLOOR * float(np.mean(np.abs(ew)))
        return _dilatation(grid, num, den, mag_factor, floor, periodic)

    return mu_of


def beltrami(w: SampledFunction, grid: HalfPlaneGrid,
             q: QuadratureSpec = DEFAULT_QUADRATURE) -> BeltramiField:
    """Complex dilatation mu = (e^w * alpha_y) / (e^w * beta_y) on `grid`.

    The ratio is evaluated with the weight recentered by a constant (the
    mean of w), which leaves mu unchanged and keeps e^w in floating range.
    For periodic data the recorded denominator magnitude is the fully
    recentered |beta_y * e^(w - w_I(x,y))|; for line data it is
    |beta_y * e^w| itself.  A magnitude below 1e-12 raises
    SingularDenominatorError carrying the offending (x, y), unless the
    engine's rounding floor there (FFT_ROUNDING_FLOOR * mean
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
