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
multipliers and the inverse transforms.  Both of the plan's routes follow
one band rule: a level sums only the aliases whose Gaussian factor it
leaves above e^-64.  One walk of the plan (`_SpectralPlan.walk`) builds
every field, block by block of levels (8 levels of the reference grid):
a block evaluates the multiplier rows of every kernel asked for once,
over its band, and applies them to each datum's spectra in place; each
level is computed alone, so the block size changes no bit.
`extend_blocks` streams the extension field from that walk, which is how
the CLI writes it without holding a whole field, and `extend` fills its
arrays from the same blocks.  A dilatation map
(`_DilatationMap`, one per probe) walks the dilatation fields of the
data w0 + zeta*w1 at any number of zeta at once, each field's checks
running state decided after the last block: `beltrami_blocks` is the
walk of the map of w0 alone, which `beltrami` and the CLI's `beltrami`,
`carleson` and `transfer` consume.

For circle data gamma splits into a linear part (integrated in closed form)
plus a periodic part p0 obtained by spectral antiderivative; the vertical
partials are convolved against p0 and the horizontal ones against e^w.  On
the lattice frequencies p0 is an exact antiderivative of e^w, so the
recorded identity residuals see only the aliases and rounding.

Line data on [a, b] are taken as one period, of length n h, of a periodic
lattice, and gamma (by cumulative trapezoid, anchored at gamma(0) = 0,
so [a, b] must contain 0) is convolved itself.  The
coverage check keeps every window of half-width 8y around a grid node
inside [a, b], so the seam and every translate of the data lie at least
8y from the node, where the kernels are below e^-64 of their peak: the
periodised lattice sum is the window sum to rounding.  The real-space
checks of the engine, its lattice sums, gamma and a finite-difference
dilatation, are in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels as kq
from .data import SampledFunction
from .errors import DomainError, ResolutionError, SingularDenominatorError
from .funcspace import _prefix_sums
from .kernels import ALPHA, BETA, PHI, PHI_SECOND, PSI, _V_RATE

SINGULAR_THRESHOLD = 1e-12
# absolute rounding floor of a spectral convolution of e^(w - mean w), per
# unit of its mean modulus: the inverse FFT spreads the rounding of the
# largest terms over every node (for a circle step of height 20, |den| on
# the low side lands on multiples of 2^-25, about 0.55 of this floor)
FFT_ROUNDING_FLOOR = np.finfo(float).eps
# the fewest lattice nodes a window of circle data may hold
MIN_SAMPLES_PER_WINDOW = 32


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
        x_min, x_max = self.x_min, self.x_max
        if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
            raise DomainError(f"grid needs finite x_min < x_max, got {x_min}, {x_max}")
        if ys.ndim != 1 or ys.size < 2:
            raise DomainError("need at least two y levels")
        if not (np.all(np.isfinite(ys)) and np.all(ys > 0) and np.all(np.diff(ys) > 0)):
            raise DomainError("y levels must be finite, positive and strictly increasing")

    @staticmethod
    def build(x_min: float = 0.0, x_max: float = 1.0, nx: int = 2048,
              y_min: float = 1e-3, y_max: float = 4.0,
              levels_per_octave: int = 8) -> "HalfPlaneGrid":
        """Levels y_max * 2^(-k/levels_per_octave), descending until the
        first level <= y_min is included."""
        if not (np.isfinite(y_min) and np.isfinite(y_max) and 0 < y_min < y_max):
            raise DomainError(f"need finite 0 < y_min < y_max, got {y_min}, {y_max}")
        if levels_per_octave < 1:
            raise DomainError(f"need levels_per_octave >= 1, got {levels_per_octave}")
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

    def spans_period(self, period: float) -> bool:
        """Whether the x nodes cover exactly one period of length `period`."""
        return abs((self.x_max - self.x_min) - period) < 1e-12


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


# ---------------------------------------------------------------------------
# convolution engine

_SPLIT = 2.0 ** 27 + 1  # Dekker's splitter for doubles
_CHUNK_ENTRIES = 2 ** 14  # FFT entries per chunk of chirp-z levels: 256 kB


def _two_product(a, b):
    """(p, err) with p = fl(a * b) and p + err = a * b exactly (Dekker
    1971), wherever no split overflows and no partial product underflows."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _turns(a, b):
    """a * b modulo 1, in [-1/2, 1/2], from the error-free product of a and
    b: exact to rounding where a * b reaches 2^40 turns."""
    p, err = _two_product(a, b)
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
    one grid.  The window rule: a window of half-width 8 y_min must hold
    MIN_SAMPLES_PER_WINDOW lattice nodes of circle data, or one of line
    data.  J is the smallest J >= 1 whose first omitted alias carries
    exp(-pi^2 ((J + 1/2) n y_min / P)^2) < e^-64.

    The aliased frequencies f = f0 + m, 0 <= m < (2J + 1) n, are
    contiguous, and both routes sum, per chunk of levels, only the band of
    them whose Gaussian factor stays above e^-64 at the chunk's lowest
    level.  A grid that spans one period with nx dividing n folds the
    frequencies modulo nx: a kernel's rows add its band's multipliers,
    each with the phase of the first grid node, into the slots f mod n,
    and a datum takes one length-nx inverse FFT per level.  Every other
    grid takes one chirp-z transform per level (Bluestein): the nodes
    x_rel = x0 + i d (in periods) are uniform, so f x_rel = f x0 + f0 i d
    + (m^2 + i^2 - (m - i)^2) d / 2 and the sum over m is a convolution
    with the chirp exp(-pi i d k^2).  The plan holds the pre- and
    post-chirps and, per chunk, the FFT of the chirp filter over the band,
    every phase reduced modulo 1 by `_turns`.

    Both routes work in blocks of at most _CHUNK_ENTRIES / nx levels
    (`blocks`), each inside one chunk, and one `walk` over the blocks
    serves every convolution: a block evaluates each kernel's multiplier
    rows once (`entries`), applies them to every datum and writes its
    levels of the result in place, and every level is computed alone, so
    the block size changes no bit.
    """

    def __init__(self, w: SampledFunction, grid: HalfPlaneGrid):
        n, R = w.n, kq.TRUNCATION_RADIUS
        period = w.domain.length if w.periodic else n * w.h
        y_top = grid.y_levels[-1]
        w.domain.require_covers(grid.x[0] - R * y_top, grid.x[-1] + R * y_top, "grid window")
        # one node per window of line data bounds J
        need = MIN_SAMPLES_PER_WINDOW if w.periodic else 1
        nodes = 2 * R * grid.y_min / w.h
        if nodes < need - 1e-9:
            raise ResolutionError(
                f"data lattice gives {nodes:.1f} samples per window at "
                f"y={grid.y_min:g}; need {need} (refine the datum or raise y_min)")
        self.grid = grid
        self.n = n
        self.period = period
        self.J = J = max(1, int(np.ceil(8 * period / (np.pi * n * grid.y_min) - 0.5)))
        self.freq = np.fft.fftfreq(n, d=1.0 / n)
        # grid nodes in periods from the first lattice node, levels in periods
        self.x_rel = (grid.x - w.domain.a) / period
        self._ys = grid.y_levels / period
        self.fold = w.periodic and grid.spans_period(period) and n % grid.nx == 0
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
        # about _CHUNK_ENTRIES multiplier entries or chirp-z FFT entries
        self._chunks = []
        i = 0
        while i < grid.ny:
            top = int(8 * period / (np.pi * grid.y_levels[i]))
            band = slice(max(0, -top - f0), min(self._f.size, top - f0 + 1))
            chirp = None if self.fold else self._chirp(band)
            rows = max(1, _CHUNK_ENTRIES // (band.stop - band.start if self.fold else chirp.size))
            self._chunks.append((slice(i, min(i + rows, grid.ny)), band, chirp))
            i += rows
        # the most levels a block holds
        self.block_rows = max(levels.stop - levels.start for levels, _, _ in self.blocks())

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

    def blocks(self):
        """The blocks of levels, as (levels, band, chirp): at most
        max(1, _CHUNK_ENTRIES // nx) levels each (8 on the reference grid),
        never across a chunk, whose band and chirp filter they share."""
        step = max(1, _CHUNK_ENTRIES // self.grid.nx)
        for levels, band, chirp in self._chunks:
            for i in range(levels.start, levels.stop, step):
                yield slice(i, min(i + step, levels.stop)), band, chirp

    def entries(self, block, *kerns, out=None):
        """The multiplier rows of each of `kerns` on the levels of `block`
        over its band, each evaluated once, kernel by kernel as (rows,
        size) arrays: off a folding grid as they are (size the band's
        width); on a folding grid scattered into all n lattice slots (size
        n), stacked in the leading rows of `out` if given.

        A slot's entry sums the multipliers of the band's aliases f that
        fall into it, each with the phase of the first grid node, in
        ascending f, and is 0 where none falls.  The band's frequencies are
        contiguous, so they fall into the slots in pieces that end where f
        crosses a multiple of n."""
        levels, band, _ = block
        f = self._f[band]
        nu = self._ys[levels, None] * f
        if not self.fold:
            return [kq.multiplier(kern, nu) for kern in kerns]
        phase = np.exp(2j * np.pi * f * self.x_rel[0])
        shape = (len(kerns), nu.shape[0], self.n)
        out = np.empty(shape, dtype=complex) if out is None else out[:shape[0], :shape[1]]
        out.fill(0)
        for t, kern in zip(out, kerns):
            mult = kq.multiplier(kern, nu)
            mult *= phase
            lo = band.start
            while lo < band.stop:
                at = (self._f0 + lo) % self.n
                hi = min(band.stop, lo + self.n - at)
                t[:, at:at + hi - lo] += mult[:, lo - band.start:hi - band.start]
                lo = hi
        return out

    def weigh(self, spectra: np.ndarray) -> np.ndarray:
        """`spectra`, FFTs of lattice data, as `walk` reads them: on a
        folding grid as they are; otherwise at the aliased frequencies
        times the pre-chirp, with the zero frequency set to 0 and its term
        spectra[..., 0] / n appended last.  `walk` adds that term
        exactly, so that the chirp-z rounds relative to the oscillating
        part of the data."""
        if self.fold:
            return spectra
        weighted = np.empty(spectra.shape[:-1] + (self._f.size + 1,), dtype=complex)
        np.multiply(spectra[..., self._slot], self._pre, out=weighted[..., :-1])
        weighted[..., self.J * self.n + self.n // 2] = 0
        weighted[..., -1] = spectra[..., 0] / self.n
        return weighted

    def walk(self, data):
        """The convolutions of `data`, items (weighed, kernels, outs) of
        `weigh`ed spectra (..., N) and one buffer (..., `block_rows`, nx) a
        kernel.  For each block of levels, ascending, it builds the
        `entries` of every kernel named once, on a folding grid in one rows
        buffer that every block reuses, and yields (levels, convs):
        `convs` gives, item by item as read, each kernel's (1/n) * sum over
        the aliased frequencies f of k^(f y / P) * spectra[..., f mod n] *
        exp(2 pi i f x_rel) at the grid nodes on the levels, written into
        the leading rows of its buffer.  Items may share buffers, and blocks
        the rows: read an item before the next item or block overwrites it."""
        kernels = tuple(dict.fromkeys(k for _, kerns, _ in data for k in kerns))
        rows = (np.empty((len(kernels), self.block_rows, self.n), dtype=complex)
                if self.fold else None)
        for block in self.blocks():
            with np.errstate(all="ignore"):
                entries = dict(zip(kernels, self.entries(block, *kernels, out=rows)))
            yield block[0], (self._apply(block, entries, *item) for item in data)

    def _apply(self, block, entries, weighed, kerns, outs):
        levels, band, chirp = block
        outs = [out[..., :levels.stop - levels.start, :] for out in outs]
        # e^w out of floating range shows as a field the consumer reports
        with np.errstate(all="ignore"):
            for entry, out in zip(map(entries.get, kerns), outs):
                if self.fold:
                    # with nx = n the products go straight into `out`, which
                    # the inverse FFT then transforms in place
                    acc = out if self.n == self.grid.nx else None
                    self._fold(np.multiply(entry, weighed[..., None, :], out=acc), out)
                else:
                    self._czt(weighed[..., None, band] * entry, chirp, out)
                    # the zero-frequency term, by the rows' f = 0 column,
                    # which every band holds
                    out += weighed[..., -1, None, None] * entry[:, -self._f0 - band.start, None]
        return outs

    def series(self, spectrum: np.ndarray) -> np.ndarray:
        """(1/n) * sum over the n lattice frequencies of spectrum * exp(2 pi
        i f x_rel): the lattice data's own Fourier series at the x nodes."""
        out = np.empty(self.grid.nx, dtype=complex)
        if self.fold:
            return self._fold(np.multiply(np.exp(2j * np.pi * self.freq * self.x_rel[0]),
                                          spectrum), out)
        base = slice(self.J * self.n, (self.J + 1) * self.n)
        return self._czt(spectrum[self._slot[base]] * self._pre[base], self._chirp(base), out)

    def _fold(self, acc: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Sum the products `acc` over the n // nx frequencies of each slot
        modulo nx and write their length-nx inverse FFT into `out`."""
        n, nx = self.n, self.grid.nx
        if n != nx:
            acc = acc.reshape(acc.shape[:-1] + (n // nx, nx)).sum(axis=-2)
        np.fft.ifft(acc, axis=-1, out=out)
        if n != nx:
            out *= nx / n
        return out

    def _czt(self, a: np.ndarray, chirp: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write into `out` the sums over m in a band of a[..., m]
        exp(2 pi i m i d) at the nodes i, times the post-chirp, for
        pre-chirped a and the band's chirp filter."""
        spec = np.fft.fft(a, chirp.size, axis=-1)
        spec *= chirp
        np.fft.ifft(spec, axis=-1, out=spec)
        return np.multiply(spec[..., :self.grid.nx], self._post, out=out)


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
    """Every lattice convolution of one datum, block by block: the FFTs of
    e^(w - mean w) and of p0, applied through a plan.  For circle data p0
    is the periodic part of gamma and `scale` and `mhat` carry the linear
    part, which extend adds in closed form; for line data p0 is gamma by
    cumulative trapezoid from the left end, `anchor` its value at 0, which
    extend subtracts in closed form, and `mhat` = 0."""

    def __init__(self, w: SampledFunction, grid: HalfPlaneGrid):
        self.plan = _SpectralPlan(w, grid)
        self.w = w
        self.grid = grid
        if w.periodic:
            self.scale, self.mhat, self.ew, self.p0 = _periodic_parts(w)
            self.anchor = 0.0
            fft_p0 = np.fft.fft(self.p0)
        else:
            w.domain.require_covers(min(0.0, grid.x[0]), max(0.0, grid.x[-1]),
                                    "gamma interval from 0")
            wbar, self.ew = _recentered(w)
            self.scale, self.mhat = np.exp(wbar), 0.0
            self.p0, self._p0_at = _cumulative_trapezoid(self.ew, w.domain.a, w.h)
            self.anchor = complex(self._p0_at(0.0))
            fft_p0 = _stepwise_fft(self.p0)
        self._spectra = np.stack([np.fft.fft(self.ew), fft_p0])
        self._weighed = self.plan.weigh(self._spectra)

    def gamma_at_nodes(self):
        x = self.grid.x
        if self.w.periodic:
            return self.scale * (self.mhat * x + self.plan.series(self._spectra[1]))
        return self.scale * (self._p0_at(x) - self.anchor)


# ---------------------------------------------------------------------------
# field construction

FIELD_NAMES = ("U", "V", "U_x", "V_x", "U_y", "V_y", "F_z", "F_zbar")


def _require_finite(grid: HalfPlaneGrid, levels=slice(None), cause="e^w", **fields):
    """Raise ResolutionError naming `cause` and the first grid node where
    one of the (rows, nx) arrays on `levels` or (nx,) arrays in `fields` is
    not finite."""
    for name, a in fields.items():
        bad = ~np.isfinite(a)
        if bad.any():
            at = np.unravel_index(int(np.argmax(bad)), a.shape)
            where = f"x = {grid.x[at[-1]]:.6g}"
            if a.ndim == 2:
                where += f", y = {grid.y_levels[levels][at[0]]:.6g}"
            raise ResolutionError(
                f"{cause} left floating range: {name} is not finite at {where}")


def extend_blocks(w: SampledFunction, grid: HalfPlaneGrid):
    """The extension field of w on `grid`, streamed: (gamma, blocks).

    gamma holds the boundary curve at the x nodes, and `blocks` yields the
    field one block of the plan's levels at a time, ascending, as (levels,
    rows, residuals): `rows` maps each of FIELD_NAMES to its (rows, nx)
    array on `levels`, in buffers that the next block overwrites, and
    `residuals` holds the identity residuals of `ExtensionField` over every
    level yielded so far, so the last block's are the field's.  The engine
    is built, and w and the grid checked, before this returns; a gamma
    that is not finite raises ResolutionError here, and a block that is not
    finite raises it before it is yielded."""
    # e^w out of floating range shows as a non-finite field, reported below
    with np.errstate(all="ignore"):
        eng = _SpectralEngine(w, grid)
        gamma = eng.gamma_at_nodes()
    _require_finite(grid, gamma=gamma)
    return gamma, _field_blocks(eng)


def _field_blocks(eng: _SpectralEngine):
    grid, plan = eng.grid, eng.plan
    s, mhat = eng.scale, eng.mhat
    with np.errstate(all="ignore"):
        shift = mhat * grid.x - eng.anchor
    shape = (plan.block_rows, grid.nx)
    # the kernels of both spectra apply to both at once; one buffer a kernel
    walk = plan.walk([(eng._weighed, (PHI, PSI, PHI_SECOND), np.empty((3, 2) + shape, complex)),
                      (eng._weighed[0], (ALPHA, BETA), np.empty((2,) + shape, complex)),
                      (eng._weighed[1], (_V_RATE,), np.empty((1,) + shape, complex))])
    residuals = {"uy_half_vx": 0.0, "vy_identity": 0.0}
    for levels, convs in walk:
        ((U_x, U), (V_x, V), (vy_check, U_y)), (F_zbar, F_z), (V_y,) = convs
        y = grid.y_levels[levels, None]
        # the state is set per block: it must not reach the consumer
        with np.errstate(all="ignore"):
            # fields scale in place
            for f in (U_x, V_x, F_zbar, F_z, vy_check):
                f *= s
            vy_check *= 0.5
            U += shift
            U *= s
            V += mhat * y
            V *= s
            U_y *= (s / y) * 0.5
            V_y /= y
            V_y += mhat
            V_y *= s
        rows = dict(U=U, V=V, U_x=U_x, V_x=V_x, U_y=U_y, V_y=V_y, F_z=F_z, F_zbar=F_zbar)
        _require_finite(grid, levels, **rows, vy_check=vy_check)
        residuals = {
            "uy_half_vx": max(residuals["uy_half_vx"], float(np.max(np.abs(U_y - 0.5 * V_x)))),
            "vy_identity": max(residuals["vy_identity"],
                               float(np.max(np.abs(V_y - U_x - vy_check)))),
        }
        yield levels, rows, residuals


def extend(w: SampledFunction, grid: HalfPlaneGrid) -> ExtensionField:
    """Build the extension field of w with all partials on `grid`, from
    `extend_blocks`; a field that is not finite everywhere raises
    ResolutionError."""
    gamma, blocks = extend_blocks(w, grid)
    fields = {name: np.empty((grid.ny, grid.nx), dtype=complex) for name in FIELD_NAMES}
    residuals = {}
    for levels, rows, residuals in blocks:
        for name, a in rows.items():
            fields[name][levels] = a
    return ExtensionField(grid, w, gamma, **fields, identity_residuals=residuals)


class _DilatationChecks:
    """The checks of `beltrami` as running state over the blocks of one
    field, taken in ascending order by `add` and decided by `close`, in
    the precedence they have on whole arrays: a denominator magnitude
    below SINGULAR_THRESHOLD, or below the rounding floor where that floor
    is at least SINGULAR_THRESHOLD, named at its first smallest node, unless
    a magnitude anywhere is NaN (no small denominator then); then the first
    node of mu, and then of the magnitude, that is not finite.  `floor` is
    the absolute rounding floor of the denominator."""

    def __init__(self, grid: HalfPlaneGrid, floor: float):
        self.grid, self.floor = grid, floor
        self.not_finite = {}  # "mu", "denom_mag": the error of its first bad node
        self.nan = False
        self.smallest, self.at, self.noise = np.inf, None, 0.0

    def add(self, levels: slice, mu: np.ndarray, denom_mag: np.ndarray, factor) -> bool:
        """Take in the rows of mu and the recorded denominator magnitude on
        `levels`, and the factor (one value or rows) that turned |den| into
        it; whether every block taken in so far is finite.  The floor is
        recorded the same way at the smallest node, where `close` reads it."""
        for name, rows in (("mu", mu), ("denom_mag", denom_mag)):
            if name not in self.not_finite:
                try:
                    _require_finite(self.grid, levels, **{name: rows})
                except ResolutionError as e:
                    self.not_finite[name] = e
        flat = int(np.argmin(denom_mag))  # a NaN is the minimum if there is one
        smallest = denom_mag.flat[flat]
        if np.isnan(smallest):
            self.nan = True
        elif smallest < self.smallest:
            jj, ii = np.unravel_index(flat, denom_mag.shape)
            self.smallest, self.at = smallest, (levels.start + jj, ii)
            self.noise = self.floor * float(np.broadcast_to(factor, denom_mag.shape)[jj, ii])
        return not self.not_finite

    def close(self):
        """Raise what the checks found."""
        grid = self.grid
        if not self.nan and self.smallest < max(SINGULAR_THRESHOLD, self.noise):
            jj, ii = self.at
            x, y = float(grid.x[ii]), float(grid.y_levels[jj])
            where = f"at (x, y) = ({x:.6g}, {y:.6g})"
            # the engine cannot tell a magnitude below its rounding floor,
            # recorded the same way, from zero: where that floor reaches the
            # threshold, such a magnitude is unresolved, not vanishing
            if self.noise >= SINGULAR_THRESHOLD:
                raise ResolutionError(
                    f"dilatation denominator {self.smallest:.3e} {where} is below the "
                    f"engine's rounding floor {self.noise:.3e} (e^w spans too wide a range)")
            raise SingularDenominatorError(
                f"dilatation denominator {self.smallest:.3e} below "
                f"{SINGULAR_THRESHOLD:g} {where}",
                x=x, y=y, magnitude=float(self.smallest),
            )
        for name in ("mu", "denom_mag"):
            if name in self.not_finite:
                raise self.not_finite[name]


@dataclass
class _Datum:
    """One datum w0 + zeta*w1 of a dilatation walk (`_DilatationMap.at`):
    its weighed spectrum, the mean of its Re w and its running checks."""

    zeta: complex
    weighed: np.ndarray
    mean: float
    checks: _DilatationChecks

    @property
    def smallest(self) -> float:
        return self.checks.smallest

    def close(self):
        """Raise what the checks found over the blocks walked."""
        self.checks.close()


class _DilatationMap:
    """The dilatation fields on `grid` of the data w0 + zeta*w1 (of w0
    alone without w1), walked block by block.

    Every datum shares what the grid fixes, built here: one plan, the
    windows of the local means of Re w, and three block buffers.  A datum
    costs its own FFT (`at`), and a walk (`walk`) is the plan's walk of
    every datum against ALPHA and BETA, each datum in turn written in place
    into the block buffers: the numerator into the rows of mu, which the
    quotient then takes over, the denominator, and its magnitude into the
    rows of denom_mag.  So the rows the walk gives are overwritten by the
    next datum's or block's: read them, or copy them, first.  `periodic`
    is the fields' `BeltramiField.periodic`, and `block_rows` the most
    levels a block holds.
    """

    def __init__(self, w0: SampledFunction, grid: HalfPlaneGrid,
                 w1: SampledFunction | None = None):
        self.plan = _SpectralPlan(w0, grid)
        self.grid = grid
        self.periodic = w0.periodic and grid.spans_period(w0.domain.length)
        self._w0, self._w1 = w0, w1
        self.block_rows = self.plan.block_rows
        shape = (self.block_rows, grid.nx)
        self._bufs, self._mag = np.empty((2,) + shape, dtype=complex), np.empty(shape)
        n, h = w0.n, w0.h
        offset = (grid.x_min - w0.domain.a) / h
        if (not w0.periodic or grid.nx != n or not grid.spans_period(w0.domain.length)
                or abs(offset - round(offset)) >= 1e-9):
            self._half_widths = []
        else:
            # the lowest levels: m grows with y
            self._half_widths = [int(m) for m in np.floor(grid.y_levels / h) if 2 * m + 1 < n]
        self._shift = int(round(offset)) % n

    def _values(self, zeta: complex) -> np.ndarray:
        return self._w0.values if self._w1 is None else self._w0.values + zeta * self._w1.values

    def at(self, zeta: complex = 0) -> _Datum:
        """The share of a walk of the datum w0 + zeta*w1 (samples that are
        not finite raise DomainError): its weighed spectrum and the mean of
        Re w only, so a block whose magnitude factor reads the window means
        of Re w builds the samples again."""
        # samples out of floating range raise DomainError, and e^w out of it
        # shows as a non-finite field; the state is set per step: it must
        # not reach the consumer
        with np.errstate(all="ignore"):
            w = self._w0.with_values(self._values(zeta))
            _, ew = _recentered(w)
            weighed = self.plan.weigh(np.fft.fft(ew))
            mean = float(np.mean(w.values.real))
            floor = FFT_ROUNDING_FLOOR * float(np.mean(np.abs(ew)))
        return _Datum(zeta, weighed, mean, _DilatationChecks(self.grid, floor))

    def _factor(self, d: _Datum, levels: slice):
        """What turns |e^(w - mean w) * beta_y| on `levels` into the
        recorded magnitude, u = Re w, as one value or (rows, nx).  Line data
        record |e^w * beta_y|: the factor is e^(mean u).  Circle data
        recenter locally only on a grid of nx = n nodes that spans one
        period from a lattice node: they record |e^(w - w_I) * beta_y|,
        I(x, y) = (x - y, x + y), so the factor is e^(mean u - mean of u
        over I) on the levels whose window is shorter than the period, read
        from a prefix sum (`funcspace._prefix_sums`) of three periods of u
        built again for the block (about 3n adds).  On every other level,
        and on every level of any other grid, the factor is exactly 1: the
        magnitude is recentered by the mean of w alone."""
        if not self._w0.periodic:
            return np.exp(d.mean)
        ms = self._half_widths[levels]
        if not ms:
            return 1.0
        n = self._w0.n
        # grid node i is lattice node i + shift, read in the middle period
        pref = _prefix_sums(np.roll(self._values(d.zeta).real, -self._shift), 3)
        rows = np.ones((levels.stop - levels.start, n))
        for row, m in zip(rows, ms):
            np.subtract(pref[n + m + 1:2 * n + m + 1], pref[n - m:2 * n - m], out=row)
            row /= 2 * m + 1
        win = rows[:len(ms)]
        np.exp(np.subtract(d.mean, win, out=win), out=win)
        return rows

    def walk(self, data):
        """The fields of `data` (each from `at`), block by block: for each
        block of levels, ascending, (levels, rows), where `rows` yields for
        each datum in turn its (mu rows, denom_mag rows) on the block, each
        (rows, nx) and finite, or None once the datum's checks have failed
        in this block or an earlier one.  Such a datum's later blocks are
        still computed and checked, so its checks keep the precedence they
        have on whole arrays; `_Datum.close` raises what they found.  Read
        each datum's rows before asking for the next."""
        for levels, convs in self.plan.walk([(d.weighed, (ALPHA, BETA), self._bufs)
                                             for d in data]):
            yield levels, (self._rows(levels, d, *conv) for d, conv in zip(data, convs))

    def _rows(self, levels: slice, d: _Datum, mu, den):
        with np.errstate(all="ignore"):
            np.divide(mu, den, out=mu)
            denom_mag = np.abs(den, out=self._mag[:levels.stop - levels.start])
            factor = self._factor(d, levels)
            denom_mag *= factor
        return (mu, denom_mag) if d.checks.add(levels, mu, denom_mag, factor) else None


def _datum_blocks(walk, d: _Datum):
    """The blocks of one datum's field, walked alone, as `beltrami_blocks`
    yields them; its checks raise after the last block."""
    for levels, (rows,) in walk([d]):
        if rows is not None:
            yield (levels, *rows)
    d.close()


def beltrami_blocks(w: SampledFunction, grid: HalfPlaneGrid):
    """The dilatation field of w on `grid`, streamed: (periodic, blocks).

    `periodic` is the field's `BeltramiField.periodic`, and `blocks`
    yields the field one block of the plan's levels at a time, ascending,
    as (levels, mu rows, denom_mag rows), each (rows, nx) and finite, in
    buffers that the next block overwrites: a consumer that keeps rows
    copies them, as `beltrami` does.  The plan is built, and w and the
    grid checked, before this returns; the checks of `beltrami` run over
    every block and raise after the last, so a block that is not finite
    is not yielded, and no block after it.  It is the one-datum walk of a
    `_DilatationMap`."""
    dmap = _DilatationMap(w, grid)
    return dmap.periodic, _datum_blocks(dmap.walk, dmap.at())


def _collect(grid: HalfPlaneGrid, periodic: bool, blocks) -> BeltramiField:
    """The field whose `blocks` a dilatation walk yields, collected whole."""
    values = np.empty((grid.ny, grid.nx), dtype=complex)
    denom_mag = np.empty((grid.ny, grid.nx))
    for levels, mu, mag in blocks:
        values[levels] = mu
        denom_mag[levels] = mag
    return BeltramiField(grid, values, denom_mag, periodic=periodic)


def beltrami(w: SampledFunction, grid: HalfPlaneGrid) -> BeltramiField:
    """Complex dilatation mu = (e^w * alpha_y) / (e^w * beta_y) on `grid`,
    collected from `beltrami_blocks`.

    The ratio is evaluated with the weight recentered by a constant (the
    mean of w), which leaves mu unchanged and keeps e^w in floating range.
    For line data the recorded denominator magnitude is |beta_y * e^w|
    itself.  Circle data record the locally recentered
    |beta_y * e^(w - w_I(x,y))|, I(x, y) = (x - y, x + y), only where nx =
    n, the grid spans one period and its offset lies on the lattice, on
    the levels whose window is shorter than the period; elsewhere they
    record |beta_y * e^(w - mean w)|, so the magnitudes, and whether a
    denominator counts as singular, depend on the grid.  A magnitude below
    1e-12 raises SingularDenominatorError carrying the offending (x, y),
    unless the engine's rounding floor there (FFT_ROUNDING_FLOOR * mean
    |e^(w - mean w)|, recorded the same way) is itself at least 1e-12:
    then a magnitude below that floor is unresolved, not vanishing, and
    ResolutionError is raised, whether or not it lies below 1e-12.  A mu or
    magnitude that is not finite raises ResolutionError.
    """
    periodic, blocks = beltrami_blocks(w, grid)
    return _collect(grid, periodic, blocks)


# ---------------------------------------------------------------------------
# classical box-kernel baseline

def classical_ba_extend(h: SampledFunction, r: float, grid: HalfPlaneGrid) -> ExtensionField:
    """Box-kernel extension baseline: U averages h over [x-y, x+y] and V is
    (r/2y) times the difference of the right and left half-window integrals.
    Partials are filled by central differences.  A field that is not finite
    everywhere raises ResolutionError."""
    if not (np.isfinite(r) and r > 0):
        raise DomainError(f"classical extension needs a finite r > 0, got {r}")
    if not h.is_real:
        raise DomainError("classical extension needs a real-valued datum")
    hu = h.values.real
    if np.any(np.diff(hu) <= 0):
        raise DomainError("classical extension needs strictly increasing data")
    if h.periodic:
        raise DomainError("classical baseline is defined for line-interval data")
    ys = grid.y_levels
    gx = grid.x
    h.domain.require_covers(gx[0] - ys[-1], gx[-1] + ys[-1], "box windows")
    # data, r or levels out of floating range show as a field that is not
    # finite, reported below
    with np.errstate(all="ignore"):
        _, at = _cumulative_trapezoid(hu, h.domain.a, h.h)
        y = ys[:, None]
        mid = at(gx)
        left = mid - at(gx - y)
        right = at(gx + y) - mid
        U = (left + right) / (2 * y) + 0j
        V = (r / (2 * y)) * (right - left) + 0j
        U_x, V_x = (np.gradient(a, grid.hx, axis=1, edge_order=2) for a in (U, V))
        U_y, V_y = (np.gradient(a, ys, axis=0, edge_order=2) for a in (U, V))
        F_x = U_x + 1j * V_x
        F_y = U_y + 1j * V_y
        fields = dict(U=U, V=V, U_x=U_x, V_x=V_x, U_y=U_y, V_y=V_y,
                      F_z=0.5 * (F_x - 1j * F_y), F_zbar=0.5 * (F_x + 1j * F_y))
        gamma = np.interp(gx, h.x, hu) + 0j
    _require_finite(grid, cause="the box-kernel extension", gamma=gamma, **fields)
    return ExtensionField(grid, h, gamma, **fields)
