"""Circle <-> line lifts, half-plane -> disk pushforward, and the maps
between circle homeomorphisms and their boundary log-derivatives.

The exponential cover z -> exp(2*pi*i*z) carries the periodic half-plane
grid to a polar grid on the punctured disk with no interpolation: radii are
exp(-2*pi*y) and angles 2*pi*x.  A periodic dilatation field mu transfers to
nu(zeta) = -mu(z) * zeta / conj(zeta), which preserves |mu| pointwise.

Homeomorphisms h of the circle are stored through their lifted angle maps
g on [0, 1] with g(0) = 0 and g(1) = 1 (this pins h(1) = 1; boundary data
u = log|h'| are treated modulo additive constants, which makes the two maps
below exact mutual inverses at the sample level).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Domain, SampledFunction
from .errors import DomainError, ResolutionError
from .extension import (BeltramiField, ExtensionField, HalfPlaneGrid,
                        _periodic_parts)


PERIODIC_DISK = "push_to_disk needs a field periodic over one unit period"


@dataclass(frozen=True)
class CircleHomeo:
    """Sense-preserving circle homeomorphism via its lifted angle map.

    `g` holds samples on the inclusive uniform grid of [0, 1] (n+1 nodes),
    strictly increasing, g(0) = 0 and g(1) = 1; the homeomorphism itself is
    h(exp(2*pi*i*x)) = exp(2*pi*i*g(x)).
    """

    g: np.ndarray = field(repr=False)

    def __post_init__(self):
        gv = np.ascontiguousarray(np.asarray(self.g, dtype=float))
        object.__setattr__(self, "g", gv)
        if gv.ndim != 1 or gv.size < 17:
            raise DomainError("angle map needs at least 17 samples on [0, 1]")
        if not np.all(np.isfinite(gv)):
            raise DomainError("angle map must be finite")
        if abs(gv[0]) > 1e-12 or abs(gv[-1] - 1.0) > 1e-12:
            raise DomainError("angle map must satisfy g(0) = 0 and g(1) = 1")
        if np.any(np.diff(gv) <= 0):
            raise DomainError("angle map must be strictly increasing")

    @property
    def n(self) -> int:
        return self.g.size - 1

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.g.size) / self.n

    def g_extended(self, idx: np.ndarray) -> np.ndarray:
        """g at integer lattice indices extended by g(x+1) = g(x) + 1."""
        idx = np.asarray(idx)
        return self.g[np.mod(idx, self.n)] + (idx // self.n)

    def sup_distance(self, other: "CircleHomeo") -> float:
        if self.n != other.n:
            raise DomainError("angle maps live on different grids")
        return float(np.max(np.abs(self.g - other.g)))


def identity_homeo(n: int = 2048) -> CircleHomeo:
    return CircleHomeo(np.arange(n + 1) / n)


@dataclass(frozen=True)
class DiskGrid:
    """Polar grid on the punctured disk, the exact exponential image of a
    one-period half-plane grid: radii exp(-2*pi*y) (aligned with ascending
    y levels, hence descending), angles 2*pi*x."""

    thetas: np.ndarray = field(repr=False)
    y_levels: np.ndarray = field(repr=False)

    def __post_init__(self):
        th = np.ascontiguousarray(np.asarray(self.thetas, dtype=float))
        ys = np.ascontiguousarray(np.asarray(self.y_levels, dtype=float))
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "y_levels", ys)
        if np.any(ys <= 0):
            raise DomainError("disk grid needs positive y levels")

    @property
    def radii(self) -> np.ndarray:
        return np.exp(-2 * np.pi * self.y_levels)

    @staticmethod
    def from_halfplane(grid: HalfPlaneGrid) -> "DiskGrid":
        if not grid.spans_period(1.0):
            raise DomainError("disk grid needs a one-period half-plane grid")
        return DiskGrid(2 * np.pi * grid.x, grid.y_levels)


# ---------------------------------------------------------------------------

def lift(u: SampledFunction) -> SampledFunction:
    """Period-1 lift of circle data to the line: same samples, re-tagged as
    periodic line data on [0, 1]."""
    if u.domain.kind != "circle":
        raise DomainError("lift expects circle data")
    return SampledFunction(Domain.line(0.0, 1.0, periodic=True), u.values.copy())


def disk_phase(grid: HalfPlaneGrid) -> np.ndarray:
    """zeta / conj(zeta) = exp(4*pi*i*x) at the grid's x nodes: rows of a
    half-plane field mu push to the disk as -mu * disk_phase(grid)."""
    return np.exp(4j * np.pi * grid.x)


def push_to_disk(mu: BeltramiField) -> BeltramiField:
    """Transfer a periodic half-plane dilatation field to the disk:
    nu(zeta) = -mu(z) * zeta / conj(zeta) at zeta = exp(2*pi*i*z).
    The modulus is preserved pointwise."""
    if not isinstance(mu.grid, HalfPlaneGrid):
        raise DomainError("push_to_disk expects a half-plane field")
    if not mu.periodic:
        raise DomainError(PERIODIC_DISK)
    disk = DiskGrid.from_halfplane(mu.grid)
    return BeltramiField(disk, -mu.values * disk_phase(mu.grid), mu.denom_mag, periodic=True)


def inverse_L(u: SampledFunction) -> CircleHomeo:
    """Homeomorphism with log|h'| = u modulo an additive constant:
    g(x) = (integral of e^u over [0, x]) / (integral over [0, 1]).  An
    angle map that is not finite, or that e^u spans too wide a range to
    keep strictly increasing, raises ResolutionError."""
    if u.domain.kind != "circle":
        raise DomainError("inverse_L expects circle data")
    if not u.is_real:
        raise DomainError("inverse_L expects real-valued data")
    n = u.n
    # g' = e^u / mean e^u > 0: an increment that is not finite and positive
    # is e^u out of floating range, or spanning a range too wide to resolve
    with np.errstate(all="ignore"):
        _, mhat, _, p0 = _periodic_parts(u)
        g = np.arange(n + 1) / n + np.append(p0.real, p0.real[0]) / mhat.real
        g[0], g[-1] = 0.0, 1.0
        if not np.all(np.diff(g) > 0):
            raise ResolutionError("e^u left floating range or spans too wide a range: "
                                  "the angle map is not finite and strictly increasing")
    return CircleHomeo(g)


def forward_L(h: CircleHomeo) -> SampledFunction:
    """log g' at the circle nodes, by periodic central differences of the
    angle map (g' has period 1)."""
    n = h.n
    idx = np.arange(n)
    gp = (h.g_extended(idx + 1) - h.g_extended(idx - 1)) * (n / 2.0)
    if np.any(gp <= 0):
        raise DomainError("angle map is not increasing at the sample scale")
    return SampledFunction(Domain.circle(), np.log(gp) + 0j)


def contraction(u: SampledFunction, t: float) -> CircleHomeo:
    """Contraction path through the log-derivative coordinate: the
    homeomorphism with boundary datum (1 - t) * u."""
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"contraction parameter must lie in [0, 1], got {t}")
    return inverse_L(u.with_values((1.0 - t) * u.values))


@dataclass(frozen=True)
class TraceReport:
    """Boundary-trace certification of an extension field.

    `errors` holds max over x of |F(x, y) - gamma(x)| per level; it decays
    linearly in y because the field drifts vertically like i*gamma(1)*y.
    `drift_corrected` subtracts that exact vertical term first, so constant
    data sit at machine zero and the remainder isolates the oscillatory part
    of the deviation.
    """

    y_levels: np.ndarray
    errors: np.ndarray
    drift_corrected: np.ndarray


def disk_extension_trace(u: SampledFunction, ext: ExtensionField) -> TraceReport:
    """Per-level boundary deviation of the extension built from the lift
    of u, certifying that the field restricts to the boundary curve."""
    if u.domain.kind != "circle":
        raise DomainError("disk_extension_trace expects circle data")
    if not ext.periodic:
        raise DomainError("extension field was not built from periodic data")
    if ext.datum.n != u.n or not np.allclose(ext.datum.values, u.values, atol=1e-12):
        raise DomainError("extension field was not built from the lift of u")
    scale_const, mhat, _, _ = _periodic_parts(ext.datum)
    mass = scale_const * mhat
    ys = ext.grid.y_levels
    dev = ext.F - ext.gamma[None, :]
    raw = np.max(np.abs(dev), axis=1)
    corrected = np.max(np.abs(dev - 1j * mass * ys[:, None]), axis=1)
    return TraceReport(ys.copy(), raw, corrected)
