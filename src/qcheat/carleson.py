"""Carleson norms and vanishing profiles for dilatation-type densities.

On the upper half-plane the density is |mu|^2 / y dx dy and the norm is the
sup over boxes I x (0, |I|) of the box mass divided by |I|; on the disk the
density is |nu|^2 / (1 - |z|^2) dx dy and the norm is the sup over boundary
sectors of the sector mass divided by the sector height.  Grids cut the
integrals off at their smallest y level (equivalently the outermost radius),
and every report carries the cutoff actually used.  The boxes are the
`funcspace` interval family on the x cells; boxes and sectors share its
profile lookup.

Both norms read a field block by block (`HalfPlaneSums`, `DiskSums`):
each box width or sector height keeps one running sum per window, and
each block of levels adds its weighed per-level window sums of the
density to them, so the CLI never holds a whole field.  The quadrature
across levels is a sum of elementwise products taken in level order, not
a BLAS product, so a report has the same bits whatever BLAS kernel the
machine runs.  `carleson_norm_halfplane` and `carleson_norm_disk` feed a
whole field to the same sums as one block.

The hybrid norm of a field is sup|mu| + sqrt(carleson norm), the natural
size measure for dilatation fields with Carleson control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .extension import BeltramiField, HalfPlaneGrid
from .funcspace import (ProfileEntry, _cumulative_profile, _prefix_sums,
                        _profile_at_scales, interval_family)
from .transfer import DiskGrid

# sector centres theta0 on a uniform grid of this many angles
N_THETA0 = 64


@dataclass(frozen=True)
class CarlesonReport:
    norm: float
    argmax: dict
    profile: list
    sup_norm: float
    cutoff: float
    convention: str

    @property
    def hybrid_norm(self) -> float:
        return self.sup_norm + float(np.sqrt(max(self.norm, 0.0)))


def _logy_weights(ys: np.ndarray, y_top: float) -> np.ndarray:
    """Trapezoid weights in t = log y for integrating a sampled integrand
    G(y_j) (already multiplied by y, so that the dy/y measure is uniform)
    from the lowest level up to y_top, with a linearly interpolated partial
    cell when y_top falls between levels."""
    t = np.log(ys)
    w = np.zeros(ys.size)
    if y_top <= ys[0] * (1 + 1e-12):
        return w
    tt = min(np.log(y_top), t[-1])
    J = int(np.searchsorted(t, tt + 1e-15)) - 1
    if J >= 1:
        dt = np.diff(t[:J + 1])
        w[0] += dt[0] / 2
        w[J] += dt[-1] / 2
        if J >= 2:
            w[1:J] += (dt[:-1] + dt[1:]) / 2
    if J < ys.size - 1 and tt > t[J] + 1e-15:
        d = t[J + 1] - t[J]
        delta = tt - t[J]
        theta = delta / d
        w[J] += delta * (1 - theta / 2)
        w[J + 1] += delta * theta / 2
    return w


class _DensitySums:
    """Per-level window sums of a density |field|^2, weighed across levels
    as blocks of levels come in, and sup|field| as a running maximum over
    every row.

    Each window family comes with its weights across levels, known before
    the first block, and keeps one running sum per window.  For each level
    it weighs, in ascending level order, a block adds the weight times the
    level's window sums to the family's running sums, with elementwise
    ufuncs only: no BLAS product, whose summation order is the kernel's,
    and no sum across levels, whose grouping would follow the blocks.  So a
    field fed whole, level by level or in any blocks of levels in level
    order reads the same, to the bit, on any machine's BLAS.  Rows above
    every family's last weighed level are never summed.
    """

    def __init__(self, ny: int, families, copies: int):
        # families: (starts, stops, weights) with index arrays into
        # `copies` periods and the family's weights across the ny levels
        self._ny = ny
        self._copies = copies
        self._families = families
        self._sums = [np.zeros(starts.size) for starts, _, _ in families]
        self._reach = max(np.trim_zeros(gw, "b").size for _, _, gw in families)
        self._sups = []

    def add(self, levels: slice, values: np.ndarray):
        """Take in the field's rows on `levels`."""
        lo, hi, _ = levels.indices(self._ny)
        dens = np.abs(values)
        self._sups.append(np.max(dens))
        dens = dens[:max(min(hi, self._reach) - lo, 0)]
        np.square(dens, out=dens)
        for j, row in enumerate(_prefix_sums(dens, self._copies), lo):
            for (starts, stops, gw), acc in zip(self._families, self._sums):
                if gw[j]:
                    acc += gw[j] * (row[stops] - row[starts])

    @property
    def sup_norm(self) -> float:
        return float(np.max(self._sups))


class HalfPlaneSums(_DensitySums):
    """The half-plane Carleson norm of a field on `grid` taken in block by
    block (`add`), reported by `report`; see `carleson_norm_halfplane`."""

    def __init__(self, grid, periodic: bool):
        if not isinstance(grid, HalfPlaneGrid):
            raise DomainError("half-plane Carleson norm needs a field on a HalfPlaneGrid")
        self.grid = grid
        self._widths = interval_family(grid.nx, periodic)
        if not self._widths:
            raise DomainError("empty box family: grid has fewer than 4 x cells")
        ys = grid.y_levels
        super().__init__(grid.ny, [(starts, starts + c, _logy_weights(ys, c * grid.hx))
                                   for c, starts in self._widths],
                         2 if periodic else 1)

    def report(self) -> CarlesonReport:
        grid = self.grid
        ys = grid.y_levels
        hx = grid.hx
        best = -1.0
        argmax = {}
        per_width = []
        for (c, starts), (_, _, gw), acc in zip(self._widths, self._families, self._sums):
            L = c * hx
            vals = acc * hx / L
            k = int(np.argmax(vals))
            per_width.append((L, float(vals[k]), bool(np.count_nonzero(gw) < 2)))
            if vals[k] > best:
                best = float(vals[k])
                argmax = {
                    "kind": "box",
                    "x_start": float(grid.x_min + starts[k] * hx),
                    "width": float(L),
                }
        profile = _cumulative_profile(per_width)
        return CarlesonReport(best, argmax, profile, self.sup_norm, float(ys[0]),
                              "box-halfplane")


def carleson_norm_halfplane(mu: BeltramiField) -> CarlesonReport:
    """Sup over dyadic boxes (half-step translates) of the box average of
    |mu|^2 / y, trapezoid in log y, cut off at the grid's lowest level."""
    sums = HalfPlaneSums(mu.grid, mu.periodic)
    sums.add(slice(None), mu.values)
    return sums.report()


def vanishing_profile_halfplane(mu: BeltramiField, scales) -> list[ProfileEntry]:
    """For each scale t (descending), sup over boxes of width <= t."""
    report = carleson_norm_halfplane(mu)
    return _profile_at_scales(report.profile, scales, float(mu.grid.y_levels[0]))


# ---------------------------------------------------------------------------
# disk sectors

class DiskSums(_DensitySums):
    """The disk Carleson norm of a field on `grid` taken in block by block
    (`add`), reported by `report`; see `carleson_norm_disk`."""

    def __init__(self, grid):
        if not isinstance(grid, DiskGrid):
            raise DomainError("disk Carleson norm needs a field on a DiskGrid")
        self.grid = grid
        ntheta = grid.thetas.size
        self._dtheta = 2 * np.pi / ntheta
        self._theta0s = 2 * np.pi * np.arange(N_THETA0) / N_THETA0
        self._hs = []
        h = 1.0
        h_floor = 1.0 - float(grid.radii[0])
        while h >= h_floor / 2 and h > 1e-12:
            self._hs.append(h)
            h /= 2
        if not self._hs:
            raise DomainError("empty sector family: no resolvable heights")
        ys = grid.y_levels
        radii = grid.radii
        # dy-integrand density: (2 pi r^2 / (1 - r^2)) per unit y, times y
        # for the log-y trapezoid
        gdens = 2 * np.pi * radii ** 2 / (1.0 - radii ** 2) * ys
        sectors = []
        for h in self._hs:
            half = np.pi * h
            i0 = np.ceil((self._theta0s - half) / self._dtheta - 1e-12).astype(int)
            i1 = np.floor((self._theta0s + half) / self._dtheta + 1e-12).astype(int)
            i0m = np.mod(i0, ntheta)
            y_top = np.inf if h >= 1.0 else -np.log1p(-h) / (2 * np.pi)
            sectors.append((i0m, i0m + np.clip(i1 - i0 + 1, 0, ntheta),
                            _logy_weights(ys, min(y_top, float(ys[-1]) * 2)) * gdens))
        super().__init__(ys.size, sectors, 2)

    def report(self) -> CarlesonReport:
        best = -1.0
        argmax = {}
        per_scale = []
        for h, (_, _, gw), acc in zip(self._hs, self._families, self._sums):
            vals = acc * self._dtheta / h
            k = int(np.argmax(vals))
            per_scale.append((h, float(vals[k]), bool(np.count_nonzero(gw) < 2)))
            if vals[k] > best:
                best = float(vals[k])
                argmax = {"kind": "sector", "h": float(h), "theta0": float(self._theta0s[k])}
        profile = _cumulative_profile(per_scale)
        cutoff = 1.0 - float(self.grid.radii[0])
        return CarlesonReport(best, argmax, profile, self.sup_norm, cutoff, "sector-disk")


def carleson_norm_disk(nu: BeltramiField) -> CarlesonReport:
    """Sup over sampled sectors (dyadic heights, theta0 on N_THETA0 uniform
    angles) of the sector mass of |nu|^2 / (1 - r^2) divided by the height."""
    sums = DiskSums(nu.grid)
    sums.add(slice(None), nu.values)
    return sums.report()


def vanishing_profile_disk(nu: BeltramiField, scales) -> list[ProfileEntry]:
    report = carleson_norm_disk(nu)
    return _profile_at_scales(report.profile, scales, report.cutoff)


def hybrid_norm(field: BeltramiField) -> float:
    """sup|mu| + sqrt(Carleson norm), dispatched on the field's grid."""
    if isinstance(field.grid, HalfPlaneGrid):
        return carleson_norm_halfplane(field).hybrid_norm
    if isinstance(field.grid, DiskGrid):
        return carleson_norm_disk(field).hybrid_norm
    raise DomainError("hybrid norm needs a half-plane or disk field")
