"""Carleson norms and vanishing profiles for dilatation-type densities.

On the upper half-plane the density is |mu|^2 / y dx dy and the norm is the
sup over boxes I x (0, |I|) of the box mass divided by |I|; on the disk the
density is |nu|^2 / (1 - |z|^2) dx dy and the norm is the sup over boundary
sectors of the sector mass divided by the sector height.  Grids cut the
integrals off at their smallest y level (equivalently the outermost radius),
and every report carries the cutoff actually used.  The boxes are the
`funcspace` interval family on the x cells; boxes and sectors share its
window sums and profile lookup.

The hybrid norm of a field is sup|mu| + sqrt(carleson norm), the natural
size measure for dilatation fields with Carleson control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .extension import BeltramiField, HalfPlaneGrid
from .funcspace import (ProfileEntry, _cumulative_profile, _profile_at_scales,
                        _window_sums, interval_family)
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


def carleson_norm_halfplane(mu: BeltramiField) -> CarlesonReport:
    """Sup over dyadic boxes (half-step translates) of the box average of
    |mu|^2 / y, trapezoid in log y, cut off at the grid's lowest level."""
    grid = mu.grid
    if not isinstance(grid, HalfPlaneGrid):
        raise DomainError("half-plane Carleson norm needs a field on a HalfPlaneGrid")
    ys = grid.y_levels
    hx = grid.hx
    nx = grid.nx
    dens = np.abs(mu.values)
    np.square(dens, out=dens)
    periodic = mu.periodic

    family = interval_family(nx, periodic)
    if not family:
        raise DomainError("empty box family: grid has fewer than 4 x cells")
    row_sums = _window_sums(dens, 2 if periodic else 1)

    best = -1.0
    argmax = {}
    per_width = []
    for c, starts in family:
        L = c * hx
        rowint = row_sums(starts, starts + c) * hx
        gw = _logy_weights(ys, L)
        vals = (gw @ rowint) / L
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
    return CarlesonReport(best, argmax, profile, mu.sup_norm, float(ys[0]), "box-halfplane")


def vanishing_profile_halfplane(mu: BeltramiField, scales) -> list[ProfileEntry]:
    """For each scale t (descending), sup over boxes of width <= t."""
    report = carleson_norm_halfplane(mu)
    return _profile_at_scales(report.profile, scales, float(mu.grid.y_levels[0]))


# ---------------------------------------------------------------------------
# disk sectors

def carleson_norm_disk(nu: BeltramiField) -> CarlesonReport:
    """Sup over sampled sectors (dyadic heights, theta0 on N_THETA0 uniform
    angles) of the sector mass of |nu|^2 / (1 - r^2) divided by the height."""
    grid = nu.grid
    if not isinstance(grid, DiskGrid):
        raise DomainError("disk Carleson norm needs a field on a DiskGrid")
    ys = grid.y_levels
    radii = grid.radii
    thetas = grid.thetas
    ntheta = thetas.size
    dtheta = 2 * np.pi / ntheta
    dens = np.abs(nu.values)
    np.square(dens, out=dens)
    # dy-integrand density: (2 pi r^2 / (1 - r^2)) per unit y, times y for
    # the log-y trapezoid
    gdens = 2 * np.pi * radii ** 2 / (1.0 - radii ** 2) * ys

    col_sums = _window_sums(dens, 2)
    theta0s = 2 * np.pi * np.arange(N_THETA0) / N_THETA0

    hs = []
    h = 1.0
    h_floor = 1.0 - float(radii[0])
    while h >= h_floor / 2 and h > 1e-12:
        hs.append(h)
        h /= 2
    if not hs:
        raise DomainError("empty sector family: no resolvable heights")

    best = -1.0
    argmax = {}
    per_scale = []
    for h in hs:
        y_top = np.inf if h >= 1.0 else -np.log1p(-h) / (2 * np.pi)
        gw = _logy_weights(ys, min(y_top, float(ys[-1]) * 2))
        weights = gw * gdens
        half = np.pi * h
        i0 = np.ceil((theta0s - half) / dtheta - 1e-12).astype(int)
        i1 = np.floor((theta0s + half) / dtheta + 1e-12).astype(int)
        i0m = np.mod(i0, ntheta)
        counts = np.clip(i1 - i0 + 1, 0, ntheta)
        vals = (weights @ col_sums(i0m, i0m + counts)) * dtheta / h
        k = int(np.argmax(vals))
        per_scale.append((h, float(vals[k]), bool(np.count_nonzero(gw) < 2)))
        if vals[k] > best:
            best = float(vals[k])
            argmax = {"kind": "sector", "h": float(h), "theta0": float(theta0s[k])}
    profile = _cumulative_profile(per_scale)
    cutoff = 1.0 - float(radii[0])
    return CarlesonReport(best, argmax, profile, nu.sup_norm, cutoff, "sector-disk")


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
