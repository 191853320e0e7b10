"""Numerical probes of holomorphic dependence of the dilatation on the
boundary datum.

A probe fixes a base datum w0 and a direction w1, then samples the
dilatation field of w0 + zeta*w1 at the center, at +-delta and +-i*delta
(delta = epsilon/8), and on the contour |zeta| = 2*epsilon.  From these it
measures the discrete Cauchy-Riemann residual in zeta, reconstructs interior
values by the Cauchy integral, and tests difference-quotient convergence to
the contour-derived derivative, all in the hybrid norm.

Every statistic is a reduction over streamed blocks of levels.  The probe
keeps the field at 0 whole and, for each point zeta0 it was built for, two
running contour sums (the Cauchy value and the first derivative), into
which each contour field is added block by block as the dilatation map
yields it; so its memory does not grow with the number of contour nodes.
The four off-center fields fold into the Cauchy-Riemann residual as they
come, and the Cauchy error and the quotient distances feed their rows to a
`carleson.HalfPlaneSums`, which reads a field the same to the bit whole or
in any blocks; no field other than the one at 0 is held after the build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .carleson import HalfPlaneSums
from .data import SampledFunction
from .errors import DomainError, ProbeFailure, ResolutionError, SingularDenominatorError
from .extension import (_CHUNK_ENTRIES, BeltramiField, HalfPlaneGrid, _collect,
                        _dilatation_map)

SAFE_DENOMINATOR = 1e-6


@dataclass(frozen=True)
class HolomorphyProbe:
    """Dilatation fields of the directional family zeta -> w0 + zeta*w1.

    `fields` holds only the field at 0, with its `denom_mag`; the fields at
    the other `center_nodes` (delta, -delta, i*delta, -i*delta) were
    folded, block by block, into `residual`, the discrete Cauchy-Riemann
    residual that `cr_residual` returns.  The fields on the contour
    |zeta| = 2*epsilon (`contour_nodes`) are not kept either: for each
    point zeta0 the probe was built for, `averages[zeta0]` holds the
    contour averages (1/n) * sum of mu(tau) * tau/(tau - zeta0) (the Cauchy
    value) and of mu(tau) * tau/(tau - zeta0)**2 (the first derivative),
    read-only.  `blocks_at(zeta)` streams the blocks of the field at any
    zeta, as `extension.beltrami_blocks` yields them, and `builder(zeta)`
    collects them, so every node but 0 is rebuilt on demand.
    """

    w0: SampledFunction
    w1: SampledFunction
    epsilon: float
    center_nodes: np.ndarray
    contour_nodes: np.ndarray
    fields: list = field(repr=False)
    averages: dict = field(repr=False)
    residual: float
    blocks_at: object = field(repr=False)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("probe needs epsilon > 0")

    @property
    def delta(self) -> float:
        return self.epsilon / 8.0

    def builder(self, zeta: complex) -> BeltramiField:
        """The field at zeta, collected whole from `blocks_at`."""
        center = self.fields[0]
        return _collect(center.grid, center.periodic, self.blocks_at(zeta))[0]

    def dilatation_at(self, zeta: complex) -> BeltramiField:
        if abs(zeta) < 1e-15:
            return self.fields[0]
        return self.builder(zeta)

    def contour_averages(self, zeta0: complex) -> tuple:
        """(Cauchy value, derivative) contour averages at zeta0."""
        try:
            return self.averages[complex(zeta0)]
        except KeyError:
            raise DomainError(f"probe was not built for zeta0 = {zeta0}; "
                              f"it serves {list(self.averages)}") from None


def _contour(eps: float, n_contour: int, at) -> tuple:
    """The contour |tau| = 2*eps and, for each point of `at` inside radius
    eps, the weights tau/(tau - zeta0) and tau/(tau - zeta0)**2 per node.
    A weight that is not finite and nonzero (an epsilon too small for the
    contour arithmetic, say) raises DomainError."""
    contour = 2 * eps * np.exp(2j * np.pi * np.arange(n_contour) / n_contour)
    weights = {}
    for zeta0 in at:
        if abs(zeta0) >= eps:
            continue
        with np.errstate(all="ignore"):
            value = np.array([tau / (tau - zeta0) for tau in contour])
            deriv = np.array([tau / (tau - zeta0) ** 2 for tau in contour])
        both = np.concatenate([value, deriv])
        if not np.all(np.isfinite(both) & (both != 0)):
            raise DomainError(f"epsilon {eps:.3e} is too small for the contour arithmetic "
                              f"at zeta0 = {zeta0}: a contour weight is 0 or not finite")
        weights[complex(zeta0)] = (value, deriv)
    return contour, weights


def _stream_probe(w0, w1, epsilon: float, n_contour: int, at, grid, periodic: bool,
                  blocks_at) -> HolomorphyProbe:
    """Build the probe from `blocks_at(zeta)`, the blocks of the field at
    zeta, halving epsilon (at most 6 times) until every node field has
    denominator magnitude >= SAFE_DENOMINATOR, checked node by node in the
    order 0, delta, -delta, i*delta, -i*delta, then the contour.

    The field at 0 is collected whole, with its magnitudes.  The values at
    +delta are collected into one buffer, which the blocks at -delta turn
    in place into (mu(delta) - mu(-delta)) / (2 delta); the values at
    +i*delta into a second, and each block at -i*delta then gives the
    maximum of |that + i*(mu(i delta) - mu(-i delta)) / (2 delta)| over its
    rows, the operands in the order of the whole-array formula, so the
    residual (half the largest block maximum) is the same to the bit and
    a NaN propagates.  Both buffers are dropped before the contour, whose
    running sums are allocated at its first node and take each contour
    field block by block, in contour order.  A halving discards all of
    this state."""
    shape = (grid.ny, grid.nx)
    term = np.empty((max(1, _CHUNK_ENTRIES // grid.nx), grid.nx), dtype=complex)
    eps = float(epsilon)
    last_bad = None
    for _ in range(7):
        delta = eps / 8.0
        centers = np.array([0.0, delta, -delta, 1j * delta, -1j * delta], dtype=complex)
        contour, weights = _contour(eps, n_contour, at)
        # held: the values at +delta, turned into the x quotient, then the
        # values at +i*delta; maxima: the residual's block maxima
        held, maxima, sums = [], [], None
        for k, node in enumerate(np.concatenate([centers, contour])):
            blocks = blocks_at(node)
            try:
                if k == 0:
                    # cauchy_reconstruct reads the magnitudes at the center
                    center, smallest = _collect(grid, periodic, blocks)
                elif k in (1, 3):
                    f, smallest = _collect(grid, periodic, blocks, magnitudes=False)
                    held.append(f.values)
                elif k == 2:
                    smallest = _each_block(blocks, lambda levels, mu: _x_quotient(
                        held[0][levels], mu, 2 * delta))
                elif k == 4:
                    smallest = _each_block(blocks, lambda levels, mu: maxima.append(
                        _cr_maximum(held[0][levels], held[1][levels], mu, 2 * delta)))
                    residual = float(np.max(maxima) / 2.0)
                    held.clear()
                else:
                    if sums is None:
                        sums = {z: (np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex))
                                for z in weights}
                    smallest = _add_contour_field(blocks, k - centers.size, weights, sums, term)
            except SingularDenominatorError:
                smallest = 0.0  # below any safe magnitude
            if smallest < SAFE_DENOMINATOR:
                last_bad = node
                break
        else:
            for acc in (a for pair in sums.values() for a in pair):
                acc /= n_contour
                acc.flags.writeable = False
            return HolomorphyProbe(w0, w1, eps, centers, contour, [center], sums, residual,
                                   blocks_at)
        eps /= 2.0
    raise ProbeFailure(
        f"no safe evaluation disk after 6 retries; last singular node zeta = {last_bad}",
        node=last_bad,
    )


def _each_block(blocks, take) -> float:
    """Call take(levels, mu rows) on each block of `blocks`; the smallest
    denominator magnitude."""
    smallest = np.inf
    for levels, mu, mag in blocks:
        smallest = min(smallest, float(np.min(mag)))
        take(levels, mu)
    return smallest


def _x_quotient(rows: np.ndarray, mu: np.ndarray, step: float):
    """rows <- (rows - mu) / step, in place."""
    np.subtract(rows, mu, out=rows)
    rows /= step


def _cr_maximum(x_quotient: np.ndarray, plus_i: np.ndarray, mu: np.ndarray,
                step: float):
    """max |x_quotient + i*(plus_i - mu) / step| over the rows, in the
    operand order of the whole-array residual."""
    return np.max(np.abs(x_quotient + 1j * (plus_i - mu) / step))


def _add_contour_field(blocks, j: int, weights: dict, sums: dict, term: np.ndarray) -> float:
    """Add the field of `blocks`, at contour node j, into the running sums
    of every served point through the block buffer `term`; its smallest
    denominator magnitude."""
    def take(levels, mu):
        t = term[:mu.shape[0]]
        for z, (value, deriv) in weights.items():
            value_sum, deriv_sum = sums[z]
            value_sum[levels] += np.multiply(mu, value[j], out=t)
            deriv_sum[levels] += np.multiply(mu, deriv[j], out=t)

    return _each_block(blocks, take)


def build_probe(w0: SampledFunction, w1: SampledFunction, epsilon: float = 0.1,
                n_contour: int = 64, grid: HalfPlaneGrid | None = None,
                at=(0.0,)) -> HolomorphyProbe:
    """Build the probe for the points `at` (each |zeta0| < epsilon) whose
    contour averages it keeps, shrinking epsilon (at most 6 times) until
    every node field has denominator magnitude >= 1e-6 everywhere.  Epsilon
    halves only on a small or vanishing denominator
    (SingularDenominatorError); any other error, a ResolutionError among
    them (a denominator below the engine's rounding floor, say), propagates
    at once.  A point that a halved epsilon no longer covers is dropped.
    Every field, here and from the probe's builder, comes from one
    dilatation map of w0's lattice and `grid`, so its plan (and on a
    folding grid each block's multiplier rows) is built once."""
    if w0.n != w1.n or w0.domain != w1.domain:
        raise DomainError("probe data must share one grid and domain")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"probe needs a finite epsilon > 0, got {epsilon}")
    if n_contour < 1:
        raise DomainError(f"probe needs n_contour >= 1, got {n_contour}")
    if not all(abs(zeta0) < epsilon for zeta0 in at):
        raise DomainError(f"probe points {list(at)} must satisfy |zeta0| < epsilon")
    _contour(epsilon, n_contour, at)
    if grid is None:
        grid = HalfPlaneGrid.build(nx=max(64, w0.n))
    periodic, blocks_of = _dilatation_map(w0, grid)

    def blocks_at(zeta: complex):
        return blocks_of(w0.with_values(w0.values + zeta * w1.values))

    return _stream_probe(w0, w1, epsilon, n_contour, at, grid, periodic, blocks_at)


def cr_residual(p: HolomorphyProbe) -> float:
    """Sup over the grid of the discrete d/d(conj zeta) at the center:
    |(mu(d) - mu(-d))/(2d) + i*(mu(id) - mu(-id))/(2d)| / 2, taken block by
    block as the probe was built."""
    return p.residual


def _hybrid_norm_of_rows(grid: HalfPlaneGrid, periodic: bool, blocks) -> float:
    """The hybrid norm of the field on `grid` whose rows `blocks` yields as
    (levels, rows), which `HalfPlaneSums` reads as it would the whole
    field."""
    sums = HalfPlaneSums(grid, periodic)
    for levels, rows in blocks:
        sums.add(levels, rows)
    return sums.report().hybrid_norm


def cauchy_reconstruct(p: HolomorphyProbe, zeta0: complex,
                       check_resolution: bool = False):
    """Cauchy-integral reconstruction of the field at zeta0 from the
    contour, compared to the directly computed field in hybrid norm, whose
    difference is fed to the norm a block of levels at a time.  Returns
    (reconstructed field, hybrid-norm error)."""
    if abs(zeta0) >= p.epsilon:
        raise DomainError("reconstruction point must satisfy |zeta0| < epsilon")
    recon_vals, _ = p.contour_averages(zeta0)
    direct = p.dilatation_at(zeta0)
    recon = BeltramiField(direct.grid, recon_vals, direct.denom_mag,
                          periodic=direct.periodic)
    grid = direct.grid
    step = max(1, _CHUNK_ENTRIES // grid.nx)
    blocks = (slice(i, i + step) for i in range(0, grid.ny, step))
    err = _hybrid_norm_of_rows(grid, direct.periodic, (
        (levels, recon_vals[levels] - direct.values[levels]) for levels in blocks))
    if check_resolution:
        doubled = build_probe(p.w0, p.w1, p.epsilon, 2 * p.contour_nodes.size,
                              direct.grid, at=(zeta0,))
        _, err2 = cauchy_reconstruct(doubled, zeta0)
        if err2 > err and err > 1e-14:
            raise ResolutionError(
                f"contour too coarse: error {err:.3e} does not decrease "
                f"when doubled ({err2:.3e})"
            )
    return recon, err


def contour_derivative(p: HolomorphyProbe, zeta0: complex) -> np.ndarray:
    """d(mu)/d(zeta) at zeta0 from the contour (Cauchy integral for the
    first derivative), read-only."""
    if abs(zeta0) >= p.epsilon:
        raise DomainError("derivative point must satisfy |zeta0| < epsilon")
    return p.contour_averages(zeta0)[1]


def quotient_convergence(p: HolomorphyProbe, zeta0: complex, steps):
    """Hybrid-norm distances between difference quotients at zeta0 and the
    contour-derived derivative, with the fitted linear slope in |step|.
    Returns (distances, slope); a distance that is not finite raises
    ResolutionError."""
    steps = np.asarray(steps, dtype=complex)
    if np.any(np.abs(zeta0 + steps) >= p.epsilon) or abs(zeta0) >= p.epsilon:
        raise DomainError("quotient nodes must stay inside radius epsilon")
    D = contour_derivative(p, zeta0)
    base = p.dilatation_at(zeta0)
    # each quotient is taken block by block from the shifted field's
    # blocks, which is never collected
    dists = np.array([_hybrid_norm_of_rows(base.grid, base.periodic, (
        (levels, (mu - base.values[levels]) / s - D[levels])
        for levels, mu, _ in p.blocks_at(zeta0 + s))) for s in steps])
    if not np.all(np.isfinite(dists)):
        raise ResolutionError(f"difference quotients at epsilon {p.epsilon:.3e} "
                              f"are not finite: distances {dists}")
    mags = np.abs(steps)
    denom = float(np.dot(mags, mags))
    slope = float(np.dot(mags, dists) / denom) if denom > 0 else 0.0
    return dists, slope
