"""Numerical probes of holomorphic dependence of the dilatation on the
boundary datum.

A probe fixes a base datum w0 and a direction w1, then samples the
dilatation field of w0 + zeta*w1 at the center, at +-delta and +-i*delta
(delta = epsilon/8), and on the contour |zeta| = 2*epsilon.  From these it
measures the discrete Cauchy-Riemann residual in zeta, reconstructs interior
values by the Cauchy integral, and tests difference-quotient convergence to
the contour-derived derivative, all in the hybrid norm.

The contour is streamed: the probe is built for the points zeta0 it must
serve and adds each contour field, block by block as the dilatation map
yields it, into two running sums per point (the Cauchy value and the
first derivative), so its memory does not grow with the number of contour
nodes and no contour field is ever held whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .carleson import hybrid_norm
from .data import SampledFunction
from .errors import DomainError, ProbeFailure, ResolutionError, SingularDenominatorError
from .extension import (_CHUNK_ENTRIES, BeltramiField, HalfPlaneGrid, _collect,
                        _dilatation_map)

SAFE_DENOMINATOR = 1e-6


@dataclass(frozen=True)
class HolomorphyProbe:
    """Dilatation fields of the directional family zeta -> w0 + zeta*w1.

    `fields` holds the fields at `center_nodes` = [0, delta, -delta,
    i*delta, -i*delta]; only the field at 0 keeps its `denom_mag`, the
    others their values alone.  The fields on the contour |zeta| =
    2*epsilon (`contour_nodes`) are not kept: for each point zeta0 the
    probe was built for, `averages[zeta0]` holds the contour averages
    (1/n) * sum of mu(tau) * tau/(tau - zeta0) (the Cauchy value) and of
    mu(tau) * tau/(tau - zeta0)**2 (the first derivative), read-only.
    `builder` recomputes the field at any zeta so quotient tests can take
    extra samples.
    """

    w0: SampledFunction
    w1: SampledFunction
    epsilon: float
    center_nodes: np.ndarray
    contour_nodes: np.ndarray
    fields: list = field(repr=False)
    averages: dict = field(repr=False)
    builder: object = field(repr=False, default=None)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("probe needs epsilon > 0")

    @property
    def delta(self) -> float:
        return self.epsilon / 8.0

    def dilatation_at(self, zeta: complex) -> BeltramiField:
        for i, node in enumerate(self.center_nodes):
            if abs(node - zeta) < 1e-15 * max(1.0, abs(zeta)):
                return self.fields[i]
        if self.builder is None:
            raise DomainError("probe has no builder for off-node evaluation")
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
    denominator magnitude >= SAFE_DENOMINATOR.  The center fields keep
    their values and the one at 0 its magnitudes too; each contour field
    is added block by block into the running sums of every served point,
    in contour order, and never held whole.  A halving discards the
    sums."""
    def builder(zeta: complex) -> BeltramiField:
        return _collect(grid, periodic, blocks_at(zeta))[0]

    shape = (grid.ny, grid.nx)
    term = np.empty((max(1, _CHUNK_ENTRIES // grid.nx), grid.nx), dtype=complex)
    eps = float(epsilon)
    last_bad = None
    for _ in range(7):
        delta = eps / 8.0
        centers = np.array([0.0, delta, -delta, 1j * delta, -1j * delta], dtype=complex)
        contour, weights = _contour(eps, n_contour, at)
        fields = []
        sums = {z: (np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex))
                for z in weights}
        for k, node in enumerate(np.concatenate([centers, contour])):
            try:
                if k < centers.size:
                    # cauchy_reconstruct reads the magnitudes at the center
                    f, smallest = _collect(grid, periodic, blocks_at(node), magnitudes=k == 0)
                    fields.append(f)
                else:
                    smallest = _add_contour_field(blocks_at(node), k - centers.size,
                                                  weights, sums, term)
            except SingularDenominatorError:
                smallest = 0.0  # below any safe magnitude
            if smallest < SAFE_DENOMINATOR:
                last_bad = node
                break
        else:
            for acc in (a for pair in sums.values() for a in pair):
                acc /= n_contour
                acc.flags.writeable = False
            return HolomorphyProbe(w0, w1, eps, centers, contour, fields, sums, builder=builder)
        eps /= 2.0
    raise ProbeFailure(
        f"no safe evaluation disk after 6 retries; last singular node zeta = {last_bad}",
        node=last_bad,
    )


def _add_contour_field(blocks, j: int, weights: dict, sums: dict, term: np.ndarray) -> float:
    """Add the field of `blocks`, at contour node j, into the running sums
    of every served point through the block buffer `term`; its smallest
    denominator magnitude."""
    smallest = np.inf
    for levels, mu, mag in blocks:
        smallest = min(smallest, float(np.min(mag)))
        t = term[:mu.shape[0]]
        for z, (value, deriv) in weights.items():
            value_sum, deriv_sum = sums[z]
            value_sum[levels] += np.multiply(mu, value[j], out=t)
            deriv_sum[levels] += np.multiply(mu, deriv[j], out=t)
    return smallest


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
    |(mu(d) - mu(-d))/(2d) + i*(mu(id) - mu(-id))/(2d)| / 2."""
    d = p.delta
    mu_p = p.fields[1].values
    mu_m = p.fields[2].values
    mu_ip = p.fields[3].values
    mu_im = p.fields[4].values
    res = (mu_p - mu_m) / (2 * d) + 1j * (mu_ip - mu_im) / (2 * d)
    return float(np.max(np.abs(res)) / 2.0)


def cauchy_reconstruct(p: HolomorphyProbe, zeta0: complex,
                       check_resolution: bool = False):
    """Cauchy-integral reconstruction of the field at zeta0 from the
    contour, compared to the directly computed field in hybrid norm.
    Returns (reconstructed field, hybrid-norm error)."""
    if abs(zeta0) >= p.epsilon:
        raise DomainError("reconstruction point must satisfy |zeta0| < epsilon")
    recon_vals, _ = p.contour_averages(zeta0)
    direct = p.dilatation_at(zeta0)
    recon = BeltramiField(direct.grid, recon_vals, direct.denom_mag,
                          periodic=direct.periodic)
    diff = BeltramiField(direct.grid, recon_vals - direct.values,
                         periodic=direct.periodic)
    err = hybrid_norm(diff)
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
    dists, quot = [], None
    for s in steps:
        # one buffer takes each quotient in place; the shifted field is
        # dropped before the next is built
        quot = np.subtract(p.dilatation_at(zeta0 + s).values, base.values, out=quot)
        quot /= s
        quot -= D
        dists.append(hybrid_norm(BeltramiField(base.grid, quot, periodic=base.periodic)))
    dists = np.array(dists)
    if not np.all(np.isfinite(dists)):
        raise ResolutionError(f"difference quotients at epsilon {p.epsilon:.3e} "
                              f"are not finite: distances {dists}")
    mags = np.abs(steps)
    denom = float(np.dot(mags, mags))
    slope = float(np.dot(mags, dists) / denom) if denom > 0 else 0.0
    return dists, slope
