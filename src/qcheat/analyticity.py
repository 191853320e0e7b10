"""Numerical probes of holomorphic dependence of the dilatation on the
boundary datum.

A probe fixes a base datum w0 and a direction w1, then samples the
dilatation field of w0 + zeta*w1 at the center, at +-delta and +-i*delta
(delta = epsilon/8), and on the contour |zeta| = 2*epsilon.  From these it
measures the discrete Cauchy-Riemann residual in zeta, reconstructs interior
values by the Cauchy integral, and tests difference-quotient convergence to
the contour-derived derivative, all in the hybrid norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .carleson import hybrid_norm
from .data import SampledFunction
from .errors import DomainError, ProbeFailure, SingularDenominatorError
from .extension import BeltramiField, HalfPlaneGrid, _dilatation_map
from .kernels import DEFAULT_QUADRATURE, QuadratureSpec

SAFE_DENOMINATOR = 1e-6


@dataclass(frozen=True)
class HolomorphyProbe:
    """Dilatation fields of the directional family zeta -> w0 + zeta*w1.

    `center_nodes` holds [0, delta, -delta, i*delta, -i*delta] and
    `contour_nodes` the points on |zeta| = 2*epsilon; `fields` aligns with
    the concatenation of the two.  `builder` recomputes the field at any
    zeta so quotient tests can take extra samples; `q` is the quadrature
    the fields were built with.
    """

    w0: SampledFunction
    w1: SampledFunction
    epsilon: float
    center_nodes: np.ndarray
    contour_nodes: np.ndarray
    fields: list = field(repr=False)
    builder: object = field(repr=False, default=None)
    q: QuadratureSpec = field(repr=False, default=DEFAULT_QUADRATURE)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("probe needs epsilon > 0")
        if len(self.fields) != self.center_nodes.size + self.contour_nodes.size:
            raise DomainError("probe fields do not match its nodes")

    @property
    def delta(self) -> float:
        return self.epsilon / 8.0

    def field_at_center(self, which: int) -> BeltramiField:
        return self.fields[which]

    @property
    def contour_fields(self) -> list:
        return self.fields[self.center_nodes.size:]

    def dilatation_at(self, zeta: complex) -> BeltramiField:
        for i, node in enumerate(self.center_nodes):
            if abs(node - zeta) < 1e-15 * max(1.0, abs(zeta)):
                return self.fields[i]
        if self.builder is None:
            raise DomainError("probe has no builder for off-node evaluation")
        return self.builder(zeta)


def build_probe(w0: SampledFunction, w1: SampledFunction, epsilon: float = 0.1,
                n_contour: int = 64, grid: HalfPlaneGrid | None = None,
                q: QuadratureSpec = DEFAULT_QUADRATURE) -> HolomorphyProbe:
    """Build the probe, shrinking epsilon (at most 6 times) until every node
    field has denominator magnitude >= 1e-6 everywhere.  Every field, here
    and from the probe's builder, comes from one dilatation map of w0's
    lattice and `grid`, so the multiplier tables are built once."""
    if w0.n != w1.n or w0.domain != w1.domain:
        raise DomainError("probe data must share one grid and domain")
    if grid is None:
        grid = HalfPlaneGrid.build(nx=max(64, w0.n))
    mu_of = _dilatation_map(w0, grid, q)

    def make(zeta: complex) -> BeltramiField:
        return mu_of(w0.with_values(w0.values + zeta * w1.values))

    eps = float(epsilon)
    last_bad = None
    for _ in range(7):
        delta = eps / 8.0
        centers = np.array([0.0, delta, -delta, 1j * delta, -1j * delta], dtype=complex)
        contour = 2 * eps * np.exp(2j * np.pi * np.arange(n_contour) / n_contour)
        nodes = np.concatenate([centers, contour])
        fields = []
        ok = True
        for node in nodes:
            try:
                f = make(node)
            except SingularDenominatorError:
                ok, last_bad = False, node
                break
            if f.denom_min < SAFE_DENOMINATOR:
                ok, last_bad = False, node
                break
            fields.append(f)
        if ok:
            return HolomorphyProbe(w0, w1, eps, centers, contour, fields, builder=make, q=q)
        eps /= 2.0
    raise ProbeFailure(
        f"no safe evaluation disk after 6 retries; last singular node zeta = {last_bad}",
        node=last_bad,
    )


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


def _contour_average(p: HolomorphyProbe, weight_fn) -> np.ndarray:
    """(1/n) * sum over contour nodes of mu(tau) * weight(tau); trapezoid
    discretization of a contour integral with d(tau) = 2*pi*i*tau/n."""
    taus = p.contour_nodes
    acc = np.zeros_like(p.fields[0].values)
    for tau, f in zip(taus, p.contour_fields):
        acc = acc + f.values * weight_fn(tau)
    return acc / taus.size


def cauchy_reconstruct(p: HolomorphyProbe, zeta0: complex,
                       check_resolution: bool = False):
    """Cauchy-integral reconstruction of the field at zeta0 from the
    contour, compared to the directly computed field in hybrid norm.
    Returns (reconstructed field, hybrid-norm error)."""
    if abs(zeta0) >= p.epsilon:
        raise DomainError("reconstruction point must satisfy |zeta0| < epsilon")
    recon_vals = _contour_average(p, lambda tau: tau / (tau - zeta0))
    direct = p.dilatation_at(zeta0)
    recon = BeltramiField(direct.grid, recon_vals, direct.denom_mag,
                          periodic=direct.periodic)
    diff = BeltramiField(direct.grid, recon_vals - direct.values,
                         periodic=direct.periodic)
    err = hybrid_norm(diff)
    if check_resolution:
        doubled = build_probe(p.w0, p.w1, p.epsilon, 2 * p.contour_nodes.size,
                              direct.grid, p.q)
        _, err2 = cauchy_reconstruct(doubled, zeta0)
        if err2 > err and err > 1e-14:
            from .errors import ResolutionError
            raise ResolutionError(
                f"contour too coarse: error {err:.3e} does not decrease "
                f"when doubled ({err2:.3e})"
            )
    return recon, err


def contour_derivative(p: HolomorphyProbe, zeta0: complex) -> np.ndarray:
    """d(mu)/d(zeta) at zeta0 from the contour (Cauchy integral for the
    first derivative)."""
    if abs(zeta0) >= p.epsilon:
        raise DomainError("derivative point must satisfy |zeta0| < epsilon")
    return _contour_average(p, lambda tau: tau / (tau - zeta0) ** 2)


def quotient_convergence(p: HolomorphyProbe, zeta0: complex, steps):
    """Hybrid-norm distances between difference quotients at zeta0 and the
    contour-derived derivative, with the fitted linear slope in |step|.
    Returns (distances, slope)."""
    steps = np.asarray(steps, dtype=complex)
    if np.any(np.abs(zeta0 + steps) >= p.epsilon) or abs(zeta0) >= p.epsilon:
        raise DomainError("quotient nodes must stay inside radius epsilon")
    D = contour_derivative(p, zeta0)
    base = p.dilatation_at(zeta0)
    dists = []
    for s in steps:
        shifted = p.dilatation_at(zeta0 + s)
        quot = (shifted.values - base.values) / s
        diff = BeltramiField(base.grid, quot - D, periodic=base.periodic)
        dists.append(hybrid_norm(diff))
    dists = np.array(dists)
    mags = np.abs(steps)
    denom = float(np.dot(mags, mags))
    slope = float(np.dot(mags, dists) / denom) if denom > 0 else 0.0
    return dists, slope
