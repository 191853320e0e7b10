"""Numerical probes of holomorphic dependence of the dilatation on the
boundary datum.

A probe fixes a base datum w0 and a direction w1, then samples the
dilatation field of w0 + zeta*w1 at the center, at +-delta and +-i*delta
(delta = epsilon/8), and on the contour |zeta| = 2*epsilon.  From these it
measures the discrete Cauchy-Riemann residual in zeta, reconstructs interior
values by the Cauchy integral, and tests difference-quotient convergence to
the contour-derived derivative, all in the hybrid norm.

A probe walks the blocks of levels once, block-outer (`_walk`).  In each
block it evaluates every node in turn: 0, delta, -delta, i*delta,
-i*delta, the contour, then, for each point zeta0 it serves, the field at
zeta0 (unless it is 0) and the quotient nodes zeta0 + s.  Each node's rows
fold at once into every statistic: the block maxima of the Cauchy-Riemann
residual; per point, the block rows of the two contour sums (the Cauchy
value and the first derivative), added in contour order; and a
`carleson.HalfPlaneSums` for the Cauchy error and for each quotient
distance, which reads a field the same to the bit whole or in any blocks.
So a probe holds no whole field: a node keeps only its weighed spectrum,
and a statistic a few rows of one block.  The accessors that return whole
arrays walk again and collect them, only when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .carleson import HalfPlaneSums
from .data import SampledFunction
from .errors import (DomainError, ProbeFailure, QcheatError, ResolutionError,
                     SingularDenominatorError)
from .extension import (_CHUNK_ENTRIES, BeltramiField, HalfPlaneGrid, _collect,
                        _datum_blocks, _DilatationMap)

SAFE_DENOMINATOR = 1e-6
# the walk's probe nodes: 0, +-delta, +-i*delta, then the contour
_CENTERS = 5


class _Family(_DilatationMap):
    """The dilatation fields of zeta -> w0 + zeta*w1 on `grid`, walked
    through one dilatation map; `at(zeta)` is the walk's datum of the
    field at zeta."""

    def __init__(self, w0: SampledFunction, w1: SampledFunction, grid: HalfPlaneGrid):
        super().__init__(w0, grid)
        self._w0, self._w1 = w0, w1

    def at(self, zeta: complex):
        return self.datum(lambda: self._w0.values + zeta * self._w1.values)


@dataclass(frozen=True)
class HolomorphyProbe:
    """What one walk of the directional family zeta -> w0 + zeta*w1 found.

    `residual` is the discrete Cauchy-Riemann residual at the center, from
    the fields at the `center_nodes` 0, delta, -delta, i*delta and
    -i*delta, and `served` maps each point zeta0 the probe was built for
    to its `_Served` statistics: the Cauchy error of the contour
    |zeta| = 2*epsilon (`contour_nodes`) and the quotient distances at the
    steps it was built with.  No field is kept: `family` walks the
    fields of any zeta again, through the probe's one dilatation map, for
    the accessors that return whole arrays.
    """

    w0: SampledFunction
    w1: SampledFunction
    epsilon: float
    center_nodes: np.ndarray
    contour_nodes: np.ndarray
    residual: float
    served: dict = field(repr=False)
    family: object = field(repr=False)

    def __post_init__(self):
        if self.epsilon <= 0:
            raise DomainError("probe needs epsilon > 0")

    @property
    def delta(self) -> float:
        return self.epsilon / 8.0

    @property
    def fields(self) -> list:
        """The whole fields the probe keeps: none."""
        return []

    def dilatation_at(self, zeta: complex) -> BeltramiField:
        """The field at zeta, walked alone and collected whole."""
        family = self.family
        return _collect(family.grid, family.periodic, _datum_blocks(family.walk, family.at(zeta)))

    def point(self, zeta0: complex) -> "_Served":
        """The statistics of a served point zeta0."""
        try:
            return self.served[complex(zeta0)]
        except KeyError:
            raise DomainError(f"probe was not built for zeta0 = {zeta0}; "
                              f"it serves {list(self.served)}") from None


@dataclass(frozen=True)
class _Served:
    """What a walk found for one point zeta0: the hybrid-norm Cauchy error,
    the quotient steps walked (none where a node zeta0 + s would leave the
    disk) and their distances, and the first error of the point's own
    nodes, the field at zeta0 (`failure`) and then the quotient nodes in
    step order (`quotient_failure`); a statistic that a failure leaves
    unread is None.  Given `keep`, `whole` holds the contour averages of
    the Cauchy value and the derivative and the field's denominator
    magnitudes at zeta0, whole."""

    cauchy_error: float | None
    steps: np.ndarray
    distances: np.ndarray | None
    failure: QcheatError | None
    quotient_failure: QcheatError | None
    whole: tuple | None = None


class _Walk(NamedTuple):
    centers: np.ndarray
    contour: np.ndarray
    bad: complex | None
    residual: float | None
    served: dict


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


class _Point:
    """The running state of one served point zeta0 in a walk: its contour
    weights, its own nodes, and the block rows of its contour sums and of
    its field (`sums`, `base`)."""

    def __init__(self, zeta0, weights, own, quotient, steps, grid, periodic, shape, keep):
        self.zeta0, self.weights, self.own, self.quotient, self.steps = (
            zeta0, weights, own, quotient, steps)
        self.sums = np.zeros((2,) + shape, dtype=complex)
        self.base = np.zeros(shape, dtype=complex)
        self.error = HalfPlaneSums(grid, periodic)
        self.distances = [HalfPlaneSums(grid, periodic) for _ in steps]
        self.whole = (np.empty((grid.ny, grid.nx), dtype=complex),
                      np.empty((grid.ny, grid.nx), dtype=complex),
                      np.empty((grid.ny, grid.nx))) if keep else None

    def take_field(self, levels, m, mu, mag):
        self.base[:m] = mu
        if self.whole:
            self.whole[2][levels] = mag

    def take_contour(self, j, m, mu, term, n_contour):
        value_sum, deriv_sum = self.sums[:, :m]
        value, deriv = self.weights
        value_sum += np.multiply(mu, value[j], out=term)
        deriv_sum += np.multiply(mu, deriv[j], out=term)
        if j == n_contour - 1:
            self.sums[:, :m] /= n_contour

    def take_quotient(self, j, levels, m, mu):
        self.distances[j].add(levels, (mu - self.base[:m]) / self.steps[j] - self.sums[1, :m])

    def end_block(self, levels, m):
        value_avg, deriv_avg = self.sums[:, :m]
        self.error.add(levels, value_avg - self.base[:m])
        if self.whole:
            self.whole[0][levels] = value_avg
            self.whole[1][levels] = deriv_avg
        self.sums[:, :m] = 0

    def close(self, data) -> _Served:
        """Close the point's own nodes in order and read its statistics."""
        failure = quotient_failure = None
        if self.own:  # the field at 0 is a probe node, decided with them
            try:
                data[self.own].close()
            except QcheatError as e:
                failure = e
        for k in self.quotient if failure is None else ():
            try:
                data[k].close()
            except QcheatError as e:
                quotient_failure = e
                break
        for acc in self.whole or ():
            acc.flags.writeable = False
        unread = failure is not None
        return _Served(
            None if unread else self.error.report().hybrid_norm, self.steps,
            None if unread or quotient_failure is not None
            else np.array([d.report().hybrid_norm for d in self.distances]),
            failure, quotient_failure, self.whole)


def _walk(family, eps: float, n_contour: int, at, steps=(), keep: bool = False) -> _Walk:
    """The probe at `eps`: one walk of `family` over the blocks of levels.

    The nodes are 0, delta, -delta, i*delta, -i*delta, the contour, then
    for each point zeta0 of `at` inside radius eps the field at zeta0
    (unless it is 0) and the nodes zeta0 + s for the quotient `steps`
    (none if one would leave the disk).  In each block every node's rows
    fold into the statistics in this order.  The values at delta are
    copied into one block buffer, which the rows at -delta turn in place
    into (mu(delta) - mu(-delta)) / (2 delta); the values at i*delta into
    a second, and the rows at -i*delta then give the block's maximum of
    |that + i*(mu(i delta) - mu(-i delta)) / (2 delta)|, the operands in
    the order of the whole-array formula, so the residual (half the
    largest block maximum) is the same to the bit.  Each point's contour
    sums start at 0 in each block and take the contour rows in contour
    order, then are divided by n_contour: the same bits as whole sums.

    After the walk the probe nodes (the center nodes and the contour) are
    decided in order: `bad` is the first whose checks raise
    SingularDenominatorError or whose smallest denominator magnitude is
    below SAFE_DENOMINATOR; any other error of the first failing node is
    raised.  Only when every probe node passed are the statistics read,
    and each point's own errors recorded in its `_Served`.  A node whose
    checks failed feeds no further rows, and every block buffer starts at
    0, so no reduction reads a value that is not finite."""
    grid = family.grid
    delta = eps / 8.0
    centers = np.array([0.0, delta, -delta, 1j * delta, -1j * delta], dtype=complex)
    contour, weights = _contour(eps, n_contour, at)
    steps = np.asarray(steps, dtype=complex)
    shape = (min(grid.ny, max(1, _CHUNK_ENTRIES // grid.nx)), grid.nx)
    zetas = list(centers) + list(contour)
    # node index -> the point whose field it is, or (point, step index)
    points, field_of, quotient_of = [], {}, {}
    for zeta0, w in weights.items():
        own = 0 if abs(zeta0) < 1e-15 else len(zetas)
        if own:
            zetas.append(zeta0)
        walked = steps if np.all(np.abs(zeta0 + steps) < eps) else steps[:0]
        quotient = range(len(zetas), len(zetas) + walked.size)
        zetas.extend(zeta0 + walked)
        pt = _Point(zeta0, w, own, quotient, walked, grid, family.periodic, shape, keep)
        points.append(pt)
        field_of[own] = pt
        quotient_of.update((k, (pt, j)) for j, k in enumerate(quotient))
    data = [family.at(zeta) for zeta in zetas]
    smallest = np.full(len(zetas), np.inf)
    x_quotient, plus_i, term = (np.zeros(shape, dtype=complex) for _ in range(3))
    maxima = []
    step = 2 * delta
    for levels, rows in family.walk(data):
        m = levels.stop - levels.start
        for k, got in enumerate(rows):
            if got is None:
                continue
            mu, mag = got
            smallest[k] = min(smallest[k], float(np.min(mag)))
            if k in field_of:
                field_of[k].take_field(levels, m, mu, mag)
            if k == 1:
                x_quotient[:m] = mu
            elif k == 2:
                np.subtract(x_quotient[:m], mu, out=x_quotient[:m])
                x_quotient[:m] /= step
            elif k == 3:
                plus_i[:m] = mu
            elif k == 4:
                maxima.append(np.max(np.abs(x_quotient[:m] + 1j * (plus_i[:m] - mu) / step)))
            elif _CENTERS <= k < _CENTERS + n_contour:
                for pt in points:
                    pt.take_contour(k - _CENTERS, m, mu, term[:m], n_contour)
            elif k in quotient_of:
                pt, j = quotient_of[k]
                pt.take_quotient(j, levels, m, mu)
        for pt in points:
            pt.end_block(levels, m)
    for k in range(_CENTERS + n_contour):
        try:
            data[k].close()
        except SingularDenominatorError:
            smallest[k] = 0.0  # below any safe magnitude
        if smallest[k] < SAFE_DENOMINATOR:
            return _Walk(centers, contour, zetas[k], None, {})
    return _Walk(centers, contour, None, float(np.max(maxima) / 2.0),
                 {pt.zeta0: pt.close(data) for pt in points})


def _probe(family, w0, w1, epsilon: float, n_contour: int, at, steps) -> HolomorphyProbe:
    """Walk `family` at epsilon, halving it (at most 6 times) while a probe
    node is unsafe (`_walk`); a halving discards the whole walk."""
    eps = float(epsilon)
    last_bad = None
    for _ in range(7):
        walked = _walk(family, eps, n_contour, at, () if steps is None else steps(eps))
        if walked.bad is None:
            return HolomorphyProbe(w0, w1, eps, walked.centers, walked.contour,
                                   walked.residual, walked.served, family)
        last_bad = walked.bad
        eps /= 2.0
    raise ProbeFailure(
        f"no safe evaluation disk after 6 retries; last singular node zeta = {last_bad}",
        node=last_bad,
    )


def build_probe(w0: SampledFunction, w1: SampledFunction, epsilon: float = 0.1,
                n_contour: int = 64, grid: HalfPlaneGrid | None = None,
                at=(0.0,), steps=None) -> HolomorphyProbe:
    """Build the probe for the points `at` (each |zeta0| < epsilon) whose
    statistics it keeps, shrinking epsilon (at most 6 times) until every
    node field has denominator magnitude >= 1e-6 everywhere.  Epsilon
    halves only on a small or vanishing denominator
    (SingularDenominatorError); any other error, a ResolutionError among
    them (a denominator below the engine's rounding floor, say), propagates
    at once.  A point that a halved epsilon no longer covers is dropped.
    `steps`, if given, maps the probe's epsilon to the quotient steps it
    walks at each point (`quotient_convergence` reads their distances).
    Every field, here and from the probe's accessors, comes from one
    dilatation map of w0's lattice and `grid`, so its plan is built
    once."""
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
    return _probe(_Family(w0, w1, grid), w0, w1, epsilon, n_contour, at, steps)


def _walk_again(p: HolomorphyProbe, zeta0: complex, steps=(), keep: bool = False) -> _Served:
    """The point zeta0 from a new walk of the probe at its epsilon."""
    return _walk(p.family, p.epsilon, p.contour_nodes.size, (zeta0,), steps, keep).served[
        complex(zeta0)]


def cr_residual(p: HolomorphyProbe) -> float:
    """Sup over the grid of the discrete d/d(conj zeta) at the center:
    |(mu(d) - mu(-d))/(2d) + i*(mu(id) - mu(-id))/(2d)| / 2, taken block by
    block as the probe was walked."""
    return p.residual


def cauchy_error(p: HolomorphyProbe, zeta0: complex, check_resolution: bool = False) -> float:
    """Hybrid-norm distance between the Cauchy-integral reconstruction of
    the field at zeta0 from the contour and the field itself, as the walk
    found it.  With `check_resolution`, a probe with twice the contour
    nodes must not give a larger error, or ResolutionError is raised."""
    if abs(zeta0) >= p.epsilon:
        raise DomainError("reconstruction point must satisfy |zeta0| < epsilon")
    served = p.point(zeta0)
    if served.failure is not None:
        raise served.failure
    err = served.cauchy_error
    if check_resolution:
        doubled = build_probe(p.w0, p.w1, p.epsilon, 2 * p.contour_nodes.size,
                              p.family.grid, at=(zeta0,))
        err2 = cauchy_error(doubled, zeta0)
        if err2 > err and err > 1e-14:
            raise ResolutionError(
                f"contour too coarse: error {err:.3e} does not decrease "
                f"when doubled ({err2:.3e})"
            )
    return err


def cauchy_reconstruct(p: HolomorphyProbe, zeta0: complex,
                       check_resolution: bool = False):
    """Cauchy-integral reconstruction of the field at zeta0 from the
    contour, with its `cauchy_error`.  Returns (reconstructed field,
    hybrid-norm error); the field, with the magnitudes of the field at
    zeta0, is collected from a new walk."""
    err = cauchy_error(p, zeta0, check_resolution)
    value, _, denom_mag = _walk_again(p, zeta0, keep=True).whole
    return BeltramiField(p.family.grid, value, denom_mag, periodic=p.family.periodic), err


def contour_derivative(p: HolomorphyProbe, zeta0: complex) -> np.ndarray:
    """d(mu)/d(zeta) at zeta0 from the contour (Cauchy integral for the
    first derivative), collected from a new walk, read-only."""
    if abs(zeta0) >= p.epsilon:
        raise DomainError("derivative point must satisfy |zeta0| < epsilon")
    p.point(zeta0)
    return _walk_again(p, zeta0, keep=True).whole[1]


def quotient_convergence(p: HolomorphyProbe, zeta0: complex, steps):
    """Hybrid-norm distances between difference quotients at zeta0 and the
    contour-derived derivative, with the fitted linear slope in |step|.
    Steps the probe was not built with take a new walk.  Returns
    (distances, slope); a distance that is not finite raises
    ResolutionError."""
    steps = np.asarray(steps, dtype=complex)
    if np.any(np.abs(zeta0 + steps) >= p.epsilon) or abs(zeta0) >= p.epsilon:
        raise DomainError("quotient nodes must stay inside radius epsilon")
    served = p.point(zeta0)
    if not np.array_equal(served.steps, steps):
        served = _walk_again(p, zeta0, steps)
    for failure in (served.failure, served.quotient_failure):
        if failure is not None:
            raise failure
    dists = served.distances
    if not np.all(np.isfinite(dists)):
        raise ResolutionError(f"difference quotients at epsilon {p.epsilon:.3e} "
                              f"are not finite: distances {dists}")
    mags = np.abs(steps)
    denom = float(np.dot(mags, mags))
    slope = float(np.dot(mags, dists) / denom) if denom > 0 else 0.0
    return dists, slope
