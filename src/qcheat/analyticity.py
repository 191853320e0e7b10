"""Numerical probes of holomorphic dependence of the dilatation on the
boundary datum.

A probe fixes a base datum w0 and a direction w1, then samples the
dilatation field of w0 + zeta*w1 at the center, at +-delta and +-i*delta
(delta = epsilon/8), and on the contour |zeta| = 2*epsilon.  From these it
measures the discrete Cauchy-Riemann residual in zeta, reconstructs interior
values by the Cauchy integral, and tests difference-quotient convergence to
the contour-derived derivative, all in the hybrid norm.

A probe walks the blocks of levels once (`_walk`), through the one walk of
the spectral plan that also builds the extension field.  In each block it
evaluates every node in turn: 0, delta, -delta, i*delta, -i*delta, the
contour, then, for each point zeta0 it serves, the field at zeta0 (unless
it is 0) and the quotient nodes zeta0 + s.  Each node's rows go at once to
the readers it carries: the residual's (`_Residual`) fold the block maxima
of the Cauchy-Riemann residual; a point's (`_Point`) fold the block rows of
the two contour sums (the Cauchy value and the first derivative), added in
contour order, and a `carleson.HalfPlaneSums` for the Cauchy error and for
each quotient distance, which reads a field the same to the bit whole or in
any blocks.  So a probe holds no whole field: a node keeps only its weighed
spectrum, and a statistic a few rows of one block.  The accessors that
return whole arrays walk again and collect them, only when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .carleson import HalfPlaneSums
from .data import SampledFunction
from .errors import (DomainError, ProbeFailure, QcheatError, ResolutionError,
                     SingularDenominatorError)
from .extension import BeltramiField, HalfPlaneGrid, _collect, _datum_blocks, _DilatationMap

SAFE_DENOMINATOR = 1e-6


@dataclass(frozen=True)
class HolomorphyProbe:
    """What one walk of the directional family zeta -> w0 + zeta*w1 found.

    `residual` is the discrete Cauchy-Riemann residual at the center, from
    the fields at the `center_nodes` 0, delta, -delta, i*delta and
    -i*delta, and `served` maps each point zeta0 the probe was built for
    to its closed `_Point`: the Cauchy error of the contour
    |zeta| = 2*epsilon (`contour_nodes`) and the quotient distances at the
    steps it was built with.  No field is kept: `family`, the probe's one
    dilatation map of w0 + zeta*w1, walks the field of any zeta again for
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

    def point(self, zeta0: complex) -> "_Point":
        """The statistics of a served point zeta0."""
        try:
            return self.served[complex(zeta0)]
        except KeyError:
            raise DomainError(f"probe was not built for zeta0 = {zeta0}; "
                              f"it serves {list(self.served)}") from None


def _nodes(eps: float, n_contour: int) -> tuple:
    """The probe nodes at eps: the center nodes 0, delta, -delta, i*delta
    and -i*delta, and the contour |tau| = 2*eps."""
    delta = eps / 8.0
    return (np.array([0.0, delta, -delta, 1j * delta, -1j * delta], dtype=complex),
            2 * eps * np.exp(2j * np.pi * np.arange(n_contour) / n_contour))


def _weights(eps: float, contour: np.ndarray, at) -> dict:
    """For each point of `at` inside radius eps, the weights tau/(tau -
    zeta0) and tau/(tau - zeta0)**2 per contour node.  A weight that is not
    finite and nonzero (an epsilon too small for the contour arithmetic,
    say) raises DomainError."""
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
    return weights


class _Residual:
    """The readers of the discrete Cauchy-Riemann residual at the center.
    The rows at delta are copied into one block buffer, which the rows at
    -delta turn in place into (mu(delta) - mu(-delta)) / (2 delta); the
    rows at i*delta into a second, and the rows at -i*delta then give the
    block's maximum of |that + i*(mu(i delta) - mu(-i delta)) / (2 delta)|,
    the operands in the order of the whole-array formula, so the residual
    (half the largest block maximum) is the same to the bit."""

    def __init__(self, delta: float, shape):
        self.step, self.maxima = 2 * delta, []
        self.x_quotient, self.plus_i = np.zeros((2,) + shape, dtype=complex)

    def readers(self):
        return [self._plus, self._minus, self._plus_i, self._minus_i]

    def _plus(self, levels, mu, mag):
        self.x_quotient[:len(mu)] = mu

    def _minus(self, levels, mu, mag):
        q = self.x_quotient[:len(mu)]
        np.subtract(q, mu, out=q)
        q /= self.step

    def _plus_i(self, levels, mu, mag):
        self.plus_i[:len(mu)] = mu

    def _minus_i(self, levels, mu, mag):
        q, plus_i = self.x_quotient[:len(mu)], self.plus_i[:len(mu)]
        self.maxima.append(np.max(np.abs(q + 1j * (plus_i - mu) / self.step)))


class _Point:
    """One served point zeta0 of a walk.  Its readers fold block rows: the
    field at zeta0 (`field`) into a block buffer, the contour rows
    (`contour`) into the block rows of the two contour sums, and the Cauchy
    error (`end_block`) and each quotient distance (`quotient`) into a
    `carleson.HalfPlaneSums`.
    `term` is a block buffer the points of a walk share.  After `close` it
    holds what the walk found: the `cauchy_error`, the quotient `steps`
    walked (none where a node zeta0 + s would leave the disk) and their
    `distances`, and the first error of the field at zeta0 (`failure`) and
    then of the quotient nodes in step order (`quotient_failure`); a
    statistic that a failure leaves unread is None.  With `keep`, `whole`
    collects the contour averages of the Cauchy value and the derivative
    and the denominator magnitudes at zeta0, whole."""

    def __init__(self, zeta0, weights, steps, grid, periodic, term, keep):
        self.zeta0, self.steps, self._weights, self._term = zeta0, steps, weights, term
        # the field at 0 is a probe node, decided with them
        self.own_field = abs(zeta0) >= 1e-15
        self._sums = np.zeros((2,) + term.shape, dtype=complex)
        self._base = np.zeros(term.shape, dtype=complex)
        self._error = HalfPlaneSums(grid, periodic)
        self._quotients = [HalfPlaneSums(grid, periodic) for _ in steps]
        self.whole = tuple(np.empty((grid.ny, grid.nx), dtype=t)
                           for t in (complex, complex, float)) if keep else None

    def field(self, levels, mu, mag):
        self._base[:len(mu)] = mu
        if self.whole:
            self.whole[2][levels] = mag

    def contour(self, j, levels, mu, mag):
        m, (value, deriv) = len(mu), self._weights
        value_sum, deriv_sum = self._sums[:, :m]
        value_sum += np.multiply(mu, value[j], out=self._term[:m])
        deriv_sum += np.multiply(mu, deriv[j], out=self._term[:m])
        if j == value.size - 1:
            self._sums[:, :m] /= value.size

    def quotient(self, j, levels, mu, mag):
        m = len(mu)
        self._quotients[j].add(levels, (mu - self._base[:m]) / self.steps[j] - self._sums[1, :m])

    def end_block(self, levels):
        m = levels.stop - levels.start
        value_avg, deriv_avg = self._sums[:, :m]
        self._error.add(levels, value_avg - self._base[:m])
        if self.whole:
            self.whole[0][levels] = value_avg
            self.whole[1][levels] = deriv_avg
        self._sums[:, :m] = 0

    def close(self, own):
        """Decide the point's own nodes, `own` in node order: the field at
        zeta0 unless it is a probe node (`own_field`), then the quotient
        nodes in step order; read its statistics and drop its running
        state."""
        self.failure = self.quotient_failure = None
        for i, d in enumerate(own):  # up to the first error
            try:
                d.close()
            except QcheatError as e:
                if i == 0 and self.own_field:
                    self.failure = e
                else:
                    self.quotient_failure = e
                break
        for acc in self.whole or ():
            acc.flags.writeable = False
        unread = self.failure is not None
        self.cauchy_error = None if unread else self._error.report().hybrid_norm
        self.distances = (None if unread or self.quotient_failure is not None
                          else np.array([q.report().hybrid_norm for q in self._quotients]))
        del self._sums, self._base, self._term, self._error, self._quotients


def _walk(family, eps: float, n_contour: int, at, steps=(), keep: bool = False):
    """The probe at `eps`: one walk of `family` over the blocks of levels.

    The nodes are 0, delta, -delta, i*delta, -i*delta, the contour, then
    for each point zeta0 of `at` inside radius eps the field at zeta0
    (unless it is 0) and the nodes zeta0 + s for the quotient `steps`
    (none if one would leave the disk).  In each block every node's rows go
    to its readers in node order, then each point ends the block: a
    point's contour sums take the contour rows in contour order and are
    divided by n_contour, the same bits as whole sums.  Then the probe
    nodes are decided in order: the first whose checks raise
    SingularDenominatorError or whose smallest denominator magnitude is
    below SAFE_DENOMINATOR is returned as (bad node, None, {}); any other
    error of the first failing node is raised.  Only then is each point
    closed, and (None, residual, {zeta0: point}) returned.  A node whose
    checks failed feeds no further rows, and every block buffer starts at
    0, so no reduction reads a value that is not finite."""
    grid = family.grid
    centers, contour = _nodes(eps, n_contour)
    weights = _weights(eps, contour, at)
    steps = np.asarray(steps, dtype=complex)
    term = np.zeros((family.block_rows, grid.nx), dtype=complex)
    residual = _Residual(eps / 8.0, term.shape)
    # (zeta, readers, the point that decides it, or None for a probe node)
    nodes = [(zeta, [], None) for zeta in np.concatenate([centers, contour])]
    for (_, readers, _), read in zip(nodes[1:], residual.readers()):
        readers.append(read)
    on_contour = [readers for _, readers, _ in nodes[centers.size:]]
    points = []
    for zeta0, w in weights.items():
        walked = steps if np.all(np.abs(zeta0 + steps) < eps) else steps[:0]
        pt = _Point(zeta0, w, walked, grid, family.periodic, term, keep)
        for j, readers in enumerate(on_contour):
            readers.append(partial(pt.contour, j))
        if pt.own_field:
            nodes.append((zeta0, [pt.field], pt))
        else:
            nodes[0][1].append(pt.field)
        nodes.extend((zeta0 + s, [partial(pt.quotient, j)], pt) for j, s in enumerate(walked))
        points.append(pt)
    data = [family.at(zeta) for zeta, _, _ in nodes]
    for levels, rows in family.walk(data):
        for (_, readers, _), got in zip(nodes, rows):
            for read in readers if got is not None else ():
                read(levels, *got)
        for pt in points:
            pt.end_block(levels)
    for (zeta, _, point), d in zip(nodes, data):
        if point is None:
            try:
                d.close()
            except SingularDenominatorError:
                return zeta, None, {}
            if d.smallest < SAFE_DENOMINATOR:
                return zeta, None, {}
    for pt in points:
        pt.close([d for (_, _, point), d in zip(nodes, data) if point is pt])
    return None, float(np.max(residual.maxima) / 2.0), {pt.zeta0: pt for pt in points}


def _probe(family, w0, w1, epsilon: float, n_contour: int, at, steps) -> HolomorphyProbe:
    """Walk `family` at epsilon, halving it (at most 6 times) while a probe
    node is unsafe (`_walk`); a halving discards the whole walk."""
    eps = float(epsilon)
    for _ in range(7):
        last_bad, residual, served = _walk(family, eps, n_contour, at,
                                           () if steps is None else steps(eps))
        if last_bad is None:
            return HolomorphyProbe(w0, w1, eps, *_nodes(eps, n_contour), residual, served, family)
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
    dilatation map of w0 + zeta*w1 on `grid`, so its plan is built
    once."""
    if w0.n != w1.n or w0.domain != w1.domain:
        raise DomainError("probe data must share one grid and domain")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise DomainError(f"probe needs a finite epsilon > 0, got {epsilon}")
    if n_contour < 1:
        raise DomainError(f"probe needs n_contour >= 1, got {n_contour}")
    if not all(abs(zeta0) < epsilon for zeta0 in at):
        raise DomainError(f"probe points {list(at)} must satisfy |zeta0| < epsilon")
    _weights(epsilon, _nodes(epsilon, n_contour)[1], at)
    if grid is None:
        grid = HalfPlaneGrid.build(nx=max(64, w0.n))
    return _probe(_DilatationMap(w0, grid, w1), w0, w1, epsilon, n_contour, at, steps)


def _walk_again(p: HolomorphyProbe, zeta0: complex, steps=(), keep: bool = False) -> _Point:
    """The point zeta0 from a new walk of the probe at its epsilon."""
    return _walk(p.family, p.epsilon, p.contour_nodes.size, (zeta0,), steps, keep)[2][
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
    denom = float(np.sum(mags * mags))
    slope = float(np.sum(mags * dists) / denom) if denom > 0 else 0.0
    return dists, slope
