"""Estimators for sampled boundary data: mean oscillation (BMO/VMO),
inverse-Jensen (A-infinity) and doubling constants of weights, the
exponential level-set profile of oscillation, quasisymmetry constants,
and kernel-weighted oscillation integrals.

All interval estimators run over the same family: dyadic widths from the
full domain down to 4 grid cells, translated by half-steps (with wraparound
on periodic domains).  The sup over this family is within a bounded factor
of the sup over all intervals; exhaustive scans serve as the test oracle.
The family, the window sums and the "sup over family scales <= t" profile
lookup also serve the Carleson boxes and sectors of `carleson`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SampledFunction
from .errors import CoverageError, DomainError
from .kernels import TRUNCATION_RADIUS, Kernel


def _dyadic_cell_widths(n: int, min_cells: int = 4) -> list[int]:
    widths = []
    c = n
    while c >= min_cells:
        widths.append(c)
        c //= 2
    return widths


def _starts(c: int, n: int, periodic: bool) -> np.ndarray:
    step = max(c // 2, 1)
    if periodic:
        return np.arange(0, n, step)
    return np.arange(0, n - c + 1, step)


def _window_sums(vals: np.ndarray, copies: int = 1, lead: int = 0):
    """Sums of vals along its last axis over index windows [start, stop),
    read on `copies` periods of vals laid end to end from `lead` periods
    before index 0.  One cumulative sum serves every window: the returned
    map takes index arrays (start, stop)."""
    off = lead * vals.shape[-1]
    ext = np.tile(vals, (1,) * (vals.ndim - 1) + (copies,))
    pref = np.concatenate([np.zeros(vals.shape[:-1] + (1,)), np.cumsum(ext, axis=-1)], axis=-1)
    # windows index the leading axis of the transpose: cheap on 1-D data,
    # and 2-D sums come back column-major, as `pref[:, idx]` would give
    # them, which fixes the summation order of the Carleson quadratures'
    # matrix products
    pref_t = pref.T

    def sums(start, stop):
        if off:
            start, stop = start + off, stop + off
        return (pref_t[stop] - pref_t[start]).T

    return sums


def _windows(vals: np.ndarray, c: int, starts: np.ndarray, periodic: bool) -> np.ndarray:
    if periodic:
        ext = np.concatenate([vals, vals[:c]])
    else:
        ext = vals
    return ext[starts[:, None] + np.arange(c)[None, :]]


def interval_family(f: SampledFunction):
    """(cells, starts) pairs of the estimator family for f's grid."""
    n = f.n
    return [(c, _starts(c, n, f.periodic)) for c in _dyadic_cell_widths(n)]


# ---------------------------------------------------------------------------
# profiles over a family of scales

@dataclass(frozen=True)
class ProfileEntry:
    scale: float
    value: float
    resolution_limited: bool = False


def _cumulative_profile(per_scale: list[tuple[float, float, bool]]) -> list[ProfileEntry]:
    """per_scale holds (scale, sup at that scale, limited); the profile value
    at t is the sup over family scales <= t, so accumulate ascending."""
    running = 0.0
    out = []
    for scale, val, limited in sorted(per_scale):
        running = max(running, val)
        out.append(ProfileEntry(scale, running, limited))
    return list(reversed(out))


def _profile_at_scales(profile: list[ProfileEntry], scales, cutoff: float) -> list[ProfileEntry]:
    """The cumulative profile read at descending scales: a scale below the
    smallest family scale, or below `cutoff`, is resolution-limited."""
    scales = np.asarray(scales, dtype=float)
    if scales.size == 0 or np.any(scales <= 0):
        raise DomainError("scales must be positive")
    if np.any(np.diff(scales) > 0):
        raise DomainError("scales must be sorted descending")
    fam_scales = np.array([p.scale for p in profile])  # descending
    fam_vals = np.array([p.value for p in profile])
    out = []
    for t in scales:
        mask = fam_scales <= t * (1 + 1e-12)
        if np.any(mask):
            val = float(fam_vals[mask][0])  # profiles are cumulative sups
            limited = profile[int(np.argmax(mask))].resolution_limited
        else:
            val, limited = 0.0, True
        out.append(ProfileEntry(float(t), val, bool(limited or t < cutoff)))
    return out


# ---------------------------------------------------------------------------
# mean oscillation

def _oscillation_by_width(f: SampledFunction) -> list[tuple[int, float]]:
    out = []
    for c, starts in interval_family(f):
        W = _windows(f.values, c, starts, f.periodic)
        m = W.mean(axis=1)
        osc = np.abs(W - m[:, None]).mean(axis=1)
        out.append((c, float(osc.max())))
    return out


def bmo_norm(f: SampledFunction) -> float:
    """Sup of the mean oscillation (mean of |f - interval mean|) over the
    dyadic + half-step interval family."""
    return max(v for _, v in _oscillation_by_width(f))


def vmo_profile(f: SampledFunction, scales) -> list[ProfileEntry]:
    """For each scale t (descending), the sup of mean oscillation over
    family intervals of length <= t.  Scales below 4 grid cells, and scales
    below the smallest family interval, carry a resolution warning on their
    entry."""
    per_width = [(c * f.h, v, False) for c, v in _oscillation_by_width(f)]
    return _profile_at_scales(_cumulative_profile(per_width), scales, 4 * f.h * (1 - 1e-12))


# ---------------------------------------------------------------------------
# weights

def _require_weight(omega: SampledFunction) -> np.ndarray:
    if not omega.is_real:
        raise DomainError("weight must be real-valued")
    w = omega.values.real
    if np.any(w <= 0):
        raise DomainError("weight must be strictly positive")
    return w


def a_infty_constant(omega: SampledFunction) -> float:
    """Sup over the interval family of arithmetic mean / geometric mean."""
    w = _require_weight(omega)
    n = omega.n
    per = omega.periodic
    copies = 2 if per else 1
    sum_w = _window_sums(w, copies)
    sum_l = _window_sums(np.log(w), copies)
    best = 1.0
    for c in _dyadic_cell_widths(n):
        starts = _starts(c, n, per)
        am = sum_w(starts, starts + c) / c
        gm = np.exp(sum_l(starts, starts + c) / c)
        best = max(best, float(np.max(am / gm)))
    return best


def doubling_constant(omega: SampledFunction) -> float:
    """Sup over same-center pairs (I, 2I) inside the domain of
    mass(2I) / mass(I), with trapezoid masses on the lattice."""
    w = _require_weight(omega)
    n = omega.n
    per = omega.periodic
    if per:
        # pairs reach at most half a period past either end; `ends`, two
        # periods long, reads each index in [-2n, 2n) as its node mod n
        sums, ends = _window_sums(w, copies=3, lead=1), np.tile(w, 2)
    else:
        sums, ends = _window_sums(w), w

    def mass(i0, i1):
        return sums(i0, i1 + 1) - (ends[i0] + ends[i1]) / 2

    best = 1.0
    r = 1
    while 4 * r <= (n if per else n - 1):
        step = max(r // 2, 1)
        centers = np.arange(0, n, step) if per else np.arange(2 * r, n - 2 * r, step)
        m1 = mass(centers - r, centers + r)
        m2 = mass(centers - 2 * r, centers + 2 * r)
        best = max(best, float(np.max(m2 / m1)))
        r *= 2
    return best


# ---------------------------------------------------------------------------
# John-Nirenberg profile

@dataclass(frozen=True)
class JNProfile:
    lambdas: np.ndarray
    exceedance: np.ndarray
    c0_hat: float
    cjn_hat: float


def john_nirenberg_profile(f: SampledFunction, J: tuple[float, float], lambdas) -> JNProfile:
    """Empirical exceedance fractions of |f - f_J| on the interval J
    (given as (start, length) in x units) and the least exponential envelope
    C0 * exp(-CJN * lambda / bmo_norm(f)) dominating them.

    The decay rate comes from least squares on the log of the nonzero
    exceedances; C0 is then the smallest constant making the envelope
    dominate every sampled bin.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas <= 0) or np.any(np.diff(lambdas) <= 0):
        raise DomainError("lambda values must be positive ascending")
    start, length = J
    if length <= 0:
        raise DomainError("interval length must be positive")
    h = f.h
    i0 = int(np.round((start - f.domain.a) / h))
    c = max(1, int(np.round(length / h)))
    if f.periodic:
        idx = np.mod(i0 + np.arange(c), f.n)
        seg = f.values[idx]
    else:
        if i0 < 0 or i0 + c > f.n:
            raise DomainError("interval J exits the data domain")
        seg = f.values[i0:i0 + c]
    dev = np.abs(seg - seg.mean())
    exceed = np.array([np.count_nonzero(dev >= lam) / c for lam in lambdas])

    norm = bmo_norm(f)
    nz = exceed > 0
    if norm > 0 and np.count_nonzero(nz) >= 2:
        A = np.stack([np.ones(np.count_nonzero(nz)), -lambdas[nz] / norm], axis=1)
        sol, *_ = np.linalg.lstsq(A, np.log(exceed[nz]), rcond=None)
        cjn = max(float(sol[1]), 0.0)
    else:
        cjn = 0.0
    if np.any(nz) and norm > 0:
        c0 = float(np.max(exceed[nz] * np.exp(cjn * lambdas[nz] / norm)))
    elif np.any(nz):
        c0, cjn = float(np.max(exceed)), 0.0
    else:
        c0 = 0.0
    return JNProfile(lambdas, exceed, c0, cjn)


# ---------------------------------------------------------------------------
# quasisymmetry

def quasisymmetry_constant(h) -> float:
    """Sup over sampled pairs of adjacent equal-length intervals of the
    image-length ratio (both orders).  Accepts a CircleHomeo or a strictly
    increasing real line map given as a SampledFunction."""
    if isinstance(h, SampledFunction):
        if not h.is_real:
            raise DomainError("quasisymmetry needs a real-valued map")
        g = h.values.real
        if np.any(np.diff(g) <= 0):
            raise DomainError("quasisymmetry needs a strictly increasing map")
        n = g.size
        best = 1.0
        c = 1
        while 2 * c <= n - 1:
            x = np.arange(c, n - c)
            num = g[x + c] - g[x]
            den = g[x] - g[x - c]
            r = num / den
            best = max(best, float(np.max(r)), float(np.max(1.0 / r)))
            c *= 2
        return best
    # duck-typed CircleHomeo
    if not hasattr(h, "g_extended"):
        raise DomainError("expected a SampledFunction or CircleHomeo")
    n = h.n
    best = 1.0
    c = 1
    while 4 * c <= n:
        x = np.arange(n)
        num = h.g_extended(x + c) - h.g_extended(x)
        den = h.g_extended(x) - h.g_extended(x - c)
        r = num / den
        best = max(best, float(np.max(r)), float(np.max(1.0 / r)))
        c *= 2
    return best


# ---------------------------------------------------------------------------
# oscillation integrals

def oscillation_integral(u: SampledFunction, k: Kernel, x: float, y: float,
                         mode: str = "power", k_exp: int = 1) -> float:
    """Kernel-weighted oscillation around the window mean u_I over
    I(x, y) = (x - y, x + y):

      power:       integral of |k_y(x-t)| * |u(t) - u_I|^k_exp dt
      exponential: integral of |k_y(x-t)| * exp(|u(t) - u_I|) dt
    """
    if y <= 0:
        raise DomainError(f"oscillation integral needs y > 0, got {y}")
    if mode not in ("power", "exponential"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "power" and k_exp < 1:
        raise DomainError("power mode needs k_exp >= 1")
    vals = u.values
    n = u.n
    a = u.domain.a
    if u.periodic:
        L = u.domain.length
        hh = L / n
        t = a + hh * np.arange(n)
        # window mean over I(x, y)
        rel = ((t - x + L / 2) % L) - L / 2
        mask = np.abs(rel) < y if y < L / 2 else np.ones(n, dtype=bool)
        u_I = vals[mask].mean() if np.any(mask) else vals.mean()
        R = TRUNCATION_RADIUS
        m_max = int(np.ceil((R * y) / L)) + 3
        m = np.arange(-m_max, m_max + 1) * L
        offs = rel[None, :] + m[:, None]
        kern = np.abs(k.evaluator(-offs / y) / y).sum(axis=0)
    else:
        hh = u.h
        if x - y < u.domain.a - 1e-12 or x + y > u.domain.b + 1e-12:
            raise CoverageError(
                f"interval ({x - y:.6g}, {x + y:.6g}) exits domain "
                f"[{u.domain.a:.6g}, {u.domain.b:.6g}]",
                missing=(x - y, x + y),
            )
        t = u.x
        mask = np.abs(t - x) < y
        u_I = vals[mask].mean()
        R = TRUNCATION_RADIUS
        lo, hi = x - R * y, x + R * y
        if lo < u.domain.a - 1e-12 or hi > u.domain.b + 1e-12:
            raise CoverageError(
                f"window [{lo:.6g}, {hi:.6g}] exits domain "
                f"[{u.domain.a:.6g}, {u.domain.b:.6g}]",
                missing=(lo, hi),
            )
        kern = np.abs(k.evaluator((x - t) / y) / y)
    dev = np.abs(vals - u_I)
    g = dev ** k_exp if mode == "power" else np.exp(dev)
    return float(hh * np.dot(kern, g))


# ---------------------------------------------------------------------------
# report assembly

@dataclass(frozen=True)
class AnalyzerReport:
    bmo_norm: float
    vmo_profile: list
    a_infty_constant: float
    doubling_constant: float
    jn_fit: tuple[float, float]


def analyze(f: SampledFunction, scales=None, lambdas=None) -> AnalyzerReport:
    """Full estimator report for a datum; the A-infinity and doubling
    constants are those of the weight e^(Re f)."""
    if scales is None:
        scales = [c * f.h for c in _dyadic_cell_widths(f.n)]
    if lambdas is None:
        peak = float(np.max(np.abs(f.values - f.values.mean())))
        top = max(peak, 1e-6)
        lambdas = np.linspace(top / 16, top * 1.25, 20)
    weight = f.with_values(np.exp(f.values.real) + 0j)
    jn = john_nirenberg_profile(f, (f.domain.a, f.domain.length), lambdas)
    return AnalyzerReport(
        bmo_norm=bmo_norm(f),
        vmo_profile=vmo_profile(f, scales),
        a_infty_constant=max(1.0, a_infty_constant(weight)),
        doubling_constant=max(1.0, doubling_constant(weight)),
        jn_fit=(jn.c0_hat, jn.cjn_hat),
    )
