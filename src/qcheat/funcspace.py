"""Estimators for sampled boundary data: mean oscillation (BMO/VMO),
inverse-Jensen (A-infinity) and doubling constants of weights, and the
exponential level-set profile of oscillation.

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
from .errors import DomainError, ResolutionError


def _dyadic_cell_widths(n: int) -> list[int]:
    """n, n // 2, n // 4, ... down to the last width of at least 4 cells."""
    widths = []
    c = n
    while c >= 4:
        widths.append(c)
        c //= 2
    return widths


def _starts(c: int, n: int, periodic: bool) -> np.ndarray:
    step = max(c // 2, 1)
    if periodic:
        return np.arange(0, n, step)
    return np.arange(0, n - c + 1, step)


def _prefix_sums(vals: np.ndarray, copies: int = 1) -> np.ndarray:
    """0 and the running sums along the last axis of `copies` periods of
    vals laid end to end, summed in place in one array."""
    n = vals.shape[-1]
    pref = np.empty(vals.shape[:-1] + (copies * n + 1,))
    pref[..., 0] = 0.0
    body = pref[..., 1:]
    for c in range(copies):
        body[..., c * n:(c + 1) * n] = vals
    np.cumsum(body, axis=-1, out=body)
    return pref


def _window_sums(vals: np.ndarray, copies: int = 1, lead: int = 0):
    """Sums of the 1-D vals over index windows [start, stop), read on
    `copies` periods of vals laid end to end from `lead` periods before
    index 0.  One cumulative sum serves every window: the returned map
    takes index arrays (start, stop)."""
    off = lead * vals.size
    pref = _prefix_sums(vals, copies)

    def sums(start, stop):
        return pref[stop + off] - pref[start + off]

    return sums


def _windows(vals: np.ndarray, c: int, starts: np.ndarray, periodic: bool) -> np.ndarray:
    if periodic:
        ext = np.concatenate([vals, vals[:c]])
    else:
        ext = vals
    return ext[starts[:, None] + np.arange(c)[None, :]]


def interval_family(n: int, periodic: bool):
    """(cells, starts) pairs of the estimator family on n grid cells."""
    return [(c, _starts(c, n, periodic)) for c in _dyadic_cell_widths(n)]


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
    for c, starts in interval_family(f.n, f.periodic):
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
    return _vmo_profile(f, _oscillation_by_width(f), scales)


def _vmo_profile(f: SampledFunction, by_width, scales) -> list[ProfileEntry]:
    per_width = [(c * f.h, v, False) for c, v in by_width]
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
    copies = 2 if omega.periodic else 1
    sum_w = _window_sums(w, copies)
    sum_l = _window_sums(np.log(w), copies)
    best = 1.0
    for c, starts in interval_family(omega.n, omega.periodic):
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


def _john_nirenberg(f: SampledFunction, J, lambdas, norm: float) -> JNProfile:
    """Empirical exceedance fractions of |f - f_J| on the interval J
    (given as (start, length) in x units) and the least exponential envelope
    C0 * exp(-CJN * lambda / norm) dominating them, norm the BMO norm of f.

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

    nz = exceed > 0
    if norm > 0 and np.count_nonzero(nz) >= 2:
        # least-squares line log(exceed) = a - cjn * lambda / norm
        x = -lambdas[nz] / norm
        x -= x.mean()
        y = np.log(exceed[nz])
        cjn = max(float(np.sum(x * (y - y.mean())) / np.sum(x * x)), 0.0)
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
# report assembly

@dataclass(frozen=True)
class AnalyzerReport:
    bmo_norm: float
    vmo_profile: list
    a_infty_constant: float
    doubling_constant: float
    jn_fit: tuple[float, float]


def analyze(f: SampledFunction) -> AnalyzerReport:
    """Full estimator report for a datum; the A-infinity and doubling
    constants are those of the weight e^(Re f).  The BMO norm, the VMO
    profile (at every family width) and the John-Nirenberg envelope (at
    20 levels up to 1.25 times the largest deviation from the mean) share
    one pass over the interval family.  A weight, or samples, whose sums
    leave floating range raise ResolutionError."""
    # the doubling constant sums three periods of the weight: a finite
    # 3 * sum bounds every prefix sum, and e^u that underflows to 0 is no
    # weight either; checked first, so no sum below overflows on u
    with np.errstate(over="ignore"):
        eu = np.exp(f.values.real)
        total = 3 * eu.sum()
    if not (np.isfinite(total) and np.all(eu > 0)):
        raise ResolutionError("e^u left floating range: the weight e^(Re f) or its sums "
                              "are not finite and positive")
    weight = f.with_values(eu + 0j)
    # samples out of floating range show as sums that are not finite
    with np.errstate(all="ignore"):
        peak = float(np.max(np.abs(f.values - f.values.mean())))
        by_width = _oscillation_by_width(f)
    if not np.all(np.isfinite([1.25 * peak] + [v for _, v in by_width])):
        raise ResolutionError("f left floating range: its deviations from the mean or its "
                              "mean oscillations are not finite")
    scales = [c * f.h for c in _dyadic_cell_widths(f.n)]
    top = max(peak, 1e-6)
    lambdas = np.linspace(top / 16, top * 1.25, 20)
    norm = max(v for _, v in by_width)
    jn = _john_nirenberg(f, (f.domain.a, f.domain.length), lambdas, norm)
    return AnalyzerReport(
        bmo_norm=norm,
        vmo_profile=_vmo_profile(f, by_width, scales),
        a_infty_constant=max(1.0, a_infty_constant(weight)),
        doubling_constant=max(1.0, doubling_constant(weight)),
        jn_fit=(jn.c0_hat, jn.cjn_hat),
    )
