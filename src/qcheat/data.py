"""Sampled boundary data on a uniform grid.

A :class:`SampledFunction` holds complex samples ``w = u + iv`` of a boundary
datum, either on the unit circle (parameterized by x in [0,1), period 1,
wraparound) or on a line interval [a, b] (closed endpoints, no wraparound
unless the function is a periodic lift).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, DomainError

MIN_SAMPLES = 16


@dataclass(frozen=True)
class Domain:
    """Where a sampled function lives.

    kind "circle": x in [0,1) with wraparound, endpoint excluded.
    kind "line": x in [a,b] inclusive; ``periodic=True`` marks a period-1
    lift of circle data, which wraps like circle data.
    """

    kind: str
    a: float = 0.0
    b: float = 1.0
    periodic: bool = False

    @staticmethod
    def circle() -> "Domain":
        return Domain("circle", 0.0, 1.0, True)

    @staticmethod
    def line(a: float, b: float, periodic: bool = False) -> "Domain":
        if not (np.isfinite(a) and np.isfinite(b) and b > a):
            raise DomainError(f"invalid line interval [{a}, {b}]")
        if periodic and abs((b - a) - 1.0) > 1e-12:
            raise DomainError("periodic line data must have period 1")
        return Domain("line", float(a), float(b), periodic)

    @property
    def length(self) -> float:
        return self.b - self.a

    def require_covers(self, lo: float, hi: float, what: str = "window"):
        """Raise CoverageError unless [lo, hi] lies inside [a, b] within
        1e-12; periodic domains cover every window.  `missing` is the part
        of [lo, hi] outside [a, b], its left part when it exits on both
        sides (the message names both)."""
        if self.periodic:
            return
        a, b = self.a, self.b
        parts = []
        if lo < a - 1e-12:
            parts.append((lo, min(a, hi)))
        if hi > b + 1e-12:
            parts.append((max(b, lo), hi))
        if not parts:
            return
        ranges = " and ".join(f"[{p:.6g}, {q:.6g}]" for p, q in parts)
        raise CoverageError(
            f"{what} [{lo:.6g}, {hi:.6g}] exits domain [{a:.6g}, {b:.6g}]; "
            f"missing range {ranges}",
            missing=parts[0],
        )

    def __post_init__(self):
        if self.kind not in ("circle", "line"):
            raise DomainError(f"unknown domain kind {self.kind!r}")


@dataclass(frozen=True)
class SampledFunction:
    """Complex-valued samples on a uniform grid over `domain`.

    On periodic domains the nodes are a + j*h, j = 0..n-1 with h = (b-a)/n
    (the right endpoint is the wrapped image of the left).  On plain line
    intervals the nodes are a + j*h, j = 0..n-1 with h = (b-a)/(n-1), both
    endpoints included.
    """

    domain: Domain
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=complex))
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise DomainError("values must be one-dimensional")
        if vals.size < MIN_SAMPLES:
            raise DomainError(f"need at least {MIN_SAMPLES} samples, got {vals.size}")
        if not np.all(np.isfinite(vals.real)) or not np.all(np.isfinite(vals.imag)):
            raise DomainError("values must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def periodic(self) -> bool:
        return self.domain.periodic

    @property
    def h(self) -> float:
        if self.periodic:
            return self.domain.length / self.n
        return self.domain.length / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        return self.domain.a + self.h * np.arange(self.n)

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.domain, values)


# ---------------------------------------------------------------------------
# builtin generators (shared by the CLI and the test corpus)

def constant(c: complex, n: int = 2048) -> SampledFunction:
    return SampledFunction(Domain.circle(), np.full(n, c, dtype=complex))


def sine(amplitude: float, frequency: int = 1, n: int = 2048) -> SampledFunction:
    x = np.arange(n) / n
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, which SampledFunction rejects
        return SampledFunction(Domain.circle(), amplitude * np.sin(2 * np.pi * frequency * x) + 0j)


def step(c: float, n: int = 2048) -> SampledFunction:
    """c on [1/2, 1), -c on [0, 1/2).  The jump node x=1/2 takes the right
    limit, so the sampled function never carries a spurious midpoint value."""
    x = np.arange(n) / n
    vals = np.where(x >= 0.5, c, -c).astype(complex)
    return SampledFunction(Domain.circle(), vals)


def sawtooth(amplitude: float, n: int = 2048) -> SampledFunction:
    """Linear ramp from -a to a over one period, jump at the wrap point."""
    x = np.arange(n) / n
    with np.errstate(invalid="ignore"):  # inf * 0 is NaN, which SampledFunction rejects
        return SampledFunction(Domain.circle(), amplitude * (2 * x - 1) + 0j)


def random_trig(modes: int, amplitude: float, seed: int, n: int = 2048) -> SampledFunction:
    """Random trigonometric polynomial with `modes` harmonics, rescaled so
    its sup norm equals `amplitude`.  Deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(modes)
    b = rng.standard_normal(modes)
    x = np.arange(n) / n
    u = np.zeros(n)
    for k in range(1, modes + 1):
        u += a[k - 1] * np.cos(2 * np.pi * k * x) + b[k - 1] * np.sin(2 * np.pi * k * x)
    peak = np.max(np.abs(u))
    if peak > 0:
        u *= amplitude / peak
    return SampledFunction(Domain.circle(), u + 0j)
