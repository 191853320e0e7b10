import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcheat as qc
from qcheat.data import Domain, SampledFunction
from conftest import exhaustive_bmo_all_intervals

# Frozen from the exhaustive scan over every periodic subinterval (>= 4
# cells) of the 4096-grid sine datum; the family-restricted estimator sits
# within the expected bounded factor below it.
SINE_4096_EXHAUSTIVE_BMO = 0.21738338706531954
SINE_4096_ESTIMATOR_BMO = 0.19098589425957013


# ---------------------------------------------------------------------------
# mean oscillation

def test_bmo_of_constant_is_zero():
    assert qc.bmo_norm(qc.constant(7.3)) <= 1e-12


def test_bmo_of_step_is_one():
    n = 2048
    got = qc.bmo_norm(qc.step(1.0, n))
    assert abs(got - 1.0) <= 2 / n


def test_bmo_sine_against_frozen_exhaustive_oracle():
    est = qc.bmo_norm(qc.sine(0.3, 1, n=4096))
    assert abs(est - SINE_4096_ESTIMATOR_BMO) <= 1e-12
    assert est <= SINE_4096_EXHAUSTIVE_BMO + 1e-12
    assert est >= 0.85 * SINE_4096_EXHAUSTIVE_BMO


def test_bmo_against_live_exhaustive_oracle():
    n = 256
    f = 0.3 * np.sin(2 * np.pi * np.arange(n) / n) + 0.1 * np.cos(6 * np.pi * np.arange(n) / n)
    oracle = exhaustive_bmo_all_intervals(f)
    est = qc.bmo_norm(SampledFunction(Domain.circle(), f + 0j))
    assert est <= oracle + 1e-12
    assert est >= 0.8 * oracle


@given(c=st.floats(min_value=-5, max_value=5),
       lam=st.floats(min_value=-4, max_value=4))
@settings(max_examples=25, deadline=None)
def test_bmo_shift_and_scale_invariance(c, lam, sine_small):
    base = qc.bmo_norm(sine_small)
    shifted = qc.bmo_norm(sine_small.with_values(sine_small.values + c))
    scaled = qc.bmo_norm(sine_small.with_values(lam * sine_small.values))
    assert shifted == pytest.approx(base, abs=1e-12)
    assert scaled == pytest.approx(abs(lam) * base, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("datum", ["sine", "step", "rtrig"])
def test_circle_lift_bmo_comparability(datum):
    u = {"sine": qc.sine(0.3, 1), "step": qc.step(0.4),
         "rtrig": qc.random_trig(8, 0.2, 7)}[datum]
    b_circle = qc.bmo_norm(u)
    b_lift = qc.bmo_norm(qc.lift(u))
    assert b_circle <= b_lift + 1e-12
    assert b_lift <= 3 * b_circle + 1e-12


def test_vmo_profile_of_smooth_function_is_lipschitz_in_scale():
    u = qc.sine(0.3, 1)
    lip = 0.3 * 2 * np.pi
    scales = [2.0 ** (-k) for k in range(0, 8)]
    prof = qc.vmo_profile(u, scales)
    for entry in prof:
        assert entry.value <= lip * entry.scale + 1e-12


def test_vmo_profile_nondecreasing_and_step_witness():
    st_datum = qc.step(1.0)
    scales = [2.0 ** (-k) for k in range(0, 8)]
    prof = qc.vmo_profile(st_datum, scales)
    vals = [e.value for e in prof]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))  # descending scales
    # non-VMO witness: oscillation near the jump stays ~1 at small scales
    assert vals[-1] >= 0.9


def test_vmo_profile_of_constant_is_zero():
    prof = qc.vmo_profile(qc.constant(2.0), [0.5, 0.1])
    assert all(e.value == 0.0 for e in prof)


def test_vmo_profile_resolution_warning():
    u = qc.sine(0.3, 1, n=64)
    prof = qc.vmo_profile(u, [0.5, 1 / 64])
    assert not prof[0].resolution_limited
    assert prof[1].resolution_limited



@pytest.mark.parametrize("n, t", [(100, 0.045), (3000, 0.0015)])
def test_vmo_profile_flags_scales_below_the_smallest_interval(n, t):
    # the halving stops above 4 cells (100 -> ... -> 6, 3000 -> ... -> 5),
    # so t sits above 4 cells yet below every family interval
    u = qc.sine(0.3, 1, n)
    smallest = min(c for c in (n >> k for k in range(12)) if c >= 4) / n
    assert 4 / n < t < smallest
    (entry,) = qc.vmo_profile(u, [t])
    assert entry.value == 0.0
    assert entry.resolution_limited

def test_vmo_profile_rejects_bad_scales():
    with pytest.raises(qc.DomainError):
        qc.vmo_profile(qc.sine(0.3, 1), [0.1, 0.5])


# ---------------------------------------------------------------------------
# weights

def _weight(arr):
    return SampledFunction(Domain.circle(), np.asarray(arr, dtype=float) + 0j)


def exhaustive_a_infty(w):
    n = w.size
    pw = np.concatenate([[0.0], np.cumsum(np.tile(w, 2))])
    pl = np.concatenate([[0.0], np.cumsum(np.tile(np.log(w), 2))])
    starts = np.arange(n)
    best = 1.0
    for c in range(1, n + 1):
        am = (pw[starts + c] - pw[starts]) / c
        gm = np.exp((pl[starts + c] - pl[starts]) / c)
        best = max(best, float(np.max(am / gm)))
    return best


def exhaustive_doubling(w):
    n = w.size
    ext = np.tile(w, 3)
    pref = np.concatenate([[0.0], np.cumsum(ext)])

    def mass(i0, i1):
        return (pref[i1 + 1] - pref[i0]) - (ext[i0] + ext[i1]) / 2

    best = 1.0
    centers = np.arange(n) + n
    for r in range(1, n // 4 + 1):
        m1 = mass(centers - r, centers + r)
        m2 = mass(centers - 2 * r, centers + 2 * r)
        best = max(best, float(np.max(m2 / m1)))
    return best


def test_a_infty_of_constant_weight_is_one():
    assert qc.a_infty_constant(_weight(np.ones(256))) == 1.0


def test_a_infty_against_exhaustive_scan():
    n = 4096
    w = np.exp(0.3 * np.sin(2 * np.pi * np.arange(n) / n))
    oracle = exhaustive_a_infty(w)
    est = qc.a_infty_constant(_weight(w))
    assert est <= oracle + 1e-12
    assert est - 1.0 >= 0.8 * (oracle - 1.0)


def test_a_infty_crude_bound_for_bounded_logarithm():
    M = 0.7
    u = qc.random_trig(6, M, 3)
    est = qc.a_infty_constant(_weight(np.exp(u.values.real)))
    assert 1.0 <= est <= np.exp(2 * M)


def test_a_infty_rejects_nonpositive_weight():
    w = np.ones(64)
    w[10] = 0.0
    with pytest.raises(qc.DomainError):
        qc.a_infty_constant(_weight(w))
    with pytest.raises(qc.DomainError):
        qc.a_infty_constant(SampledFunction(Domain.circle(), np.ones(64) + 0.1j))


def test_doubling_of_constant_is_two():
    got = qc.doubling_constant(_weight(np.full(512, 2.7)))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_doubling_of_linear_weight_is_two():
    # trapezoid masses are exact for a linear weight, and every same-center
    # pair inside the domain has mass ratio exactly 2
    xs = np.linspace(0.01, 1.0, 512)
    w = SampledFunction(Domain.line(0.01, 1.0), xs + 0j)
    assert qc.doubling_constant(w) == pytest.approx(2.0, abs=1e-10)


def test_doubling_against_exhaustive_scan():
    n = 2048
    w = np.exp(0.3 * np.sin(2 * np.pi * np.arange(n) / n))
    oracle = exhaustive_doubling(w)
    est = qc.doubling_constant(_weight(w))
    assert est <= oracle + 1e-12
    assert est >= 0.9 * oracle



# naive scans over the estimator family on line data: widths n, n // 2, ...
# down to 4 cells at half-step starts, and same-center pairs (I, 2I) with
# 2I inside the domain, centers every max(r // 2, 1) cells


def _line_weight(n):
    xs = np.linspace(0.0, 1.0, n)
    w = np.exp(0.4 * np.sin(5 * xs) + 0.3 * np.cos(17 * xs ** 2))
    return SampledFunction(Domain.line(0.0, 1.0), w + 0j), w


def naive_line_a_infty(w):
    n = w.size
    best = 1.0
    c = n
    while c >= 4:
        for s in range(0, n - c + 1, max(c // 2, 1)):
            seg = w[s:s + c]
            best = max(best, float(np.mean(seg) / np.exp(np.mean(np.log(seg)))))
        c //= 2
    return best


def naive_line_doubling(w):
    n = w.size

    def mass(i0, i1):  # trapezoid mass over cells [i0, i1]
        seg = w[i0:i1 + 1]
        return float(np.sum(seg) - (seg[0] + seg[-1]) / 2)

    best = 1.0
    r = 1
    while 4 * r <= n - 1:
        for x in range(2 * r, n - 2 * r, max(r // 2, 1)):
            best = max(best, mass(x - 2 * r, x + 2 * r) / mass(x - r, x + r))
        r *= 2
    return best


@pytest.mark.parametrize("n", [257, 512, 1000])
def test_a_infty_on_line_against_naive_family_scan(n):
    omega, w = _line_weight(n)
    assert qc.a_infty_constant(omega) == pytest.approx(naive_line_a_infty(w), rel=1e-12)


@pytest.mark.parametrize("n", [257, 512, 1000])
def test_doubling_on_line_against_naive_family_scan(n):
    omega, w = _line_weight(n)
    assert qc.doubling_constant(omega) == pytest.approx(naive_line_doubling(w), rel=1e-12)


# ---------------------------------------------------------------------------
# John-Nirenberg

def test_jn_profile_of_bounded_function_vanishes_beyond_sup():
    u = qc.sine(0.3, 1)
    lambdas = np.array([0.1, 0.2, 0.31, 0.5])
    prof = qc.john_nirenberg_profile(u, (0.0, 1.0), lambdas)
    assert prof.exceedance[-2] == 0.0  # 0.31 > sup|u - mean| = 0.3
    assert prof.exceedance[-1] == 0.0


def test_jn_profile_of_constant_is_zero():
    prof = qc.john_nirenberg_profile(qc.constant(3.0), (0.0, 1.0),
                                     np.array([0.01, 0.1, 1.0]))
    assert np.all(prof.exceedance == 0.0)
    assert prof.c0_hat == 0.0


def test_jn_fitted_envelope_dominates_empirical_curve():
    u = qc.sine(0.3, 1)
    lambdas = np.linspace(0.02, 0.35, 15)
    prof = qc.john_nirenberg_profile(u, (0.0, 1.0), lambdas)
    norm = qc.bmo_norm(u)
    envelope = prof.c0_hat * np.exp(-prof.cjn_hat * lambdas / norm)
    assert np.all(prof.exceedance <= envelope + 1e-12)


# ---------------------------------------------------------------------------
# quasisymmetry

def test_quasisymmetry_of_identity_is_one():
    assert qc.quasisymmetry_constant(qc.identity_homeo(512)) == pytest.approx(1.0)


def test_quasisymmetry_of_square_map_is_three():
    xs = np.linspace(0.0, 1.0, 513)
    h = SampledFunction(Domain.line(0.0, 1.0), xs ** 2 + 0j)
    assert qc.quasisymmetry_constant(h) == pytest.approx(3.0, rel=1e-12)


def test_quasisymmetry_of_log_derivative_homeo():
    h = qc.inverse_L(qc.sine(0.3, 1))
    c = qc.quasisymmetry_constant(h)
    assert np.isfinite(c)
    assert c >= 1.0


def test_quasisymmetry_rejects_nonmonotone():
    xs = np.linspace(0.0, 1.0, 65)
    vals = xs.copy()
    vals[30] = vals[32]  # flat spot breaks strict monotonicity downstream
    with pytest.raises(qc.DomainError):
        qc.quasisymmetry_constant(SampledFunction(Domain.line(0.0, 1.0), vals[::-1] + 0j))


# ---------------------------------------------------------------------------
# oscillation integrals

def test_oscillation_integral_of_constant():
    u = qc.constant(5.0)
    assert qc.oscillation_integral(u, qc.PHI, 0.3, 0.2, "power", 2) == pytest.approx(0.0, abs=1e-12)
    # exponential mode gives the kernel's absolute mass (= 1 for PHI)
    assert qc.oscillation_integral(u, qc.PHI, 0.3, 0.2, "exponential") == pytest.approx(1.0, abs=1e-10)


def test_oscillation_integral_of_step_at_unit_scale():
    u = qc.step(1.0)
    got = qc.oscillation_integral(u, qc.PHI, 0.0, 1.0, "power", 1)
    assert abs(got - 1.0) <= 1e-6


def test_oscillation_integral_exponential_mode_bounded_on_grid():
    u = qc.sine(0.3, 1)
    vals = [
        qc.oscillation_integral(u, qc.PHI, x, y, "exponential")
        for x in np.linspace(0, 1, 16, endpoint=False)
        for y in np.geomspace(0.01, 2.0, 16)
    ]
    assert np.all(np.isfinite(vals))
    assert max(vals) <= np.exp(2 * 0.3)  # crude sup bound for bounded data


def test_oscillation_integral_power_envelope():
    u = qc.sine(0.3, 1)
    norm = qc.bmo_norm(u)
    for k_exp in (1, 2):
        vals = [
            qc.oscillation_integral(u, qc.PHI, x, y, "power", k_exp)
            for x in np.linspace(0, 1, 8, endpoint=False)
            for y in np.geomspace(0.02, 1.0, 8)
        ]
        c_emp = max(vals) / norm ** k_exp
        assert np.isfinite(c_emp)
        # grid-uniformity under refinement: the doubled sweep stays within 2x
        vals2 = [
            qc.oscillation_integral(u, qc.PHI, x, y, "power", k_exp)
            for x in np.linspace(0, 1, 16, endpoint=False)
            for y in np.geomspace(0.02, 1.0, 16)
        ]
        assert max(vals2) <= 2 * max(vals) + 1e-12


def test_oscillation_integral_coverage_error_on_line():
    u = SampledFunction(Domain.line(0.0, 1.0), np.zeros(64) + 0j)
    with pytest.raises(qc.CoverageError):
        qc.oscillation_integral(u, qc.PHI, 0.5, 0.7, "power", 1)
