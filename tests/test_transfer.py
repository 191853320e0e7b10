import numpy as np
import pytest

import qcheat as qc
from qcheat.extension import BeltramiField


# ---------------------------------------------------------------------------
# lift

def test_lift_preserves_values_and_wraps():
    u = qc.sine(0.3, 1, 256)
    lifted = qc.lift(u)
    assert lifted.domain.kind == "line"
    assert lifted.periodic
    assert np.array_equal(lifted.values, u.values)


def test_lift_of_constant():
    lifted = qc.lift(qc.constant(2.5, 64))
    assert np.all(lifted.values == 2.5)


def test_lift_rejects_line_data():
    with pytest.raises(qc.DomainError):
        qc.lift(qc.lift(qc.sine(0.3, 1, 64)))


# ---------------------------------------------------------------------------
# pushforward

def test_push_to_disk_at_axis_angles(small_grid):
    vals = np.full((small_grid.ny, small_grid.nx), 0.5 + 0j)
    mu = BeltramiField(small_grid, vals, periodic=True)
    nu = qc.push_to_disk(mu)
    thetas = nu.grid.thetas
    i0 = int(np.argmin(np.abs(thetas - 0.0)))
    i45 = int(np.argmin(np.abs(thetas - np.pi / 4)))
    assert nu.values[0, i0] == pytest.approx(-0.5, abs=1e-12)
    assert nu.values[0, i45] == pytest.approx(-0.5j, abs=1e-12)


def test_push_to_disk_preserves_modulus_and_sup(small_grid, sine_small):
    mu = qc.beltrami(sine_small, small_grid)
    nu = qc.push_to_disk(mu)
    assert abs(nu.sup_norm - mu.sup_norm) <= 1e-12
    assert np.max(np.abs(np.abs(nu.values) - np.abs(mu.values))) <= 1e-12


def test_push_to_disk_rejects_nonperiodic(small_grid):
    vals = np.zeros((small_grid.ny, small_grid.nx), dtype=complex)
    with pytest.raises(qc.DomainError):
        qc.push_to_disk(BeltramiField(small_grid, vals, periodic=False))


def test_disk_grid_geometry(small_grid):
    disk = qc.DiskGrid.from_halfplane(small_grid)
    assert np.all((disk.radii > 0) & (disk.radii < 1))
    assert disk.radii[0] == pytest.approx(np.exp(-2 * np.pi * small_grid.y_levels[0]))


# ---------------------------------------------------------------------------
# L maps

def test_inverse_L_of_zero_is_identity():
    h = qc.inverse_L(qc.constant(0.0, 256))
    assert np.max(np.abs(h.g - h.x)) == 0.0


def test_inverse_L_normalization_kills_constants():
    h = qc.inverse_L(qc.constant(1.7, 256))
    assert np.max(np.abs(h.g - h.x)) <= 1e-12


def test_roundtrip_recovers_datum_mod_constants():
    u = qc.sine(0.3, 1, n=4096)
    h = qc.inverse_L(u)
    rec = qc.forward_L(h)
    dev = (rec.values - rec.values.mean()) - (u.values - u.values.mean())
    assert np.max(np.abs(dev)) <= 1e-6


def test_forward_L_of_identity_is_zero():
    u = qc.forward_L(qc.identity_homeo(256))
    assert np.max(np.abs(u.values)) <= 1e-12


def test_forward_then_inverse_is_identity_on_homeos():
    h = qc.inverse_L(qc.sine(0.2, 2, n=2048))
    h2 = qc.inverse_L(qc.forward_L(h))
    assert h.sup_distance(h2) <= 1e-6


def test_inverse_L_rejects_complex_data():
    with pytest.raises(qc.DomainError):
        qc.inverse_L(qc.constant(1j, 64))


# ---------------------------------------------------------------------------
# contraction

def test_contraction_endpoints():
    u = qc.sine(0.3, 1, 1024)
    ident = qc.identity_homeo(1024)
    assert qc.contraction(u, 1.0).sup_distance(ident) == 0.0
    assert qc.contraction(u, 0.0).sup_distance(qc.inverse_L(u)) == 0.0


def test_contraction_midpoint_strictly_between():
    u = qc.sine(0.3, 1, 1024)
    ident = qc.identity_homeo(1024)
    d0 = qc.contraction(u, 0.0).sup_distance(ident)
    dh = qc.contraction(u, 0.5).sup_distance(ident)
    assert 0.0 < dh < d0


def test_contraction_is_lipschitz_in_t():
    u = qc.sine(0.3, 1, 1024)
    ts = np.linspace(0, 1, 9)
    homeos = [qc.contraction(u, t) for t in ts]
    d0 = homeos[0].sup_distance(qc.identity_homeo(1024))
    for a, b, ta, tb in zip(homeos, homeos[1:], ts, ts[1:]):
        assert a.sup_distance(b) <= 4.0 * d0 * (tb - ta)


def test_contraction_rejects_out_of_range_t():
    with pytest.raises(qc.DomainError):
        qc.contraction(qc.sine(0.3, 1, 64), 1.5)


# ---------------------------------------------------------------------------
# boundary trace

def test_trace_of_constant_datum_is_exact(small_grid):
    u = qc.constant(0.0, 256)
    field = qc.extend(qc.lift(u), small_grid)
    tr = qc.disk_extension_trace(u, field)
    assert np.max(tr.drift_corrected) <= 1e-14
    # the raw deviation is exactly the vertical drift
    assert np.allclose(tr.errors, small_grid.y_levels, rtol=1e-12)


def test_trace_decays_by_octave(small_grid, sine_small):
    field = qc.extend(qc.lift(sine_small), small_grid)
    tr = qc.disk_extension_trace(sine_small, field)
    lpo = 8
    ratios = tr.errors[:-lpo] / tr.errors[lpo:]
    assert np.max(ratios) <= 0.75


def test_trace_of_step_datum_still_vanishes(small_grid):
    u = qc.step(0.4, 256)
    field = qc.extend(qc.lift(u), small_grid)
    tr = qc.disk_extension_trace(u, field)
    assert tr.errors[0] <= 0.05 * tr.errors[-1]


def test_trace_rejects_mismatched_field(small_grid, sine_small):
    field = qc.extend(qc.lift(sine_small), small_grid)
    with pytest.raises(qc.DomainError):
        qc.disk_extension_trace(qc.step(0.4, 256), field)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_angle_map_that_is_not_finite_is_rejected(bad):
    g = np.arange(65) / 64
    g[20] = bad
    with pytest.raises(qc.DomainError, match="finite"):
        qc.CircleHomeo(g)


def test_forward_L_of_smooth_homeo_has_finite_bmo():
    # smooth Moebius-like angle map: strictly increasing, pinned endpoints
    n = 1024
    xs = np.arange(n + 1) / n
    g = xs + 0.08 * np.sin(2 * np.pi * xs) / (2 * np.pi)
    u = qc.forward_L(qc.CircleHomeo(g))
    assert np.all(np.isfinite(u.values.real))
    assert 0.0 < qc.bmo_norm(u) < 0.2


def test_vanishing_transfer_datum_wise():
    # whenever the half-plane box profile decays at a scale, the pushed disk
    # sector profile decays there too (implication asserted per datum; the
    # random-trig datum oscillates at width ~1/16, so its half-plane side is
    # vacuous at this scale while the sine side is active)
    grid = qc.HalfPlaneGrid.build(nx=1024, y_min=1 / 512, y_max=2.0,
                                  levels_per_octave=8)
    active = 0
    for u in (qc.sine(0.3, 1, 1024), qc.random_trig(8, 0.2, 7, 1024)):
        mu = qc.beltrami(qc.lift(u), grid)
        nu = qc.push_to_disk(mu)
        hp = qc.vanishing_profile_halfplane(mu, [1.0, 2.0 ** -4])
        dk = qc.vanishing_profile_disk(nu, [1.0, 2.0 ** -4])
        if hp[1].value <= 0.25 * hp[0].value:
            active += 1
            assert dk[1].value <= 0.25 * dk[0].value
    assert active >= 1
