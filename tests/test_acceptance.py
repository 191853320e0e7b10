"""Acceptance suite: every criterion runs on the reference grid
(nx = 2048, y in [1e-3, 4], 8 levels per octave, 2048 x 97 field) at its
stated tolerance and prints one pass/fail line.  Run with `pytest -s` to
see the lines as they are produced.
"""

import time

import numpy as np
import pytest

import qcheat as qc
from qcheat.extension import BeltramiField

from oracles import beltrami_fd_oracle, numeric_moment


def report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ref():
    """Reference grid and shared fields for the corpus."""
    grid = qc.HalfPlaneGrid.build(nx=2048, y_min=1e-3, y_max=4.0, levels_per_octave=8)
    data = {
        "sine": qc.sine(0.3, 1, 2048),
        "step": qc.step(0.4, 2048),
        "sawtooth": qc.sawtooth(0.3, 2048),
        "rtrig": qc.random_trig(8, 0.2, 7, 2048),
    }
    fields = {k: qc.extend(v, grid) for k, v in data.items()}
    mus = {k: qc.beltrami(v, grid) for k, v in data.items()}
    return {"grid": grid, "data": data, "fields": fields, "mus": mus}


def test_criterion_01_identity_law(ref):
    grid = ref["grid"]
    t0 = time.perf_counter()
    field = qc.extend(qc.constant(0.0, 2048), grid)
    mu = qc.beltrami(qc.constant(0.0, 2048), grid)
    elapsed = time.perf_counter() - t0
    X = grid.x[None, :] + 1j * grid.y_levels[:, None]
    dev = float(np.max(np.abs(field.F - X)))
    ok = dev <= 1e-8 and mu.sup_norm <= 1e-8 and elapsed <= 5.0
    report(1, ok, f"sup|F-(x+iy)|={dev:.2e}, sup|mu|={mu.sup_norm:.2e}, "
                  f"runtime={elapsed:.2f}s")


def test_criterion_02_kernel_moments():
    a0 = abs(numeric_moment(qc.ALPHA, 0, R=10.0))
    b0 = abs(numeric_moment(qc.BETA, 0, R=10.0) - 1.0)
    p1 = abs(numeric_moment(qc.PSI, 1, R=10.0) + 1.0)
    ok = a0 <= 1e-10 and b0 <= 1e-10 and p1 <= 1e-10
    report(2, ok, f"|int alpha|={a0:.1e}, |int beta - 1|={b0:.1e}, "
                  f"|int s psi + 1|={p1:.1e}")


def test_criterion_03_two_route_agreement(ref):
    mu = ref["mus"]["sine"]
    oracle = beltrami_fd_oracle(ref["fields"]["sine"])
    coarse = float(np.max(np.abs(mu.values - oracle.values)))

    fine_grid = qc.HalfPlaneGrid.build(nx=4096, y_min=1e-3, y_max=4.0,
                                       levels_per_octave=16)
    w = qc.sine(0.3, 1, 4096)
    fine = float(np.max(np.abs(
        qc.beltrami(w, fine_grid).values
        - beltrami_fd_oracle(qc.extend(w, fine_grid)).values)))
    ratio = coarse / fine
    ok = coarse <= 1e-3 and 3.0 <= ratio <= 5.0
    report(3, ok, f"disagreement={coarse:.2e}, refinement ratio={ratio:.2f}")


def test_criterion_04_invariance_suite(ref):
    grid = ref["grid"]
    w = ref["data"]["sine"]
    mu = ref["mus"]["sine"]
    n = w.n

    add = float(np.max(np.abs(
        qc.beltrami(w.with_values(w.values + (0.7 - 0.4j)), grid).values - mu.values)))

    shift = 131
    trans = float(np.max(np.abs(
        qc.beltrami(w.with_values(np.roll(w.values, shift)), grid).values
        - np.roll(mu.values, shift, axis=1))))

    idx2 = (2 * np.arange(n)) % n
    mu2 = qc.beltrami(w.with_values(w.values[idx2]), grid)
    dil = 0.0
    for j in range(grid.ny - 8):
        dil = max(dil, float(np.max(np.abs(mu2.values[j] - mu.values[j + 8][idx2]))))

    ok = add <= 1e-8 and trans <= 1e-8 and dil <= 1e-6
    report(4, ok, f"add-constant={add:.2e}, translation={trans:.2e}, dilation={dil:.2e}")


def test_criterion_05_partial_identity(ref):
    worst = max(ref["fields"][k].identity_residuals["uy_half_vx"]
                for k in ("sine", "rtrig"))
    ok = worst <= 1e-8
    report(5, ok, f"sup|U_y - V_x/2|={worst:.2e} (smooth corpus)")


def test_criterion_06_quasiconformality_witness(ref):
    details = []
    ok = True
    for name in ("sine", "step", "sawtooth", "rtrig"):
        sup = ref["mus"][name].sup_norm
        jac = float(np.min(ref["fields"][name].jacobian))
        ok = ok and sup < 1.0 and jac > 0.0
        details.append(f"{name}: sup|mu|={sup:.3f}, min jac={jac:.3f}")
    report(6, ok, "; ".join(details))


def test_criterion_07_vmo_implies_vanishing_carleson(ref):
    scales = [1.0, 2.0 ** -6]
    prof_s = qc.vanishing_profile_halfplane(ref["mus"]["sine"], scales)
    prof_t = qc.vanishing_profile_halfplane(ref["mus"]["step"], scales)
    r_sine = prof_s[1].value / prof_s[0].value
    r_step = prof_t[1].value / prof_t[0].value
    ok = r_sine <= 0.2 and r_step >= 0.5
    report(7, ok, f"sine profile ratio={r_sine:.4f} (<=0.2), "
                  f"step profile ratio={r_step:.4f} (>=0.5)")


def test_criterion_08_lift_transfer_norms(ref):
    grid = ref["grid"]
    ok = True
    details = []

    mu = qc.beltrami(qc.lift(ref["data"]["sine"]), grid)
    nu = qc.push_to_disk(mu)
    sup_gap = abs(nu.sup_norm - mu.sup_norm)
    ok = ok and sup_gap <= 1e-12
    details.append(f"|sup_disk - sup_halfplane|={sup_gap:.1e}")

    for name, u in ref["data"].items():
        b, bl = qc.bmo_norm(u), qc.bmo_norm(qc.lift(u))
        ok = ok and (b <= bl + 1e-12) and (bl <= 3 * b + 1e-12)
    details.append("bmo(u) <= bmo(lift) <= 3 bmo(u) on corpus")

    hp = qc.carleson_norm_halfplane(mu).hybrid_norm
    dk = qc.carleson_norm_disk(nu).hybrid_norm
    C = dk / hp
    fine_grid = qc.HalfPlaneGrid.build(nx=4096, y_min=1e-3, y_max=4.0,
                                       levels_per_octave=16)
    mu_f = qc.beltrami(qc.lift(qc.sine(0.3, 1, 4096)), fine_grid)
    nu_f = qc.push_to_disk(mu_f)
    C_f = qc.carleson_norm_disk(nu_f).hybrid_norm / qc.carleson_norm_halfplane(mu_f).hybrid_norm
    drift = abs(C_f - C) / C
    ok = ok and np.isfinite(C) and drift <= 0.10
    details.append(f"hybrid ratio C={C:.4f}, refinement drift={drift:.3f}")
    report(8, ok, "; ".join(details))


def test_criterion_09_holomorphy_probe(ref):
    grid = ref["grid"]
    w0 = qc.lift(qc.constant(0.0, 2048))
    w1 = qc.lift(qc.sine(1.0, 1, 2048))
    probe = qc.build_probe(w0, w1, 0.1, 64, grid)
    probe_half = qc.build_probe(w0, w1, 0.05, 4, grid)
    r1, r2 = qc.cr_residual(probe), qc.cr_residual(probe_half)
    ratio = r1 / r2

    _, cauchy_err = qc.cauchy_reconstruct(probe, 0.0)

    steps = [0.01, 0.005, 0.0025]
    _, slope = qc.quotient_convergence(probe, 0.0, steps)
    probe_dbl = qc.build_probe(w0, w1, 0.1, 128, grid)
    _, slope_dbl = qc.quotient_convergence(probe_dbl, 0.0, steps)
    drift = abs(slope_dbl - slope) / slope

    ok = (3.0 <= ratio <= 5.0) and cauchy_err <= 1e-6 and np.isfinite(slope) and drift <= 0.10
    report(9, ok, f"cr ratio={ratio:.3f}, cauchy err={cauchy_err:.1e}, "
                  f"slope={slope:.4f}, contour-doubling drift={drift:.4f}")


def test_criterion_10_roundtrip_and_contraction():
    u = qc.sine(0.3, 1, 4096)
    h = qc.inverse_L(u)
    rec = qc.forward_L(h)
    dev = float(np.max(np.abs((rec.values - rec.values.mean())
                              - (u.values - u.values.mean()))))
    ident = qc.identity_homeo(4096)
    end1 = qc.contraction(u, 1.0).sup_distance(ident)
    end0 = qc.contraction(u, 0.0).sup_distance(h)
    ok = dev <= 1e-6 and end1 == 0.0 and end0 == 0.0
    report(10, ok, f"roundtrip sup err={dev:.2e}, endpoint devs=({end0}, {end1})")


def test_criterion_11_boundary_trace(ref):
    tr = qc.disk_extension_trace(ref["data"]["sine"], ref["fields"]["sine"])
    ratios = tr.errors[:-8] / tr.errors[8:]  # err(y/2) / err(y), octave pairs
    worst = float(np.max(ratios))
    ok = worst <= 0.75
    report(11, ok, f"max err(y/2)/err(y)={worst:.4f}")


def test_criterion_12_carleson_closed_form(ref):
    grid = ref["grid"]
    vals = np.broadcast_to(grid.y_levels[:, None] + 0j, (grid.ny, grid.nx)).copy()
    rep = qc.carleson_norm_halfplane(BeltramiField(grid, vals, periodic=True))
    ok = abs(rep.norm - 0.5) <= 0.01
    report(12, ok, f"norm={rep.norm:.5f} (target 0.5 within 2%)")


def test_criterion_13_classical_baseline():
    from qcheat.data import Domain, SampledFunction

    h_id = SampledFunction(Domain.line(-40.0, 40.0), np.linspace(-40, 40, 2 ** 14 + 1) + 0j)
    grid = qc.HalfPlaneGrid.build(x_min=-1.0, x_max=1.0, nx=256,
                                  y_min=1e-3, y_max=4.0, levels_per_octave=8)
    field = qc.classical_ba_extend(h_id, 2.0, grid)
    X = grid.x[None, :] + 1j * grid.y_levels[:, None]
    dev = float(np.max(np.abs(field.F - X)))
    ok = dev <= 1e-8
    report(13, ok, f"sup|F - id|={dev:.2e}")


def test_criterion_14_analyzer_oracles():
    from qcheat.funcspace import _dyadic_cell_widths, _starts

    n = 512
    u = qc.sine(0.3, 1, n)
    w = np.exp(u.values.real)

    # naive scans over the same interval family
    def naive_bmo(vals):
        best = 0.0
        ext = np.concatenate([vals, vals])
        for c in _dyadic_cell_widths(n):
            for s in _starts(c, n, True):
                seg = ext[s:s + c]
                best = max(best, float(np.mean(np.abs(seg - seg.mean()))))
        return best

    def naive_ainf(vals):
        best = 1.0
        ext = np.concatenate([vals, vals])
        for c in _dyadic_cell_widths(n):
            for s in _starts(c, n, True):
                seg = ext[s:s + c]
                best = max(best, float(np.mean(seg) / np.exp(np.mean(np.log(seg)))))
        return best

    def naive_doubling(vals):
        ext = np.tile(vals, 3)
        best = 1.0

        def mass(i0, i1):
            seg = ext[i0:i1 + 1]
            return float(seg.sum() - seg[0] / 2 - seg[-1] / 2)

        r = 1
        while 4 * r <= n:
            for cc in range(0, n, max(r // 2, 1)):
                c0 = cc + n
                best = max(best, mass(c0 - 2 * r, c0 + 2 * r) / mass(c0 - r, c0 + r))
            r *= 2
        return best

    weight = u.with_values(w + 0j)
    d_bmo = abs(qc.bmo_norm(u) - naive_bmo(u.values))
    d_ainf = abs(qc.a_infty_constant(weight) - naive_ainf(w))
    d_dbl = abs(qc.doubling_constant(weight) - naive_doubling(w))
    ok = d_bmo <= 1e-12 and d_ainf <= 1e-12 and d_dbl <= 1e-12
    report(14, ok, f"bmo diff={d_bmo:.1e}, a_infty diff={d_ainf:.1e}, "
                   f"doubling diff={d_dbl:.1e}")
