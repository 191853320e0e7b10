import numpy as np
import pytest

import qcheat as qc
from qcheat.data import Domain, SampledFunction


def test_rejects_tiny_grids():
    with pytest.raises(qc.DomainError):
        SampledFunction(Domain.circle(), np.zeros(8) + 0j)


def test_rejects_nonfinite_values():
    vals = np.zeros(32) + 0j
    vals[3] = np.nan
    with pytest.raises(qc.DomainError):
        SampledFunction(Domain.circle(), vals)


def test_rejects_bad_line_interval():
    with pytest.raises(qc.DomainError):
        Domain.line(1.0, 0.0)
    with pytest.raises(qc.DomainError):
        Domain.line(0.0, 2.0, periodic=True)  # period must be 1


def test_circle_nodes_exclude_right_endpoint():
    f = qc.constant(0.0, 64)
    assert f.x[0] == 0.0
    assert f.x[-1] == pytest.approx(63 / 64)


def test_line_nodes_include_both_endpoints():
    f = SampledFunction(Domain.line(-1.0, 1.0), np.zeros(33) + 0j)
    assert f.x[0] == -1.0
    assert f.x[-1] == 1.0


def test_step_convention_has_no_midpoint_sample():
    f = qc.step(0.4, 64)
    assert set(np.unique(f.values.real)) == {-0.4, 0.4}
    assert f.values.real[32] == 0.4  # x = 1/2 takes the right limit


def test_sawtooth_ramp():
    f = qc.sawtooth(0.3, 64)
    assert f.values.real[0] == pytest.approx(-0.3)
    assert np.all(np.diff(f.values.real) > 0)


def test_random_trig_is_deterministic_and_sup_normalized():
    a = qc.random_trig(8, 0.2, 7, 256)
    b = qc.random_trig(8, 0.2, 7, 256)
    assert np.array_equal(a.values, b.values)
    assert np.max(np.abs(a.values.real)) == pytest.approx(0.2)
    c = qc.random_trig(8, 0.2, 8, 256)
    assert not np.array_equal(a.values, c.values)


def test_sine_and_constant_builders():
    s = qc.sine(0.5, 2, 128)
    assert s.values.real[16] == pytest.approx(0.5 * np.sin(2 * np.pi * 2 * 16 / 128))
    c = qc.constant(1 - 2j, 64)
    assert np.all(c.values == 1 - 2j)


# ---------------------------------------------------------------------------
# coverage: every route that reads line data in a window keeps one rule

def _line(a, b, n=257, values=None):
    vals = np.zeros(n) if values is None else values
    return SampledFunction(Domain.line(a, b), vals + 0j)


def _coverage_cases():
    """(route, data domain, the range of its window outside the domain)."""
    half = qc.HalfPlaneGrid.build(x_min=0.0, x_max=0.5, nx=64, y_min=1 / 32, y_max=1 / 8)
    box = qc.HalfPlaneGrid.build(x_min=0.0, x_max=0.5, nx=64, y_min=1 / 32, y_max=0.75)
    far = qc.HalfPlaneGrid.build(x_min=2.0, x_max=3.0, nx=64, y_min=1 / 32, y_max=1 / 16)
    identity = _line(-1.0, 1.0, 4097, np.linspace(-1.0, 1.0, 4097))
    return {
        # grid windows [-1, 0.4921875 + 1]
        "extend": (lambda: qc.extend(_line(-1.0, 1.0), half), (-1.0, 1.0), (1.0, 1.4921875)),
        "beltrami": (lambda: qc.beltrami(_line(-1.0, 1.0), half), (-1.0, 1.0), (1.0, 1.4921875)),
        # the windows lie inside [0.5, 4.5], the anchor 0 of gamma does not
        "extend_anchor": (lambda: qc.extend(_line(0.5, 4.5), far), (0.5, 4.5), (0.0, 0.5)),
        # box windows [0 - 0.75, 0.4921875 + 0.75]
        "classical_ba_extend": (lambda: qc.classical_ba_extend(identity, 2.0, box),
                                (-1.0, 1.0), (1.0, 1.2421875)),
    }


@pytest.mark.parametrize("route", list(_coverage_cases()))
def test_coverage_error_names_the_range_outside_the_domain(route):
    call, (a, b), missing = _coverage_cases()[route]
    with pytest.raises(qc.CoverageError) as exc:
        call()
    assert exc.value.missing == missing
    message = str(exc.value)
    assert f"domain [{a:.6g}, {b:.6g}]" in message
    assert f"missing range [{missing[0]:.6g}, {missing[1]:.6g}]" in message


def test_coverage_error_on_both_sides_names_both_ranges():
    with pytest.raises(qc.CoverageError) as exc:
        _line(0.0, 1.0).domain.require_covers(-0.25, 1.5)
    assert exc.value.missing == (-0.25, 0.0)
    assert "missing range [-0.25, 0] and [1, 1.5]" in str(exc.value)
    Domain.circle().require_covers(-3.0, 7.0)  # periodic domains cover every window
