"""The lattice rule: which lattice point a float is, if any, for numbers and arrays alike."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invlab.demand import LATTICE_TOL, _lattice_index, _lattice_offsets


def scalar_lattice_index(points, x, step):
    """Oracle: the former pure-Python scalar lookup, None where ``x`` is off ``points``."""
    offset = (float(x) - float(points[0])) / step
    if not math.isfinite(offset):
        return None
    i = int(round(offset))
    if 0 <= i < len(points) and abs(float(points[i]) - float(x)) <= 1e-9 * max(1.0, step):
        return i
    return None


def probes(points, step):
    """Lattice points, points nudged just inside and just outside the tolerance, half steps, far and non-finite values."""
    tol = LATTICE_TOL * max(1.0, step)
    below = points[0] - step * np.arange(1, 4)  # negative offsets
    above = points[-1] + step * np.arange(1, 4)
    near = np.concatenate([points + s * f * tol for s in (-1, 1) for f in (0.5, 0.9, 1.1, 2.0)])
    special = [np.nan, np.inf, -np.inf, 1e300, -1e300, 2.0**63, -(2.0**63), 2.0**62 * step]
    return np.concatenate([points, below, above, near, points + 0.5 * step, special])


@pytest.mark.parametrize("step", [0.5, 1.0, 1000.0])
@pytest.mark.parametrize("origin", [0.0, -3.0, 0.25, -7.5])
def test_array_form_matches_scalar_oracle(step, origin):
    points = origin + step * np.arange(9)
    xs = probes(points, step)
    got = _lattice_index(points, xs, step)
    assert got.shape == xs.shape and got.dtype == np.int64
    for x, i in zip(xs, got):
        want = scalar_lattice_index(points, x, step)
        assert i == (-1 if want is None else want), x
        assert _lattice_index(points, x, step) == i, x  # the scalar form agrees with the array form


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(allow_nan=True, allow_infinity=True),
    step=st.sampled_from([0.5, 1.0, 0.1, 1000.0]),
    origin=st.sampled_from([0.0, -12.0, -12.5, 3.3]),
)
def test_any_float_matches_scalar_oracle(x, step, origin):
    points = origin + step * np.arange(17)
    want = scalar_lattice_index(points, x, step)
    assert _lattice_index(points, x, step) == (-1 if want is None else want)


def test_offsets_are_unbounded_and_off_values_read_zero():
    k, on = _lattice_offsets([-4.0, 2.0, 2.4, np.nan, np.inf, 1e300], 2.0, origin=-6.0)
    assert k.tolist() == [1, 4, 4, 0, 0, 0]
    assert on.tolist() == [True, True, False, False, False, False]
    k, on = _lattice_offsets(1e308, 1.0, origin=-1e308)  # the offset overflows to inf
    assert (int(k), bool(on)) == (0, False)
    k, on = _lattice_offsets(3.0, 1.5)
    assert (int(k), bool(on)) == (2, True)
