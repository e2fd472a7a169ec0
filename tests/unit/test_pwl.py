"""Unit tests for the PiecewiseLinear model."""

import numpy as np
import pytest

from repro.core.pwl import PiecewiseLinear
from repro.errors import FitError


@pytest.fixture
def simple_pwl():
    """Hat-shaped PWL: breakpoints at -1, 0, 1; values 0, 1, 0."""
    return PiecewiseLinear.create(
        breakpoints=np.array([-1.0, 0.0, 1.0]),
        values=np.array([0.0, 1.0, 0.0]),
        left_slope=0.0,
        right_slope=0.0,
    )


class TestConstruction:
    def test_sorts_inputs(self):
        pwl = PiecewiseLinear.create(np.array([1.0, -1.0]),
                                     np.array([5.0, 3.0]), 0.0, 0.0)
        assert pwl.breakpoints.tolist() == [-1.0, 1.0]
        assert pwl.values.tolist() == [3.0, 5.0]

    def test_rejects_duplicates(self):
        with pytest.raises(FitError):
            PiecewiseLinear.create(np.array([0.0, 0.0]),
                                   np.array([1.0, 2.0]), 0.0, 0.0)

    def test_rejects_single_point(self):
        with pytest.raises(FitError):
            PiecewiseLinear.create(np.array([0.0]), np.array([1.0]), 0.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(FitError):
            PiecewiseLinear.create(np.array([0.0, np.nan]),
                                   np.array([1.0, 2.0]), 0.0, 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(FitError):
            PiecewiseLinear.create(np.array([0.0, 1.0]),
                                   np.array([1.0]), 0.0, 0.0)

    def test_counts(self, simple_pwl):
        assert simple_pwl.n_breakpoints == 3
        assert simple_pwl.n_segments == 4
        assert simple_pwl.interval == (-1.0, 1.0)


class TestEvaluation:
    def test_values_at_breakpoints(self, simple_pwl):
        got = simple_pwl(np.array([-1.0, 0.0, 1.0]))
        assert got.tolist() == [0.0, 1.0, 0.0]

    def test_interpolation_midpoints(self, simple_pwl):
        got = simple_pwl(np.array([-0.5, 0.5]))
        assert got.tolist() == [0.5, 0.5]

    def test_edge_extension(self, simple_pwl):
        got = simple_pwl(np.array([-100.0, 100.0]))
        assert got.tolist() == [0.0, 0.0]

    def test_sloped_edges(self):
        pwl = PiecewiseLinear.create(np.array([0.0, 1.0]),
                                     np.array([0.0, 1.0]), 2.0, 3.0)
        assert pwl(np.array([-1.0]))[0] == -2.0
        assert pwl(np.array([2.0]))[0] == 4.0

    def test_scalar_call(self, simple_pwl):
        assert simple_pwl(0.5) == 0.5
        assert isinstance(simple_pwl(0.5), float)

    def test_continuity_at_breakpoints(self, simple_pwl):
        eps = 1e-12
        for p in simple_pwl.breakpoints:
            lo, hi = simple_pwl(p - eps), simple_pwl(p + eps)
            assert lo == pytest.approx(hi, abs=1e-9)


class TestCoefficients:
    @pytest.mark.parametrize("size", [4095, 4096, 8192])
    def test_region_index_matches_searchsorted(self, simple_pwl, rng, size):
        # The independent check of the one PWL lookup: the interpreter
        # and every compiled kernel share it, so only a direct
        # comparison with np.searchsorted can catch it drifting.  The
        # sizes straddle the switch to the comparison count.
        bp = simple_pwl.breakpoints
        m, q = simple_pwl.coefficients()
        edges = np.concatenate([bp, [np.inf, -np.inf]])
        x = np.concatenate([rng.uniform(-3, 3, size - edges.size), edges])
        padded = np.zeros(2 * size)
        padded[::2] = x
        strided = padded[::2]
        assert not strided.flags["C_CONTIGUOUS"]
        x32 = x.astype(np.float32)
        for xin in (x, strided, x32):
            want = np.searchsorted(bp, np.asarray(xin, dtype=np.float64),
                                   side="right")
            assert np.array_equal(simple_pwl.region_index(xin), want)
            with np.errstate(invalid="ignore"):  # flat edges: 0 * inf
                assert np.array_equal(simple_pwl(xin),
                                      m[want] * np.asarray(xin, np.float64)
                                      + q[want], equal_nan=True)
        for i, p in enumerate(bp):  # 0-d scalars, exact breakpoint hits
            r = int(np.searchsorted(bp, p, side="right"))
            assert r == i + 1
            got = simple_pwl(np.array(p))
            assert isinstance(got, float) and got == m[r] * p + q[r]

    def test_coefficient_eval_matches_call(self, simple_pwl, rng):
        x = rng.uniform(-3, 3, size=100)
        m, q = simple_pwl.coefficients()
        r = simple_pwl.region_index(x)
        assert np.allclose(m[r] * x + q[r], simple_pwl(x))

    def test_coefficient_count(self, simple_pwl):
        m, q = simple_pwl.coefficients()
        assert m.size == simple_pwl.n_segments
        assert q.size == simple_pwl.n_segments


class TestEdits:
    def test_without_breakpoint(self, simple_pwl):
        smaller = simple_pwl.without_breakpoint(1)
        assert smaller.n_breakpoints == 2
        assert 0.0 not in smaller.breakpoints

    def test_without_breakpoint_bounds(self, simple_pwl):
        with pytest.raises(FitError):
            simple_pwl.without_breakpoint(7)

    def test_cannot_shrink_below_two(self):
        pwl = PiecewiseLinear.create(np.array([0.0, 1.0]),
                                     np.array([0.0, 1.0]), 0.0, 0.0)
        with pytest.raises(FitError):
            pwl.without_breakpoint(0)

    def test_with_breakpoint_collinear_preserves_function(self, simple_pwl, rng):
        bigger = simple_pwl.with_breakpoint(0.5, simple_pwl(0.5))
        x = rng.uniform(-3, 3, size=200)
        assert np.allclose(bigger(x), simple_pwl(x))


class TestSerialization:
    def test_json_roundtrip(self, simple_pwl, rng):
        back = PiecewiseLinear.from_json(simple_pwl.to_json())
        x = rng.uniform(-3, 3, size=50)
        assert np.array_equal(back(x), simple_pwl(x))
        assert back.left_slope == simple_pwl.left_slope

    def test_dict_roundtrip(self, simple_pwl):
        back = PiecewiseLinear.from_dict(simple_pwl.to_dict())
        assert np.array_equal(back.breakpoints, simple_pwl.breakpoints)
