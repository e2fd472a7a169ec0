"""Piecewise-linear interpolation model (Section IV of the paper).

A :class:`PiecewiseLinear` is the paper's interpolated function

.. math::

    \\hat f(x) = \\begin{cases}
        m_l (x - p_0) + v_0                      & x \\le p_0 \\\\
        \\frac{v_{i+1} - v_i}{p_{i+1} - p_i}(x - p_i) + v_i & p_i < x < p_{i+1} \\\\
        m_r (x - p_{n-1}) + v_{n-1}              & x \\ge p_{n-1}
    \\end{cases}

with ``n`` breakpoints ``p_i`` (sorted, distinct), their function values
``v_i``, and edge slopes ``m_l`` / ``m_r`` — ``n + 1`` linear segments in
total.  Regions are indexed ``0 .. n`` left to right, matching the address
the hardware's binary-search tree produces.

Inference evaluates a PWL the way Flex-SFU does: the address decoder picks
the region (:func:`segment_lookup`), then one MADD with that region's
``(m, q)`` produces the output (:func:`apply_table`).  Every inference
path — :meth:`PiecewiseLinear.__call__`, the eager interpreter and every
compiled graph kernel, fused or not — goes through that one routine, so
they agree bit for bit and hand the same region indices to histogram
capture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import FitError

#: Element count from which :func:`segment_lookup` counts comparisons
#: instead of binary-searching.  The comparison count pays one ufunc
#: dispatch per breakpoint, which only amortizes on large arrays
#: (measured crossover ~2-8k elements on 16-entry tables; single-sample
#: serving requests sit below it, stacked batches well above).
COMPARE_MIN_ELEMENTS = 4096


def segment_lookup(breakpoints: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Region index of every element: ``searchsorted(side="right")``.

    Arrays of at least :data:`COMPARE_MIN_ELEMENTS` elements against
    tables of at most 255 breakpoints take the comparison count
    ``sum_i(x >= bp_i)`` accumulated in uint8 — the number of
    breakpoints at or below ``x``, exactly the insertion index
    ``searchsorted`` returns, but as a handful of vectorised compares
    instead of a data-dependent binary search (~3x faster on large
    arrays).  Everything else takes ``searchsorted`` (uint8 would
    overflow on wider tables).  Both paths give identical indices for
    every finite and infinite input; a NaN lands in region 0 on the
    comparison path and region ``n`` on the search path, which cannot
    change an output (the MADD propagates the NaN either way) and only
    shifts which histogram bin counts it.

    ``r`` is always C-contiguous: ufunc comparisons follow the input's
    memory order, and a strided ``x`` (e.g. a transposed conv output)
    would otherwise leak its layout through ``m[r]`` into downstream
    BLAS calls, which round differently per layout.
    """
    if breakpoints.size > 255 or x.size < COMPARE_MIN_ELEMENTS:
        return np.searchsorted(breakpoints, x, side="right")
    r = np.empty(x.shape, dtype=np.uint8)
    np.greater_equal(x, breakpoints[0], out=r.view(np.bool_))
    for b in breakpoints[1:]:
        r += x >= b
    return r


def apply_table(breakpoints: np.ndarray, m: np.ndarray, q: np.ndarray,
                x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate a PWL coefficient table: ``(m[r] * x + q[r], r)``.

    ``r`` is :func:`segment_lookup`'s region index, returned so callers
    can hand it to histogram capture without a second lookup.  The MADD
    reuses the gathered ``m[r]`` in place; the operation order (and so
    every output bit) is that of ``m[r] * x + q[r]``.
    """
    x = np.asarray(x, dtype=np.float64)
    r = segment_lookup(breakpoints, x)
    y = m[r]
    y *= x
    y += q[r]
    return y, r


@dataclass(frozen=True)
class PiecewiseLinear:
    """An immutable PWL approximation (see module docstring).

    Use :meth:`create` rather than the raw constructor: it validates and
    normalises the inputs.
    """

    breakpoints: np.ndarray  # shape (n,), sorted ascending, distinct
    values: np.ndarray       # shape (n,)
    left_slope: float
    right_slope: float

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, breakpoints: np.ndarray, values: np.ndarray,
               left_slope: float, right_slope: float) -> "PiecewiseLinear":
        """Validated constructor (sorts inputs, checks distinctness)."""
        p = np.asarray(breakpoints, dtype=np.float64).copy()
        v = np.asarray(values, dtype=np.float64).copy()
        if p.ndim != 1 or v.ndim != 1 or p.shape != v.shape:
            raise FitError(
                f"breakpoints {p.shape} and values {v.shape} must be equal-length 1-D arrays"
            )
        if p.size < 2:
            raise FitError(f"need at least 2 breakpoints, got {p.size}")
        order = np.argsort(p, kind="stable")
        p, v = p[order], v[order]
        if np.any(np.diff(p) <= 0):
            raise FitError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
            raise FitError("breakpoints and values must be finite")
        p.setflags(write=False)
        v.setflags(write=False)
        return cls(breakpoints=p, values=v,
                   left_slope=float(left_slope), right_slope=float(right_slope))

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_breakpoints(self) -> int:
        """Number of breakpoints ``n``."""
        return int(self.breakpoints.size)

    @property
    def n_segments(self) -> int:
        """Number of linear segments (``n + 1``, counting both edges)."""
        return self.n_breakpoints + 1

    @property
    def interval(self) -> Tuple[float, float]:
        """The span covered by inner segments: ``[p_0, p_{n-1}]``."""
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def inner_slopes(self) -> np.ndarray:
        """Slopes of the ``n - 1`` inner segments."""
        return np.diff(self.values) / np.diff(self.breakpoints)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def region_index(self, x: np.ndarray) -> np.ndarray:
        """Region id in ``0 .. n`` for each input (0 = left edge segment).

        This is exactly the address the hardware BST computes: region
        ``r`` means ``p_{r-1} <= x < p_r`` (with ``p_{-1} = -inf`` and
        ``p_n = +inf``), computed by :func:`segment_lookup`.
        """
        return segment_lookup(self.breakpoints,
                              np.asarray(x, dtype=np.float64))

    def coefficients(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-region affine coefficients ``(m, q)`` with ``f(x) = m x + q``.

        Region ``r``'s coefficients are valid for inputs whose
        :meth:`region_index` is ``r``; this is the table the hardware's
        lookup-table cluster stores.  The table is computed once per
        instance and memoised (the dataclass is frozen, so it can never
        go stale); every consumer — :meth:`__call__`, the hardware table
        quantiser, the compiled graph kernels — shares the same
        read-only arrays.
        """
        cached = self.__dict__.get("_coefficients")
        if cached is not None:
            return cached
        p, v = self.breakpoints, self.values
        n = self.n_breakpoints
        m = np.empty(n + 1, dtype=np.float64)
        q = np.empty(n + 1, dtype=np.float64)
        m[0] = self.left_slope
        q[0] = v[0] - self.left_slope * p[0]
        inner = self.inner_slopes()
        m[1:n] = inner
        q[1:n] = v[:-1] - inner * p[:-1]
        m[n] = self.right_slope
        q[n] = v[-1] - self.right_slope * p[-1]
        m.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "_coefficients", (m, q))
        return m, q

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the PWL at ``x`` (vectorised, float64)."""
        x = np.asarray(x, dtype=np.float64)
        m, q = self.coefficients()
        out, _ = apply_table(self.breakpoints, m, q, x)
        return float(out) if x.ndim == 0 else out

    # ------------------------------------------------------------------ #
    # Structural edits (used by the removal/insertion heuristic)
    # ------------------------------------------------------------------ #
    def without_breakpoint(self, i: int) -> "PiecewiseLinear":
        """Copy with breakpoint ``i`` removed (needs ``n >= 3``)."""
        if self.n_breakpoints < 3:
            raise FitError("cannot remove a breakpoint from a 2-point PWL")
        if not 0 <= i < self.n_breakpoints:
            raise FitError(f"breakpoint index {i} out of range")
        keep = np.arange(self.n_breakpoints) != i
        return PiecewiseLinear.create(self.breakpoints[keep], self.values[keep],
                                      self.left_slope, self.right_slope)

    def with_breakpoint(self, p_new: float, v_new: float) -> "PiecewiseLinear":
        """Copy with an extra breakpoint inserted at ``(p_new, v_new)``."""
        p = np.append(self.breakpoints, p_new)
        v = np.append(self.values, v_new)
        return PiecewiseLinear.create(p, v, self.left_slope, self.right_slope)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        return {
            "breakpoints": self.breakpoints.tolist(),
            "values": self.values.tolist(),
            "left_slope": self.left_slope,
            "right_slope": self.right_slope,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "PiecewiseLinear":
        """Inverse of :meth:`to_dict`."""
        return cls.create(np.asarray(d["breakpoints"]), np.asarray(d["values"]),
                          d["left_slope"], d["right_slope"])

    def to_json(self) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "PiecewiseLinear":
        """Deserialise from :meth:`to_json` output."""
        return cls.from_dict(json.loads(s))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        a, b = self.interval
        return (f"PiecewiseLinear(n={self.n_breakpoints}, interval=[{a:.4g}, {b:.4g}], "
                f"ml={self.left_slope:.4g}, mr={self.right_slope:.4g})")
