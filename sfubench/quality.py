"""Approximation-quality figures shared by the workloads."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.fit import FitConfig
from repro.core.loss import quadrature_mse
from repro.core.pwl import PiecewiseLinear
from repro.core.uniform import uniform_pwl
from repro.functions import registry

#: Seeded evaluation points per fitted PWL for the relative-error check.
REL_ERR_POINTS = 200_000


def uniform_gain(name: str, pwl: PiecewiseLinear, cfg: FitConfig) -> float:
    """Quadrature MSE of the uniform PWL at the same budget over that of
    the fitted PWL of registry function ``name`` (the paper's Fig. 5
    comparison); above 1 means the fit wins."""
    fn = registry.get(name)
    a, b = cfg.interval if cfg.interval is not None else fn.default_interval
    uni = uniform_pwl(fn, cfg.n_breakpoints, interval=(a, b),
                      boundary_left=cfg.boundary_left,
                      boundary_right=cfg.boundary_right)
    return quadrature_mse(uni, fn, a, b) / quadrature_mse(pwl, fn, a, b)


def geometric_mean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def rel_l2_error(name: str, pwl: PiecewiseLinear, cfg: FitConfig,
                 rng: np.random.Generator) -> float:
    """Relative L2 error of ``pwl`` against registry function ``name`` at
    seeded points drawn uniformly over the fit interval."""
    fn = registry.get(name)
    a, b = cfg.interval if cfg.interval is not None else fn.default_interval
    xs = rng.uniform(a, b, size=REL_ERR_POINTS)
    ref = np.asarray(fn(xs), dtype=np.float64)
    return float(np.linalg.norm(pwl(xs) - ref) / np.linalg.norm(ref))


def output_rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """Relative L2 distance of a model output from its reference."""
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
