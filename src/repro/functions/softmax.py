"""Softmax and its Flex-SFU decomposition.

Softmax is not elementwise, so the paper handles it the way accelerators
do: a vector-wide maximum subtraction followed by an elementwise ``exp``
(the part Flex-SFU approximates, fitted on ``[-10, 0.1]`` — after the max
subtraction all inputs are ``<= 0``), a vector sum, and a divide.

:class:`SoftmaxApproximator` wires an arbitrary approximation of ``exp``
into this decomposition so accuracy experiments can swap the exact
exponential for a PWL one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable exact softmax."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable exact log-softmax."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


class SoftmaxApproximator:
    """Softmax evaluated with a substitute ``exp`` implementation.

    Parameters
    ----------
    exp_fn:
        Replacement for ``np.exp`` on the max-subtracted inputs.  Inputs
        are guaranteed ``<= 0``; the paper fits its PWL on ``[-10, 0.1]``.
    clip_lo:
        Inputs below this are treated as ``exp = 0`` — mirroring the
        boundary condition that pins the left segment to the ``y = 0``
        asymptote.
    """

    def __init__(self, exp_fn: Callable[[np.ndarray], np.ndarray],
                 clip_lo: float = -10.0) -> None:
        self._exp_fn = exp_fn
        self._clip_lo = float(clip_lo)

    def __call__(self, x: np.ndarray, axis: int = -1) -> np.ndarray:
        """Approximate softmax along ``axis``."""
        return softmax_with_exp(x, self._exp_fn, axis, self._clip_lo)


def softmax_with_exp(x: np.ndarray, exp_fn: Callable[[np.ndarray], np.ndarray],
                     axis: int, clip_lo: float) -> np.ndarray:
    """The decomposition itself, with ``exp_fn`` evaluating ``exp`` on the
    max-subtracted inputs.

    :class:`SoftmaxApproximator` and the compiled graph's baked softmax
    kernel both run this one body (the kernel passes its table apply
    plus histogram capture as ``exp_fn``), so they agree bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.where(shifted < clip_lo, 0.0, exp_fn(shifted))
    e = np.maximum(e, 0.0)  # a PWL exp may dip slightly below zero
    denom = np.sum(e, axis=axis, keepdims=True)
    # Guard the degenerate all-clipped case (cannot happen after max
    # subtraction — the max element maps to exp(0) — but stay safe).
    denom = np.where(denom <= 0.0, 1.0, denom)
    return e / denom
