"""Opt-in PWL input-histogram capture.

Every baked PWL kernel (:class:`~repro.graph.program.PwlKernel` and
``SoftmaxPwlKernel``, fused or not) evaluates through
:func:`repro.core.pwl.apply_table`, which returns the segment index of
every input element alongside the output (``searchsorted`` below 4096
elements, a comparison count from there up — the same indices either
way); capturing the empirical input distribution of an activation is
therefore one ``np.bincount`` over indices the kernel holds anyway.
That distribution is exactly what the ROADMAP's distribution-aware
fitting item (DAPA in PAPERS.md) needs: fit the PWL against where the
inputs actually land instead of a uniform grid.

Disabled by default: the kernels check one module-global flag —
outputs are bitwise-unchanged either way (the capture only *reads* the
index array), and the property suite plus the graph-exec quick bench
enforce both halves of that claim.

Usage::

    from repro import obs

    obs.enable_capture()
    program.run(feeds)                  # kernels accumulate histograms
    hists = obs.get_capture().histograms()
    obs.get_capture().save("pwl_hist.json")
    obs.disable_capture()

Per activation label the capture keeps one integer count per PWL
*segment* (``len(breakpoints) + 1`` bins: below-range, the inner
segments, above-range), summed across every call and batch.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, List, Union

import numpy as np

__all__ = [
    "HistogramCapture",
    "capture_enabled",
    "disable_capture",
    "enable_capture",
    "get_capture",
]


class HistogramCapture:
    """Accumulates per-activation segment-occupancy histograms.

    ``enabled`` is the kernels' fast-path check; flip it through
    :func:`enable_capture` / :func:`disable_capture` rather than
    directly so the singleton state stays consistent.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._counts: Dict[str, np.ndarray] = {}
        self._breakpoints: Dict[str, np.ndarray] = {}

    # -- hot path (called from baked kernels) -------------------------- #
    def record(self, label: str, breakpoints: np.ndarray,
               indices: np.ndarray) -> None:
        """Fold one call's segment indices into ``label``'s histogram."""
        binned = np.bincount(indices.ravel(),
                             minlength=breakpoints.size + 1)
        with self._lock:
            have = self._counts.get(label)
            if have is None or have.size < binned.size:
                base = np.zeros(binned.size, dtype=np.int64)
                if have is not None:
                    base[:have.size] = have
                self._counts[label] = base
                self._breakpoints[label] = np.asarray(breakpoints,
                                                      dtype=np.float64)
                have = base
            have[:binned.size] += binned

    # -- results ------------------------------------------------------- #
    def labels(self) -> List[str]:
        with self._lock:
            return sorted(self._counts)

    def counts(self, label: str) -> np.ndarray:
        """Raw per-segment counts for one activation label."""
        with self._lock:
            return self._counts[label].copy()

    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """JSON-native per-label summary: breakpoints, counts, totals,
        and the share of elements that fell outside the fitted domain
        (the runtime twin of the RPR13x domain-coverage check)."""
        out: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            items = [(label, self._counts[label].copy(),
                      self._breakpoints[label].copy())
                     for label in sorted(self._counts)]
        for label, counts, bps in items:
            total = int(counts.sum())
            outside = int(counts[0] + counts[-1]) if counts.size >= 2 else 0
            out[label] = {
                "breakpoints": bps.tolist(),
                "counts": counts.tolist(),
                "total": total,
                "outside_domain": outside,
                "outside_share": (outside / total) if total else 0.0,
            }
        return out

    def density(self, label: str) -> np.ndarray:
        """Normalised segment weights (sums to 1) — the density grid a
        distribution-aware ``GridLoss`` would weight by."""
        counts = self.counts(label).astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()
            self._breakpoints.clear()

    # -- persistence --------------------------------------------------- #
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the per-activation histograms as one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.histograms(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
        """Read back a document written by :meth:`save`."""
        doc = json.loads(Path(path).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"not a histogram document: {path}")
        return doc


# --------------------------------------------------------------------- #
# Process-wide capture state
# --------------------------------------------------------------------- #
_capture = HistogramCapture()


def get_capture() -> HistogramCapture:
    """The process-wide capture accumulator (enabled or not)."""
    return _capture


def enable_capture(clear: bool = False) -> HistogramCapture:
    """Turn histogram capture on; optionally drop prior accumulations."""
    if clear:
        _capture.clear()
    _capture.enabled = True
    return _capture


def disable_capture() -> HistogramCapture:
    """Turn histogram capture off (accumulated counts are kept)."""
    _capture.enabled = False
    return _capture


def capture_enabled() -> bool:
    return _capture.enabled
