"""Shared helpers: run context, statistics, spans and the result line."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The checkout root (the directory holding ``src/`` and ``sfubench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes lives under here (ignored by git).
STATE_DIR = ROOT / ".sfubench"

#: Environment variables that size the BLAS / OpenMP thread pools.  The
#: benchmark records them and never sets them: setting one would hide
#: the pool-engine oversubscription defect (see README).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS")

#: Samples a tail percentile needs *beyond* it before it is reported.
MIN_TAIL_SAMPLES = 10


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float,
               min_tail: int = MIN_TAIL_SAMPLES) -> float:
    """The ``q``-th percentile (nearest-rank), refused without a tail.

    A percentile above the median is only meaningful when at least
    ``min_tail`` samples lie beyond it; with fewer, this raises
    ``ValueError`` instead of reporting what is really the maximum.
    ``inf`` samples (failed requests) sort last and count as misses.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_tail and q > 50:
        raise ValueError(f"p{q:g} of {n} samples has {n - rank} beyond it; "
                         f"need {min_tail}")
    return float(sorted(values)[rank - 1])


def highest_percentile(values: Sequence[float],
                       qs: Sequence[float] = (99, 95, 90, 75)
                       ) -> Tuple[float, float]:
    """``(q, value)`` of the highest of ``qs`` the sample supports (see
    :func:`percentile`), falling back to the median."""
    for q in qs:
        try:
            return q, percentile(values, q)
        except ValueError:
            continue
    return 50.0, median(values)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    rid: Optional[str]
    sid: int
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    """In-memory span recorder wrapped around calls into each layer.

    Disabled (the default) it records nothing and costs one attribute
    test per call.  Spans nest per thread; each carries its parent's id
    and an optional request id, and :meth:`write` dumps them as JSONL.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None,
             **attrs: object) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            sid = len(self.spans)
            sp = Span(name=name, start=time.perf_counter(), end=math.nan,
                      parent=stack[-1] if stack else None,
                      rid=rid if rid is not None else
                      (self.spans[stack[-1]].rid if stack else None),
                      sid=sid, attrs=dict(attrs))
            self.spans.append(sp)
        stack.append(sid)
        try:
            yield sp
        finally:
            stack.pop()
            sp.end = time.perf_counter()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child: Dict[int, float] = {}
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] = child.get(sp.parent, 0.0) + sp.duration
        out: Dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + \
                sp.duration - child.get(sp.sid, 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((sp.start for sp in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "id": sp.sid, "name": sp.name, "parent": sp.parent,
                    "rid": sp.rid, "start_s": sp.start - t0,
                    "end_s": sp.end - t0, **sp.attrs}) + "\n")


# --------------------------------------------------------------------- #
# Run context and outcome
# --------------------------------------------------------------------- #
@dataclass
class Context:
    """What one invocation of the benchmark runs with."""

    workload: str
    seed: int
    seconds: float
    spans: Spans


@dataclass
class Outcome:
    """One workload pass: metrics, checks and a human report."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    report: Dict = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record the first failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            errors = self.report.setdefault("check_failures", [])
            if len(errors) < 20:
                errors.append(what)
        return ok

    def merge_checks(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        if other.report.get("check_failures"):
            self.report.setdefault("check_failures", []).extend(
                other.report["check_failures"])


def environment(seed: int) -> Dict:
    """Machine and library facts every report line records."""
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {"nproc": nproc,
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed}


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` and root
    on the import path, everything else (BLAS variables included)
    inherited."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def launch_to_ready(code: str, *args: str) -> float:
    """Seconds from starting ``python -c code args`` until it prints
    ``ready``; the child must then exit cleanly."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *args],
                            stdout=subprocess.PIPE, env=child_env(),
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (rc={proc.returncode})")
    return elapsed


def print_result(outcome: Outcome, env: Dict, names: Sequence[str]) -> None:
    """Print the report line, then the contract result line (last)."""
    metrics = {}
    for name in names:
        value, unit = outcome.metrics[name]
        value = float(value)
        if not math.isfinite(value):
            # Only a failed pass (e.g. most requests missed) gets here;
            # keep the line valid JSON and the verdict honest.
            outcome.check(False, f"{name} is not finite ({value})")
            value = sys.float_info.max
        metrics[name] = {"value": value, "unit": unit}
    correct = outcome.failed == 0 and outcome.attempted > 0
    report = {"report": {**env, **outcome.report,
                         "attempted": outcome.attempted,
                         "failed": outcome.failed, "correct": correct}}
    print(json.dumps(report, default=str), flush=True)
    print(json.dumps({"correct": correct,
                      "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)


def log(msg: str) -> None:
    print(f"[sfubench] {msg}", file=sys.stderr, flush=True)
