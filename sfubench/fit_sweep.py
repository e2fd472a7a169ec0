"""``fit-sweep``: cold and warm activation sweeps through an in-process
lane-engine Session.

The kernel and polish of ``repro.core`` do nearly all the work; the
graph and serving layers do none.  Each sweep gets a fresh cache: the
cold phase fits six activations at 16 breakpoints; the warm phase fits
the same six at 12 breakpoints (misses warm-started from the 16s) plus
the six 16s again (cache hits) in one ``Session.fit`` call.  Cold and
warm phases alternate to fill the run (see :func:`plan`); a warm
phase's fresh cache is seeded with the cold entries.  The seed only
draws the error-check inputs; the fitting work is identical on every
seed.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from repro.api import EngineConfig, FitArtifact, FitRequest, Session
from repro.core.batchfit import FitCache
from repro.core.pwl import PiecewiseLinear

from .common import STATE_DIR, Context, Outcome, launch_to_ready, median
from .quality import geometric_mean, rel_l2_error, uniform_gain

FUNCTIONS = ("gelu", "silu", "tanh", "sigmoid", "elu", "softplus")
COLD_BREAKPOINTS = 16
WARM_BREAKPOINTS = 12
#: Cold start-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Phase durations on a 2-core x86 box, used only to plan a run.
NOMINAL_COLD_S = 10.0
NOMINAL_WARM_S = 4.0

_SETUP_CODE = (
    "import sys\n"
    "from repro.api import EngineConfig, Session\n"
    "s = Session(EngineConfig(engine='lane'), cache=sys.argv[1])\n"
    "s.engine()\n"
    "print('ready', flush=True)\n")


def requests(n_breakpoints: int) -> List[FitRequest]:
    return [FitRequest.create(fn, n_breakpoints) for fn in FUNCTIONS]


def lane_session(cache: FitCache) -> Session:
    return Session(EngineConfig(engine="lane"), cache=cache)


def prepare(ctx: Context) -> None:
    """Nothing to fill: every sweep starts from a fresh cache."""


def pwl_bytes(pwl: PiecewiseLinear) -> bytes:
    """Every parameter of ``pwl`` as raw float64 bytes."""
    return (pwl.breakpoints.tobytes() + pwl.values.tobytes()
            + np.array([pwl.left_slope, pwl.right_slope]).tobytes())


def cold_phase(ctx: Context, workdir: Path
               ) -> Tuple[float, List[FitArtifact]]:
    cache = FitCache(tempfile.mkdtemp(prefix="cold-", dir=workdir))
    with lane_session(cache) as session:
        with ctx.spans.span("api.Session.fit", phase="cold"):
            t0 = time.perf_counter()
            arts = session.fit(requests(COLD_BREAKPOINTS))
            elapsed = time.perf_counter() - t0
    return elapsed, arts


def seeded_cache(workdir: Path, arts: Sequence[FitArtifact]) -> FitCache:
    """A fresh cache holding exactly the cold-phase entries."""
    cache = FitCache(tempfile.mkdtemp(prefix="warm-", dir=workdir))
    for art in arts:
        cache.put(art.key, art.to_entry())
    return cache


def warm_phase(ctx: Context, workdir: Path, cold: Sequence[FitArtifact]
               ) -> Tuple[float, List[FitArtifact]]:
    cache = seeded_cache(workdir, cold)
    with lane_session(cache) as session:
        with ctx.spans.span("api.Session.fit", phase="warm"):
            t0 = time.perf_counter()
            arts = session.fit(requests(WARM_BREAKPOINTS)
                               + requests(COLD_BREAKPOINTS))
            elapsed = time.perf_counter() - t0
    return elapsed, arts


def plan(seconds: float) -> List[str]:
    """Alternating cold and warm phases whose nominal durations fill
    ``seconds`` (at least one of each).  The plan depends only on
    ``seconds``, not on how fast this machine happens to run, so every
    run of a given length takes the same samples."""
    phases = ["cold", "warm"]
    total = NOMINAL_COLD_S + NOMINAL_WARM_S
    while True:
        nxt = "cold" if phases[-1] == "warm" else "warm"
        total += NOMINAL_COLD_S if nxt == "cold" else NOMINAL_WARM_S
        if total > seconds:
            return phases
        phases.append(nxt)


def check_sweep(out: Outcome, cold: Sequence[FitArtifact],
                warm: Sequence[FitArtifact],
                ref: Sequence[FitArtifact] = ()) -> None:
    """The sweep's correctness gates, one count per fit request: cold
    fits, warm fits, and cache hits compared with ``ref`` (the cold
    fits the warm cache was seeded with)."""
    n = len(FUNCTIONS)
    for art in cold:
        out.check(not art.from_cache and art.engine == "lane"
                  and uniform_gain(art.function, art.pwl, art.config) > 1,
                  f"cold {art.function}@{art.config.n_breakpoints}: "
                  f"not a lane fit beating uniform_pwl")
    for art in warm[:n]:
        out.check(not art.from_cache
                  and "warm_key" in art.provenance
                  and uniform_gain(art.function, art.pwl, art.config) > 1,
                  f"warm {art.function}@{art.config.n_breakpoints}: "
                  f"not warm-started or not beating uniform_pwl")
    for art, cold_art in zip(warm[n:], ref):
        out.check(art.from_cache
                  and pwl_bytes(art.pwl) == pwl_bytes(cold_art.pwl),
                  f"hit {art.function}: parameters differ from the cold fit")


def run(ctx: Context, seconds: float) -> Outcome:
    out = Outcome()
    STATE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="fit-sweep-",
                                     dir=STATE_DIR) as tmp:
        workdir = Path(tmp)
        setups = [launch_to_ready(_SETUP_CODE, str(workdir / "setup"))
                  for _ in range(SETUP_REPEATS)]

        cold_times: List[float] = []
        warm_times: List[float] = []
        for phase in plan(seconds):
            if phase == "cold":
                cold_t, cold = cold_phase(ctx, workdir)
                check_sweep(out, cold, [])
                cold_times.append(cold_t)
            else:
                warm_t, warm = warm_phase(ctx, workdir, cold)
                check_sweep(out, [], warm, cold)
                warm_times.append(warm_t)

    fits = list(cold) + list(warm[:len(FUNCTIONS)])
    gain = geometric_mean(uniform_gain(a.function, a.pwl, a.config)
                          for a in fits)
    rng = np.random.default_rng(ctx.seed)
    rel_err = max(rel_l2_error(a.function, a.pwl, a.config, rng)
                  for a in fits)
    fit_cold_s = median(cold_times)
    fit_warm_s = median(warm_times)
    cold_steps = sum(a.total_steps for a in cold)
    warm_steps = sum(a.total_steps for a in warm[:len(FUNCTIONS)])

    out.metrics = {
        "setup_s": (median(setups), "s"),
        "latency_ms_p50": (1000.0 * fit_cold_s, "ms"),
        "throughput_per_s": (len(warm) / fit_warm_s, "1/s"),
        "rel_err": (rel_err, "ratio"),
        "mse_gain": (gain, "x"),
    }
    out.report.update({
        "fit_cold_s": [fit_cold_s, "s"], "fit_warm_s": [fit_warm_s, "s"],
        "mse_gain": [gain, "x"], "fit_rel_err": [rel_err, "ratio"],
        "cold_sweeps": len(cold_times), "warm_batches": len(warm_times),
        "cold_steps": cold_steps, "warm_steps": warm_steps,
        "setup_samples_s": setups})
    return out
