"""The traced run: per-layer figures for every module of the system.

Each probe times calls into one layer's public functions from outside,
inside spans recorded by :class:`~sfubench.common.Spans`:

* ``repro.core`` — ``fit_lanes`` (with and without the L-BFGS polish),
  ``resolve_problem`` (grid build) and ``FitCache`` get/put/nearest;
* ``repro.api`` — ``Session.fit`` on an all-hit batch, warm-start step
  savings and quality-guard refits, and a small sweep through the
  shipped ``engine="pool"`` (the oversubscription defect, on record);
* ``repro.graph`` — ``Session.rewrite``, ``compile_graph``, per-model
  ``Program.run``, a one-node PWL graph, ``run_many`` at batch 1 and 4,
  and static per-sample costs from ``Program.profile``;
* ``repro.serving`` — the array codec, plus batch wait / run / size
  from two ``/metrics`` scrapes and client-minus-server transport time
  around a short ``serve-infer`` pass.

Every traced run reports every layer, whichever workload it belongs
to; the workload itself runs twice first, untraced then traced, and
``obs.trace_overhead`` is the ratio of their ``latency_ms_p50``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api import EngineConfig, FitRequest, Session
from repro.core.batchfit import CachedFit, FitCache, job_spec_digest
from repro.core.fit import resolve_problem
from repro.core.lanefit import LaneTask, fit_lanes
from repro.graph.builder import GraphBuilder
from repro.graph.executor import interpret
from repro.graph.program import Program, compile_graph
from repro.serving.protocol import decode_array, encode_array

from . import batch_infer, fit_sweep, serve_infer
from .common import STATE_DIR, Context, Outcome, child_env, median
from .quality import uniform_gain

Layers = Dict[str, Tuple[float, str]]

#: Fixed small sweep pushed through ``engine="pool"`` as shipped: four
#: fits put two lanes on each of two workers, enough to trigger the
#: oversubscription stalls now and then.
POOL_SWEEP = (("gelu", 8), ("silu", 8), ("tanh", 8), ("sigmoid", 8))
POOL_REPEATS = 2
#: A stalled pool sweep can take minutes; it is cut here and reported
#: at the cap so the traced run stays bounded.
POOL_CAP_S = 15.0

_POOL_CODE = (
    "import json, sys, time\n"
    "from repro.api import EngineConfig, FitRequest, Session\n"
    "reqs = [FitRequest.create(f, int(n))\n"
    "        for f, n in (a.split(':') for a in sys.argv[2:])]\n"
    "with Session(EngineConfig(engine='pool'), cache=sys.argv[1]) as s:\n"
    "    t0 = time.perf_counter()\n"
    "    arts = s.fit(reqs)\n"
    "    dt = time.perf_counter() - t0\n"
    "print(json.dumps({'seconds': dt,\n"
    "                  'engines': [a.engine for a in arts]}), flush=True)\n")
#: Repeats of each cheap timed call; the median is reported.
REPEATS = 7


def _timed(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def _lane_tasks(reqs: List[FitRequest], **overrides) -> List[LaneTask]:
    return [LaneTask(fn=r.resolve(), config=replace(r.config, **overrides))
            for r in reqs]


# --------------------------------------------------------------------- #
# repro.core + repro.api
# --------------------------------------------------------------------- #
def pool_sweep(workdir: Path) -> Tuple[float, Optional[List[str]]]:
    """Time :data:`POOL_SWEEP` on the pool engine in a child process.

    Returns ``(seconds, engines)``; a sweep still running after
    :data:`POOL_CAP_S` is killed with its workers and reported as
    ``(POOL_CAP_S, None)``.
    """
    cache = tempfile.mkdtemp(prefix="pool-", dir=workdir)
    proc = subprocess.Popen(
        [sys.executable, "-c", _POOL_CODE, cache]
        + [f"{fn}:{n}" for fn, n in POOL_SWEEP],
        stdout=subprocess.PIPE, env=child_env(), text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=POOL_CAP_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return POOL_CAP_S, None
    if proc.returncode != 0:
        raise RuntimeError(f"pool sweep failed (rc={proc.returncode})")
    doc = json.loads(stdout.strip().splitlines()[-1])
    return float(doc["seconds"]), list(doc["engines"])


def probe_fitting(ctx: Context, out: Outcome, workdir: Path) -> Layers:
    sp = ctx.spans
    cold16 = fit_sweep.requests(fit_sweep.COLD_BREAKPOINTS)
    cold12 = fit_sweep.requests(fit_sweep.WARM_BREAKPOINTS)
    layers: Layers = {}

    grid = []
    for req in cold16:
        fn = req.resolve()
        with sp.span("core.resolve_problem", fn=req.function):
            grid.append(_timed(lambda: resolve_problem(fn, req.config), 3))
    layers["core.grid_build_ms"] = (1000.0 * median(grid), "ms")

    with sp.span("core.fit_lanes", polish=True):
        t0 = time.perf_counter()
        res16 = fit_lanes(_lane_tasks(cold16))
        lanes_s = time.perf_counter() - t0
    with sp.span("core.fit_lanes", polish=False):
        t0 = time.perf_counter()
        fit_lanes(_lane_tasks(cold16, polish=False))
        no_polish_s = time.perf_counter() - t0
    with sp.span("core.fit_lanes", polish=True, budget=12):
        res12 = fit_lanes(_lane_tasks(cold12))
    layers["core.fit_lanes_s"] = (lanes_s, "s")
    layers["core.polish_s"] = (lanes_s - no_polish_s, "s")
    layers["core.lane_steps"] = (sum(r.total_steps for r in res16), "count")
    layers["core.lane_rounds"] = (sum(r.rounds for r in res16), "count")

    directory = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    cache = FitCache(directory)
    entries = {req.key: CachedFit(
        function=req.function, pwl=res.pwl, grid_mse=res.grid_mse,
        rounds=res.rounds, total_steps=res.total_steps,
        init_used=res.init_used, config=req.config,
        spec_digest=job_spec_digest(req.job))
        for req, res in zip(cold16, res16)}
    puts, gets, nears = [], [], []
    for key, entry in entries.items():
        with sp.span("core.FitCache.put"):
            t0 = time.perf_counter()
            cache.put(key, entry)
            puts.append(time.perf_counter() - t0)
    for key, entry in entries.items():
        cold_instance = FitCache(directory)
        with sp.span("core.FitCache.get"):
            t0 = time.perf_counter()
            got = cold_instance.get(key)
            gets.append(time.perf_counter() - t0)
        out.check(got is not None and
                  fit_sweep.pwl_bytes(got.pwl) ==
                  fit_sweep.pwl_bytes(entry.pwl),
                  f"FitCache.get({entry.function}) lost the entry")
    for req in cold12:
        with sp.span("core.FitCache.nearest"):
            t0 = time.perf_counter()
            cache.nearest_with_key(req.job)
            nears.append(time.perf_counter() - t0)
    layers["core.cache_put_ms"] = (1000.0 * median(puts), "ms")
    layers["core.cache_get_ms"] = (1000.0 * median(gets), "ms")
    layers["core.cache_nearest_ms"] = (1000.0 * median(nears), "ms")

    with Session(EngineConfig(engine="lane"),
                 cache=FitCache(directory)) as session:
        with sp.span("api.Session.fit", phase="warm"):
            warm = session.fit(cold12 + cold16)
        with sp.span("api.Session.fit", phase="hits"):
            hit_s = _timed(lambda: session.fit(cold16))
    for art in warm[:len(cold12)]:
        out.check("warm_key" in art.provenance and
                  uniform_gain(art.function, art.pwl, art.config) > 1,
                  f"warm {art.function}: not warm-started or not beating "
                  f"uniform_pwl")
    for art in warm[len(cold12):]:
        out.check(art.from_cache and fit_sweep.pwl_bytes(art.pwl) ==
                  fit_sweep.pwl_bytes(entries[art.key].pwl),
                  f"hit {art.function}: parameters differ from the fit")
    warm_steps = sum(a.total_steps for a in warm[:len(cold12)])
    layers["api.hit_batch_ms"] = (1000.0 * hit_s, "ms")
    layers["api.warm_steps_ratio"] = (
        warm_steps / sum(r.total_steps for r in res12), "ratio")
    layers["api.warm_fallbacks"] = (
        sum(1 for a in warm if a.provenance.get("warm_fallback")), "count")

    pool_times, capped = [], 0
    for _ in range(POOL_REPEATS):
        with sp.span("api.Session.fit", phase="pool"):
            seconds, engines = pool_sweep(workdir)
        pool_times.append(seconds)
        if engines is None:
            capped += 1
            continue
        out.check(engines == ["pool"] * len(POOL_SWEEP),
                  f"pool sweep ran on {engines}")
    out.report["pool_sweeps_capped"] = capped
    layers["api.pool_sweep_s"] = (median(pool_times), "s")
    layers["api.pool_sweep_spread"] = (
        (max(pool_times) - min(pool_times)) / median(pool_times), "ratio")
    return layers


# --------------------------------------------------------------------- #
# repro.graph
# --------------------------------------------------------------------- #
def _bytes_per_sample(program: Program) -> int:
    """Bytes every scheduled node reads and writes at batch 1, from the
    static shapes (computed, not measured)."""
    graph = program.graph
    total = 0
    for node in program.order:
        for name in list(node.inputs) + list(node.outputs):
            if name in graph.initializers:
                arr = graph.initializers[name]
                total += arr.size * arr.itemsize
            else:
                total += int(np.prod(program.value_shape(name))) * 8
    return total


def _pwl_graph(fn: str, width: int):
    g = GraphBuilder(f"pwl_{fn}")
    x = g.input("x", (0, width))
    g.output(g.activation(x, fn))
    return g.graph


def probe_graph(ctx: Context, out: Outcome) -> Layers:
    sp = ctx.spans
    layers: Layers = {}
    graphs = batch_infer.build_graphs()
    rng = np.random.default_rng(ctx.seed)
    rewrite_times = []
    with batch_infer.fit_dir_session() as session:
        for name, batch in batch_infer.MODELS:
            with sp.span("graph.rewrite", model=name):
                rewrite_times.append(_timed(lambda: session.rewrite(
                    graphs[name], batch_infer.BREAKPOINTS), 3))
            rewritten = session.rewrite(graphs[name],
                                        batch_infer.BREAKPOINTS)
            with sp.span("graph.compile", model=name):
                compile_s = _timed(lambda: compile_graph(
                    rewritten, batch_size=batch, optimize=True), 3)
            program = compile_graph(rewritten, batch_size=batch,
                                    optimize=True)
            feeds = batch_infer.make_feeds(graphs[name], batch, rng)
            [oname] = graphs[name].outputs
            out.check(np.array_equal(program.run(feeds)[oname],
                                     interpret(rewritten, feeds)[oname]),
                      f"{name}: Program.run differs from interpret()")
            with sp.span("graph.Program.run", model=name, batch=batch):
                run_s = _timed(lambda: program.run(feeds))
            one = compile_graph(rewritten, batch_size=1, optimize=True)
            prof = one.profile
            layers[f"graph.compile_ms.{name}"] = (1000.0 * compile_s, "ms")
            layers[f"graph.nodes.{name}"] = (len(program.nodes), "count")
            layers[f"graph.run_ms.{name}"] = (1000.0 * run_s, "ms")
            layers[f"graph.macs_per_sample.{name}"] = (prof.total_macs,
                                                       "count")
            layers[f"graph.act_elems_per_sample.{name}"] = (
                prof.total_act_elements, "count")
            layers[f"graph.bytes_per_sample.{name}"] = (
                _bytes_per_sample(one), "bytes")
        layers["graph.rewrite_ms"] = (1000.0 * median(rewrite_times), "ms")

        # vit's widest activation: the MLP gelu over tokens x 4*dim.
        vit_batch = dict(batch_infer.MODELS)["vit"]
        width = 16 * 4 * 128
        pwl = compile_graph(session.rewrite(_pwl_graph("gelu", width),
                                            batch_infer.BREAKPOINTS),
                            optimize=True)
        x = {"x": rng.normal(size=(vit_batch, width))}
        with sp.span("graph.pwl_apply"):
            layers["graph.pwl_apply_ms"] = (
                1000.0 * _timed(lambda: pwl.run(x)), "ms")

    # run_many at serving batch sizes on the served vit.
    served = serve_infer.reference_graphs()["vit"]
    with batch_infer.fit_dir_session() as session:
        served_rw = session.rewrite(served, serve_infer.SERVER_PWL)
    program = compile_graph(served_rw)
    samples = [batch_infer.make_feeds(served, 1, rng) for _ in range(4)]
    [oname] = served.outputs
    for feeds, got in zip(samples, program.run_many(samples)):
        out.check(np.array_equal(got[oname],
                                 interpret(served_rw, feeds)[oname]),
                  "vit: run_many differs from interpret()")
    for n in (1, 4):
        with sp.span("graph.Program.run_many", batch=n):
            layers[f"graph.run_many_ms.b{n}"] = (
                1000.0 * _timed(lambda: program.run_many(samples[:n])), "ms")
    return layers


# --------------------------------------------------------------------- #
# repro.serving (codec; the rest comes from a serve-infer pass)
# --------------------------------------------------------------------- #
def probe_codec(ctx: Context) -> Layers:
    served = serve_infer.reference_graphs()["vit"]
    feeds = batch_infer.make_feeds(served, 1, np.random.default_rng(ctx.seed))

    def round_trip() -> None:
        body = json.dumps({"feeds": {k: encode_array(v)
                                     for k, v in feeds.items()}})
        doc = json.loads(body)
        for arr in doc["feeds"].values():
            decode_array(arr)

    with ctx.spans.span("serving.codec"):
        return {"serving.codec_ms": (1000.0 * _timed(round_trip, 51), "ms")}


# --------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------- #
def traced_run(ctx: Context, mod) -> Outcome:
    """Run ``mod`` untraced then traced, then every layer probe."""
    out = Outcome()
    batch_infer.prepare(ctx)
    serve_infer.prepare(ctx)
    budget = max(ctx.seconds / 3.0, 3.0)
    plain = mod.run(ctx, budget)
    ctx.spans.enabled = True
    with ctx.spans.span("workload", workload=ctx.workload):
        traced = mod.run(ctx, budget)
    out.merge_checks(plain)
    out.merge_checks(traced)
    layers: Layers = {"obs.trace_overhead": (
        traced.metrics["latency_ms_p50"][0]
        / plain.metrics["latency_ms_p50"][0], "ratio")}

    STATE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="layers-", dir=STATE_DIR) as d:
        layers.update(probe_fitting(ctx, out, Path(d)))
    layers.update(probe_graph(ctx, out))
    layers.update(probe_codec(ctx))
    if mod is serve_infer:
        layers.update(traced.layers)
    else:
        served = serve_infer.run(ctx, budget)
        out.merge_checks(served)
        layers.update(served.layers)
    out.metrics = layers
    return out
