"""``batch-infer``: stacked ``Program.run`` rounds over two zoo models.

vit (gelu and softmax around matmuls) and efficientnet (silu and
sigmoid around depthwise convolutions) are rewritten to 16-breakpoint
PWLs through a Session whose cache is filled before any timer starts,
compiled with the optimizing pipeline, then run in rounds: one stacked
batch per model per round.  Graph kernels do all the work; there is no
fitting and no HTTP, so ``setup_s`` (a fresh interpreter's import,
build, rewrite and compile) is the compile path.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro.api import EngineConfig, FitRequest, Session
from repro.core.batchfit import FitCache
from repro.graph.executor import interpret
from repro.graph.ir import Graph
from repro.graph.passes import collect_activation_names
from repro.graph.program import Program, compile_graph
from repro.zoo.builders import BUILDERS

from .common import (STATE_DIR, Context, Outcome, Spans, launch_to_ready,
                     median)
from .quality import geometric_mean, output_rel_err, uniform_gain

#: (zoo builder, stacked batch) — batches chosen so both models take a
#: similar share of a round on a 2-core x86 box.
MODELS: Tuple[Tuple[str, int], ...] = (("vit", 128), ("efficientnet", 8))
SCALE = 1.0
BREAKPOINTS = 16
#: Persistent fit cache shared by the inference workloads (filled by
#: :func:`prepare`, outside every timer).
FIT_DIR = STATE_DIR / "fits"
SETUP_REPEATS = 5
#: Launch to ready: import, build, rewrite on cache hits, compile.
_SETUP_CODE = ("from sfubench.batch_infer import setup\n"
               "from sfubench.common import Spans\n"
               "setup(Spans())\n"
               "print('ready', flush=True)\n")
#: Inputs per model behind ``rel_err``.
EVAL_SAMPLES = 64


def fit_dir_session() -> Session:
    """A Session on a *fresh* cache instance over the shared fit
    directory: its memory layer is empty, so hits read the disk.

    Warm starts are off so a miss always fits cold: with them, what a
    workload's fill produced would depend on which workload filled the
    directory first.
    """
    return Session(EngineConfig(engine="lane", warm_start=False),
                   cache=FitCache(FIT_DIR))


def build_graphs() -> Dict[str, Graph]:
    return {name: BUILDERS[name](scale=SCALE, seed=0) for name, _ in MODELS}


def prepare(ctx: Context) -> None:
    """Fill the fit cache (a no-op when an earlier run already did)."""
    with fit_dir_session() as session:
        for graph in build_graphs().values():
            session.rewrite(graph, BREAKPOINTS)


def setup(spans: Spans) -> Tuple[Dict[str, Graph], Dict[str, Graph],
                                 Dict[str, Program]]:
    """Build, rewrite (all cache hits) and compile both models."""
    graphs = build_graphs()
    rewritten: Dict[str, Graph] = {}
    programs: Dict[str, Program] = {}
    with fit_dir_session() as session:
        for name, batch in MODELS:
            with spans.span("api.Session.rewrite", model=name):
                rewritten[name] = session.rewrite(graphs[name], BREAKPOINTS)
            with spans.span("graph.compile_graph", model=name):
                programs[name] = compile_graph(rewritten[name],
                                               batch_size=batch,
                                               optimize=True)
    return graphs, rewritten, programs


def make_feeds(graph: Graph, batch: int, rng: np.random.Generator
               ) -> Dict[str, np.ndarray]:
    feeds = {}
    for name, shape in graph.inputs:
        size = (batch,) + tuple(shape[1:])
        if name == "ids":
            feeds[name] = rng.integers(0, 64, size=size)
        else:
            feeds[name] = rng.normal(size=size)
    return feeds


def model_functions(graphs: Dict[str, Graph]) -> List[str]:
    """Registry functions the rewritten models evaluate as PWLs."""
    names = set()
    for graph in graphs.values():
        for name in collect_activation_names(graph):
            names.add("exp" if name == "softmax" else name)
    return sorted(names)


def pwl_gain(functions: List[str], n_breakpoints: int) -> float:
    """Geometric-mean uniform-vs-fitted MSE of the cached model PWLs."""
    with fit_dir_session() as session:
        arts = session.fit([FitRequest.create(fn, n_breakpoints)
                            for fn in functions])
    return geometric_mean(uniform_gain(a.function, a.pwl, a.config)
                          for a in arts)


def run(ctx: Context, seconds: float) -> Outcome:
    out = Outcome()
    setups = [launch_to_ready(_SETUP_CODE) for _ in range(SETUP_REPEATS)]
    graphs, rewritten, programs = setup(ctx.spans)

    rng = np.random.default_rng(ctx.seed)
    feeds = {name: make_feeds(graphs[name], batch, rng)
             for name, batch in MODELS}
    refs: Dict[str, np.ndarray] = {}
    errs = []
    for name, batch in MODELS:
        [oname] = graphs[name].outputs
        refs[name] = interpret(rewritten[name], feeds[name])[oname]
        # The error is measured over at least EVAL_SAMPLES inputs: a
        # small batch alone makes it swing from seed to seed.
        evals = make_feeds(graphs[name], max(batch, EVAL_SAMPLES), rng)
        errs.append(output_rel_err(programs[name].run(evals)[oname],
                                   interpret(graphs[name], evals)[oname]))

    round_times: List[float] = []
    samples = 0
    t_start = time.perf_counter()
    while not round_times or time.perf_counter() - t_start < seconds:
        r0 = time.perf_counter()
        outputs = {}
        for name, batch in MODELS:
            with ctx.spans.span("graph.Program.run", model=name,
                                batch=batch):
                outputs[name] = programs[name].run(feeds[name])
            samples += batch
        round_times.append(time.perf_counter() - r0)
        for name, _ in MODELS:
            [oname] = graphs[name].outputs
            out.check(np.array_equal(outputs[name][oname], refs[name]),
                      f"{name}: Program.run differs from interpret()")
    wall = time.perf_counter() - t_start

    gain = pwl_gain(model_functions(graphs), BREAKPOINTS)
    round_ms = 1000.0 * median(round_times)
    rate = samples / wall
    out.metrics = {
        "setup_s": (median(setups), "s"),
        "latency_ms_p50": (round_ms, "ms"),
        "throughput_per_s": (rate, "1/s"),
        "rel_err": (max(errs), "ratio"),
        "mse_gain": (gain, "x"),
    }
    out.report.update({
        "infer_samples_per_s": [rate, "1/s"],
        "infer_round_ms_p50": [round_ms, "ms"],
        "out_rel_err": [max(errs), "ratio"],
        "rounds": len(round_times),
        "batches": dict(MODELS),
        "setup_samples_s": setups})
    return out
