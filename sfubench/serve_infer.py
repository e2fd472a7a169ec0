"""``serve-infer``: the shipped ``python -m repro serve-infer`` under an
open loop, then a closed loop.

The server runs in a child process on a pre-filled fit cache and holds
vit and nlp_transformer hot.  This process is the one client: a seeded
Poisson open loop at a fixed rate below the knee over two keep-alive
connections, models mixed evenly, one sample per request; then a closed
loop on the same two connections.  Transport, the JSON/base64 codec and
the 5 ms micro-batch window dominate; the same ``Program`` layer as
``batch-infer`` runs here at batch 1-4 instead of 8-128.
"""

from __future__ import annotations

import http.client
import math
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.executor import interpret
from repro.graph.ir import Graph
from repro.serving.client import ServingClient
from repro.service.retry import RetryPolicy
from repro.zoo.builders import BUILDERS

from . import loadgen
from .batch_infer import (FIT_DIR, fit_dir_session, make_feeds,
                          model_functions, pwl_gain)
from .common import (ROOT, Context, Outcome, child_env, highest_percentile,
                     median, percentile)
from .quality import output_rel_err

MODELS = ("vit", "nlp_transformer")
#: The server's defaults (``serve-infer --help``): these must match what
#: the reference graphs are rebuilt with.
SERVER_ACT, SERVER_SCALE, SERVER_SEED, SERVER_PWL = "gelu", 0.5, 0, 8
#: Open-loop arrival rate, well below the two-connection closed-loop
#: throughput (97-200 req/s on a 2-core x86 box, with neighbours' load).
OPEN_RATE = 30.0
CONNECTIONS = 2
#: Distinct seeded inputs per model; requests draw from this pool.
POOL = 64
#: Stacked inputs per model behind ``rel_err`` (the request pool alone
#: makes it swing from seed to seed).
EVAL_SAMPLES = 256
WARMUP_REQUESTS = 20
#: Share of the run spent in the open loop (the rest is closed loop).
OPEN_SHARE = 0.55
SETUP_REPEATS = 5
START_TIMEOUT_S = 60.0


def server_cmd() -> List[str]:
    cmd = [sys.executable, "-m", "repro", "serve-infer",
           "--addr", "127.0.0.1:0", "--cache-dir", str(FIT_DIR)]
    for model in MODELS:
        cmd += ["--model", model]
    return cmd


def reference_graphs() -> Dict[str, Graph]:
    return {m: BUILDERS[m](act=SERVER_ACT, scale=SERVER_SCALE,
                           seed=SERVER_SEED) for m in MODELS}


def prepare(ctx: Context) -> None:
    """Fill the fit cache the server reads (outside every timer)."""
    with fit_dir_session() as session:
        for graph in reference_graphs().values():
            session.rewrite(graph, SERVER_PWL)


class Server:
    """One ``serve-infer`` child; :meth:`stop` always reaps it."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(server_cmd(), stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT,
                                     env=child_env(), cwd=str(ROOT))
        self.addr: Optional[str] = None
        self.log: List[str] = []

    def wait_ready(self) -> float:
        """Block until ``/healthz`` answers; returns launch-to-ready."""
        deadline = self.t0 + START_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        pending = b""
        while self.addr is None:
            ready, _, _ = select.select([fd], [], [],
                                       max(deadline - time.perf_counter(), 0))
            if not ready:
                raise RuntimeError("serve-infer printed no address within "
                                   f"{START_TIMEOUT_S:g} s")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("serve-infer exited during start-up:\n"
                                   + "".join(self.log))
            pending += chunk
            while b"\n" in pending and self.addr is None:
                raw, pending = pending.split(b"\n", 1)
                line = raw.decode("utf-8", "replace")
                self.log.append(line + "\n")
                if " at http://" in line:
                    self.addr = line.split(" at http://", 1)[1].split()[0]
        probe = ServingClient(self.addr, timeout_s=2.0,
                              retry=RetryPolicy(max_attempts=1))
        try:
            while not probe.alive(timeout_s=1.0):
                if time.perf_counter() > deadline:
                    raise RuntimeError("serve-infer never became healthy")
                time.sleep(0.005)
        finally:
            probe.close()
        return time.perf_counter() - self.t0

    def metrics(self) -> loadgen.Scrape:
        host, port = self.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.request("GET", "/metrics")
            return loadgen.parse_metrics(
                conn.getresponse().read().decode("utf-8"))
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Traffic:
    """The request pool: seeded inputs and their reference outputs."""

    feeds: Dict[str, List[Dict[str, np.ndarray]]]
    expected: Dict[str, List[np.ndarray]]
    choice: np.ndarray       # pool index per request number
    rel_err: float


def make_traffic(seed: int, n_requests: int) -> Traffic:
    rng = np.random.default_rng(seed)
    graphs = reference_graphs()
    feeds: Dict[str, List[Dict[str, np.ndarray]]] = {}
    expected: Dict[str, List[np.ndarray]] = {}
    errs = []
    with fit_dir_session() as session:
        for m in MODELS:
            graph = graphs[m]
            [oname] = graph.outputs
            rewritten = session.rewrite(graph, SERVER_PWL)
            feeds[m] = [make_feeds(graph, 1, rng) for _ in range(POOL)]
            expected[m] = [interpret(rewritten, f)[oname] for f in feeds[m]]
            evals = make_feeds(graph, EVAL_SAMPLES, rng)
            errs.append(output_rel_err(interpret(rewritten, evals)[oname],
                                       interpret(graph, evals)[oname]))
    choice = rng.integers(0, POOL, size=n_requests)
    return Traffic(feeds=feeds, expected=expected, choice=choice,
                   rel_err=max(errs))


class Sender:
    """One keep-alive connection; request ``i`` goes to model
    ``MODELS[i % 2]`` with pool input ``choice[i]``.  No retries: a
    refused or failed request is a miss."""

    def __init__(self, addr: str, traffic: Traffic, ctx: Context,
                 offset: int = 0) -> None:
        self.client = ServingClient(addr, timeout_s=30.0,
                                    retry=RetryPolicy(max_attempts=1))
        self.traffic = traffic
        self.ctx = ctx
        self.offset = offset
        self.errors: List[str] = []

    def __call__(self, i: int) -> bool:
        i += self.offset
        model = MODELS[i % len(MODELS)]
        k = int(self.traffic.choice[i % len(self.traffic.choice)])
        try:
            with self.ctx.spans.span("serving.infer", rid=f"r{i}",
                                     model=model):
                got = self.client.infer(model, self.traffic.feeds[model][k])
        except Exception as exc:  # every failure is a counted miss
            if len(self.errors) < 5:
                self.errors.append(repr(exc))
            return False
        [arr] = got.values()
        return bool(np.array_equal(arr, self.traffic.expected[model][k]))

    def close(self) -> None:
        self.client.close()


def _hist(scrape: loadgen.Scrape, family: str) -> Tuple[float, float]:
    """(sum, count) of one histogram family over all models."""
    base = "repro_" + family.replace(".", "_")
    return (loadgen.family_total(scrape, base + "_sum"),
            loadgen.family_total(scrape, base + "_count"))


def server_layers(delta: loadgen.Scrape, client_service_s: List[float]
                  ) -> Dict[str, Tuple[float, str]]:
    """Serving-layer figures from the difference of two scrapes."""
    lat_sum, lat_n = _hist(delta, "serving.infer.latency_s")
    run_sum, run_n = _hist(delta, "serving.infer.batch_latency_s")
    size_sum, size_n = _hist(delta, "serving.infer.batch_size")
    server_ms = 1000.0 * lat_sum / max(lat_n, 1)
    run_ms = 1000.0 * run_sum / max(run_n, 1)
    client_ms = 1000.0 * float(np.mean(client_service_s))
    return {
        "serving.batch_wait_ms": (server_ms - run_ms, "ms"),
        "serving.batch_run_ms": (run_ms, "ms"),
        "serving.batch_size_mean": (size_sum / max(size_n, 1), "count"),
        "serving.transport_ms": (client_ms - server_ms, "ms"),
    }


def run(ctx: Context, seconds: float) -> Outcome:
    out = Outcome()
    open_s = OPEN_SHARE * seconds
    closed_s = seconds - open_s
    schedule = loadgen.poisson_schedule(ctx.seed, OPEN_RATE, open_s)
    traffic = make_traffic(ctx.seed, len(schedule) + 4096)

    setups: List[float] = []
    server: Optional[Server] = None
    try:
        for i in range(SETUP_REPEATS):
            server = Server()
            with ctx.spans.span("serving.launch"):
                setups.append(server.wait_ready())
            if i < SETUP_REPEATS - 1:
                server.stop()
                server = None
        addr = server.addr

        warm = Sender(addr, traffic, ctx, offset=len(schedule))
        for i in range(WARMUP_REQUESTS):
            warm(i)
        warm.close()

        before = server.metrics()
        senders: List[Sender] = []

        def factory() -> Sender:
            s = Sender(addr, traffic, ctx)
            senders.append(s)
            return s

        with ctx.spans.span("serving.open_loop", rate=OPEN_RATE):
            open_res = loadgen.open_loop(factory, schedule, CONNECTIONS)
        after = server.metrics()
        with ctx.spans.span("serving.closed_loop"):
            closed_res = loadgen.closed_loop(factory, closed_s, CONNECTIONS)
    finally:
        if server is not None:
            server.stop()

    for res in (open_res, closed_res):
        for ok in res.ok:
            out.check(ok, "served output missing or not equal to "
                          "interpret() on the rewritten graph")
    errors = [e for s in senders for e in s.errors]
    if errors:
        out.report["request_errors"] = errors[:5]

    lat_ms = [1000.0 * v for v in open_res.latency_s]
    p50 = percentile(lat_ms, 50)
    tail_q, tail = highest_percentile(lat_ms, (95,))
    closed_rps = (closed_res.attempted - closed_res.failed) / closed_res.wall_s
    gain = pwl_gain(model_functions(reference_graphs()), SERVER_PWL)
    lag_ms = [1000.0 * v for v in open_res.lag_s if not math.isnan(v)]

    out.metrics = {
        "setup_s": (median(setups), "s"),
        "latency_ms_p50": (p50, "ms"),
        "throughput_per_s": (closed_rps, "1/s"),
        "rel_err": (traffic.rel_err, "ratio"),
        "mse_gain": (gain, "x"),
    }
    delta = loadgen.diff_metrics(before, after)
    good_service = [s for s, ok in zip(open_res.service_s, open_res.ok)
                    if ok]
    out.layers = server_layers(delta, good_service or [math.nan])
    rejected = loadgen.family_total(delta, "repro_serving_infer_rejected")
    lag_q, lag = highest_percentile(lag_ms, (95,))
    out.layers["serving.generator_lag_ms"] = (lag, "ms")
    out.layers["serving.rejected"] = (rejected, "count")
    out.report.update({
        "latency_ms_p50": [p50, "ms"],
        f"latency_ms_p{tail_q:g}": [tail, "ms"],
        "closed_rps": [closed_rps, "1/s"],
        "out_rel_err": [traffic.rel_err, "ratio"],
        "open_rate_per_s": OPEN_RATE, "connections": CONNECTIONS,
        "open_requests": open_res.attempted,
        "open_failed": open_res.failed,
        "closed_requests": closed_res.attempted,
        "closed_failed": closed_res.failed,
        "generator_lag_ms_p50": median(lag_ms),
        f"generator_lag_ms_p{lag_q:g}": lag,
        "setup_samples_s": setups,
        "server_layers": {k: v[0] for k, v in out.layers.items()}})
    return out
