"""Load generation against ``serve-infer`` plus ``/metrics`` scraping.

The open loop sends on a seeded Poisson schedule regardless of replies
(independent users) over a fixed number of keep-alive connections; a
request's latency runs from the time it was *due*, so a stall that
delays later sends is charged to them, and the generator's own lateness
is recorded next to it.  The closed loop keeps each connection busy
back-to-back (callers that wait for their reply).
"""

from __future__ import annotations

import math
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Sends request number ``i``; True when the reply checked out.
Send = Callable[[int], bool]


def poisson_schedule(seed: int, rate: float, duration: float) -> np.ndarray:
    """Due offsets (seconds from start) of a Poisson process.

    Deterministic per ``(seed, rate)``: a longer ``duration`` only
    extends the same sequence.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng([seed, int(round(rate * 1000))])
    chunk = max(16, int(rate * duration * 1.5) + 16)
    due = np.cumsum(rng.exponential(1.0 / rate, size=chunk))
    while due[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=chunk)) + due[-1]
        due = np.concatenate([due, more])
    return due[due < duration]


@dataclass
class LoopResult:
    """Per-request records of one loop, in schedule order."""

    latency_s: List[float] = field(default_factory=list)   # inf = miss
    service_s: List[float] = field(default_factory=list)   # send -> reply
    lag_s: List[float] = field(default_factory=list)       # send - due
    ok: List[bool] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)


def open_loop(send_factory: Callable[[], Send], schedule: np.ndarray,
              connections: int) -> LoopResult:
    """Run ``schedule`` over ``connections`` sender threads.

    ``send_factory`` builds one sender (one connection) per thread.
    """
    n = len(schedule)
    latency = [math.inf] * n
    service = [math.nan] * n
    lag = [math.nan] * n
    ok = [False] * n
    lock = threading.Lock()
    next_index = [0]
    t0 = time.perf_counter() + 0.05

    def worker(send: Send) -> None:
        while True:
            with lock:
                i = next_index[0]
                next_index[0] += 1
            if i >= n:
                return
            due = t0 + schedule[i]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            good = send(i)
            done = time.perf_counter()
            lag[i] = sent - due
            service[i] = done - sent
            ok[i] = good
            if good:
                latency[i] = done - due

    _run_threads(worker, send_factory, connections)
    return LoopResult(latency_s=latency, service_s=service, lag_s=lag,
                      ok=ok, wall_s=time.perf_counter() - t0)


def closed_loop(send_factory: Callable[[], Send], duration: float,
                connections: int) -> LoopResult:
    """Each of ``connections`` threads sends back-to-back for
    ``duration`` seconds."""
    res = LoopResult()
    lock = threading.Lock()
    counter = [0]
    t_end = time.perf_counter() + duration

    def worker(send: Send) -> None:
        while time.perf_counter() < t_end:
            with lock:
                i = counter[0]
                counter[0] += 1
            sent = time.perf_counter()
            good = send(i)
            done = time.perf_counter()
            with lock:
                res.ok.append(good)
                res.service_s.append(done - sent)
                res.latency_s.append(done - sent if good else math.inf)

    t0 = time.perf_counter()
    _run_threads(worker, send_factory, connections)
    res.wall_s = time.perf_counter() - t0
    return res


def _run_threads(worker, send_factory, connections: int) -> None:
    senders = [send_factory() for _ in range(connections)]
    threads = [threading.Thread(target=worker, args=(s,), daemon=True)
               for s in senders]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for s in senders:
        close = getattr(s, "close", None)
        if close is not None:
            close()


# --------------------------------------------------------------------- #
# /metrics
# --------------------------------------------------------------------- #
_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')

#: A parsed exposition: (metric name, sorted label pairs) -> value.
Scrape = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def parse_metrics(text: str) -> Scrape:
    """Parse Prometheus text exposition (comments skipped)."""
    out: Scrape = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"unparseable metrics line: {line!r}")
        name, labels, value = m.groups()
        pairs = tuple(sorted(_LABEL.findall(labels or "")))
        out[(name, pairs)] = float(value)
    return out


def diff_metrics(before: Scrape, after: Scrape) -> Scrape:
    """``after - before`` per series (a series new in ``after`` counts
    from zero)."""
    return {key: value - before.get(key, 0.0)
            for key, value in after.items()}


def family_total(scrape: Scrape, name: str,
                 labels: Optional[Dict[str, str]] = None) -> float:
    """Sum of every series of ``name`` whose labels include ``labels``."""
    want = set((labels or {}).items())
    return sum(value for (n, pairs), value in scrape.items()
               if n == name and want <= set(pairs))
