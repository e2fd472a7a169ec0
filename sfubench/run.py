"""Run one benchmark workload and print its result line.

Usage (from the repository root)::

    python3 sfubench/run.py --workload fit-sweep --seed 1 --seconds 25 \\
        --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics and the spans are
written to ``.sfubench/spans-<workload>-<seed>.jsonl``.  The line before
it is a JSON report with the environment, the workload's own named
figures and any failed checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
    print(f"sfubench: no repro package under {_ROOT / 'src'}; run from a "
          f"full checkout", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from sfubench import layers  # noqa: E402
from sfubench.common import (STATE_DIR, Context, Spans,  # noqa: E402
                             environment, log, print_result)

WORKLOADS = ("fit-sweep", "batch-infer", "serve-infer")


def _metric_names(kind: str):
    with open(_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec[kind]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    spans = Spans(enabled=False)
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, spans=spans)
    mod = importlib.import_module("sfubench."
                                  + args.workload.replace("-", "_"))
    mod.prepare(ctx)
    env = environment(args.seed)
    if not args.trace:
        outcome = mod.run(ctx, args.seconds)
        names = _metric_names("end_to_end")
    else:
        outcome = layers.traced_run(ctx, mod)
        names = _metric_names("per_layer")
        path = STATE_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.write(path)
        outcome.report["span_file"] = str(path.relative_to(_ROOT))
        outcome.report["self_time_s"] = spans.self_times()
    outcome.report["workload"] = args.workload
    print_result(outcome, env, names)
    log(f"{args.workload} seed={args.seed}: attempted={outcome.attempted} "
        f"failed={outcome.failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
