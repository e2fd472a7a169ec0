"""Run one or more workloads over several seeds and tabulate the spread.

Usage (from the repository root)::

    python3 sfubench/steadiness.py --workload fit-sweep --runs 10 \\
        [--first-seed 1] [--markdown sfubench/STEADINESS.md]

For every end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the inter-quartile
distance as a share of the median, and the metric's bound from
``BENCHMARK.json``.  ``--markdown`` appends the table to a file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from sfubench.common import quartiles, spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "sfubench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--markdown", type=Path, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for workload in args.workload:
        results = []
        t0 = time.perf_counter()
        for i in range(args.runs):
            res = run_once(workload, args.first_seed + i,
                           spec["run_seconds"])
            results.append(res)
            print(f"{workload} seed {args.first_seed + i}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in res["metrics"].items()),
                  flush=True)
        wall = time.perf_counter() - t0
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        lines.append(f"\n### {workload}: {args.runs} runs, seeds "
                     f"{args.first_seed}-{args.first_seed + args.runs - 1}, "
                     f"{wall:.0f} s wall, {attempted} checks, "
                     f"{failed} failed\n")
        lines.append("| metric | unit | median | q1 | q3 | spread | "
                     "bound | spread/bound |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(vals)
            iqr = spread(vals)
            unit = results[0]["metrics"][name]["unit"]
            lines.append(f"| {name} | {unit} | {q2:.6g} | {q1:.6g} | "
                         f"{q3:.6g} | {iqr:.4f} | {bounds[name]} | "
                         f"{iqr / bounds[name]:.2f} |")
    text = "\n".join(lines) + "\n"
    print(text)
    if args.markdown is not None:
        with open(args.markdown, "a", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
