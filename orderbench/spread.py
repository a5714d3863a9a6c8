"""Run the benchmark on several seeds and report each metric's spread.

    python3 orderbench/spread.py --workload desk-rgb --seeds 1-5 [--trace 0] [--out spread.json]

Prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, the quartile distance as a share of
the median, and for end-to-end metrics that share against a third of the
metric's bound in BENCHMARK.json. Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=None, help="also write every run's result here as JSON")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        runs.append({"seed": seed, **result})
    names = list(runs[0]["metrics"])
    ok = True
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        verdict = ""
        if name in bounds and name != "setup_s":
            good = share < bounds[name] / 3
            ok &= good
            verdict = f"bound {bounds[name]:.2f}  {'ok' if good else 'WIDE'}"
        print(f"{name:<44} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  iqr/median {share:7.4f}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
