"""Alternating paired orderbench runs of two checkouts, written as BENCH files.

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --workload desk-oracle=10 --workload crowded-oracle=5 --workload desk-rgb=5 \\
        --seconds 30 --out-base BENCH_0.json --out-change BENCH_1.json

Pair k runs every workload that asks for more than k pairs, once per
checkout on seed first_seed + k, the base first on even k and the change
first on odd k, so drift of the host's speed falls on both sides alike.
Then each checkout makes one traced run per workload on first_seed. Each
output file holds per-workload medians and quartiles of every end-to-end
metric, the traced run's per-layer metrics, the command, the seeds and
the machine; the change's file also counts, per metric, the pairs it won.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

COMMAND = "python3 orderbench/run.py --workload {w} --seed {s} --seconds {t} --trace {trace}"


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "orderbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def machine() -> dict:
    facts = {"platform": platform.platform(), "python": platform.python_version(), "cpus": os.cpu_count()}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
        facts["cpu"] = next(line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name"))
        meminfo = Path("/proc/meminfo").read_text().splitlines()
        facts["mem_total"] = next(line.split(":", 1)[1].strip() for line in meminfo if line.startswith("MemTotal"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy

    facts.update(numpy=numpy.__version__, scipy=scipy.__version__, blas_threads="1 (set by orderbench)")
    return facts


def summary(results: list[dict]) -> dict:
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        metrics[name] = {"median": med, "q1": q1, "q3": q3, "unit": results[0]["metrics"][name]["unit"],
                         "values": values}
    return {"runs": len(results), "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results), "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def wins(base: list[dict], change: list[dict], better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"]) for b, c in zip(base, change)]
        won = sum((c > b) if direction == "higher" else (c < b) for b, c in pairs)
        out[name] = {"won": won, "of": len(pairs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", action="append", required=True, help="name=pairs")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out-base", type=Path, required=True)
    p.add_argument("--out-change", type=Path, required=True)
    args = p.parse_args(argv)
    plan = {w: int(k) for w, k in (item.split("=") for item in args.workload)}
    sides = {"base": args.base, "change": args.change}
    runs = {side: {w: [] for w in plan} for side in sides}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for k in range(max(plan.values())):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for w, pairs in plan.items():
            if k < pairs:
                for side in order:
                    runs[side][w].append(run(sides[side], w, args.first_seed + k, args.seconds, 0))
                print(f"pair {k} {w} done", file=sys.stderr)
    traced = {side: {w: run(path, w, args.first_seed, args.seconds, 1) for w in plan} for side, path in sides.items()}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for side, out in (("base", args.out_base), ("change", args.out_change)):
        doc = {
            "checkout": side,
            "command": COMMAND.format(w="<workload>", s="<seed>", t=args.seconds, trace="<0|1>"),
            "driver": "python3 tools/bench_pairs.py --base <parent checkout> --change <change checkout> "
                      + " ".join(f"--workload {w}={n}" for w, n in plan.items())
                      + f" --seconds {args.seconds:g} --first-seed {args.first_seed}",
            "protocol": "alternating pairs: pair k runs seed first_seed + k on both checkouts, base first on "
                        "even k; medians and quartiles over the untraced runs; one traced run on first_seed",
            "pairs_per_workload": plan,
            "seeds": {w: list(range(args.first_seed, args.first_seed + n)) for w, n in plan.items()},
            "started": started,
            "machine": machine(),
            "workloads": {w: summary(rs) for w, rs in runs[side].items()},
            "traced": {w: {"seed": args.first_seed, "correct": r["correct"], "failed": r["failed"],
                           "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                       for w, r in traced[side].items()},
        }
        if side == "change":
            doc["pairs_won_against"] = {"file": args.out_base.name,
                                        **{w: wins(runs["base"][w], runs["change"][w], better) for w in plan}}
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
