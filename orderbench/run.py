"""Benchmark entry point: one workload per run, its result as the last line.

Run from the repository root:

    python3 orderbench/run.py --workload desk-oracle --seed 1 --seconds 20 --trace 0
    python3 orderbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones of a traced run. ``--workload all`` runs every workload, each in a
child process of its own, one after the other. ``--quick`` shrinks every
workload to a few scenes and two training steps.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()
# One thread per run; set before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("desk-oracle", "crowded-oracle", "desk-rgb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return p.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    def number(v):
        return v if math.isfinite(v) else None

    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": number(float(v)), "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args) -> int:
    """Each workload in its own process, so none inherits another's memory."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print(f"== {name}")
        print("\n".join(lines[:-1]))
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sceneorder" / "__init__.py").is_file() or not (ROOT / "configs" / "desk.json").is_file():
        print(f"orderbench: {ROOT} holds no sceneorder sources (src/sceneorder, configs/desk.json)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(ROOT / "src"))
    import workload

    import_s = time.perf_counter() - START
    wl = workload.WORKLOADS[args.workload]
    run = workload.Run(wl.quick() if args.quick else wl, args.seed, args.seconds, bool(args.trace), ROOT, import_s)
    run.execute()
    if args.trace:
        metrics = run.per_layer()
        print(f"spans written to {run.write_trace()}", file=sys.stderr)
    else:
        metrics = run.end_to_end()

    for kind, (attempted, failed) in run.ops.items():
        print(f"{kind:<20} attempted {attempted:>6}  failed {failed:>4}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.4f} {unit}")
    attempted = sum(a for a, _ in run.ops.values())
    failed = sum(f for _, f in run.ops.values())
    print(result_line(not run.failures, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
