"""Check the workload design against a traced run of every workload.

    python3 perfbench/design_check.py --seed 1 --seconds 20

Runs ``run.py --trace 1`` once per workload and tests the predictions
the workloads were chosen for (see ``README.md``). A failed prediction
is reported as failed; the data is not re-picked. Exit code 1 when any
prediction fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sched_fifo", "rpc_report", "mem_sol", "chaos_faults")


def traced(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py failed\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def share(m: dict, layer: str) -> float:
    return m[f"{layer}.self_s"] / m["traced_wall_s"]


def predictions(m: dict):
    """(description, holds, evidence) for each design prediction."""
    sched, rpc, mem, chaos = (m[w] for w in WORKLOADS)
    mem_shares = {layer: share(mem, layer) for layer in
                  ("sim", "sim.faults", "hw", "queues", "core", "ghost",
                   "sched", "rpc", "mem", "workloads", "obs")}
    ratio = share(sched, "sim") / max(share(mem, "sim"), 1e-12)
    yield ("sim.self_s share on sched_fifo is several (>=3) times its "
           "share on mem_sol", ratio >= 3.0,
           f"{share(sched, 'sim'):.3f} vs {share(mem, 'sim'):.3f} "
           f"({ratio:.1f}x)")
    top = max(mem_shares, key=mem_shares.get)
    yield ("mem.self_s is the largest layer share on mem_sol", top == "mem",
           f"largest is {top} at {mem_shares[top]:.3f}")
    zero = [w for w, x in (("sched_fifo", sched), ("mem_sol", mem))
            if x["obs.self_s"] != 0.0]
    busy = [w for w, x in (("rpc_report", rpc), ("chaos_faults", chaos))
            if x["obs.self_s"] <= 0.0]
    yield ("obs.self_s is 0 on sched_fifo and mem_sol, non-zero on "
           "rpc_report and chaos_faults", not zero and not busy,
           "obs.self_s " + ", ".join(f"{w}={m[w]['obs.self_s']:.4f}"
                                     for w in WORKLOADS))
    yield ("queues.useful_poll_ratio is lower on chaos_faults than on "
           "sched_fifo",
           chaos["queues.useful_poll_ratio"] < sched["queues.useful_poll_ratio"],
           f"{chaos['queues.useful_poll_ratio']:.4f} vs "
           f"{sched['queues.useful_poll_ratio']:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    metrics = {w: traced(w, args.seed, args.seconds) for w in WORKLOADS}
    failed = 0
    for description, holds, evidence in predictions(metrics):
        failed += not holds
        print(f"{'PASS' if holds else 'FAIL'}  {description}: {evidence}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
