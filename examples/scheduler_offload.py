#!/usr/bin/env python
"""Fig 4a in miniature: on-host vs offloaded scheduling of RocksDB.

Sweeps offered load for the paper's three scenarios -- On-Host (15
workers + 1 agent core), Wave-15 (apples-to-apples), Wave-16 (using the
freed core) -- prints each latency/throughput curve, and shows the
section 7.2.2 optimization ladder.

Run:  python examples/scheduler_offload.py
"""

from repro.bench.fig4_fifo import P99_LIMIT_NS, SCENARIOS, sweep
from repro.bench.opt_breakdown import saturation_for
from repro.core import WaveOpts
from repro.obs.ascii import render_curves
from repro.sched.experiment import saturation_throughput


def main() -> None:
    rates = [650_000, 750_000, 820_000, 870_000, 910_000]
    duration, warmup = 25_000_000, 5_000_000

    print("Fig 4a in miniature (GET p99 vs achieved throughput):\n")
    sats = {}
    curves = {}
    for name, placement, cores in SCENARIOS:
        results = sweep(placement, cores, rates, duration, warmup)
        sats[name] = saturation_throughput(results, P99_LIMIT_NS)
        curves[name] = [(r.achieved_rate / 1000, r.get_p99_us)
                        for r in results]
    print(render_curves(curves, width=56, height=12,
                        x_label="kreq/s", y_label="GET p99 us"))
    print()
    onhost = sats["On-Host"]
    for name in ("On-Host", "Wave-15", "Wave-16"):
        delta = 100 * (sats[name] / onhost - 1)
        print(f"  {name:<8s} saturates at {sats[name]:>9,.0f} req/s "
              f"({delta:+.1f}% vs On-Host)")
    print("  paper: Wave-15 -1.1%, Wave-16 +4.6%")
    print()

    print("Section 7.2.2 optimization ladder (Wave-16 saturation):")
    centers = {"baseline": 258_000, "+nic-wb": 520_000,
               "+host-wc/wt": 680_000, "+prestage/prefetch": 895_000}
    previous = None
    for label, opts in WaveOpts.ladder():
        sat = saturation_for(opts, centers[label], fast=True)
        gain = "" if previous is None else f"  (+{100 * (sat / previous - 1):.0f}%)"
        print(f"  {label:<20s} {sat:>9,.0f} req/s{gain}")
        previous = sat


if __name__ == "__main__":
    main()
