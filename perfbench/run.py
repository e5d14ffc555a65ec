"""End-to-end and per-layer benchmark of the Wave simulator (host time).

    python3 perfbench/run.py --workload sched_fifo --seed 1 --seconds 20 --trace 0

Runs one workload's experiment points (see ``points.py``) serially in
this process, round after round, for ``--seconds`` seconds. Round 0 uses
``--seed``; later rounds use seeds derived from it, so a run averages
over several simulated inputs. Every point's outputs are checked.

``--trace 0`` reports the end-to-end metrics (tracing off). Host times
are scaled to a reference host speed measured alongside the points
(``calibrate.py``); the raw host seconds are printed too. ``--trace 1``
runs every round twice, untraced and then under the outside-in layer
tracer (``tracer.py``), requires equal simulated digests from the two,
and reports the per-layer metrics in raw host seconds. The last line of
standard output is one JSON object; per-point detail, and in trace mode
the raw spans, go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh-interpreter imports timed per run; the median is reported.
IMPORT_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every point (self-test smoke runs)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def clear_engine_env() -> dict:
    """Drop ``REPRO_*`` variables so the default engine is measured."""
    cleared = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in cleared:
        del os.environ[key]
    return cleared


def load_repro() -> None:
    """Import the checkout's ``repro``; exit 2 when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


#: Child program timing the workload imports at reference speed.
_IMPORT_PROBE = """\
import importlib, sys, time
from calibrate import SpeedSampler
with SpeedSampler(period_s=0.01) as sampler:
    start = time.perf_counter()
    for name in sys.argv[1:]:
        importlib.import_module(name)
    end = time.perf_counter()
spent, slowdown = sampler.window(start, end)
print(end - start, (end - start - spent) / slowdown)
"""


def import_seconds(modules):
    """Median ``(host, normalized)`` seconds to import ``modules`` in a
    fresh interpreter."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    host, normalized = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *modules],
                              env=env, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=60, check=True)
        raw, norm = proc.stdout.split()
        host.append(float(raw))
        normalized.append(float(norm))
    return statistics.median(host), statistics.median(normalized)


def round_seed(seed: int, index: int) -> int:
    """Round 0 runs ``seed`` itself; later rounds a seed derived from it."""
    if index == 0:
        return seed
    data = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(data[:4], "big") & 0x7FFFFFFF


class PointRun:
    """Timing and verdict of one point execution.

    ``*_host_s`` are host seconds with the speed sampler's own slices
    taken out; ``slowdown`` is the host speed over the point relative to
    the reference (1.0 when no sampler ran)."""

    __slots__ = ("label", "total_host_s", "setup_host_s", "slowdown",
                 "digest", "problems")

    def __init__(self, label, total_host_s, setup_host_s, slowdown, digest,
                 problems):
        self.label = label
        self.total_host_s = total_host_s
        self.setup_host_s = setup_host_s
        self.slowdown = slowdown
        self.digest = digest
        self.problems = problems

    @property
    def wall_host_s(self) -> float:
        return self.total_host_s - self.setup_host_s

    @property
    def wall_s(self) -> float:
        return self.wall_host_s / self.slowdown

    @property
    def setup_s(self) -> float:
        return self.setup_host_s / self.slowdown

    def as_dict(self) -> dict:
        return {"label": self.label, "wall_s": self.wall_s,
                "setup_s": self.setup_s, "wall_host_s": self.wall_host_s,
                "setup_host_s": self.setup_host_s,
                "slowdown": self.slowdown, "digest": self.digest,
                "problems": self.problems}


def run_point(point, seed, probe, sampler) -> PointRun:
    # Free the previous point's cyclic garbage outside the timed region,
    # so neither its collection nor its memory lands on this point.
    gc.collect()
    probe.reset()
    start = time.perf_counter()
    try:
        result = point.run(seed)
    except Exception:  # a point that raises is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return PointRun(point.label, time.perf_counter() - start, 0.0, 1.0,
                        "", ["raised"])
    end = time.perf_counter()
    first_run = probe.first_run_at if probe.first_run_at else end
    slowdown = 1.0
    total, setup = end - start, first_run - start
    if sampler is not None:
        spent, slowdown = sampler.window(start, end)
        total -= spent
        setup -= sampler.window(start, first_run)[0]
    arrivals = (sum(len(g.requests) for g in probe.loadgens)
                if probe.loadgens else None)
    try:
        text, problems = point.check(result, arrivals)
    except Exception as exc:  # an output that cannot be read is a failure
        traceback.print_exc(file=sys.stderr)
        text, problems = "", [f"check raised {exc!r}"]
    return PointRun(point.label, total, setup, slowdown,
                    hashlib.sha256(text.encode()).hexdigest()[:16], problems)


def run_pass(points, seed, probe, sampler=None, tracer=None):
    """Run every point once: untraced under ``sampler``, or traced."""
    runs = []
    context = tracer if tracer is not None else sampler
    with context:
        for point in points:
            if tracer is not None:
                tracer.begin_point(point.label)
            runs.append(run_point(point, seed, probe,
                                  None if tracer is not None else sampler))
            if tracer is not None:
                tracer.end_point(probe.envs)
    return runs


def host_info(cleared: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cleared_env": cleared,
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith("_s") or name.endswith("s_per_iteration"):
        return "s"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = clear_engine_env()
    load_repro()
    sys.path.insert(0, str(HERE))
    import points as bench_points
    from calibrate import SpeedSampler
    from tracer import LayerTracer, RunProbe

    if args.workload not in bench_points.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{sorted(bench_points.WORKLOADS)}", file=sys.stderr)
        return 2
    points = bench_points.WORKLOADS[args.workload](args.tiny)
    import_host_s, import_s = import_seconds(bench_points.REPRO_MODULES)

    probe = RunProbe()
    sampler = SpeedSampler()
    tracer = LayerTracer() if args.trace else None
    rounds = []          # (seed, untraced pass)
    traced_rounds = []   # traced passes (trace mode)
    with probe:
        deadline = time.perf_counter() + args.seconds
        while True:
            seed = round_seed(args.seed, len(rounds))
            plain = run_pass(points, seed, probe, sampler=sampler)
            rounds.append((seed, plain))
            if tracer is not None:
                traced = run_pass(points, seed, probe, tracer=tracer)
                traced_rounds.append(traced)
                for a, b in zip(plain, traced):
                    if a.digest != b.digest:
                        b.problems.append(f"traced digest {b.digest} != "
                                          f"untraced {a.digest}")
            if time.perf_counter() >= deadline:
                break

    all_runs = [r for _, rs in rounds for r in rs]
    all_runs += [r for rs in traced_rounds for r in rs]
    attempted = len(all_runs)
    failed = 0
    for run in all_runs:
        if run.problems:
            failed += 1
            print(f"FAILED {run.label}: {'; '.join(run.problems)}",
                  file=sys.stderr)
    sim_digest = bench_points.digest([r.digest for r in rounds[0][1]])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def per_round(attr):
        return statistics.median(sum(getattr(r, attr) for r in rs)
                                 for _, rs in rounds)

    end_to_end = {
        "wall_s": (per_round("wall_s"), "s"),
        "setup_s": (import_s + per_round("setup_s"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = host_info(cleared)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  trace {args.trace}")
    print(f"host nproc={info['nproc']} affinity={info['affinity']} "
          f"python={info['python']} machine={info['machine']} "
          f"cleared_env={sorted(cleared) or 'none'}")
    for i, (seed, rs) in enumerate(rounds):
        print(f"round {i} seed {seed}: " + "  ".join(
            f"{r.label} {r.wall_s:.3f}s(x{r.slowdown:.2f})" for r in rs))
    print(f"sim_digest {sim_digest}" + (
        f"  traced {bench_points.digest([r.digest for r in traced_rounds[0]])}"
        if traced_rounds else ""))
    for name, (value, unit) in end_to_end.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"host_wall_s = {per_round('wall_host_s'):.6g} s  (unscaled)")
    print(f"host_setup_s = {import_host_s + per_round('setup_host_s'):.6g} s"
          "  (unscaled)")
    print(f"points = {attempted} count")
    print(f"points_failed = {failed} count")

    if tracer is not None:
        untraced = sum(r.total_host_s for _, rs in rounds for r in rs)
        traced = sum(r.total_host_s for rs in traced_rounds for r in rs)
        layer = tracer.metrics(traced, len(traced_rounds))
        layer["trace_overhead"] = traced / untraced
        print(f"traced_wall_s = {layer['traced_wall_s']:.6g} s  "
              f"trace_overhead = {layer['trace_overhead']:.4g}")
        for name, value in layer.items():
            if name.endswith("self_s") or name == "unattributed_s":
                share = value / layer["traced_wall_s"]
                print(f"  {name:<20} {value:10.4f} s  {100 * share:5.1f}%")
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}

    info.update(import_host_s=import_host_s, import_s=import_s)
    write_details(args, info, rounds, traced_rounds, sim_digest, metrics,
                  tracer)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_details(args, info, rounds, traced_rounds, sim_digest, metrics,
                  tracer) -> None:
    """Per-point detail and (trace mode) spans, for later inspection."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "tiny": args.tiny, "host": info,
        "sim_digest": sim_digest, "metrics": metrics,
        "rounds": [{"seed": seed, "points": [r.as_dict() for r in rs]}
                   for seed, rs in rounds],
        "traced_rounds": [[r.as_dict() for r in rs] for rs in traced_rounds],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer is not None:
        with open(OUT_DIR / f"{stem}_spans.jsonl", "w") as handle:
            for sid, name, start, end, parent, point in tracer.spans:
                handle.write(json.dumps({"id": sid, "name": name,
                                         "start": start, "end": end,
                                         "parent": parent,
                                         "point": point}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
