"""Causal graph reconstruction and critical-path blame analysis.

Spans carry identity (:attr:`~repro.obs.spans.Span.span_id`), edges
(``parent_id`` + ``links``), and a request id (``req``) minted at each
causal root (ghost txn commit, RPC request arrival, DMA op, fault
fire).  This module turns one run's :class:`~repro.obs.spans.SpanLog`
back into per-request causal graphs, extracts each request's critical
path, and attributes the end-to-end latency to resource layers the way
the paper's Table 3 decomposes a scheduling decision:

- ``host-cpu``  -- host kernel + worker-core stages (``task.*``,
  ``core.*``, ``sched.submit``, host-placed ``rpc.*``),
- ``pcie``      -- interconnect crossings (``msix.*``, ``dma.*``),
- ``nic-core``  -- agent/SOL work on the SmartNIC ARM cores
  (``agent.*``, ``sol.*``, NIC-placed ``rpc.*``),
- ``ring``      -- shared queue batch costs (``ring.*``, ``dmaq.*``),
- ``sched-policy`` -- time queued awaiting a scheduling decision
  (``sched.queue``),
- ``fault``     -- fault-injection and recovery stages (``fault.*``),
- ``wait``      -- gaps on the critical path no span explains.

The analysis is **read-only**: it never touches the metrics registry
(telemetry digests must not depend on whether an analysis ran) and it
degrades gracefully when the bounded span ring evicted part of a chain
-- severed references are counted (``causal.truncated``), the affected
path is flagged ``partial``, and no lookup ever raises.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.obs.spans import Span, Telemetry

#: Layer order for tables (totals render in this order).
LAYERS = ("host-cpu", "pcie", "nic-core", "ring", "sched-policy",
          "fault", "wait", "other")


def layer_of(span: Span) -> str:
    """Map one span's stage (and args) to its resource layer."""
    stage = span.stage
    if stage.startswith("rpc."):
        where = (span.args or {}).get("where")
        return "nic-core" if where == "smartnic" else "host-cpu"
    if stage == "sched.queue":
        return "sched-policy"
    if stage.startswith(("task.", "core.", "sched.")):
        return "host-cpu"
    if stage.startswith(("msix.", "dma.")):
        return "pcie"
    if stage.startswith(("agent.", "sol.")):
        return "nic-core"
    if stage.startswith(("ring.", "dmaq.")):
        return "ring"
    if stage.startswith("fault."):
        return "fault"
    return "other"


def _end_key(span: Span) -> Tuple[float, int]:
    """Deterministic ordering key: completion time, then record order."""
    end = span.end_ns if span.end_ns is not None else span.begin_ns
    return (end, span.span_id or 0)


class RequestTrace:
    """One request's reconstructed causal trace."""

    __slots__ = ("run_label", "req", "path", "latency_ns", "blame",
                 "partial")

    def __init__(self, run_label: str, req: int, path: List[Span],
                 latency_ns: float, blame: Dict[str, float],
                 partial: bool):
        self.run_label = run_label
        self.req = req
        #: Critical path, causally ordered root -> terminal.
        self.path = path
        self.latency_ns = latency_ns
        #: Per-layer ns attribution along the path (sums to latency).
        self.blame = blame
        #: True when ring eviction (or stage filtering) severed part of
        #: the chain: the path covers only the surviving suffix.
        self.partial = partial

    def __repr__(self) -> str:
        return (f"<RequestTrace {self.run_label} req={self.req} "
                f"{self.latency_ns:.0f}ns hops={len(self.path)}"
                f"{' partial' if self.partial else ''}>")


class CausalGraph:
    """All causal graphs of one run, indexed from its span log.

    ``truncated`` counts edge references to spans no longer in the log
    (evicted from the bounded ring, or filtered): the analyzer treats
    every such edge as absent and flags the affected request partial.
    """

    def __init__(self, run):
        self.run = run
        self.by_id: Dict[int, Span] = {}
        self.children: Dict[int, List[int]] = {}
        self.requests: Dict[int, List[Span]] = {}
        self.truncated = 0
        self._partial_reqs = set()
        for span in run.spans:
            if span.span_id is None:
                continue
            self.by_id[span.span_id] = span
        for span in run.spans:
            sid = span.span_id
            if sid is None:
                continue
            if span.req is not None:
                self.requests.setdefault(span.req, []).append(span)
            preds = []
            if span.parent_id is not None:
                preds.append(span.parent_id)
            if span.links:
                preds.extend(span.links)
            for pred in preds:
                if pred in self.by_id:
                    self.children.setdefault(pred, []).append(sid)
                else:
                    self.truncated += 1
                    if span.req is not None:
                        self._partial_reqs.add(span.req)

    def request_ids(self) -> List[int]:
        return sorted(self.requests)

    def _predecessors(self, span: Span) -> List[Span]:
        preds = []
        if span.parent_id is not None:
            pred = self.by_id.get(span.parent_id)
            if pred is not None:
                preds.append(pred)
        if span.links:
            for link in span.links:
                pred = self.by_id.get(link)
                if pred is not None:
                    preds.append(pred)
        return preds

    def trace(self, req: int) -> Optional[RequestTrace]:
        """Reconstruct one request's critical path and blame."""
        spans = self.requests.get(req)
        if not spans:
            return None
        partial = req in self._partial_reqs
        # Root: the earliest span of the request with no surviving
        # parent (the minted root, or the surviving suffix head after
        # eviction severed the chain).
        root = None
        for span in spans:
            if (span.parent_id is None
                    or span.parent_id not in self.by_id):
                root = span
                break
        if root is None:
            # Pure cycle through links (never produced by the
            # instrumentation, but never crash): take the first span.
            root = spans[0]
            partial = True
        # Forward reachability from the root bounds the terminal
        # choice: a batch span may link spans of *other* requests into
        # its subtree, so the terminal must both carry this request id
        # and be causally downstream of this root.
        reachable = set()
        stack = [root.span_id]
        while stack:
            sid = stack.pop()
            if sid in reachable:
                continue
            reachable.add(sid)
            stack.extend(self.children.get(sid, ()))
        candidates = [s for s in spans if s.span_id in reachable]
        if not candidates:
            candidates = spans
            partial = True
        terminal = max(candidates, key=_end_key)
        # Walk back from the terminal, always via the predecessor that
        # finished last (the binding dependency) -- but only through
        # spans reachable from this request's root: batch spans fan in
        # edges from *other* requests' chains, and following those
        # would splice a stranger's history into this path.
        path = [terminal]
        seen = {terminal.span_id}
        cursor = terminal
        while True:
            if (cursor.parent_id is not None
                    and cursor.parent_id not in self.by_id):
                partial = True
            if cursor.links:
                for link in cursor.links:
                    if link not in self.by_id:
                        partial = True
            preds = [p for p in self._predecessors(cursor)
                     if p.span_id not in seen and p.span_id in reachable]
            if not preds:
                break
            cursor = max(preds, key=_end_key)
            seen.add(cursor.span_id)
            path.append(cursor)
        path.reverse()
        end = terminal.end_ns if terminal.end_ns is not None \
            else terminal.begin_ns
        latency = max(0.0, end - path[0].begin_ns)
        queued = [(s.begin_ns,
                   s.end_ns if s.end_ns is not None else s.begin_ns)
                  for s in spans if s.stage == "sched.queue"]
        return RequestTrace(self.run.label, req, path, latency,
                            _blame_of(path, queued), partial)

    def traces(self) -> List[RequestTrace]:
        out = []
        for req in self.request_ids():
            trace = self.trace(req)
            if trace is not None:
                out.append(trace)
        return out


def _blame_of(path: List[Span],
              queued: Optional[List[Tuple[float, float]]] = None
              ) -> Dict[str, float]:
    """Attribute the path's elapsed time to layers.

    A sequential sweep along the causally ordered path: each span is
    charged only for the part of its interval beyond the time already
    accounted for (overlapping retro-spans such as ``sched.queue``
    never double-count), and gaps no span covers go to ``wait`` --
    except the part of a gap overlapping the request's own
    ``sched.queue`` interval, which is time spent awaiting a scheduling
    decision and is charged to ``sched-policy``.
    """
    blame: Dict[str, float] = {}

    def charge_gap(a: float, b: float) -> None:
        remaining = b - a
        if queued:
            covered = 0.0
            for qb, qe in queued:
                covered += max(0.0, min(b, qe) - max(a, qb))
            covered = min(covered, remaining)
            if covered:
                blame["sched-policy"] = (blame.get("sched-policy", 0.0)
                                         + covered)
                remaining -= covered
        if remaining:
            blame["wait"] = blame.get("wait", 0.0) + remaining

    cursor = path[0].begin_ns
    for span in path:
        end = span.end_ns if span.end_ns is not None else span.begin_ns
        if span.begin_ns > cursor:
            charge_gap(cursor, span.begin_ns)
            cursor = span.begin_ns
        if end > cursor:
            layer = layer_of(span)
            blame[layer] = blame.get(layer, 0.0) + (end - cursor)
            cursor = end
    return blame


def request_traces(telemetry: Telemetry) -> Tuple[List[RequestTrace], int]:
    """Every run's request traces (run order, then request id), plus
    the total count of truncated edge references."""
    traces: List[RequestTrace] = []
    truncated = 0
    for run in telemetry.runs:
        graph = CausalGraph(run)
        truncated += graph.truncated
        traces.extend(graph.traces())
    return traces, truncated


def _pct(sorted_values: List[float], q: float) -> float:
    """Exact nearest-rank percentile (no interpolation: byte-stable)."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(q / 100.0 * len(sorted_values)) - 1)
    return sorted_values[min(rank, len(sorted_values) - 1)]


def _representative(traces: List[RequestTrace],
                    q: float) -> Optional[RequestTrace]:
    """The request sitting at the nearest-rank ``q`` percentile of
    end-to-end latency (ties broken by run order + request id)."""
    if not traces:
        return None
    ordered = sorted(traces, key=lambda t: (t.latency_ns, t.run_label,
                                            t.req))
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def blame_table(telemetry: Telemetry):
    """Per-layer latency decomposition across all traced requests.

    Returns ``(rows, traces, truncated)`` where each row is
    ``(layer, mean_ns, share, p50_ns, p95_ns, p99_ns)``: the mean is
    over all requests, and the percentile columns decompose the
    requests *at* those latency percentiles -- a Table 3-style "where
    does the p99 request spend its time" read, straight from the trace.
    """
    traces, truncated = request_traces(telemetry)
    if not traces:
        return [], traces, truncated
    reps = {q: _representative(traces, q) for q in (50.0, 95.0, 99.0)}
    total_mean = 0.0
    sums: Dict[str, float] = {}
    for trace in traces:
        total_mean += trace.latency_ns
        for layer, ns in trace.blame.items():
            sums[layer] = sums.get(layer, 0.0) + ns
    n = len(traces)
    grand = sum(sums.values()) or 1.0
    rows = []
    layers = [layer for layer in LAYERS if layer in sums]
    layers += sorted(set(sums) - set(LAYERS))
    for layer in layers:
        rows.append((layer, sums[layer] / n, sums[layer] / grand,
                     reps[50.0].blame.get(layer, 0.0),
                     reps[95.0].blame.get(layer, 0.0),
                     reps[99.0].blame.get(layer, 0.0)))
    return rows, traces, truncated


# -- rendering ---------------------------------------------------------------


def _fmt_us(ns: float) -> str:
    return f"{ns / 1e3:.2f}"


def causal_section(telemetry: Telemetry) -> List[str]:
    """Markdown lines for the causal summary (empty when no spans carry
    request identity)."""
    from repro.obs.report import md_table
    rows, traces, truncated = blame_table(telemetry)
    if not traces:
        return []
    out = ["## Causal request blame", ""]
    latencies = sorted(t.latency_ns for t in traces)
    partial = sum(1 for t in traces if t.partial)
    out.append(f"- requests traced: {len(traces)}")
    out.append(f"- end-to-end latency (us): "
               f"p50 {_fmt_us(_pct(latencies, 50.0))} / "
               f"p95 {_fmt_us(_pct(latencies, 95.0))} / "
               f"p99 {_fmt_us(_pct(latencies, 99.0))} / "
               f"max {_fmt_us(latencies[-1])}")
    if truncated or partial:
        out.append(f"- causal.truncated: {truncated} severed edge refs; "
                   f"{partial} partial paths (span-ring eviction)")
    out.append("")
    out.append(md_table(
        ["layer", "mean us", "share", "p50-req us", "p95-req us",
         "p99-req us"],
        [[f"`{layer}`", _fmt_us(mean), f"{share * 100:.1f}%",
          _fmt_us(p50), _fmt_us(p95), _fmt_us(p99)]
         for layer, mean, share, p50, p95, p99 in rows]))
    return out


def critical_path_section(traces: List[RequestTrace],
                          q: float = 99.0) -> List[str]:
    """Markdown lines walking the critical path of the request at the
    ``q`` latency percentile."""
    rep = _representative(traces, q)
    if rep is None:
        return []
    out = [f"## Critical path of the p{q:.0f} request "
           f"({rep.run_label}, req {rep.req}, "
           f"{_fmt_us(rep.latency_ns)} us"
           f"{', partial' if rep.partial else ''})", ""]
    for span in rep.path:
        end = span.end_ns if span.end_ns is not None else span.begin_ns
        out.append(f"- `{span.stage}` [{layer_of(span)}] on "
                   f"{span.track}: t={span.begin_ns / 1e3:.2f} us "
                   f"(+{(end - span.begin_ns) / 1e3:.2f} us)")
    return out


def analyze_report(telemetry: Telemetry, title: str = "causal analysis",
                   percentile: float = 99.0) -> str:
    """The full ``python -m repro analyze`` Markdown report."""
    out: List[str] = [f"# {title}", ""]
    with_ids = 0
    for _, span in telemetry.all_spans():
        if span.span_id is not None:
            with_ids += 1
    out.append(f"- runs: {len(telemetry.runs)}")
    out.append(f"- spans with causal identity: {with_ids}")
    causal = causal_section(telemetry)
    if causal:
        out.append("")
        out.extend(causal)
        _, traces, _ = blame_table(telemetry)
        crit = critical_path_section(traces, percentile)
        if crit:
            out.append("")
            out.extend(crit)
    else:
        out.append("- no request-rooted spans recorded (tracing off, "
                   "or no causal roots reached)")
    out.append("")
    return "\n".join(out)


__all__ = ["LAYERS", "layer_of", "CausalGraph", "RequestTrace",
           "request_traces", "blame_table", "causal_section",
           "critical_path_section", "analyze_report"]
