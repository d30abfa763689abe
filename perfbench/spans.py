"""Span files of a traced run → self times → per-layer metrics."""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from stats import mean, percentile


@dataclass(frozen=True)
class Span:
    pid: int
    name: str
    sid: int
    parent: int
    link: str | None
    start: float
    end: float
    note: Any = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


def load(trace_dir: Path) -> tuple[list[Span], list[tuple[int, str, str, float]]]:
    """All spans and ``(pid, event, digest, time)`` solve marks in ``trace_dir``."""
    spans: list[Span] = []
    events: list[tuple[int, str, str, float]] = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        pid = int(path.stem.split("-")[1])
        for row in path.read_text(encoding="utf-8").splitlines():
            kind, *fields = json.loads(row)
            if kind == "span":
                spans.append(Span(pid, *fields))
            else:
                events.append((pid, *fields))
    return spans, events


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_ms(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the part its child spans cover, in ms."""
    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[(s.pid, s.parent)].append((s.start, s.end))
    return {
        (s.pid, s.sid): (s.end - s.start - covered(children[(s.pid, s.sid)], s.start, s.end)) * 1000.0
        for s in spans
    }


#: Spans whose self time is waiting on another span or process, not work.
CONTAINERS = frozenset({"server.dispatch", "cluster.dispatch", "cluster.worker_request"})
DECODE = frozenset(
    {"protocol.decode_line", "protocol.parse_solve_request", "protocol.parse_session_open", "protocol.parse_session_delta"}
)
ENCODE = frozenset({"protocol.encode_line", "registry.result_to_wire", "protocol.session_payload"})


def layer_metrics(
    spans: list[Span],
    events: list[tuple[int, str, str, float]],
    window: tuple[float, float],
    requests: int,
    mean_latency_ms: float,
) -> dict[str, float]:
    """Per-layer metrics from the spans that started inside ``window``."""
    lo, hi = window
    spans = [s for s in spans if lo <= s.start <= hi]
    own = self_ms(spans)
    n = max(requests, 1)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def durations(name: str) -> list[float]:
        return [s.ms for s in by_name[name]]

    def selfs(name: str) -> list[float]:
        return [own[(s.pid, s.sid)] for s in by_name[name]]

    out: dict[str, float] = {}
    out["serve.protocol.decode_ms"] = sum(s.ms for s in spans if s.name in DECODE) / n
    out["serve.protocol.encode_ms"] = sum(s.ms for s in spans if s.name in ENCODE) / n
    out["serve.cluster.dispatch_self_ms"] = mean(selfs("cluster.dispatch"))

    # Queue wait: request-path canonicalisation done (admission) → start of
    # the micro-batch solve holding that digest; batch wait: the digest's
    # own solve done → that micro-batch returns.  Joined per process.
    admitted: dict[tuple[int, str], float] = {}
    for s in by_name["registry.instance_key"]:
        if s.link == "request":
            key = (s.pid, s.note)
            admitted[key] = min(admitted.get(key, s.end), s.end)
    solved = {(pid, digest): t for pid, event, digest, t in events if event == "done" and lo <= t <= hi}
    queue_wait, batch_wait = [], []
    for group in by_name["server.solve_group"]:
        for digest in group.note or ():
            if (group.pid, digest) in admitted:
                queue_wait.append((group.start - admitted[(group.pid, digest)]) * 1000.0)
            if (group.pid, digest) in solved:
                batch_wait.append((group.end - solved[(group.pid, digest)]) * 1000.0)
    out["serve.server.queue_wait_p50_ms"] = percentile(queue_wait, 50)
    out["serve.server.queue_wait_p95_ms"] = percentile(queue_wait, 95)
    out["serve.server.batch_wait_ms"] = mean(batch_wait)
    out["serve.server.batch_size"] = mean([float(len(g.note or ())) for g in by_name["server.solve_group"]])

    out["batch.canonical.key_ms"] = mean(durations("registry.instance_key"))
    out["batch.canonical.calls_per_req"] = len(by_name["registry.instance_key"]) / n
    out["batch.cache.get_ms"] = mean(durations("cache.get"))
    out["batch.cache.put_ms"] = mean(durations("cache.put"))
    gets = by_name["cache.get"]
    out["batch.cache.hit_ratio"] = sum(1 for s in gets if s.note) / len(gets) if gets else 0.0
    out["batch.executor.self_ms"] = mean(selfs("executor.solve_batch"))
    out["batch.registry.fan_out_ms"] = mean(durations("registry.fan_out"))
    out["batch.registry.fan_out_calls_per_req"] = len(by_name["registry.fan_out"]) / n

    solves = [s for s in by_name["registry.solve"] if s.note]
    for size in (100, 200, 400):
        times = [s.ms for s in solves if s.note["solver"] == "dp" and s.note["n"] == size]
        out[f"core.dp_withpre.solve_n{size}_p50_ms"] = percentile(times, 50)
        out[f"core.dp_withpre.solve_n{size}_p95_ms"] = percentile(times, 95)
    kernel = [s for s in by_name["power.array_kernel"] if s.note]
    out["power.dp_power_array.solve_ms"] = mean([s.ms for s in kernel])
    out["power.dp_power_array.labels_created"] = mean([float(s.note[0]) for s in kernel])
    out["power.dp_power_array.labels_kept"] = mean([float(s.note[1]) for s in kernel])

    out["dynamics.incremental.apply_p50_ms"] = percentile(durations("incremental.apply"), 50)
    out["dynamics.incremental.apply_p95_ms"] = percentile(durations("incremental.apply"), 95)
    out["dynamics.incremental.open_ms"] = percentile(durations("incremental.open"), 50)

    work = sum(own[(s.pid, s.sid)] for s in spans if s.name not in CONTAINERS)
    out["trace.unattributed_ms"] = mean_latency_ms - work / n
    return out
