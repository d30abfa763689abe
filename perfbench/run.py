"""The repository's benchmark: boot the real servers, drive one workload, check every answer.

    python3 perfbench/run.py --workload mincost-cluster --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload frontier-dup --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all --repeat 10      # median/quartiles over 10 seeds

Run it from the root of a checkout: the servers are ``python -m repro``
processes started from ``src/``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload twice on fresh servers (untraced,
then with spans recorded in every server process) and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run context.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: End-to-end metrics (``--trace 0``): name → unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "slo_ratio": "ratio",
    "throughput_rps": "req/s",
    "cpu_ms_per_req": "ms",
    "rss_mb": "MB",
    "open_p50_ms": "ms",
}

#: Per-layer metrics (``--trace 1``): name → unit.  Layers absent from a
#: workload's path report 0.
PER_LAYER = {
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "serve.protocol.decode_ms": "ms",
    "serve.protocol.encode_ms": "ms",
    "serve.protocol.response_kb": "KiB",
    "serve.cluster.dispatch_self_ms": "ms",
    "serve.cluster.owner_share_max": "ratio",
    "serve.cluster.retries": "count",
    "serve.server.queue_wait_p50_ms": "ms",
    "serve.server.queue_wait_p95_ms": "ms",
    "serve.server.batch_wait_ms": "ms",
    "serve.server.batch_size": "count",
    "serve.server.coalesced_ratio": "ratio",
    "serve.server.cache_served_ratio": "ratio",
    "batch.canonical.key_ms": "ms",
    "batch.canonical.calls_per_req": "calls/req",
    "batch.cache.get_ms": "ms",
    "batch.cache.put_ms": "ms",
    "batch.cache.hit_ratio": "ratio",
    "batch.executor.self_ms": "ms",
    "batch.registry.fan_out_ms": "ms",
    "batch.registry.fan_out_calls_per_req": "calls/req",
    "core.dp_withpre.solve_n100_p50_ms": "ms",
    "core.dp_withpre.solve_n100_p95_ms": "ms",
    "core.dp_withpre.solve_n200_p50_ms": "ms",
    "core.dp_withpre.solve_n200_p95_ms": "ms",
    "core.dp_withpre.solve_n400_p50_ms": "ms",
    "core.dp_withpre.solve_n400_p95_ms": "ms",
    "power.dp_power_array.solve_ms": "ms",
    "power.dp_power_array.labels_created": "count",
    "power.dp_power_array.labels_kept": "count",
    "dynamics.incremental.apply_p50_ms": "ms",
    "dynamics.incremental.apply_p95_ms": "ms",
    "dynamics.incremental.open_ms": "ms",
    "dynamics.incremental.reuse_ratio": "ratio",
    "power.frontstore.labels_retained": "count",
    "power.frontstore.entries": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms": "ms",
}


@dataclass
class Pass:
    """Everything one server lifetime (or several set-ups) observed."""

    setups: list[float] = field(default_factory=list)
    open: list[Any] = field(default_factory=list)
    saturation: list[Any] = field(default_factory=list)
    saturation_s: float = 0.0
    sessions: list[Any] = field(default_factory=list)
    session_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    perf: tuple[dict[str, Any], dict[str, Any]] | None = None
    window: tuple[float, float] = (0.0, 0.0)

    def samples(self) -> list[Any]:
        """Every timed request of the pass (open, saturation, session ops)."""
        out = list(self.open) + list(self.saturation)
        for rec in self.sessions:
            out += rec.opens + rec.deltas
        return out

    def latencies(self) -> list[float]:
        """The latency samples: open-loop requests, or session deltas."""
        if self.sessions:
            return [s.latency_ms for rec in self.sessions for s in rec.deltas]
        return [s.latency_ms for s in self.open]

    def requests_done(self) -> int:
        return sum(1 for s in self.samples() if s.ok) + sum(rec.closes for rec in self.sessions)


async def run_pass(inputs: Any, *, launches: int, open_s: float, saturation_s: float, trace_dir: Path | None) -> Pass:
    from loadgen import Conn, Server, closed_loop, cpu_seconds, open_loop, peak_rss_mb, session_lane, warm_up

    spec = inputs.spec
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK)
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        env["PYTHONPATH"] = os.pathsep.join([str(HERE / "tracehook"), str(SRC)])
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    out = Pass()
    server: Server | None = None
    conns: list[Conn] = []
    try:
        for launch in range(launches):
            started = time.perf_counter()
            server = Server(ROOT, spec, env)
            port = await server.start()
            conns = [await Conn.open(port)]
            await warm_up(conns[0], inputs)
            out.setups.append(time.perf_counter() - started)
            if launch < launches - 1:
                await server.stop(conns[0])
        assert server is not None
        if spec.kind == "session":
            conns.append(await Conn.open(port))
        perf0 = await conns[0].call({"op": "perf", "id": "perf0"}) if trace_dir else None
        cpu0 = cpu_seconds(server.pids)
        begin = time.perf_counter()
        if spec.kind == "session":
            stop_at = begin + open_s
            out.sessions = list(
                await asyncio.gather(*(session_lane(c, inputs.sessions[i], stop_at, i + 1) for i, c in enumerate(conns)))
            )
            out.session_s = max(s.recv for s in out.samples()) - begin
        else:
            out.open = await open_loop(conns[0], inputs.open_requests, inputs.offsets)
            if saturation_s > 0:
                out.saturation, out.saturation_s = await closed_loop(
                    conns[0], inputs.saturation, spec.window, saturation_s
                )
        out.window = (begin, time.perf_counter())
        out.cpu_s = cpu_seconds(server.pids) - cpu0
        out.rss_mb = peak_rss_mb(server.pids)
        if trace_dir is not None:
            perf1 = await conns[0].call({"op": "perf", "id": "perf1"})
            out.perf = (perf0 or {}, perf1)
        for extra in conns[1:]:
            await extra.close()
        await server.stop(conns[0])
        server = None
    finally:
        if server is not None:
            await server.stop(None)
    return out


# -- checks -------------------------------------------------------------------


def check(inputs: Any, observed: Pass) -> tuple[int, int, int]:
    """``(attempted, failed, wrong)``: every answer against its expected text."""
    attempted = failed = wrong = 0
    for sample in observed.open + observed.saturation:
        attempted += 1
        if not sample.ok:
            failed += 1
            continue
        got = json.dumps(json.loads(sample.line)["result"], separators=(",", ":"))
        wrong += got != inputs.expected[sample.request.rid]
    for rec in observed.sessions:
        attempted += len(rec.opens) + len(rec.deltas) + rec.closes
        failed += rec.failed
        wrong += sum(expected != got for expected, got in rec.checks)
    return attempted, failed, wrong


# -- metrics ------------------------------------------------------------------


def end_to_end(spec: Any, observed: Pass) -> tuple[dict[str, float], dict[str, int]]:
    from stats import percentile

    lat = observed.latencies()
    timed = [s for rec in observed.sessions for s in rec.deltas] if observed.sessions else observed.open
    ok_in_limit = sum(1 for s in timed if s.ok and s.latency_ms <= spec.limit_ms)
    if observed.sessions:
        cold = [s.latency_ms for rec in observed.sessions for s in rec.opens]
        throughput = sum(1 for s in timed if s.ok) / observed.session_s
    else:
        cold = [s.latency_ms for s in observed.open if s.request.cold]
        throughput = sum(1 for s in observed.saturation if s.ok) / observed.saturation_s
    metrics = {
        "setup_s": statistics.median(observed.setups),
        "latency_p50_ms": percentile(lat, 50),
        "slo_ratio": ok_in_limit / max(len(timed), 1),
        "throughput_rps": throughput,
        "cpu_ms_per_req": observed.cpu_s * 1000.0 / max(observed.requests_done(), 1),
        "rss_mb": observed.rss_mb,
        "open_p50_ms": percentile(cold, 50),
    }
    counts = {
        # The tail percentile is reported, not gated: its run-to-run spread
        # exceeds any bound a regression gate could hold on a shared VM.
        "latency_p90_ms": percentile(lat, 90),
        "latency_samples": len(lat),
        "open_samples": len(cold),
        "saturation_samples": len(observed.saturation),
        "setup_launches": len(observed.setups),
        "requests_done": observed.requests_done(),
    }
    return metrics, counts


def per_layer(plain: Pass, traced: Pass, trace_dir: Path) -> dict[str, float]:
    from spans import layer_metrics, load
    from stats import mean, percentile

    samples = traced.samples()
    lat = traced.latencies()
    spans, events = load(trace_dir)
    out = layer_metrics(spans, events, traced.window, len(samples), mean([s.latency_ms for s in samples]))
    ok = [s for s in samples if s.ok]
    out["loadgen.lag_p99_ms"] = percentile([s.lag_ms for s in samples], 99)
    out["loadgen.sent"] = float(len(samples))
    out["loadgen.ok"] = float(len(ok))
    out["loadgen.failed"] = float(len(samples) - len(ok))
    out["serve.protocol.response_kb"] = mean([len(s.line) / 1024.0 for s in ok])
    served = [json.loads(s.line).get("served") for s in traced.open]
    out["serve.server.coalesced_ratio"] = served.count("coalesced") / max(len(served), 1)
    out["serve.server.cache_served_ratio"] = served.count("cache") / max(len(served), 1)

    before, after = traced.perf or ({}, {})
    routed: dict[str, int] = {}
    cluster_after = after.get("perf", {}).get("cluster")
    cluster_before = before.get("perf", {}).get("cluster", {})
    if cluster_after:
        for name, w in cluster_after["workers"].items():
            routed[name] = w["routed"] - cluster_before.get("workers", {}).get(name, {}).get("routed", 0)
    out["serve.cluster.owner_share_max"] = max(routed.values()) / max(sum(routed.values()), 1) if routed else 0.0
    out["serve.cluster.retries"] = float((cluster_after or {}).get("retries", 0) - cluster_before.get("retries", 0))

    reused = sum(rec.fronts_reused for rec in traced.sessions)
    touched = reused + sum(rec.fronts_invalidated for rec in traced.sessions)
    out["dynamics.incremental.reuse_ratio"] = reused / touched if touched else 0.0
    stores = [store for rec in traced.sessions for store in rec.stores]
    out["power.frontstore.labels_retained"] = mean([float(s["labels_retained"]) for s in stores])
    out["power.frontstore.entries"] = mean([float(s["entries"]) for s in stores])
    untraced_p50 = percentile(plain.latencies(), 50)
    out["trace.overhead_ratio"] = percentile(lat, 50) / untraced_p50 if untraced_p50 else 0.0
    return {name: out[name] for name in PER_LAYER}


def _log(text: str) -> None:
    print(f"perfbench: {text}", file=sys.stderr, flush=True)


# -- one run ------------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


async def run(args: argparse.Namespace) -> tuple[dict[str, Any], dict[str, Any]]:
    import numpy

    from workloads import OPEN_SHARE, SETUP_LAUNCHES, SPECS, expect, generate

    spec = SPECS[args.workload]
    scale = 0.2 if args.smoke else 1.0
    if args.trace:
        open_s, saturation_s = args.seconds / 2.0, 0.0
    elif spec.kind == "session":
        open_s, saturation_s = args.seconds, 0.0
    else:
        open_s = args.seconds * OPEN_SHARE
        saturation_s = args.seconds - open_s
    t0 = time.perf_counter()
    inputs = generate(spec.name, args.seed, open_s, saturation_s, scale=scale)
    t1 = time.perf_counter()
    expect(inputs)
    _log(f"inputs {t1 - t0:.1f} s, expected answers {time.perf_counter() - t1:.1f} s")
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            plain = await run_pass(inputs, launches=1, open_s=open_s, saturation_s=0.0, trace_dir=None)
            traced = await run_pass(inputs, launches=1, open_s=open_s, saturation_s=0.0, trace_dir=run_dir)
            metrics = per_layer(plain, traced, run_dir)
            checked = [check(inputs, plain), check(inputs, traced)]
            counts = {"traced_samples": len(traced.samples()), "untraced_samples": len(plain.samples())}
            units = PER_LAYER
        else:
            main = await run_pass(
                inputs, launches=SETUP_LAUNCHES, open_s=open_s, saturation_s=saturation_s, trace_dir=None
            )
            metrics, counts = end_to_end(spec, main)
            checked = [check(inputs, main)]
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(c[0] for c in checked)
    failed = sum(c[1] for c in checked)
    wrong = sum(c[2] for c in checked)
    result = {
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    context = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "rate_rps": spec.rate,
        "limit_ms": spec.limit_ms,
        "saturation_window": spec.window,
        "wrong_answers": wrong,
        "inputs_sha256": inputs.digest(),
        "samples": counts,
    }
    return result, context


# -- repeat mode ----------------------------------------------------------------


def repeat(args: argparse.Namespace) -> int:
    """Run N fresh processes (seeds seed..seed+N-1) and print median and quartiles."""
    from stats import spread

    names = ["mincost-cluster", "frontier-dup", "session-churn"] if args.workload == "all" else [args.workload]
    summary: dict[str, Any] = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for i in range(args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed + i),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            started = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {args.seed + i}: wrong or failed answers: {result}", file=sys.stderr)
                return 1
            for metric, body in result["metrics"].items():
                values.setdefault(metric, []).append(body["value"])
            print(f"{name} seed {args.seed + i} ({wall:.0f} s): "
                  + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), file=sys.stderr, flush=True)
        summary[name] = {}
        print(f"\n{name} ({args.repeat} runs)")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
        for metric, vals in values.items():
            med, q1, q3, rel = spread(vals)
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3, "spread": rel, "values": vals}
            print(f"{metric:40s} {med:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.3f}")
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mincost-cluster", "frontier-dup", "session-churn", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload for median/quartiles")
    parser.add_argument("--smoke", action="store_true", help="tiny trees (self-tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    from loadgen import become_subreaper, reap_children

    WORK.mkdir(exist_ok=True)
    become_subreaper()
    # SIGTERM unwinds like Ctrl-C, so the servers are stopped on that path too.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        result, context = asyncio.run(run(args))
    finally:
        reap_children()
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
