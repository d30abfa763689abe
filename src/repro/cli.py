"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands
-----------
``generate``
    Emit a random distribution tree (paper's §5 generator) as JSON.
``solve``
    Solve MinCost on a tree file with the DP or the GR baseline.
``batch``
    Solve many instances at once with canonical dedupe, result caching
    and an optional process pool (see :mod:`repro.batch`).
``serve`` / ``cluster`` / ``client``
    Long-lived coalescing batch server over JSON-lines TCP, the
    digest-routed multi-worker cluster router, and the matching
    pipelined client (see :mod:`repro.serve`).
``power``
    Print the exact cost/power frontier (and optionally the placement for
    one bound).
``dynamics``
    Multi-step update sessions (Experiment 2's engine) with an explicit
    ``--seed``; ``--incremental`` drives the live delta re-solve engine
    (:mod:`repro.dynamics.incremental`) over a random churn sequence.
``exp1`` / ``exp2`` / ``exp3``
    Run the paper's experiments at a configurable scale and render the
    corresponding figure as ASCII + a data table (optionally CSV).
``scaling``
    Time the solver regimes at the paper's reference sizes.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import json
import signal
import sys
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from repro.analysis import bar_plot, format_table, line_plot, render_tree, to_csv
from repro.batch import (
    ResultCache,
    available_solvers,
    batch_from_json,
    get_policy,
    random_batch,
    solve_batch,
)
from repro.dynamics import plan_migration
from repro.core.costs import ModalCostModel, UniformCostModel
from repro.core.dp_withpre import replica_update
from repro.core.greedy import greedy_placement
from repro.exceptions import ConfigurationError, ReproError
from repro.lint import runner as lint_runner
from repro.experiments import (
    Exp1Config,
    Exp2Config,
    Exp3Config,
    make_preset,
    preset_names,
    run_experiment1,
    run_experiment1_parallel,
    run_experiment2,
    run_experiment2_parallel,
    run_experiment3,
    run_experiment3_parallel,
    run_scaling,
)
from repro.power.kernels import KERNELS
from repro.power.modes import ModeSet, PowerModel
from repro.serve import ClusterRouter, InProcessSpawner, SubprocessSpawner, WorkerConfig
from repro.serve.server import JsonLinesEndpoint
from repro.tree.generators import paper_tree, random_preexisting
from repro.tree.model import Tree
from repro.tree.serialize import tree_from_json, tree_to_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Power-aware replica placement and update strategies in tree "
            "networks (Benoit, Renaud-Goud, Robert) - reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a random tree as JSON")
    g.add_argument("--nodes", type=int, default=100)
    g.add_argument("--children", type=int, nargs=2, default=(6, 9), metavar=("LO", "HI"))
    g.add_argument("--client-prob", type=float, default=0.5)
    g.add_argument("--requests", type=int, nargs=2, default=(1, 6), metavar=("LO", "HI"))
    g.add_argument(
        "--preset", type=str, default=None,
        help=f"named workload ({', '.join(preset_names())}); overrides the "
        "other shape options",
    )
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("-o", "--output", type=str, default="-")

    s = sub.add_parser("solve", help="solve MinCost on a tree JSON file")
    s.add_argument("tree", type=str, help="tree JSON path ('-' for stdin)")
    s.add_argument("--capacity", type=int, default=10)
    s.add_argument("--algorithm", choices=("dp", "greedy"), default="dp")
    s.add_argument("--preexisting", type=str, default="", help="comma-separated node ids")
    s.add_argument("--random-preexisting", type=int, default=None, metavar="E")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--create", type=float, default=0.1)
    s.add_argument("--delete", type=float, default=0.01)
    s.add_argument("--show", action="store_true", help="render the placement as an ASCII tree")
    s.add_argument("--plan", action="store_true", help="print the migration plan from the pre-existing set")

    b = sub.add_parser(
        "batch",
        help="solve many instances with canonical dedupe and caching",
    )
    b.add_argument(
        "file", nargs="?", default=None,
        help="batch JSON path ('-' for stdin); omit when using --demo",
    )
    b.add_argument(
        "--demo", type=int, default=None, metavar="N",
        help="generate a synthetic batch of N instances instead of reading a file",
    )
    b.add_argument(
        "--duplicate-rate", type=float, default=0.5,
        help="fraction of relabelled duplicate instances in --demo batches",
    )
    b.add_argument("--nodes", type=int, default=60, help="tree size for --demo")
    b.add_argument("--seed", type=int, default=None)
    b.add_argument(
        "--solver", choices=available_solvers(), default="dp",
        help="registered solver policy (see repro.batch.registry)",
    )
    b.add_argument("--workers", type=int, default=1, help="process-pool size")
    b.add_argument(
        "--cache-dir", type=str, default=None,
        help="directory for the persistent result store (sharded JSONL)",
    )
    b.add_argument(
        "--lru-size", type=int, default=4096,
        help="in-memory cache capacity (entries)",
    )
    b.add_argument(
        "--disk-size", type=int, default=None, metavar="N",
        help="disk-store budget (entries); LRU digests are evicted and "
        "their shards compacted when exceeded",
    )
    b.add_argument(
        "--modes", type=str, default="5,10",
        help="mode capacities for power policies (instances without a "
        "power model get this one)",
    )
    b.add_argument("--alpha", type=float, default=3.0)
    b.add_argument("--static", type=float, default=12.5)
    b.add_argument(
        "--bound", type=str, default=None, metavar="B1,B2,...",
        help="with --solver power_frontier: answer MinPower-BoundedCost "
        "for each cost bound per instance from its one cached frontier "
        "record (Experiment-3-style sweep)",
    )
    b.add_argument(
        "--stats", action="store_true",
        help="print aggregated Pareto-DP kernel counters (labels created/"
        "generated/rejected, memo hits) from the solved records as JSON",
    )
    b.add_argument(
        "--solve-timeout", type=float, default=None, metavar="SECS",
        help="wall-clock deadline per supervised solve wave; a hung chunk "
        "kills and rebuilds the pool, quarantines the offending digest and "
        "reports a typed timeout error (default: no deadline)",
    )

    v = sub.add_parser(
        "serve",
        help="run the long-lived coalescing batch server (JSON lines / TCP)",
    )
    v.add_argument("--host", type=str, default="127.0.0.1")
    v.add_argument(
        "--port", type=int, default=8571,
        help="TCP port (0 binds an ephemeral port; the choice is printed)",
    )
    WorkerConfig.add_arguments(v, max_pending=None)

    u = sub.add_parser(
        "cluster",
        help="run the digest-routed multi-worker serving cluster "
        "(router + N spawned workers)",
    )
    u.add_argument("--host", type=str, default="127.0.0.1")
    u.add_argument(
        "--port", type=int, default=8570,
        help="front TCP port (0 binds an ephemeral port; the choice is "
        "printed)",
    )
    u.add_argument(
        "--cluster-workers", type=int, default=3, metavar="N",
        help="fleet size: number of serve workers behind the router",
    )
    u.add_argument(
        "--backend", choices=("subprocess", "inprocess"),
        default="subprocess",
        help="spawner backend: 'subprocess' runs each worker as a real "
        "'repro serve' process (parallel solves); 'inprocess' runs them "
        "on the router's event loop (diagnostics/tests)",
    )
    u.add_argument(
        "--fallbacks", type=int, default=1,
        help="extra ring owners tried after the primary sheds or dies",
    )
    WorkerConfig.add_arguments(u, max_pending=64)

    c = sub.add_parser(
        "client",
        help="send a batch to a running server and print the responses",
    )
    c.add_argument(
        "file", nargs="?", default=None,
        help="batch JSON path ('-' for stdin); omit with --demo or when "
        "only --stats/--shutdown is wanted",
    )
    c.add_argument("--host", type=str, default="127.0.0.1")
    c.add_argument("--port", type=int, default=8571)
    c.add_argument("--demo", type=int, default=None, metavar="N")
    c.add_argument("--duplicate-rate", type=float, default=0.5)
    c.add_argument("--nodes", type=int, default=60)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument(
        "--solver", choices=available_solvers(), default="dp",
        help="solver policy to request",
    )
    c.add_argument("--priority", type=int, default=0)
    c.add_argument("--modes", type=str, default="5,10")
    c.add_argument("--alpha", type=float, default=3.0)
    c.add_argument("--static", type=float, default=12.5)
    c.add_argument(
        "--stats", action="store_true",
        help="print the server's serving stats as JSON afterwards",
    )
    c.add_argument(
        "--perf", action="store_true",
        help="print serving stats plus aggregated Pareto-DP kernel "
        "counters (labels created/generated/rejected, memo hits) as JSON",
    )
    c.add_argument(
        "--shutdown", action="store_true",
        help="ask the server to drain and stop afterwards",
    )
    c.add_argument(
        "--session", type=int, default=None, metavar="STEPS",
        help="open a live incremental session on one --nodes/--seed demo "
        "power instance and stream STEPS random delta batches through it",
    )
    c.add_argument(
        "--cluster", action="store_true",
        help="the server is a cluster router: print the per-worker "
        "health/overload table from its perf op",
    )
    c.add_argument(
        "--retries", type=int, default=0,
        help="retry budget for retriable failures only ('overloaded', "
        "'timeout', torn connections); exponential backoff with jitter "
        "(default: no retries)",
    )
    c.add_argument(
        "--deadline", type=float, default=None, metavar="SECS",
        help="overall per-request deadline bounding the retry schedule "
        "(default: unbounded)",
    )

    d = sub.add_parser(
        "dynamics",
        help="multi-step update sessions / live incremental re-solve engine",
    )
    d.add_argument("--nodes", type=int, default=100)
    d.add_argument("--steps", type=int, default=10)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--capacity", type=int, default=10)
    d.add_argument(
        "--evolution", choices=("redraw", "walk", "hotspot"),
        default="redraw",
        help="workload evolution between steps (session mode)",
    )
    d.add_argument(
        "--incremental", action="store_true",
        help="drive the incremental delta re-solve engine over a random "
        "churn sequence instead of the Experiment-2 session tracks",
    )
    d.add_argument(
        "--deltas-per-step", type=int, default=1,
        help="churn deltas batched into each incremental step",
    )
    d.add_argument(
        "--verify", action="store_true",
        help="cross-check every incremental frontier against a cold solve "
        "(byte-identity)",
    )
    d.add_argument("--modes", type=str, default="5,10")
    d.add_argument("--alpha", type=float, default=3.0)
    d.add_argument("--static", type=float, default=12.5)
    d.add_argument("--create", type=float, default=0.1)
    d.add_argument("--delete", type=float, default=0.01)
    d.add_argument("--changed", type=float, default=0.001)
    d.add_argument("--csv", type=str, default=None)

    p = sub.add_parser("power", help="print the cost/power frontier of a tree")
    p.add_argument("tree", type=str)
    p.add_argument("--modes", type=str, default="5,10", help="comma-separated capacities")
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--static", type=float, default=12.5)
    p.add_argument("--create", type=float, default=0.1)
    p.add_argument("--delete", type=float, default=0.01)
    p.add_argument("--changed", type=float, default=0.001)
    p.add_argument(
        "--preexisting", type=str, default="",
        help="node:mode pairs, e.g. '3:1,7:0'",
    )
    p.add_argument("--bound", type=float, default=None)

    for name, helptext in (
        ("exp1", "Experiment 1 / Figures 4 & 6 (reuse vs E)"),
        ("exp2", "Experiment 2 / Figures 5 & 7 (dynamic updates)"),
        ("exp3", "Experiment 3 / Figures 8-11 (power under cost bounds)"),
    ):
        e = sub.add_parser(name, help=helptext)
        e.add_argument("--trees", type=int, default=20)
        e.add_argument("--high-trees", action="store_true")
        e.add_argument("--seed", type=int, default=None)
        e.add_argument("--csv", type=str, default=None)
        e.add_argument(
            "--workers", type=int, default=1,
            help="process-pool size (results differ from sequential runs "
            "only through per-chunk RNG streams)",
        )
        if name == "exp3":
            e.add_argument("--no-preexisting", action="store_true")
            e.add_argument("--expensive-costs", action="store_true")

    sub.add_parser("scaling", help="time the solvers at the paper's sizes")

    lint = sub.add_parser(
        "lint",
        help="run the project-specific static analysis (repro.lint)",
    )
    lint_runner.add_arguments(lint)
    return parser


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_tree(path: str) -> Tree:
    return tree_from_json(_read_text(path))


def _parse_mode_set(spec: str) -> ModeSet:
    """Parse a comma-separated capacity list into a :class:`ModeSet`.

    Malformed tokens surface as the CLI's usual ``error: ...`` + exit 2
    instead of a traceback.
    """
    try:
        capacities = tuple(int(c) for c in spec.split(","))
    except ValueError:
        raise ConfigurationError(
            f"invalid --modes value {spec!r}: expected comma-separated "
            "integer capacities, e.g. '5,10'"
        ) from None
    return ModeSet(capacities)


def _parse_pre_modes(spec: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        node, _, mode = part.partition(":")
        out[int(node)] = int(mode) if mode else 0
    return out


def _parse_bounds(spec: str) -> list[float]:
    try:
        return [float(b) for b in spec.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"invalid --bound value {spec!r}: expected comma-separated "
            "cost bounds, e.g. '40,60,80'"
        ) from None


def _with_default_power(instances, policy, args):
    """Fill in the CLI-configured power model where instances lack one.

    Modal costs then derive from each instance's Equation-2 prices (see
    :meth:`repro.batch.instance.BatchInstance.effective_modal_cost`).
    """
    if not policy.needs_power:
        return instances
    default_pm = PowerModel(
        _parse_mode_set(args.modes),
        static_power=args.static,
        alpha=args.alpha,
    )
    return [
        i if i.power_model is not None
        else dataclasses.replace(i, power_model=default_pm)
        for i in instances
    ]


async def _run_endpoint(args: argparse.Namespace) -> int:
    """``repro serve`` / ``repro cluster``: listen, print the banner,
    serve until a shutdown op, SIGINT or SIGTERM stops the endpoint."""
    config = WorkerConfig.from_args(args)
    endpoint: JsonLinesEndpoint
    if args.command == "serve":
        endpoint = config.server(args.cache_dir)
        name, banner = "server", ""
    else:
        spawner = (
            SubprocessSpawner(host=args.host)
            if args.backend == "subprocess"
            else InProcessSpawner()
        )
        endpoint = ClusterRouter(
            spawner, args.cluster_workers, config, fallbacks=args.fallbacks
        )
        name = "cluster"
        banner = f"cluster of {args.cluster_workers} {args.backend} workers "
    async with endpoint:
        host, port = await endpoint.listen(args.host, args.port)
        print(f"{banner}serving on {host}:{port}", flush=True)
        loop = asyncio.get_running_loop()
        stop_tasks: list[asyncio.Task] = []

        def _request_stop() -> None:
            stop_tasks.append(loop.create_task(endpoint.stop()))

        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):  # pragma: no cover
                loop.add_signal_handler(sig, _request_stop)
        await endpoint.serve_forever()
    print(f"{name} stopped", flush=True)
    return 0


def _print_cluster_health(perf: dict) -> None:
    """Render the router's per-worker health table from its perf payload."""
    cluster = perf.get("cluster", {})
    workers = perf.get("workers", {})
    rows = []
    for name in sorted(workers):
        entry = workers[name]
        route = cluster.get("workers", {}).get(name, {})
        wperf = entry.get("perf") or {}
        serve = wperf.get("serve", {})
        policies = serve.get("policies", {})
        quarantine = wperf.get("quarantine", {})
        rows.append(
            (
                name,
                "up" if entry.get("alive") else "DOWN",
                route.get("routed", 0),
                route.get("sheds", 0),
                route.get("timeouts", 0),
                route.get("deaths", 0),
                route.get("respawns", 0),
                quarantine.get("active", 0),
                sum(p.get("requests", 0) for p in policies.values()),
                sum(p.get("cache_hits", 0) for p in policies.values()),
            )
        )
    print(
        format_table(
            (
                "worker", "state", "routed", "sheds", "timeouts", "deaths",
                "respawns", "quarantined", "requests", "cache_hits",
            ),
            rows,
        )
    )
    print(
        f"routed={cluster.get('requests_routed', 0)} "
        f"retries={cluster.get('retries', 0)} "
        f"rejected={cluster.get('rejected', 0)} "
        f"lost_sessions={cluster.get('lost_sessions', 0)}"
    )


def _random_delta(
    tree: Tree, rng: np.random.Generator, max_load: int | None = None
):
    """One random, always-feasible churn delta for ``tree``.

    Draws uniformly over the applicable delta kinds.  ``max_load`` (the
    largest mode capacity ``W``) bounds per-node direct client load so
    the evolved instance stays solvable; migrations leave direct loads
    untouched, retry a few candidate ``(node, new_parent)`` pairs and
    degrade to an ``add_client`` when the tree offers no valid move.
    """
    from repro.dynamics import AddClient, MigrateSubtree, RemoveClient, SetRequests

    loads = tree.client_loads

    def _headroom(node: int) -> int:
        return (1 << 30) if max_load is None else max_load - int(loads[node])

    kinds = ["add", "migrate"]
    if tree.clients:
        kinds += ["remove", "set"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "remove":
        return RemoveClient(int(rng.integers(len(tree.clients))))
    if kind == "set":
        idx = int(rng.integers(len(tree.clients)))
        cap = _headroom(tree.clients[idx].node) + tree.clients[idx].requests
        if cap >= 1:
            return SetRequests(idx, 1 + int(rng.integers(min(6, cap))))
        return RemoveClient(idx)
    if kind == "migrate" and tree.n_nodes > 1:
        for _ in range(16):
            node = int(rng.integers(1, tree.n_nodes))
            new_parent = int(rng.integers(tree.n_nodes))
            if new_parent != tree.parents[node] and not tree.is_ancestor(
                node, new_parent
            ):
                return MigrateSubtree(node, new_parent)
    nodes = [v for v in range(tree.n_nodes) if _headroom(v) >= 1]
    if not nodes:  # saturated everywhere: shed load instead of adding
        return RemoveClient(int(rng.integers(len(tree.clients))))
    node = nodes[int(rng.integers(len(nodes)))]
    return AddClient(node, 1 + int(rng.integers(min(6, _headroom(node)))))


async def _run_session_client(args: argparse.Namespace) -> int:
    """The ``repro client --session`` path: stream deltas at a server."""
    from repro.dynamics import apply_deltas
    from repro.serve import ServeClient

    rng = np.random.default_rng(args.seed)
    tree = paper_tree(args.nodes, rng=rng)
    power_model = PowerModel(
        _parse_mode_set(args.modes), static_power=args.static, alpha=args.alpha
    )
    from repro.batch.instance import BatchInstance

    instance = BatchInstance(tree, 10, frozenset(), power_model=power_model)
    client = await ServeClient.connect(
        args.host,
        args.port,
        retries=args.retries,
        deadline=args.deadline,
    )
    try:
        sess = await client.session(instance)
        print(f"session {sess.session_id} points={len(sess.result['points'])}")
        rows = []
        max_load = max(power_model.modes.capacities)
        for step in range(args.session):
            deltas = [_random_delta(tree, rng, max_load)]
            response = await sess.delta(deltas)
            tree, _ = apply_deltas(tree, deltas)
            apply_info = response["apply"]
            rows.append(
                (
                    step,
                    type(deltas[0]).__name__,
                    apply_info["fronts_reused"],
                    apply_info["fronts_invalidated"],
                    len(response["result"]["points"]),
                )
            )
        print(
            format_table(
                ("step", "delta", "reused", "invalidated", "points"), rows
            )
        )
        stats = await sess.close()
        print(json.dumps(stats, indent=2))
        if args.shutdown:
            await client.shutdown_server()
            print("server shutdown requested")
    finally:
        await client.close()
    return 0


async def _run_client(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    if args.demo is not None and args.file is not None:
        print(
            "error: --demo and a batch file are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.session is not None:
        if args.file is not None or args.demo is not None:
            print(
                "error: --session is mutually exclusive with a batch file "
                "and --demo",
                file=sys.stderr,
            )
            return 2
        return await _run_session_client(args)
    instances = []
    if args.demo is not None:
        instances = random_batch(
            args.demo,
            duplicate_rate=args.duplicate_rate,
            n_nodes=args.nodes,
            rng=np.random.default_rng(args.seed),
        )
    elif args.file is not None:
        instances = batch_from_json(_read_text(args.file))
    elif not (args.stats or args.perf or args.shutdown or args.cluster):
        print(
            "error: provide a batch file, --demo N, --session N, --stats, "
            "--perf, --cluster or --shutdown",
            file=sys.stderr,
        )
        return 2
    instances = _with_default_power(instances, get_policy(args.solver), args)
    client = await ServeClient.connect(
        args.host,
        args.port,
        retries=args.retries,
        deadline=args.deadline,
    )
    try:
        if instances:
            responses = await client.solve_many(
                instances, solver=args.solver, priority=args.priority
            )
            rows = [
                (i, str(r["digest"])[:12], r["served"])
                for i, r in enumerate(responses)
            ]
            print(format_table(("#", "digest", "served"), rows))
            served = [r["served"] for r in responses]
            print(
                f"instances={len(responses)} "
                f"solved={served.count('solve')} "
                f"coalesced={served.count('coalesced')} "
                f"cache={served.count('cache')}"
            )
        if args.cluster:
            _print_cluster_health(await client.perf())
        if args.stats:
            print(json.dumps(await client.stats(), indent=2))
        if args.perf:
            print(json.dumps(await client.perf(), indent=2))
        if args.shutdown:
            await client.shutdown_server()
            print("server shutdown requested")
    finally:
        await client.close()
    return 0


def _dispatch_dynamics(args: argparse.Namespace) -> int:
    """``repro dynamics``: session tracks, or ``--incremental`` churn."""
    if args.incremental:
        from repro.dynamics import SessionState, apply_deltas

        rng = np.random.default_rng(args.seed)
        tree = paper_tree(args.nodes, rng=rng)
        power_model = PowerModel(
            _parse_mode_set(args.modes),
            static_power=args.static,
            alpha=args.alpha,
        )
        cost_model = ModalCostModel.uniform(
            power_model.modes.n_modes,
            create=args.create,
            delete=args.delete,
            changed=args.changed,
        )
        state = SessionState(tree, power_model, cost_model)
        print(f"cold solve: {len(state.frontier().pairs())} frontier points")
        rows = []
        verified = 0
        max_load = max(power_model.modes.capacities)
        try:
            for step in range(args.steps):
                # Generate each delta against the batch-so-far tree so
                # client indices and load headroom stay valid within the
                # batch, not just at its start.
                deltas = []
                preview = state.tree
                for _ in range(args.deltas_per_step):
                    delta = _random_delta(preview, rng, max_load)
                    preview, _ = apply_deltas(preview, [delta])
                    deltas.append(delta)
                result = state.apply(deltas)
                if args.verify:
                    cold = KERNELS["array"](
                        state.tree,
                        power_model,
                        cost_model,
                        state.preexisting_modes,
                    )
                    if result.frontier.pairs() != cold.pairs():
                        raise ConfigurationError(
                            f"incremental frontier diverged from the cold "
                            f"solve at step {step}"
                        )
                    verified += 1
                rows.append(
                    (
                        step,
                        ",".join(type(d).__name__ for d in deltas),
                        result.fronts_reused,
                        result.fronts_invalidated,
                        len(result.frontier.pairs()),
                    )
                )
        finally:
            state.close()
        headers = ("step", "deltas", "reused", "invalidated", "points")
        print(format_table(headers, rows))
        stats = state.stats
        touched = stats.fronts_reused + stats.fronts_invalidated
        reuse = stats.fronts_reused / touched if touched else 0.0
        print(
            f"steps={args.steps} deltas={stats.deltas_applied} "
            f"fronts_reused={stats.fronts_reused} "
            f"fronts_invalidated={stats.fronts_invalidated} "
            f"reuse_rate={reuse:.2f}"
        )
        if args.verify:
            print(
                f"verified: {verified} incremental frontiers byte-identical "
                "to cold solves"
            )
        if args.csv:
            Path(args.csv).write_text(to_csv(headers, rows), encoding="utf-8")
        return 0

    from repro.dynamics import (
        DPUpdateStrategy,
        GreedyStrategy,
        HotspotShift,
        RandomWalkRequests,
        RedrawRequests,
        run_session,
    )

    evolution = {
        "redraw": RedrawRequests(),
        "walk": RandomWalkRequests(),
        "hotspot": HotspotShift(),
    }[args.evolution]
    tree = paper_tree(args.nodes, rng=np.random.default_rng(args.seed))
    result = run_session(
        tree,
        args.capacity,
        args.steps,
        evolution,
        {"DP": DPUpdateStrategy(), "GR": GreedyStrategy()},
        seed=args.seed,
    )
    rows = [
        (rec_dp.step, rec_dp.n_replicas, rec_dp.n_reused, rec_gr.n_reused)
        for rec_dp, rec_gr in zip(result.tracks["DP"], result.tracks["GR"])
    ]
    headers = ("step", "DP_replicas", "DP_reused", "GR_reused")
    print(format_table(headers, rows))
    dp_total = result.cumulative_reuse("DP")[-1]
    gr_total = result.cumulative_reuse("GR")[-1]
    print(f"cumulative reuse: DP={dp_total} GR={gr_total}")
    if args.csv:
        Path(args.csv).write_text(to_csv(headers, rows), encoding="utf-8")
    return 0


def _progress(done: int, total: int) -> None:
    print(f"\r  tree {done}/{total}", end="", file=sys.stderr, flush=True)
    if done == total:
        print(file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lint":
        return lint_runner.run_from_args(args)

    if args.command == "generate":
        tree = (
            make_preset(args.preset, rng=np.random.default_rng(args.seed))
            if args.preset is not None
            else paper_tree(
                n_nodes=args.nodes,
                children_range=tuple(args.children),
                client_prob=args.client_prob,
                request_range=tuple(args.requests),
                rng=np.random.default_rng(args.seed),
            )
        )
        text = tree_to_json(tree, indent=2)
        if args.output == "-":
            print(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return 0

    if args.command == "solve":
        tree = _read_tree(args.tree)
        pre = (
            random_preexisting(
                tree, args.random_preexisting, rng=np.random.default_rng(args.seed)
            )
            if args.random_preexisting is not None
            else frozenset(
                int(v) for v in filter(None, args.preexisting.split(","))
            )
        )
        res = (
            replica_update(
                tree, args.capacity, pre, UniformCostModel(args.create, args.delete)
            )
            if args.algorithm == "dp"
            else greedy_placement(tree, args.capacity, preexisting=pre)
        )
        print(f"replicas ({res.n_replicas}): {sorted(res.replicas)}")
        print(
            f"reused={res.n_reused} created={res.n_created} "
            f"deleted={res.n_deleted} cost={res.cost}"
        )
        if args.show:
            print(
                render_tree(
                    tree, replicas=res.replicas, preexisting=pre, loads=res.loads
                )
            )
        if args.plan:
            print(plan_migration(pre, res.replicas))
        return 0

    if args.command == "batch":
        if args.demo is not None and args.file is not None:
            print(
                "error: --demo and a batch file are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        if args.demo is not None:
            instances = random_batch(
                args.demo,
                duplicate_rate=args.duplicate_rate,
                n_nodes=args.nodes,
                rng=np.random.default_rng(args.seed),
            )
        elif args.file is not None:
            instances = batch_from_json(_read_text(args.file))
        else:
            print("error: provide a batch file or --demo N", file=sys.stderr)
            return 2
        policy = get_policy(args.solver)
        instances = _with_default_power(instances, policy, args)
        bounds = None
        if args.bound is not None:
            if args.solver != "power_frontier":
                print(
                    "error: --bound requires --solver power_frontier",
                    file=sys.stderr,
                )
                return 2
            # Parse up front: a malformed bound must not cost a solve.
            bounds = _parse_bounds(args.bound)
        cache = ResultCache(
            args.lru_size,
            cache_dir=args.cache_dir,
            max_disk_entries=args.disk_size,
        )
        records_out: dict | None = {} if args.stats else None
        results = solve_batch(
            instances,
            solver=args.solver,
            workers=args.workers,
            cache=cache,
            records_out=records_out,
            solve_timeout=args.solve_timeout,
        )
        rows = [
            (i, str(r.extra["digest"])[:12], *policy.row(r))
            for i, r in enumerate(results)
        ]
        print(format_table(("#", "digest", *policy.columns), rows))
        if bounds is not None:
            # Experiment-3-style sweep: every bound is answered from the
            # instance's single cached frontier record, no re-solving.
            sweep_rows = []
            for i, frontier in enumerate(results):
                for bound in bounds:
                    best = frontier.best_under_cost(bound)
                    if best is None:
                        sweep_rows.append((i, bound, "-", "-"))
                    else:
                        sweep_rows.append(
                            (i, bound, f"{best.power:.3f}", f"{best.cost:.3f}")
                        )
            print(format_table(("#", "bound", "power", "cost"), sweep_rows))
        s = cache.stats
        print(
            f"instances={len(instances)} unique_solved={s.unique_solved} "
            f"duplicates_folded={s.duplicates_folded} hits={s.hits} "
            f"(disk={s.disk_hits}) misses={s.misses} "
            f"hit_rate={s.hit_rate:.2f}"
        )
        if s.solve_timeouts or s.pool_rebuilds or s.quarantined:
            print(
                f"solve_timeouts={s.solve_timeouts} "
                f"pool_rebuilds={s.pool_rebuilds} "
                f"quarantined={s.quarantined}"
            )
        if records_out is not None:
            from repro.perf.stats import ParetoDPStats

            kernel = ParetoDPStats()
            covered = 0
            for record in records_out.values():
                counters = record.get("dp_stats")
                if counters:
                    kernel.absorb(counters)
                    covered += 1
            # Each digest appears once in records_out, so records are
            # never double-absorbed; records from older cache schemas
            # simply lack the counters and are reported as uncovered.
            print(
                json.dumps(
                    {
                        "kernel_records": covered,
                        "records_without_stats": len(records_out) - covered,
                        **kernel.as_dict(),
                    },
                    indent=2,
                )
            )
        return 0

    if args.command in ("serve", "cluster"):
        try:
            return asyncio.run(_run_endpoint(args))
        except OSError as exc:  # e.g. port already in use
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "client":
        try:
            return asyncio.run(_run_client(args))
        except OSError as exc:  # e.g. connection refused, server gone
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "dynamics":
        return _dispatch_dynamics(args)

    if args.command == "power":
        tree = _read_tree(args.tree)
        modes = _parse_mode_set(args.modes)
        power_model = PowerModel(modes, static_power=args.static, alpha=args.alpha)
        cost_model = ModalCostModel.uniform(
            modes.n_modes, create=args.create, delete=args.delete, changed=args.changed
        )
        pre = _parse_pre_modes(args.preexisting)
        frontier = KERNELS["array"](tree, power_model, cost_model, pre)
        print(format_table(("cost", "power"), frontier.pairs()))
        if args.bound is not None:
            best = frontier.best_under_cost(args.bound)
            if best is None:
                print(f"no solution with cost <= {args.bound}")
            else:
                print(
                    f"bound {args.bound}: power={best.power:.3f} "
                    f"cost={best.cost:.3f} servers={dict(sorted(best.server_modes.items()))}"
                )
        return 0

    if args.command == "exp1":
        config = Exp1Config(n_trees=args.trees)
        if args.seed is not None:
            config = Exp1Config(n_trees=args.trees, seed=args.seed)
        if args.high_trees:
            config = config.high_trees()
        result = (
            run_experiment1_parallel(config, n_workers=args.workers)
            if args.workers > 1
            else run_experiment1(config, progress=_progress)
        )
        print(
            line_plot(
                result.series(),
                title=f"Figure {'6' if args.high_trees else '4'}: reused servers vs E",
                xlabel="pre-existing servers E",
                ylabel="mean reused",
            )
        )
        headers = ("E", "DP_reuse", "GR_reuse", "gap")
        print(format_table(headers, result.rows()))
        print(
            f"mean gap={result.mean_gap:.2f}, max gap={result.max_gap}, "
            f"count mismatches={result.count_mismatches}"
        )
        if args.csv:
            Path(args.csv).write_text(to_csv(headers, result.rows()), encoding="utf-8")
        return 0

    if args.command == "exp2":
        config = Exp2Config(n_trees=args.trees)
        if args.seed is not None:
            config = Exp2Config(n_trees=args.trees, seed=args.seed)
        if args.high_trees:
            config = config.high_trees()
        result = (
            run_experiment2_parallel(config, n_workers=args.workers)
            if args.workers > 1
            else run_experiment2(config, progress=_progress)
        )
        fig = "7" if args.high_trees else "5"
        print(
            line_plot(
                result.series(),
                title=f"Figure {fig} (left): cumulative reused servers",
                xlabel="update step",
                ylabel="cumulative reuse",
            )
        )
        print(
            bar_plot(
                result.gap_histogram,
                title=f"Figure {fig} (right): per-step (DP reuse - GR reuse)",
                xlabel="reuse gap",
            )
        )
        if args.csv:
            headers = ("step", "DP_cumulative", "GR_cumulative")
            Path(args.csv).write_text(to_csv(headers, result.rows()), encoding="utf-8")
        return 0

    if args.command == "exp3":
        config = Exp3Config(n_trees=args.trees)
        if args.seed is not None:
            config = Exp3Config(n_trees=args.trees, seed=args.seed)
        fig = "8"
        if args.high_trees:
            config, fig = config.high_trees(), "10"
        if args.no_preexisting:
            config, fig = config.no_preexisting(), "9"
        if args.expensive_costs:
            config, fig = config.expensive_costs(), "11"
        result = (
            run_experiment3_parallel(config, n_workers=args.workers)
            if args.workers > 1
            else run_experiment3(config, progress=_progress)
        )
        print(
            line_plot(
                result.series(),
                title=f"Figure {fig}: normalised inverse power vs cost bound",
                xlabel="cost bound",
                ylabel="P_opt / P (0 = no solution)",
            )
        )
        headers = ("bound", "DP_inv", "GR_inv", "DP_ok", "GR_ok", "GR/DP")
        print(format_table(headers, result.rows()))
        print(f"peak GR-over-DP power ratio: {result.peak_gr_overhead():.3f}")
        if args.csv:
            Path(args.csv).write_text(to_csv(headers, result.rows()), encoding="utf-8")
        return 0

    if args.command == "scaling":
        points = run_scaling()
        rows = [
            (p.regime, p.n_nodes, p.n_preexisting, p.seconds, p.detail)
            for p in points
        ]
        print(format_table(("regime", "N", "E", "seconds", "detail"), rows))
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
