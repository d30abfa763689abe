"""Workload definitions: fixed rates and limits, seed-pure inputs, expected answers.

Every input is drawn from ``numpy.random.default_rng([seed, stream])``
with one stream per purpose (warm-up, open loop, saturation, sessions),
so the same seed always yields a byte-identical request stream and the
streams never share instances.  Size and kind mixes are *stratified*:
each block of requests holds the exact mix in shuffled order, which
keeps run-to-run spread low without changing the mix.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.batch import solve_batch
from repro.batch.cache import ResultCache
from repro.batch.canonical import relabel_tree
from repro.batch.instance import BatchInstance, instance_from_dict, instance_to_dict
from repro.batch.registry import get_policy
from repro.dynamics.incremental import (
    AddClient,
    MigrateSubtree,
    RemoveClient,
    SetRequests,
    apply_deltas,
    delta_to_dict,
)
from repro.power.kernels import KERNELS
from repro.power.modes import ModeSet, PowerModel
from repro.tree.generators import paper_tree, random_preexisting, random_preexisting_modes
from repro.tree.model import Tree

#: Capacity W of every instance (the power policies take theirs from the modes).
CAPACITY = 10
POWER3 = PowerModel(ModeSet((5, 10, 15)), static_power=12.5, alpha=3.0)
POWER2 = PowerModel(ModeSet((5, 10)), static_power=12.5, alpha=3.0)

#: Share of ``--seconds`` spent in the open-loop phase; the rest is the
#: closed-loop saturation phase.
OPEN_SHARE = 0.7
#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Saturation instances generated per second of phase, as a multiple of
#: the rate the seed code sustains; a faster program that exhausts the
#: pool simply ends the phase early (throughput is completions / elapsed).
SATURATION_POOL_HEADROOM = 1.1

#: session-churn shape: deltas per session before it is closed and
#: reopened on a fresh tree, the stride of checked deltas, and the number
#: of distinct segments per session (cycled when the run outlasts them).
SEGMENT_DELTAS = 20
CHECK_EVERY = 5
SEGMENTS_PER_SESSION = 6


@dataclass(frozen=True)
class Spec:
    """One workload's fixed traffic parameters (calibrated once, committed).

    The open-loop rates sit at 20-35 % of what the seed code sustains in
    the saturation phase (mincost-cluster ~28 req/s, frontier-dup
    ~17 req/s on a 2-core shared VM).  Nearer half, queueing amplified
    that VM's +-7 % slow CPU-speed drift into p95 spreads of 0.3-0.4
    between runs.
    """

    name: str
    #: "open" (Poisson arrivals + saturation phase) or "session" (closed loop).
    kind: str
    #: "serve" (one ``repro serve``) or "cluster" (router + 2 workers).
    server: str
    #: Latency limit behind ``slo_ratio``.
    limit_ms: float
    #: Open-loop arrival rate in requests per second (never derived per run).
    rate: float = 0.0
    #: In-flight window of the saturation phase.
    window: int = 0
    #: Completions per second the seed code sustains in the saturation
    #: phase; sizes the saturation instance pool only.
    saturation_rps: float = 0.0


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("mincost-cluster", "open", "cluster", limit_ms=400.0, rate=6.0, window=4, saturation_rps=34.0),
        Spec("frontier-dup", "open", "serve", limit_ms=400.0, rate=6.0, window=4, saturation_rps=20.0),
        Spec("session-churn", "session", "serve", limit_ms=150.0),
    )
}


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


_WARMUP, _OPEN, _SATURATION, _SESSIONS = 1, 2, 3, 4


def _stratified(rng: np.random.Generator, count: int, mix: list[tuple[Any, int]]) -> list[Any]:
    """``count`` values in blocks that each hold the exact ``mix``, shuffled."""
    block = [value for value, weight in mix for _ in range(weight)]
    out: list[Any] = []
    while len(out) < count:
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out[:count]


def arrival_offsets(rng: np.random.Generator, count: int, rate: float) -> list[float]:
    """Poisson arrivals: exponential gaps drawn from stratified uniforms."""
    u = (rng.permutation(count) + rng.random(count)) / count
    gaps = -np.log1p(-u) / rate
    return [float(t) for t in np.cumsum(gaps) - gaps[0]]


def frame(message: dict[str, Any]) -> bytes:
    """One protocol message as a compact JSON line."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def _solve_line(rid: int, solver: str, instance: BatchInstance) -> bytes:
    return frame({"op": "solve", "id": rid, "solver": solver, "instance": instance_to_dict(instance)})


@dataclass
class Request:
    """One pre-encoded solve request."""

    rid: int
    line: bytes
    #: Requests sharing a group share one canonical instance.
    group: int
    #: First request of its group in the stream (a cold request).
    cold: bool


@dataclass
class Segment:
    """One session lifetime: a fresh instance and the deltas sent to it."""

    instance: dict[str, Any]
    deltas: list[dict[str, Any]]
    #: Cold-solve ``(cost, power)`` pairs after open and after each checked
    #: delta (keyed by the number of deltas applied), filled by ``expect``.
    expected: dict[int, str] = field(default_factory=dict)
    trees: dict[int, Tree] = field(default_factory=dict, repr=False)
    pre_modes: dict[int, int] = field(default_factory=dict, repr=False)


@dataclass
class Inputs:
    """All inputs of one run, generated from the seed alone."""

    spec: Spec
    warmup: list[bytes]
    open_requests: list[Request]
    offsets: list[float]
    saturation: list[Request]
    sessions: list[list[Segment]]
    #: session-churn warm-up: a small session opened, changed and closed.
    warm_segment: Segment | None = None
    expected: dict[int, str] = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over the request stream (session ids are server-assigned)."""
        h = hashlib.sha256()
        for line in self.warmup:
            h.update(line)
        for req, off in zip(self.open_requests, self.offsets):
            h.update(req.line)
            h.update(repr(off).encode())
        for req in self.saturation:
            h.update(req.line)
        warm = [self.warm_segment] if self.warm_segment is not None else []
        for seg in warm + [seg for segments in self.sessions for seg in segments]:
            h.update(frame({"instance": seg.instance, "deltas": seg.deltas}))
        return h.hexdigest()


# -- instance families -----------------------------------------------------


def _mincost_instance(rng: np.random.Generator, n: int) -> BatchInstance:
    tree = paper_tree(n, rng=rng)
    return BatchInstance(tree, CAPACITY, random_preexisting(tree, n // 8, rng=rng))


def _power_instance(rng: np.random.Generator, n: int, power: PowerModel) -> BatchInstance:
    tree = paper_tree(n, rng=rng)
    pre = random_preexisting_modes(tree, n // 8, power.modes.n_modes, rng=rng)
    return BatchInstance(tree, CAPACITY, power_model=power, preexisting_modes=tuple(pre.items()))


def _scaled(n: int, scale: float) -> int:
    """Tree size ``n`` shrunk by ``scale`` (smoke runs use scale < 1)."""
    return max(12, int(n * scale))


def _mincost_requests(rng: np.random.Generator, count: int, first_id: int, scale: float) -> list[Request]:
    sizes = _stratified(rng, count, [(100, 10), (200, 7), (400, 3)])
    return [
        Request(
            first_id + i,
            _solve_line(first_id + i, "dp", _mincost_instance(rng, _scaled(n, scale))),
            first_id + i,
            True,
        )
        for i, n in enumerate(sizes)
    ]


def _frontier_requests(rng: np.random.Generator, count: int, first_id: int, scale: float) -> list[Request]:
    kinds = _stratified(rng, count, [("unique", 2), ("dup", 3)])
    solvers = _stratified(rng, count, [("power_frontier", 3), ("min_power", 1)])
    uniques: list[BatchInstance] = []
    out = []
    for i, (kind, solver) in enumerate(zip(kinds, solvers)):
        if kind == "dup" and uniques:
            group = int(rng.integers(len(uniques)))
            src = uniques[group]
            tree, pre = relabel_tree(src.tree, rng.permutation(src.tree.n_nodes), src.pre_modes())
            inst = BatchInstance(tree, CAPACITY, power_model=POWER3, preexisting_modes=tuple(pre.items()))
            cold = False
        else:
            inst = _power_instance(rng, _scaled(200, scale), POWER3)
            group = len(uniques)
            uniques.append(inst)
            cold = True
        out.append(Request(first_id + i, _solve_line(first_id + i, solver, inst), first_id + group, cold))
    return out


def _migrate(rng: np.random.Generator, tree: Tree) -> MigrateSubtree:
    """Re-hang a random non-root subtree under a node outside it."""
    while True:
        v = int(rng.integers(tree.n_nodes))
        if tree.parent(v) is None:
            continue
        inside = {v}
        stack = [v]
        while stack:
            for c in tree.children(stack.pop()):
                inside.add(c)
                stack.append(c)
        targets = [q for q in range(tree.n_nodes) if q not in inside and q != tree.parent(v)]
        if targets:
            return MigrateSubtree(v, targets[int(rng.integers(len(targets)))])


def _client_delta(rng: np.random.Generator, tree: Tree, capacity: int) -> Any:
    """A random client change that keeps every node's direct load within ``capacity``."""
    load = [0] * tree.n_nodes
    for c in tree.clients:
        load[c.node] += c.requests
    kind = int(rng.integers(3))
    n_clients = len(tree.clients)
    if kind == 0:
        index = int(rng.integers(n_clients))
        client = tree.clients[index]
        room = capacity - load[client.node] + client.requests
        return SetRequests(index, int(rng.integers(1, min(6, room) + 1)))
    if kind == 1 or n_clients <= 1:
        open_nodes = [v for v in range(tree.n_nodes) if load[v] < capacity]
        node = open_nodes[int(rng.integers(len(open_nodes)))]
        return AddClient(node, int(rng.integers(1, min(6, capacity - load[node]) + 1)))
    return RemoveClient(int(rng.integers(n_clients)))


def _segment(rng: np.random.Generator, n: int) -> Segment:
    inst = _power_instance(rng, n, POWER2)
    seg = Segment(instance_to_dict(inst), [], pre_modes=inst.pre_modes())
    tree = inst.tree
    seg.trees[0] = tree
    for k, kind in enumerate(_stratified(rng, SEGMENT_DELTAS, [("client", 4), ("migrate", 1)]), 1):
        delta = _migrate(rng, tree) if kind == "migrate" else _client_delta(rng, tree, POWER2.modes.capacities[-1])
        tree, _ = apply_deltas(tree, [delta])
        seg.deltas.append(delta_to_dict(delta))
        if k % CHECK_EVERY == 0:
            seg.trees[k] = tree
    return seg


def generate(name: str, seed: int, open_seconds: float, saturation_seconds: float, *, scale: float = 1.0) -> Inputs:
    """All inputs of workload ``name`` for one run; ``scale`` < 1 shrinks trees (smoke runs)."""
    spec = SPECS[name]
    warm = rng_for(seed, _WARMUP)
    if spec.kind == "session":
        rng = rng_for(seed, _SESSIONS)
        segments = [[_segment(rng, _scaled(500, scale)) for _ in range(SEGMENTS_PER_SESSION)] for _ in range(2)]
        return Inputs(spec, [], [], [], [], segments, warm_segment=_segment(warm, _scaled(100, scale)))

    if spec.server == "cluster":
        warmup = [_solve_line(-1 - i, "dp", _mincost_instance(warm, _scaled(100, scale))) for i in range(6)]
        family = _mincost_requests
    else:
        warmup = [
            _solve_line(-1 - i, solver, _power_instance(warm, _scaled(60, scale), POWER3))
            for i, solver in enumerate(("power_frontier", "min_power", "power_frontier"))
        ]
        family = _frontier_requests
    rng = rng_for(seed, _OPEN)
    n_open = max(1, math.ceil(spec.rate * open_seconds))
    offsets = arrival_offsets(rng, n_open, spec.rate)
    open_requests = family(rng, n_open, 0, scale)
    n_sat = math.ceil(spec.saturation_rps * SATURATION_POOL_HEADROOM * saturation_seconds)
    saturation = family(rng_for(seed, _SATURATION), n_sat, 1_000_000, scale)
    return Inputs(spec, warmup, open_requests, offsets, saturation, [])


# -- expected answers ------------------------------------------------------


def _result_text(result: dict[str, Any]) -> str:
    return json.dumps(result, separators=(",", ":"))


def _expect_solves(lines: list[bytes]) -> list[str]:
    """Direct ``solve_batch`` wire results for requests sharing one instance."""
    cache = ResultCache()
    out = []
    for line in lines:
        message = json.loads(line)
        policy = get_policy(message["solver"])
        (result,) = solve_batch([instance_from_dict(message["instance"])], solver=message["solver"], cache=cache)
        out.append(_result_text(policy.result_to_wire(result)))
    return out


def _expect_segment(instance: dict[str, Any], trees: dict[int, Tree], pre_modes: dict[int, int]) -> dict[int, str]:
    """Cold array-kernel ``(cost, power)`` pairs at each checked point."""
    inst = instance_from_dict(instance)
    assert inst.power_model is not None
    cost = inst.effective_modal_cost()
    return {
        k: _result_text([[c, p] for c, p in KERNELS["array"](tree, inst.power_model, cost, pre_modes).pairs()])
        for k, tree in trees.items()
    }


def expect(inputs: Inputs) -> None:
    """Fill in the expected answer of every checked request (before timing).

    The pool forks: a spawn context would also start multiprocessing's
    resource-tracker process, which outlives the benchmark by a moment.
    """
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        groups: dict[int, list[Request]] = {}
        for req in inputs.open_requests + inputs.saturation:
            groups.setdefault(req.group, []).append(req)
        batches = list(groups.values())
        for batch, texts in zip(batches, pool.map(_expect_solves, [[r.line for r in b] for b in batches])):
            for req, text in zip(batch, texts):
                inputs.expected[req.rid] = text
        segments = [seg for per_session in inputs.sessions for seg in per_session]
        found = pool.map(
            _expect_segment,
            [s.instance for s in segments],
            [s.trees for s in segments],
            [s.pre_modes for s in segments],
        )
        for seg, expected in zip(segments, found):
            seg.expected = expected
