"""The four benchmark workloads, built from the repo's scenario code.

Each workload is a closed loop in simulated time whose inputs come only
from the seed. :func:`run_rep` builds one (the *set-up*), drives it to
completion (the *simulation phase*: first op through drain), checks what
the clients observed, and returns a :class:`Rep` with the host CPU times,
the simulated latencies and a determinism digest.

* ``wan_rpc`` — the E17 shape (:mod:`repro.bench.e17_kernel_scale`):
  RPC echo on a 512-host ``wan_site``; routing dominates.
* ``catalog_mix`` — the E18 sharded catalog
  (:mod:`repro.bench.e18_catalog_scale`) at 10^5 preloaded names, with
  no split; snapshots, hashing and shard routing dominate.
* ``catalog_split`` — E18 ``split_under_load``: a 3,000-name shard
  splits under live load; handoff and epoch redirects.
* ``lossy_stream`` — the ``obs report`` demo shape
  (:func:`repro.obs.cli.demo_scenario`): srudp, tcp and multicast 64 KiB
  messages on a 5%-loss LAN; the per-frame datapath dominates.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.bench import e18_catalog_scale as e18
from repro.bench.e17_kernel_scale import ECHO_PORT, HOSTS_PER_LAN
from repro.bench.topologies import wan_site
from repro.net import ETHERNET_100, Medium, Topology
from repro.obs.cli import LOSS_RATE, MSG_BYTES
from repro.rcds.client import QUORUM, ConsistencyError
from repro.rpc import RpcClient, RpcError, RpcServer
from repro.sim import Simulator
from repro.transport import EthernetMulticast, SrudpEndpoint, StreamEndpoint
from repro.transport.base import SendError

#: Failure messages kept per rep for the report (the count is exact).
MAX_ERRORS_KEPT = 5


@dataclass
class Shape:
    """Size of one workload: ``Workload.full`` is the benchmark's,
    ``Workload.smoke`` the tests'."""

    hosts: int = 0          # wan_rpc: total hosts (multiple of 16)
    calls_per_host: int = 0
    names: int = 0          # catalog: preloaded names
    window_s: float = 0.0   # catalog: simulated seconds of client load
    client_hosts: int = 0
    sessions_per_host: int = 0
    split_threshold: Optional[int] = None
    check_sample: int = 0   # catalog_split: preloaded names re-read after drain
    messages: int = 0       # lossy_stream: messages per sender


@dataclass
class Rep:
    """One repetition: host CPU times plus everything simulated."""

    setup_s: float = 0.0
    sim_cpu_s: float = 0.0
    wall_s: float = 0.0
    preload_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Simulated seconds per completed op, by op kind.
    latencies: Dict[str, List[float]] = field(default_factory=dict)
    #: Simulated seconds from the first op's start to the last op's end.
    sim_span_s: float = 0.0
    lookups_checked: int = 0
    lookup_misses: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Deterministic simulated facts: hashed into ``digest``.
    facts: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""
    #: ``sim.obs`` metrics at the end of the simulation phase.
    obs: Dict[str, float] = field(default_factory=dict)
    #: Tracer totals for the simulation phase (traced reps only).
    layer: Dict[str, Any] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(msg)


class _Clock:
    """Span of simulated op activity: first op start to last op end."""

    def __init__(self) -> None:
        self.first = float("inf")
        self.last = 0.0

    def start(self, t: float) -> None:
        if t < self.first:
            self.first = t

    def end(self, t: float) -> None:
        if t > self.last:
            self.last = t

    @property
    def span(self) -> float:
        return max(self.last - self.first, 0.0)


# -- wan_rpc ---------------------------------------------------------------

def _wan_rpc_setup(seed: int, shape: Shape, rep: Rep):
    sim, _topo, lans = wan_site(n_lans=shape.hosts // HOSTS_PER_LAN,
                                hosts_per_lan=HOSTS_PER_LAN, seed=seed)
    hosts = [h for lan in lans for h in lan]
    for h in hosts:
        RpcServer(h, ECHO_PORT).register("echo", lambda args: args["x"])
    clients = [RpcClient(h) for h in hosts]
    return sim, (hosts, clients)


def _wan_rpc_drive(sim, ctx, shape: Shape, rep: Rep, op_hook):
    """E17's caller loop: uniform 0-0.5 s think, 1 call in 4 crosses the
    WAN; every reply must equal its argument."""
    hosts, clients = ctx
    n = len(hosts)
    rng = sim.rng.stream("e17.traffic")
    lat: List[float] = []
    rep.latencies["echo"] = lat
    clock = _Clock()
    wrong = [0]

    def caller(idx: int):
        lan = idx // HOSTS_PER_LAN
        for i in range(shape.calls_per_host):
            if rng.random() < 0.25:
                dst = rng.randrange(n)
            else:
                dst = lan * HOSTS_PER_LAN + rng.randrange(HOSTS_PER_LAN)
            if dst == idx:
                dst = (dst + 1) % n
            yield sim.timeout(rng.uniform(0.0, 0.5))
            rep.attempted += 1
            t0 = sim.now
            clock.start(t0)
            op_hook(idx * shape.calls_per_host + i)
            try:
                reply = yield clients[idx].call(hosts[dst].name, ECHO_PORT,
                                                "echo", x=(idx, i))
            except RpcError as exc:
                rep.fail(f"echo {idx}->{dst}: {exc}")
                continue
            clock.end(sim.now)
            if tuple(reply) != (idx, i):
                wrong[0] += 1
                rep.fail(f"echo {idx}->{dst}: reply {reply!r} != {(idx, i)!r}")
                continue
            lat.append(sim.now - t0)

    procs = [sim.process(caller(i), name=f"bench-caller:{i}") for i in range(n)]
    sim.run(until=sim.all_of(procs))
    rep.sim_span_s = clock.span
    rep.checks["replies_echo_arguments"] = wrong[0] == 0


# -- catalog_mix / catalog_split ------------------------------------------

N_SHARDS = 4


def _catalog_site(seed: int, shape: Shape, split: bool, rep: Rep):
    """E18's site: 3 root hosts, 12 placement hosts, client hosts on one
    LAN. ``split`` starts one ``app`` shard with a split threshold; the
    mix pre-carves N_SHARDS prefix shards and never splits."""
    env, placement, client_hosts = e18._site(seed, shape.client_hosts)
    env.add_rc_servers(["r0", "r1", "r2"], sharded=True,
                       service_time=e18.SERVICE_TIME)
    mgr = env.enable_sharding(
        placement_hosts=placement, replicas_per_shard=3,
        split_threshold=shape.split_threshold if split else None,
        server_kw=dict(service_time=e18.SERVICE_TIME))
    if split:
        mgr.add_shard("app", ("snipe://app/",))
    else:
        for k in range(N_SHARDS):
            mgr.add_shard(f"g{k}", (f"snipe://app/g{k}/",))
    mgr.start()
    mgr.seed_map()
    t_pre = time.process_time()
    if split:
        e18._preload([s.store for s in mgr.servers["app"].values()],
                     range(shape.names), N_SHARDS)
    else:
        for k in range(N_SHARDS):
            e18._preload([s.store for s in mgr.servers[f"g{k}"].values()],
                         range(k, shape.names, N_SHARDS), N_SHARDS)
    rep.preload_s = time.process_time() - t_pre
    parent = list(mgr.servers["app"].values()) if split else []
    return env.sim, (env, mgr, client_hosts, parent)


def _catalog_mix_setup(seed: int, shape: Shape, rep: Rep):
    return _catalog_site(seed, shape, False, rep)


def _catalog_split_setup(seed: int, shape: Shape, rep: Rep):
    return _catalog_site(seed, shape, True, rep)


def _catalog_drive(sim, ctx, shape: Shape, rep: Rep, op_hook):
    """E18's closed-loop session mix (70% lookup, 20% QUORUM update, 5%
    create, 5% prefix query, mean think E18.THINK) over [1 s, 1 s +
    window], then the post-drain client-side checks."""
    env, mgr, client_hosts, parent = ctx
    n_names = shape.names
    n_dirs = max(1, (n_names // N_SHARDS) // e18.DIR_WIDTH)
    t0, t1 = 1.0, 1.0 + shape.window_s
    state = {"next_i": n_names, "op": 0}
    created: List[int] = []
    lat: Dict[str, List[float]] = {k: [] for k in
                                   ("lookup", "update", "create", "query")}
    rep.latencies.update(lat)
    clock = _Clock()
    uri = e18._uri

    def session(idx: int, host: str):
        client = env.rc_client(host)
        rng = sim.rng.stream(f"e18.session.{idx}")
        yield sim.timeout(max(0.0, t0 - sim.now) + rng.uniform(0.0, 0.1))
        while sim.now < t1:
            r = rng.random()
            t_op = sim.now
            rep.attempted += 1
            clock.start(t_op)
            op_hook(state["op"])
            state["op"] += 1
            kind = ""
            try:
                if r < e18.MIX_LOOKUP:
                    kind = "lookup"
                    i = rng.randrange(state["next_i"])
                    got = yield client.lookup(uri(i, N_SHARDS))
                    if i < n_names:
                        rep.lookups_checked += 1
                        if not got:
                            rep.lookup_misses += 1
                            rep.fail(f"lookup of preloaded name {i} at "
                                     f"t={sim.now:.3f} came back empty")
                            kind = ""
                elif r < e18.MIX_UPDATE:
                    kind = "update"
                    i = rng.randrange(n_names)
                    yield client.update(uri(i, N_SHARDS), {"v": idx},
                                        consistency=QUORUM)
                else:
                    if r < e18.MIX_CREATE:
                        kind = "create"
                        i = state["next_i"]
                        state["next_i"] = i + 1
                        yield client.update(uri(i, N_SHARDS), {"v": 0},
                                            consistency=QUORUM)
                        created.append(i)
                    else:
                        kind = "query"
                        g = rng.randrange(N_SHARDS)
                        d = rng.randrange(n_dirs)
                        yield client.query(f"snipe://app/g{g}/d{d:05d}/")
            except ConsistencyError as exc:
                rep.fail(f"{kind} at t={t_op:.3f}: {exc}")
                kind = ""
            clock.end(sim.now)
            if kind:
                lat[kind].append(sim.now - t_op)
            yield sim.timeout(e18.THINK * (0.5 + rng.random()))

    marks: Dict[str, Optional[float]] = {"split_at": None, "drained_at": None}

    def split_monitor():
        # E18 split_under_load's monitor, polled until the drain is seen.
        while marks["drained_at"] is None and sim.now < t1 + 30.0:
            yield sim.timeout(0.2)
            if marks["split_at"] is None and mgr.splits >= 1:
                marks["split_at"] = sim.now
            if (marks["split_at"] is not None
                    and all(s.store.live_uri_count() == 0 for s in parent)):
                marks["drained_at"] = sim.now

    procs = [sim.process(session(j * shape.sessions_per_host + s, host),
                         name=f"bench-session:{host}.{s}")
             for j, host in enumerate(client_hosts)
             for s in range(shape.sessions_per_host)]
    if parent:
        procs.append(sim.process(split_monitor(), name="bench-split-monitor"))
    sim.run(until=sim.all_of(procs))
    sim.run(until=sim.now + 1.0)  # let in-flight replication settle
    rep.sim_span_s = clock.span
    rep.facts["created"] = len(created)
    rep.facts["splits"] = mgr.splits
    rep.facts["epoch"] = mgr.map.epoch
    if parent:
        rep.checks["split_published"] = mgr.splits >= 1
        rep.checks["handoff_drained"] = marks["drained_at"] is not None
        rep.facts["split_at"] = marks["split_at"]
        rep.facts["drain_s"] = (marks["drained_at"] - marks["split_at"]
                                if marks["drained_at"] is not None else None)

    def verify() -> None:
        """After the drain: what a client reads back."""
        reader = env.rc_client(client_hosts[0])
        if parent:
            rng = sim.rng.stream("bench.split.sample")
            sample = sorted(rng.sample(range(n_names),
                                       min(shape.check_sample, n_names)))
            rep.checks["sample_resolves"] = _all_resolve(sim, reader, sample)
        else:
            rep.checks["created_resolve"] = _all_resolve(
                sim, reader, sorted(created))

    return verify


def _all_resolve(sim, client, indices: List[int]) -> bool:
    """Look every name up through one client; True iff none reads empty.
    QUORUM reads, because a QUORUM write is only guaranteed visible to a
    read quorum that intersects it (a ONE read may hit the replica that
    anti-entropy has not reached yet)."""
    found = [0]

    def reader():
        for i in indices:
            got = yield client.lookup(e18._uri(i, N_SHARDS),
                                      consistency=QUORUM)
            found[0] += bool(got)

    sim.run(until=sim.process(reader(), name="bench-check-reader"))
    return found[0] == len(indices)


# -- lossy_stream ----------------------------------------------------------

MCAST_PORT = 7000


def _lossy_stream_setup(seed: int, shape: Shape, rep: Rep):
    """The ``obs report`` demo site: hosts h0-h2 on a 100 Mb LAN with 5%
    frame loss; h0 runs an srudp and a tcp sender to h1 and one multicast
    sender to {h1, h2}."""
    medium = Medium(name="lan", bandwidth=ETHERNET_100.bandwidth,
                    latency=ETHERNET_100.latency, mtu=ETHERNET_100.mtu,
                    frame_overhead=ETHERNET_100.frame_overhead,
                    loss_rate=LOSS_RATE)
    sim = Simulator(seed=seed)
    topo = Topology(sim)
    seg = topo.add_segment("lan", medium)
    hosts = []
    for i in range(3):
        h = topo.add_host(f"h{i}")
        topo.connect(h, seg)
        hosts.append(h)
    a, b, _c = hosts
    mcast = [EthernetMulticast(h, MCAST_PORT, "lan") for h in hosts]
    flows = [  # (name, sender endpoint, receiver endpoints)
        ("srudp", SrudpEndpoint(a, 5000), [SrudpEndpoint(b, 5000)]),
        ("tcp", StreamEndpoint(a, 6000), [StreamEndpoint(b, 6000)]),
        ("mcast", mcast[0], mcast[1:]),
    ]
    return sim, flows


def _lossy_stream_drive(sim, flows, shape: Shape, rep: Rep, op_hook):
    """Each sender waits for one send to complete before the next; every
    message must reach every receiver exactly once, in order, intact."""
    n = shape.messages
    sent_at: Dict[str, List[float]] = {name: [] for name, _, _ in flows}
    clock = _Clock()
    wrong = [0]

    def sender(name: str, ep, receivers):
        members = [r.host.name for r in receivers]
        for i in range(n):
            rep.attempted += len(receivers)
            op_hook(i)
            sent_at[name].append(sim.now)
            clock.start(sim.now)
            payload = f"{name}-{i}"
            try:
                if name == "mcast":
                    yield ep.send_group(members, MCAST_PORT, payload, MSG_BYTES)
                else:
                    yield ep.send(members[0], ep.port, payload, MSG_BYTES)
            except SendError as exc:
                rep.fail(f"{name} send {i}: {exc}")

    def receiver(name: str, ep):
        lat = rep.latencies.setdefault(name, [])
        for i in range(n):
            msg = yield ep.recv()
            expected = f"{name}-{i}"
            if msg.payload != expected or msg.size != MSG_BYTES:
                wrong[0] += 1
                rep.fail(f"{name}@{ep.host.name}: got {msg.payload!r} "
                         f"({msg.size} B), expected {expected!r}")
                continue
            lat.append(sim.now - sent_at[name][i])
            clock.end(sim.now)

    procs = []
    for name, ep, receivers in flows:
        procs += [sim.process(receiver(name, r), name=f"bench-rx:{name}")
                  for r in receivers]
        procs.append(sim.process(sender(name, ep, receivers),
                                 name=f"bench-tx:{name}"))
    sim.run(until=sim.all_of(procs))
    sim.run(until=sim.now + 1.0)  # late duplicates would arrive here
    rep.sim_span_s = clock.span
    rep.checks["in_order_and_intact"] = wrong[0] == 0
    rep.checks["no_duplicates"] = all(
        r.rx_messages == n and not len(r._rx_queue)
        for _, _, receivers in flows for r in receivers)


# -- registry ----------------------------------------------------------------


@dataclass
class Workload:
    """A workload's set-up and drive functions and its two sizes. Why
    each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    setup: Callable
    drive: Callable
    full: Shape
    smoke: Shape


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "wan_rpc",
        _wan_rpc_setup, _wan_rpc_drive,
        full=Shape(hosts=512, calls_per_host=4),
        smoke=Shape(hosts=32, calls_per_host=2)),
    Workload(
        "catalog_mix",
        _catalog_mix_setup, _catalog_drive,
        full=Shape(names=100_000, window_s=1.0, client_hosts=8,
                   sessions_per_host=4),
        smoke=Shape(names=2_000, window_s=0.2, client_hosts=2,
                    sessions_per_host=2)),
    Workload(
        "catalog_split",
        _catalog_split_setup, _catalog_drive,
        full=Shape(names=3_000, window_s=10.0, client_hosts=4,
                   sessions_per_host=2, split_threshold=2_000,
                   check_sample=300),
        smoke=Shape(names=300, window_s=3.0, client_hosts=2,
                    sessions_per_host=1, split_threshold=200,
                    check_sample=30)),
    Workload(
        "lossy_stream",
        _lossy_stream_setup, _lossy_stream_drive,
        full=Shape(messages=1000),
        smoke=Shape(messages=20)),
)}


def _no_hook(_op: int) -> None:
    pass


def digest_of(facts: Dict[str, Any]) -> str:
    """SHA-256 of the deterministic facts, floats written in full."""
    blob = json.dumps(facts, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_rep(workload: Workload, seed: int, shape: Optional[Shape] = None,
            tracer=None) -> Rep:
    """Set up, drive and check one repetition of *workload*.

    With an installed :class:`layers.LayerTracer`, its totals are zeroed
    when the simulation phase starts and copied into ``rep.layer`` when
    it ends, before the post-drain checks run.
    """
    shape = shape or workload.full
    rep = Rep()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    sim, ctx = workload.setup(seed, shape, rep)
    op_hook = _no_hook
    if tracer is not None:
        tracer.reset()

        def op_hook(i: int) -> None:
            tracer.rid = i
    cpu1 = time.process_time()
    verify = workload.drive(sim, ctx, shape, rep, op_hook)
    cpu2 = time.process_time()
    rep.setup_s = cpu1 - cpu0
    rep.sim_cpu_s = cpu2 - cpu1
    rep.wall_s = time.perf_counter() - wall0
    if tracer is not None:
        rep.layer = tracer.totals()
    rep.facts.update({
        "events": sim._eid,
        "frames": sim.frames_constructed,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "misses": rep.lookup_misses,
        "latencies": {k: [repr(x) for x in v]
                      for k, v in sorted(rep.latencies.items())},
        "span": repr(rep.sim_span_s),
        "obs": sim.obs.metrics.snapshot(),
    })
    rep.obs = rep.facts["obs"]
    if verify is not None:
        verify()
    rep.facts["checks"] = rep.checks
    rep.digest = digest_of(rep.facts)
    return rep
