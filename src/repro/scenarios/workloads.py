"""Sites and workloads shared by several scenarios.

* :func:`build_chaos_env` — the star site: a stable core (RC x3, RM,
  file servers, guardians) behind a gateway, every worker alone on its
  own segment so it can be isolated;
* the checkpointing workload — :func:`install_chaos_programs`
  (chaos-worker + collector), :func:`install_overload_worker`, and
  :func:`spawn_workload` to start them;
* catalog load — :func:`start_load_generators` (open-loop lookups),
  :func:`start_gray_sessions` (closed-loop lookup sessions) and
  :func:`start_writers` (per-key write loops that later retire their
  key with a delete);
* :class:`WorkerScenario` — check mode for the scenarios that run the
  checkpointing workload (faults, overload, gray, heal).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.check.explore import apply_fault_plan
from repro.check.oracles import (
    ChunkOracle,
    ConvergenceOracle,
    CorruptionOracle,
    DeliveryOracle,
    SingleOwnerOracle,
)
from repro.core.checkpoint import checkpoint_to_files
from repro.core.environment import SnipeEnvironment
from repro.daemon.tasks import TaskSpec
from repro.robust import TIMEOUTS
from repro.rpc import RpcClient, RpcError
from repro.scenarios.harness import CheckRun, Scenario


def build_chaos_env(
    seed: int,
    n_workers: int = 4,
    rc_service_time: Optional[float] = None,
    configure: Optional[Callable] = None,
    backup_core: bool = False,
    rc_server_kw: Optional[Dict] = None,
) -> Tuple[SnipeEnvironment, List[str]]:
    """The chaos site: stable core (RC x3, RM, files, guardians) behind a
    gateway, each worker alone on its own segment so it can be isolated.

    ``rc_service_time`` makes the RC replicas single-threaded bottleneck
    servers (the overload scenario saturates them); ``configure(sim)``
    runs before any endpoint exists, so it can set
    :class:`repro.robust.overload.OverloadConfig` fields that are read at
    queue-construction time. ``backup_core`` adds a second core segment
    (every core host dual-homed), so a one-way fault on one core link has
    a healthy alternate path — the gray scenario's per-interface health
    scoring steers around the sick link instead of timing out forever.
    """
    env = SnipeEnvironment(seed=seed)
    if configure is not None:
        configure(env.sim)
    env.add_segment("core-lan")
    core_segments = ["core-lan"]
    if backup_core:
        env.add_segment("core-lan2")
        core_segments.append("core-lan2")
    for name in ("c0", "c1", "c2"):
        env.add_host(name, segments=core_segments)
    gw = env.add_host("gw", segments=core_segments, forwarding=True)
    workers = []
    for i in range(n_workers):
        seg = env.add_segment(f"s-w{i}")
        env.topology.connect(gw, seg)
        env.add_host(f"w{i}", segments=[f"s-w{i}"], arch="worker")
        workers.append(f"w{i}")
    server_kw = dict(rc_server_kw or {})
    if rc_service_time is not None:
        server_kw["service_time"] = rc_service_time
    env.add_rc_servers(["c0", "c1", "c2"], **server_kw)
    for name in ("c0", "c1", "c2", "gw", *workers):
        env.boot_daemon(name)
    env.add_rm("c0")
    env.add_file_server("c0")
    env.add_file_server("c1")
    env.add_guardian("c1")
    env.add_guardian("c2")
    return env, workers


# ---------------------------------------------------------------------------
# The checkpointing workload
# ---------------------------------------------------------------------------

def new_coll_state() -> Dict:
    """Fresh collector-side bookkeeping for :func:`install_chaos_programs`."""
    return {"done": {}, "dup_done": {}, "progress": {}, "incs": {}, "mismatch": []}


def install_chaos_programs(env: SnipeEnvironment, acked: Dict[str, int], coll_state: Dict):
    """Register the chaos-worker / chaos-collector programs on *env*."""
    @env.program("chaos-worker")
    def chaos_worker(ctx, total, ckpt_every, collector_urn, step):
        def take_checkpoint():
            # Checkpointing is durability, not progress: when every file
            # server is briefly unreachable (gray quorum loss, one-way
            # cuts) the task keeps computing and retries at the next
            # boundary — dying here would turn a storage degradation
            # into the very failure checkpoints exist to survive. The
            # cost is bounded: recovery resumes from the last checkpoint
            # that *did* land, and the output-commit discipline below
            # makes the redone steps duplicates the collector dedups.
            try:
                yield checkpoint_to_files(ctx)
            except Exception:
                coll_state["ckpt_skipped"] = coll_state.get("ckpt_skipped", 0) + 1
                ctx.sim.obs.metrics.counter("ckpt.skipped").inc()

        i = ctx.checkpoint_state.get("i", 0)
        # Checkpoint immediately: from the first instant there is a
        # durable state for the Guardian to restart from.
        yield from take_checkpoint()
        while i < total:
            yield ctx.compute(step)
            i += 1
            ctx.checkpoint_state["i"] = i
            yield ctx.send(collector_urn,
                           {"urn": ctx.urn, "i": i, "inc": ctx.incarnation},
                           tag="progress")
            acked[ctx.urn] = acked.get(ctx.urn, 0) + 1
            # Output-commit discipline: checkpoint only after the report
            # for this step was acknowledged. A checkpoint that ran ahead
            # of unacknowledged output would let a crash lose the report
            # for work the successor (resuming past it) never redoes.
            if i % ckpt_every == 0:
                yield from take_checkpoint()
        # App-level fence check before claiming completion: a superseded
        # incarnation leaves the completion report to its successor.
        try:
            fence = yield ctx.rc.get(ctx.urn, "fenced-below")
        except Exception:
            fence = None
        if fence is not None and ctx.incarnation < fence:
            return i
        yield ctx.send(collector_urn,
                       {"urn": ctx.urn, "result": i, "inc": ctx.incarnation},
                       tag="done")
        acked[ctx.urn] = acked.get(ctx.urn, 0) + 1
        return i

    @env.program("chaos-collector")
    def chaos_collector(ctx):
        while True:
            msg = yield ctx.recv()
            p = msg.payload
            urn = p["urn"]
            coll_state["incs"].setdefault(urn, []).append(msg.src_inc)
            if msg.tag == "done":
                if urn in coll_state["done"]:
                    coll_state["dup_done"][urn] = coll_state["dup_done"].get(urn, 0) + 1
                    if coll_state["done"][urn] != p["result"]:
                        coll_state["mismatch"].append(urn)
                else:
                    coll_state["done"][urn] = p["result"]
            else:
                coll_state["progress"].setdefault(urn, set()).add(p["i"])


def install_overload_worker(env: SnipeEnvironment, wstats: Dict):
    """Register the overload-hardened worker program on *env*.

    The chaos-worker, hardened for overload: progress reports and
    checkpoints are best-effort, because bulk-plane failures are
    *expected* under saturation and a program crash would read as a
    (true) death, drowning the false-death signal the scenario measures.
    """

    @env.program("overload-worker")
    def overload_worker(ctx, total, ckpt_every, collector_urn, step):
        i = 0
        while i < total:
            yield ctx.compute(step)
            i += 1
            wstats["steps"] += 1
            try:
                yield ctx.send(collector_urn,
                               {"urn": ctx.urn, "i": i, "inc": ctx.incarnation},
                               tag="progress")
            except Exception:
                wstats["send_failures"] += 1
            if i % ckpt_every == 0:
                try:
                    yield checkpoint_to_files(ctx)
                except Exception:
                    wstats["ckpt_failures"] += 1
        return i


def spawn_workload(env: SnipeEnvironment, workers: List[str], prefix: str,
                   program: str, total: int, ckpt_every: int, step: float):
    """Start the collector on c0 and one *program* task per worker host
    (``<prefix>-coll``, ``<prefix>-w<i>``); returns ``(collector, urns)``."""
    coll = env.spawn(TaskSpec(program="chaos-collector", name=f"{prefix}-coll"), on="c0")
    urns = []
    for i, w in enumerate(workers):
        spec = TaskSpec(
            program=program,
            arch="worker",  # keep (re)placement on the worker fleet
            name=f"{prefix}-w{i}",
            params={"total": total, "ckpt_every": ckpt_every,
                    "collector_urn": coll.urn, "step": step},
        )
        urns.append(env.spawn(spec, on=w).urn)
    return coll, urns


# ---------------------------------------------------------------------------
# Catalog load
# ---------------------------------------------------------------------------

def start_load_generators(
    env: SnipeEnvironment,
    workers: List[str],
    offered_rate: float,
    t_load0: float,
    t_load1: float,
    max_outstanding: int = 48,
) -> Dict:
    """Open-loop Poisson ``rc.lookup`` generators on the worker hosts.

    Offers *offered_rate* lookups/s site-wide between ``t_load0`` and
    ``t_load1`` (outstanding calls capped per host, so the sim stays
    bounded). Returns the shared load-counters dict.
    """
    replicas = list(env.rc_replicas)
    load = {"offered": 0, "issued": 0, "ok": 0, "failed": 0, "ok_in_window": 0}

    def _load_gen(host_name: str):
        client = RpcClient(env.topology.hosts[host_name])
        rng = env.sim.rng.stream(f"overload.load.{host_name}")
        state = {"outstanding": 0, "rr": 0}

        def one_call(rhost: str, rport: int):
            try:
                yield client.call(rhost, rport, "rc.lookup",
                                  timeout=TIMEOUTS["rc.call"],
                                  uri=f"snipe://host/{rhost}")
                load["ok"] += 1
                if t_load0 <= env.sim.now <= t_load1:
                    load["ok_in_window"] += 1
            except RpcError:
                load["failed"] += 1
            finally:
                state["outstanding"] -= 1

        def gen():
            yield env.sim.timeout(max(0.0, t_load0 - env.sim.now))
            rate = offered_rate / len(workers)
            while env.sim.now < t_load1:
                yield env.sim.timeout(rng.expovariate(rate))
                load["offered"] += 1
                if state["outstanding"] >= max_outstanding:
                    load["failed"] += 1  # client-side shed: site hopeless
                    continue
                state["outstanding"] += 1
                load["issued"] += 1
                rhost, rport = replicas[state["rr"] % len(replicas)]
                state["rr"] += 1
                env.sim.process(one_call(rhost, rport),
                                name=f"ovl-call:{host_name}")

        env.sim.process(gen(), name=f"ovl-load:{host_name}")

    for w in workers:
        _load_gen(w)
    return load


def start_gray_sessions(
    env: SnipeEnvironment,
    workers: List[str],
    t0: float,
    t1: float,
    ops_per_session: int = 8,
    think: float = 0.05,
) -> Dict:
    """Closed-loop, short-lived catalog sessions on the worker hosts.

    Each session is a *fresh* :class:`RCClient` (fresh circuit breakers,
    fresh RTT estimates — the state a short-lived task starts with) doing
    ``ops_per_session`` sequential lookups, then closing. Closed-loop on
    purpose: a zombie replica's timeouts stall the session, so goodput
    reflects detection quality instead of hiding it the way open-loop
    fire-and-forget would. What persists across sessions is only the
    *host's* health board — exactly the differential-detector state the
    gray scenario measures.
    """
    from repro.rcds.client import RCClient

    stats = {"sessions": 0, "ops_ok": 0, "ops_failed": 0,
             "window": (t0, t1), "in_window": {}}

    def _sessions(host_name: str):
        host = env.topology.hosts[host_name]
        rng = env.sim.rng.stream(f"gray.load.{host_name}")

        def session():
            client = RCClient(host, list(env.rc_replicas), secret=env.secret)
            try:
                for _ in range(ops_per_session):
                    target = env.rc_replicas[rng.randrange(len(env.rc_replicas))][0]
                    try:
                        yield client.lookup(f"snipe://host/{target}")
                        stats["ops_ok"] += 1
                        key = int(env.sim.now)
                        stats["in_window"][key] = stats["in_window"].get(key, 0) + 1
                    except Exception:
                        stats["ops_failed"] += 1
                    yield env.sim.timeout(think)
            finally:
                client.close()

        def gen():
            yield env.sim.timeout(max(0.0, t0 - env.sim.now))
            while env.sim.now < t1:
                stats["sessions"] += 1
                yield env.sim.process(session(), name=f"gray-sess:{host_name}")
                yield env.sim.timeout(think)

        env.sim.process(gen(), name=f"gray-load:{host_name}")

    for w in workers:
        _sessions(w)
    return stats


def retire_times(env: SnipeEnvironment, stream: str, n_keys: int,
                 retire_frac: float, window: Tuple[float, float]
                 ) -> List[Optional[float]]:
    """Seeded retire time inside *window* for the first ``retire_frac`` of
    *n_keys* keys; None (never retired) for the rest."""
    rng = env.sim.rng.stream(stream)
    n_retire = int(n_keys * retire_frac)
    return [rng.uniform(*window) if i < n_retire else None for i in range(n_keys)]


def start_writers(
    env: SnipeEnvironment,
    name: str,
    uris: Sequence[str],
    retire_at: Sequence[Optional[float]],
    bind: Callable[[int], Tuple[Callable, Callable]],
    t0: float,
    t1: float,
    interval: float,
    errors: type,
    delete_pause: float = 0.0,
) -> Dict:
    """Per-key write loops, each ending in a retire (delete) or at *t1*.

    ``write, delete = bind(i)`` gives key *i*'s operations: ``write(n)``
    returns the event of its *n*-th write (a monotonic sequence number
    the quiescent checks compare replicas against), ``delete()`` that of
    its delete. Key *i* is written from *t0* every *interval* (±25%
    seeded jitter) until ``retire_at[i]`` — or *t1* when None — then,
    after *delete_pause*, deleted with up to five attempts. A failed
    operation raises *errors*. Returns the tracked-outcome dict:
    ``acked`` maps each live key to ``(n, t)`` of its last acknowledged
    write, ``retired`` each deleted key to the delete's ack time.
    """
    tracked: Dict = {
        "writes_ok": 0, "writes_failed": 0,
        "deletes_ok": 0, "deletes_failed": 0,
        "acked": {}, "retired": {}, "keys": list(uris),
    }

    def _writer(i: int) -> None:
        uri, retire_t = uris[i], retire_at[i]
        write, delete = bind(i)
        jitter = env.sim.rng.stream(f"{name}.load.k{i}")

        def writer():
            yield env.sim.timeout(max(0.0, t0 - env.sim.now))
            n = 0
            stop = retire_t if retire_t is not None else t1
            while env.sim.now < stop:
                n += 1
                try:
                    yield write(n)
                    tracked["writes_ok"] += 1
                    tracked["acked"][uri] = (n, env.sim.now)
                except errors:
                    tracked["writes_failed"] += 1
                yield env.sim.timeout(interval * (0.75 + 0.5 * jitter.random()))
            if retire_t is None:
                return
            if delete_pause:
                yield env.sim.timeout(delete_pause)
            for _ in range(5):
                try:
                    yield delete()
                    tracked["deletes_ok"] += 1
                    tracked["retired"][uri] = env.sim.now
                    tracked["acked"].pop(uri, None)
                    return
                except errors:
                    yield env.sim.timeout(0.5)
            tracked["deletes_failed"] += 1

        env.sim.process(writer(), name=f"{name}-load:k{i}")

    for i in range(len(uris)):
        _writer(i)
    return tracked


def visible_state(store, uri: str) -> Dict[str, Tuple]:
    """One replica's visible (non-deleted) assertions for *uri*, keyed by
    assertion name, as comparable ``(stamp, value)`` tuples."""
    out: Dict[str, Tuple] = {}
    for key, entry in store.data.get(uri, {}).items():
        if not entry.deleted:
            out[key] = (entry.wall, entry.lamport, entry.origin, entry.value)
    return out


# ---------------------------------------------------------------------------
# Check mode for the checkpointing-workload scenarios
# ---------------------------------------------------------------------------

class WorkerScenario(Scenario):
    """Check mode shared by the scenarios that run the checkpointing
    workload on the star site: the convergence, delivery, single-owner,
    chunk and corruption oracles; ``check-w<i>`` workers reporting to a
    collector; and, when :attr:`must_finish`, an early stop once every
    worker completed past the last fault plus a completion/convergence
    verdict at quiescence."""

    #: Worker program the check run spawns.
    program = "chaos-worker"
    #: Every worker must complete within the budget (liveness).
    must_finish = True

    def check_env(self, seed, p):
        return build_chaos_env(seed, p["n_workers"])

    def check_oracles(self, run: CheckRun) -> None:
        sim = run.sim
        run.convergence = ConvergenceOracle(sim)
        run.convergence.attach(run.env)
        run.watch(run.convergence)
        run.delivery = run.watch(DeliveryOracle(sim))
        run.watch(SingleOwnerOracle(sim))
        run.watch(ChunkOracle(sim))  # inert unless something moves bulk data
        run.watch(CorruptionOracle(sim))

    def install_programs(self, run: CheckRun) -> None:
        run.coll_state = new_coll_state()
        install_chaos_programs(run.env, {}, run.coll_state)

    def start_load(self, run: CheckRun) -> None:
        """Extra load beside the workers (before the plan is armed)."""

    def check_start(self, run: CheckRun) -> None:
        env, p = run.env, run.p
        self.install_programs(run)
        env.settle(2.0)
        _, run.urns = spawn_workload(env, run.hosts, "check", self.program,
                                     p["total"], 3, p["step"])
        run.heal_end = 0.0
        self.start_load(run)
        apply_fault_plan(env, run.plan)
        run.fault_end = max((e.t + e.duration for e in run.plan), default=0.0)

    def completed(self, run: CheckRun) -> int:
        done = run.coll_state["done"]
        return sum(1 for u in run.urns if done.get(u) == run.p["total"])

    def check_done(self, run: CheckRun) -> bool:
        return (self.must_finish
                and len(run.coll_state["done"]) == len(run.urns)
                and run.sim.now > run.fault_end + 6.0
                and run.sim.now > run.heal_end + 6.0)

    def check_quiescent(self, run: CheckRun) -> None:
        run.settle(4.0)  # drain queues, let anti-entropy converge
        if self.must_finish and not run.violations:
            completed = self.completed(run)
            if completed == len(run.urns):
                run.convergence.check_quiescent(run.urns)
            else:
                run.violate(
                    "liveness",
                    f"only {completed}/{len(run.urns)} workers completed within "
                    f"the {run.p['duration']:.0f}s budget",
                )
            run.sweep()

    def check_summary(self, run: CheckRun) -> Dict:
        return {
            "completed": self.completed(run),
            "workers": len(run.urns),
            "recoveries": sum(len(g.recoveries) for g in run.env.guardians.values()),
            "delivered": run.delivery.delivered,
            "heal": None,
        }
