"""Shard (experiment E18's fault case): the sharded catalog splitting
under write load while faults race the migration.

Write/delete load through the sharded facade drives the ``app`` shard
past its split threshold while seeded faults land mid-migration: a core
host (carrying shard replicas) crashes and recovers, and one worker is
partitioned away and heals. At quiescence a chaos run requires:

* **splits-exercised** — the load actually forced at least one split,
  so the faults raced a migration rather than a quiet map;
* **groups-converged** — within every shard replica group, the replicas
  agree on the visible state of every tracked name (per-shard LWW
  convergence);
* **placement-clean** — every live tracked name is visible *only* in the
  group that owns it under the final map: in particular no name is
  visible in both a split parent and its child;
* **writes-survive** — each live key's converged value is at least its
  last acknowledged write, and no retired key resurrected;
* **queries-complete** — a scatter-gather prefix query through the
  facade returns exactly the live tracked keys.

A check run judges every locally accepted record with the
shard-ownership oracle (no origination without current-epoch ownership)
and the convergence oracle mirroring every replica, root and shard
groups alike.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.check.explore import FaultEvent, apply_fault_plan
from repro.check.oracles import ConvergenceOracle, ShardOracle
from repro.core.environment import SnipeEnvironment
from repro.rcds.client import QUORUM, ConsistencyError
from repro.rcds.records import MOVED
from repro.scenarios.harness import Scenario
from repro.scenarios.workloads import retire_times, start_writers, visible_state

#: Tracked keys under write/delete load, and the per-key write interval.
N_KEYS = 48
INTERVAL = 0.25
#: Records that make the ``app`` shard split.
SPLIT_THRESHOLD = 24
#: The site has room for at most this many isolated workers.
MAX_WORKERS = 3


def build_shard_env(seed: int, n_workers: int) -> Tuple[SnipeEnvironment, List[str]]:
    """The shard site: a sharded catalog on the core hosts, workers each
    alone behind the gateway so they can be isolated.

    The root directory group sits at the usual RC port on c0/c1/c2; one
    initial ``app`` shard owns ``snipe://app/`` with its replica group on
    the same core hosts (different port). The director runs on the
    gateway — deliberately off the core hosts, so a core crash stresses
    the shard groups without also beheading map publication."""
    env = SnipeEnvironment(seed=seed)
    env.add_segment("core-lan")
    for name in ("c0", "c1", "c2"):
        env.add_host(name, segments=["core-lan"])
    gw = env.add_host("gw", segments=["core-lan"], forwarding=True)
    workers = []
    for i in range(n_workers):
        seg = env.add_segment(f"s-w{i}")
        env.topology.connect(gw, seg)
        env.add_host(f"w{i}", segments=[f"s-w{i}"], arch="worker")
        workers.append(f"w{i}")
    env.add_rc_servers(["c0", "c1", "c2"], sharded=True)
    mgr = env.enable_sharding(split_threshold=SPLIT_THRESHOLD, replicas_per_shard=3,
                              director_host="gw")
    mgr.add_shard("app", ("snipe://app/",))
    mgr.start()
    mgr.seed_map()
    return env, workers


def start_shard_sessions(env, workers, t0, t1, retire_window) -> Dict:
    """Closed-loop write/delete load through the sharded facade.

    Every key is written at QUORUM through a :class:`ShardedRCClient`
    (each worker host gets one), with a monotonic sequence number as the
    value — an ack means a majority of the *owning* group at that epoch
    accepted it, which is exactly the durability the quiescent checks
    hold the federation to while splits move the ownership under the
    writers. The first 20% of the keys stop at a seeded time inside
    *retire_window* and are deleted; a retired key reappearing after
    migration with a stamp *older* than its delete is a resurrection
    across the split boundary. (A strictly newer stamp is not: an
    abandoned write kept alive by transport retransmission can land
    after the delete and win LWW — base-catalog semantics the shard
    layer must preserve, not mask.)"""
    # Structured names so splits have a radix to bite on.
    uris = [f"snipe://app/g{i % 4}/k{i:03d}" for i in range(N_KEYS)]

    def bind(i):
        uri, client = uris[i], env.rc_client(workers[i % len(workers)])
        return (lambda n: client.update(uri, {"v": n}, consistency=QUORUM),
                lambda: client.delete(uri, consistency=QUORUM))

    retire = retire_times(env, "shard.load", N_KEYS, 0.2, retire_window)
    return start_writers(env, "shard", uris, retire, bind, t0, t1, INTERVAL,
                         ConsistencyError)


class Shard(Scenario):
    name = "shard"
    summary = ("sharded catalog splitting under write load while a shard "
               "replica crashes and a worker is partitioned")
    defaults = dict(n_workers=3, duration=90.0)
    limits = {"n_workers": MAX_WORKERS}

    def build(self, seed, p):
        return build_shard_env(seed, p["n_workers"])

    def chaos(self, rig, workers, p):
        env, duration = rig.env, p["duration"]
        mgr = env.shard_manager
        env.settle(2.0)

        fault_stop = duration * 0.5
        load = start_shard_sessions(env, workers, 3.0, fault_stop + 10.0,
                                    (fault_stop * 0.5, fault_stop * 0.9))

        rng = env.sim.rng.stream("shard-chaos.schedule")
        core = ["c1", "c2"]  # c0 carries the director's RC client: keep it up
        victim = core[rng.randrange(len(core))]
        t_crash = rng.uniform(8.0, fault_stop * 0.6)
        d_crash = rng.uniform(4.0, 8.0)
        env.failures.host_down_at(t_crash, victim, duration=d_crash)
        w = workers[rng.randrange(len(workers))]
        t_part = rng.uniform(8.0, fault_stop * 0.7)
        d_part = rng.uniform(4.0, 8.0)
        env.failures.segment_down_at(t_part, f"s-{w}", duration=d_part)
        events = sorted([
            f"t={t_crash:5.1f}s crash {victim} (shard replicas) for {d_crash:.1f}s",
            f"t={t_part:5.1f}s partition {w} for {d_part:.1f}s",
        ])

        env.run(until=duration)
        env.settle(12.0)  # anti-entropy + handoff janitors drain

        # -- quiescent checks -------------------------------------------------
        final_map = mgr.map
        groups = dict(mgr.servers)
        tracked_set = set(load["keys"])

        def views_in(sid: str, uri: str) -> List[Dict]:
            return [visible_state(s.store, uri) for s in groups[sid].values()]

        diverged: List[Tuple[str, str]] = []
        misplaced: List[Tuple[str, str]] = []
        dual: List[str] = []
        for uri in sorted(tracked_set):
            owner_sid = final_map.route(uri)
            visible_in: List[str] = []
            for sid in groups:
                views = views_in(sid, uri)
                if any(v != views[0] for v in views[1:]):
                    diverged.append((uri, sid))
                if any(views):
                    visible_in.append(sid)
                    if sid != owner_sid:
                        misplaced.append((uri, sid))
            if len(visible_in) > 1:
                dual.append(uri)

        # LWW-honest survival checks: an entry stamped at/after the last ack
        # (or the delete) is a *later* write that legitimately won — e.g. an
        # abandoned RPC replayed by the transport after a partition healed.
        # What the shard layer must never produce is an *older* stamp
        # resurfacing: that is a record lost or replayed across a migration.
        eps = 1.0
        stale: List[Tuple[str, str, Optional[int], int]] = []
        for uri, (n_acked, t_acked) in load["acked"].items():
            views = views_in(final_map.route(uri), uri)
            got = views[0].get("v") if views and views[0] else None
            if got is None:
                stale.append((uri, final_map.route(uri), None, n_acked))
            elif got[3] < n_acked and got[0] < t_acked - eps:
                stale.append((uri, final_map.route(uri), got[3], n_acked))
        resurrected = []
        zombie_revived = 0
        for uri, t_deleted in load["retired"].items():
            for sid in groups:
                views = [v for v in views_in(sid, uri) if v]
                if not views:
                    continue
                got = views[0].get("v")
                if got is not None and got[0] >= t_deleted - eps:
                    zombie_revived += 1  # newer stamp: a legitimate LWW winner
                else:
                    resurrected.append((uri, sid))

        # Ground truth for the federation query: what the owning groups
        # actually hold live at quiescence (acked state modulo zombies).
        truth = sorted(uri for uri in tracked_set
                       if any(views_in(final_map.route(uri), uri)))
        client = env.rc_client(workers[0])
        queried = [u for u in env.run(until=client.query("snipe://app/"))
                   if u in tracked_set]
        query_missing = sorted(set(truth) - set(queried))
        query_extra = sorted(set(queried) - set(truth))

        replicas = [s for g in groups.values() for s in g.values()]
        handoffs = sum(s.handoffs for s in replicas)
        moved_markers = sum(
            1 for s in replicas for bucket in s.store.data.values()
            for e in bucket.values() if e.deleted and e.value == MOVED)

        invariants = [
            ("splits-exercised",
             mgr.splits >= 1,
             f"{mgr.splits} splits, map at epoch {final_map.epoch} with "
             f"{len(final_map.shards)} shards; {handoffs} records handed off"),
            ("groups-converged",
             not diverged,
             "every shard replica group agrees on every tracked name"
             if not diverged else f"diverged (uri, shard): {diverged[:4]}"),
            ("placement-clean",
             not misplaced and not dual,
             f"every live name only in its owning group "
             f"({moved_markers} migration tombstones left behind)"
             if not (misplaced or dual)
             else f"misplaced: {misplaced[:4]}; parent+child visible: {dual[:4]}"),
            ("writes-survive",
             not stale and not resurrected,
             f"{len(load['acked'])} live keys at/past last acked write, "
             f"{len(load['retired'])} retired keys stayed deleted "
             f"({zombie_revived} revived by later-stamped in-flight writes)"
             if not (stale or resurrected)
             else f"stale: {stale[:4]}; resurrected: {resurrected[:4]}"),
            ("queries-complete",
             not query_missing and not query_extra,
             f"facade query returned all {len(truth)} live keys"
             if not (query_missing or query_extra)
             else f"missing: {query_missing[:4]}; extra: {query_extra[:4]}"),
        ]
        return invariants, {
            "workers": p["n_workers"],
            "n_keys": N_KEYS,
            "split_threshold": SPLIT_THRESHOLD,
            "events": events,
            "fault_log": list(env.failures.log),
            "splits": mgr.splits,
            "epoch": final_map.epoch,
            "shards": sorted(final_map.shards),
            "redirects": sum(s.redirects for s in replicas),
            "redirect_retries": sum(
                c.redirect_retries for c in env._clients.values()
                if hasattr(c, "redirect_retries")),
            "handoffs": handoffs,
            "writes_ok": load["writes_ok"],
            "writes_failed": load["writes_failed"],
            "deletes_ok": load["deletes_ok"],
            "retired": len(load["retired"]),
        }

    def header(self, report):
        lines = [
            f"shard chaos run: seed={report['seed']} workers={report['workers']} "
            f"keys={report['n_keys']} split_threshold={report['split_threshold']}",
            "",
            "fault schedule:",
        ]
        lines += [f"  {e}" for e in report["events"]] or ["  (none)"]
        lines.append("")
        lines.append(
            f"federation  : {len(report['shards'])} shards at epoch "
            f"{report['epoch']} after {report['splits']} splits: "
            f"{', '.join(report['shards'])}")
        lines.append(
            f"migration   : {report['handoffs']} records handed off, "
            f"{report['redirects']} stale-epoch redirects fenced, "
            f"{report['redirect_retries']} client re-routes")
        lines.append(
            f"load        : {report['writes_ok']} writes ok / "
            f"{report['writes_failed']} failed, {report['deletes_ok']} deletes "
            f"({report['retired']} keys retired)")
        return lines

    def sweep_fields(self, report):
        return (f"splits={report['splits']} epoch={report['epoch']} "
                f"redirects={report['redirects']} "
                f"handoffs={report['handoffs']} ")

    # -- check mode -----------------------------------------------------------
    def check_env(self, seed, p):
        return build_shard_env(seed, min(p["n_workers"], MAX_WORKERS))

    def sample_plan(self, rng, workers, horizon):
        # A core host carrying shard replicas crashes mid-migration (c0
        # stays up: it serves the director's own RC client), and one
        # worker segment is cut so its facade re-routes on a stale map
        # after the heal. Faults land while the write load is forcing
        # splits, so every run races handoff against them.
        core = ("c1", "c2")[rng.randrange(2)]
        plan = [FaultEvent("crash", core,
                           round(rng.uniform(8.0, horizon * 0.6), 2),
                           round(rng.uniform(4.0, 8.0), 2))]
        w = workers[rng.randrange(len(workers))]
        plan.append(FaultEvent("partition", f"s-{w}",
                               round(rng.uniform(8.0, horizon * 0.7), 2),
                               round(rng.uniform(4.0, 8.0), 2)))
        return plan

    def check_oracles(self, run):
        run.convergence = ConvergenceOracle(run.sim)
        run.convergence.attach(run.env)
        run.watch(run.convergence)
        run.shard = ShardOracle(run.sim)
        run.shard.attach(run.env)
        run.watch(run.shard)

    def check_start(self, run):
        run.env.settle(2.0)
        fault_stop = run.p["duration"] * 0.5
        run.load = start_shard_sessions(run.env, run.hosts, 3.0, fault_stop + 10.0,
                                        (fault_stop * 0.5, fault_stop * 0.9))
        apply_fault_plan(run.env, run.plan)

    def check_quiescent(self, run):
        run.settle(12.0)  # anti-entropy + handoff janitors drain
        if run.violations:
            return
        mgr = run.env.shard_manager
        if mgr.splits < 1:
            run.violate("liveness",
                        f"the load never forced a split (threshold "
                        f"{SPLIT_THRESHOLD}, {run.load['writes_ok']} writes "
                        f"acked) — the scenario exercised no migration")
        run.shard.check_quiescent(mgr)
        run.sweep()

    def check_summary(self, run):
        mgr = run.env.shard_manager
        return {
            "completed": len(run.load["retired"]),
            "workers": len(run.hosts),
            "recoveries": 0,
            "delivered": run.load["writes_ok"],
            "splits": mgr.splits,
            "epoch": mgr.map.epoch,
            "shards": sorted(mgr.map.shards),
            "local_accepts": run.shard.local_accepts,
        }

    def describe(self, report):
        return (f"splits={report['splits']} epoch={report['epoch']} "
                f"shards={len(report['shards'])} writes={report['delivered']} "
                f"retired={report['completed']}")


SCENARIO = Shard()
