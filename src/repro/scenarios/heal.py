"""Heal (experiment E16): a catalog replica partitioned past the
compaction horizon under write/delete load, then healed.

A chaos run has two fault shapes against the replicated catalog under
sustained per-key write/delete load pinned to fixed replicas (so both
sides of a cut keep accepting divergent writes):

* **partition** (default): the core LAN is split ``{c2} | {c0, c1}``
  for :data:`PART_FOR` seconds — long past the replicas' peer-staleness
  horizon, so the majority side compacts its logs while the minority
  diverges — then healed. The run measures how long the three replicas
  take to reconverge on every tracked key, the largest anti-entropy
  payload used to get there, control-plane p99 during the storm, and
  whether any lease heartbeat was lost to sync traffic.
* **blackout** (``blackout=True``): every replica crashes at once
  (memory gone, per-host disk dicts survive) and recovers
  :data:`BLACKOUT_FOR` seconds later. With no surviving replica to copy
  from, the catalog — including tombstones for keys deleted before the
  crash — must come back from the durable snapshot + journal.

``bounded=False`` is the E16 baseline: compaction off and the legacy
single-blob ``rc.sync`` exchange, whose payload grows with the whole
divergence and ships on the control lane. A check run isolates one
replica past the compaction horizon with the resurrection and
compaction-convergence oracles watching.
"""

from __future__ import annotations

from typing import Dict

from repro.check.explore import FaultEvent
from repro.check.oracles import CompactionOracle, ResurrectionOracle
from repro.obs.slo import _metric_value
from repro.rcds import uri as uri_mod
from repro.robust import TIMEOUTS
from repro.robust.overload import CONTROL
from repro.rpc import RpcClient, RpcError
from repro.scenarios.harness import Flag
from repro.scenarios.workloads import (
    WorkerScenario,
    build_chaos_env,
    retire_times,
    start_gray_sessions,
    start_writers,
    visible_state,
)

#: Partition window of the chaos run: ``{c2} | {c0, c1}``.
PART_AT = 8.0
PART_FOR = 60.0
#: Blackout window: every replica down at once.
BLACKOUT_AT = 10.0
BLACKOUT_FOR = 6.0
#: Tracked keys under write/delete load.
N_KEYS = 24
#: Anti-entropy payload bound (records per batch) of the bounded sync.
MAX_SYNC_RECORDS = 64
#: Default budgets: partition run, blackout run.
DURATION = 100.0
BLACKOUT_DURATION = 40.0


def start_heal_sessions(env, workers, t0, t1, n_keys, interval, value_pad,
                        retire_window, retire_frac=0.25) -> Dict:
    """Sustained per-key write/delete load against *pinned* replicas.

    Each key is written by one worker to one fixed replica (a direct
    :class:`RpcClient`, deliberately *without* failover) so that during
    a partition both sides keep accepting divergent writes — the worst
    case anti-entropy has to heal. The first ``retire_frac`` of the keys
    stop being written at a seeded time inside *retire_window* and are
    then deleted through the *next* replica in the ring, which during
    the partition usually sits on the other side of the cut: exactly the
    write-here/delete-there pair that tombstone resurrection bugs need.

    Values carry ``value_pad`` bytes of padding and a monotonic sequence
    prefix (``"<n>:xxx..."``), so the report can check that what the
    replicas converge on is at least as new as the last acknowledged
    write per key.
    """
    replicas = list(env.rc_replicas)
    uris = [f"snipe://heal/k{i}" for i in range(n_keys)]
    clients: Dict[str, RpcClient] = {}

    def bind(i):
        uri, pin = uris[i], replicas[i % len(replicas)]
        deleter = replicas[(i + 1) % len(replicas)]
        wname = workers[i % len(workers)]
        rpc = clients.setdefault(wname, RpcClient(env.topology.hosts[wname],
                                                  secret=env.secret))

        def write(n):
            return rpc.call(pin[0], pin[1], "rc.update", timeout=TIMEOUTS["rc.call"],
                            uri=uri, assertions={"v": f"{n}:" + "x" * value_pad})

        def delete():
            return rpc.call(deleter[0], deleter[1], "rc.delete",
                            timeout=TIMEOUTS["rc.call"], uri=uri, keys=None)

        return write, delete

    retire = retire_times(env, "heal.load", n_keys, retire_frac, retire_window)
    return start_writers(env, "heal", uris, retire, bind, t0, t1, interval,
                         RpcError, delete_pause=0.5)


class Heal(WorkerScenario):
    name = "heal"
    summary = ("replica partitioned past the compaction horizon under "
               "write/delete load, then healed")
    defaults = dict(n_workers=4, duration=None, interval=0.4, value_pad=1024,
                    bounded=True, blackout=False)
    switches = (
        Flag("--unbounded", "bounded", False,
             "baseline: legacy single-blob rc.sync on the control lane, no "
             "compaction, no payload bound"),
        Flag("--blackout", "blackout", True,
             "crash all three replicas at once instead of partitioning; the "
             "catalog must come back from the durable snapshots + journals"),
    )
    checks_key = "criteria"

    def params(self, **overrides):
        p = super().params(**overrides)
        if p["duration"] is None:
            p["duration"] = BLACKOUT_DURATION if p["blackout"] else DURATION
        return p

    def build(self, seed, p):
        if p["bounded"]:
            rc_server_kw = dict(
                max_sync_records=MAX_SYNC_RECORDS, compact_interval=1.0,
                peer_stale_after=8.0, log_keep_tail=16, snapshot_every=128,
            )
        else:
            rc_server_kw = dict(max_sync_records=None)
        return build_chaos_env(seed, p["n_workers"], rc_server_kw=rc_server_kw)

    def chaos(self, rig, workers, p):
        env, duration = rig.env, p["duration"]
        bounded, blackout = p["bounded"], p["blackout"]
        env.settle(2.0)

        heal_t = (BLACKOUT_AT + BLACKOUT_FOR) if blackout else (PART_AT + PART_FOR)
        # After a blackout the writers keep going for a while: the post-crash
        # writes prove the restored store still accepts and replicates work.
        monitor_from = heal_t + (6.0 if blackout else 0.0)
        if blackout:
            retire_window = (max(4.0, BLACKOUT_AT - 6.0), BLACKOUT_AT - 2.0)
        else:
            retire_window = (PART_AT + 0.3 * PART_FOR, PART_AT + 0.6 * PART_FOR)

        load = start_heal_sessions(
            env, workers, 3.0, monitor_from, N_KEYS, p["interval"], p["value_pad"],
            retire_window=retire_window,
        )
        sessions = start_gray_sessions(env, workers, 4.0, duration - 2.0)

        if blackout:
            for h in ("c0", "c1", "c2"):
                env.failures.host_down_at(BLACKOUT_AT, h, duration=BLACKOUT_FOR)
        else:
            env.failures.partition_at(PART_AT, ["c2"], ["c0", "c1"], duration=PART_FOR)

        stores = {name: srv.store for name, srv in env.rc_servers.items()}
        measures: Dict = {"reconverged_at": None, "diverged_at_heal": None}

        # Control-plane experience *during the heal window*, measured
        # directly: small CONTROL-lane lookups against every replica while
        # anti-entropy drains the partition backlog. This is the traffic an
        # unbounded sync blob head-of-line blocks on a single-threaded
        # replica — the cumulative histograms can't isolate the window.
        probe: Dict = {"lat": [], "failed": 0}

        def _probe_control():
            rpc = RpcClient(env.topology.hosts["gw"], secret=env.secret)
            yield env.sim.timeout(max(0.0, heal_t - env.sim.now))
            while env.sim.now < min(heal_t + 15.0, duration):
                for rhost, rport in env.rc_replicas:
                    t_op = env.sim.now
                    try:
                        yield rpc.call(rhost, rport, "rc.lookup",
                                       timeout=TIMEOUTS["rc.sync"], lane=CONTROL,
                                       uri=uri_mod.host_url(rhost))
                        probe["lat"].append(env.sim.now - t_op)
                    except RpcError:
                        probe["failed"] += 1
                yield env.sim.timeout(0.2)

        env.sim.process(_probe_control(), name="heal-control-probe")

        def _agreement() -> int:
            """Number of tracked keys the three replicas disagree on."""
            bad = 0
            for uri in load["keys"]:
                views = [visible_state(s, uri) for s in stores.values()]
                if uri in load["retired"]:
                    if any(views):
                        bad += 1
                elif any(v != views[0] for v in views[1:]):
                    bad += 1
            return bad

        def monitor():
            yield env.sim.timeout(max(0.0, monitor_from - env.sim.now))
            measures["diverged_at_heal"] = _agreement()
            while True:
                if _agreement() == 0:
                    measures["reconverged_at"] = env.sim.now
                    return
                yield env.sim.timeout(0.25)

        env.sim.process(monitor(), name="heal-monitor")
        env.run(until=duration)
        env.settle(4.0)

        # -- measurements ------------------------------------------------------
        export = env.sim.obs.metrics.export()
        snap = env.sim.obs.metrics.snapshot()
        max_batch = _metric_value(export, "rcds.sync_batch_records", "max")
        lat = sorted(probe["lat"])
        control_p99 = lat[int(0.99 * (len(lat) - 1))] if lat else None
        hb_failed = int(sum(d.heartbeats_failed for d in env.daemons.values()))
        hb_failovers = int(sum(d.rc.failovers for d in env.daemons.values()))
        replica_stats = {name: srv._h_stats({}) for name, srv in env.rc_servers.items()}
        reconverge_s = (measures["reconverged_at"] - monitor_from
                        if measures["reconverged_at"] is not None else None)

        resurrected = [(uri, name) for uri in load["retired"]
                       for name, store in stores.items() if visible_state(store, uri)]
        stale = []
        for uri, (n_acked, _) in load["acked"].items():
            for name, store in stores.items():
                got = visible_state(store, uri).get("v")
                n_got = int(got[3].split(":")[0]) if got else None
                if n_got is None or n_got < n_acked:
                    stale.append((uri, name, n_got, n_acked))

        criteria = [
            ("replicas-reconverged",
             reconverge_s is not None,
             (f"all {len(load['keys'])} tracked keys agree on every replica "
              f"{reconverge_s:.2f}s after heal "
              f"({measures['diverged_at_heal']} keys diverged at heal)")
             if reconverge_s is not None
             else f"still diverged at t={env.sim.now:.0f}s "
                  f"({_agreement()} keys disagree)"),
            ("no-resurrection",
             not resurrected,
             f"{len(load['retired'])} keys deleted"
             + (f"; resurrected: {sorted(set(resurrected))[:4]}" if resurrected
                else ", none came back")),
            ("writes-survive",
             not stale,
             f"{len(load['acked'])} live keys at or past their last acked write"
             + (f"; stale/missing: {stale[:4]}" if stale else "")),
        ]
        if bounded:
            criteria.append((
                "payload-bounded",
                max_batch <= MAX_SYNC_RECORDS,
                f"largest sync payload {max_batch:.0f} records "
                f"(bound {MAX_SYNC_RECORDS})",
            ))
            criteria.append((
                "control-responsive-during-heal",
                control_p99 is not None and control_p99 <= 0.5
                and probe["failed"] == 0,
                "heal-window control p99 "
                + (f"{control_p99 * 1000:.0f}ms" if control_p99 is not None
                   else "n/a")
                + f", {probe['failed']} probe failures",
            ))
            if not blackout:
                criteria.append((
                    "zero-lost-heartbeats",
                    hb_failed == 0 and hb_failovers == 0,
                    f"{hb_failed} lease heartbeats failed, "
                    f"{hb_failovers} had to fail over",
                ))
        if blackout:
            restores = {name: srv.restores for name, srv in env.rc_servers.items()}
            criteria.append((
                "durable-restore",
                all(r >= 1 for r in restores.values())
                and all(s.record_count() > 0 for s in stores.values()),
                f"restores per replica {restores}, "
                f"records {[s.record_count() for s in stores.values()]}",
            ))

        return criteria, {
            "mode": "blackout" if blackout else "partition",
            "bounded": bounded,
            "bound": MAX_SYNC_RECORDS if bounded else None,
            "workers": p["n_workers"],
            "n_keys": N_KEYS,
            "value_pad": p["value_pad"],
            "fault_window": ((BLACKOUT_AT, heal_t) if blackout
                             else (PART_AT, heal_t)),
            "heal_t": heal_t,
            "reconverge_s": reconverge_s,
            "diverged_at_heal": measures["diverged_at_heal"],
            "max_sync_batch": max_batch,
            "control_p99": control_p99,
            "control_max": lat[-1] if lat else None,
            "control_probe_failed": probe["failed"],
            "heartbeats_failed": hb_failed,
            "heartbeat_failovers": hb_failovers,
            "writes_ok": load["writes_ok"],
            "writes_failed": load["writes_failed"],
            "deletes_ok": load["deletes_ok"],
            "deletes_failed": load["deletes_failed"],
            "retired": len(load["retired"]),
            "resurrected": sorted(set(resurrected)),
            "stale_keys": stale,
            "sync_failures": {k: int(v) for k, v in snap.items()
                              if k.startswith("rcds.sync_failures")},
            "snapshot_catchups": sum(s["snapshot_catchups"]
                                     for s in replica_stats.values()),
            "replica_stats": replica_stats,
            "lookup_ops_ok": sessions["ops_ok"],
            "lookup_ops_failed": sessions["ops_failed"],
        }

    def header(self, report):
        rc = report["reconverge_s"]
        sync = ("bounded<=" + str(report["bound"]) if report["bounded"]
                else "unbounded (baseline)")
        return [
            f"heal run: seed={report['seed']} mode={report['mode']} sync={sync}",
            "",
            f"fault window t={report['fault_window'][0]:.0f}.."
            f"{report['fault_window'][1]:.0f}s, {report['n_keys']} keys, "
            f"{report['writes_ok']} writes ok / {report['writes_failed']} failed, "
            f"{report['deletes_ok']} deletes ({report['retired']} keys retired)",
            "  reconvergence: "
            + (f"{rc:.2f}s after heal ({report['diverged_at_heal']} keys diverged)"
               if rc is not None else "NEVER"),
            f"  largest sync payload: {report['max_sync_batch']:.0f} records"
            + (f" (bound {report['bound']})" if report["bounded"] else ""),
            "  heal-window control p99 "
            + (f"{report['control_p99'] * 1000:.0f}ms" if report["control_p99"]
               is not None else "n/a")
            + (f" (max {report['control_max'] * 1000:.0f}ms, "
               f"{report['control_probe_failed']} probe failures)"
               if report["control_max"] is not None else "")
            + f", heartbeats lost {report['heartbeats_failed']} "
            f"(failovers {report['heartbeat_failovers']}), "
            f"snapshot catch-ups {report['snapshot_catchups']}",
            f"  sync failures by cause: {report['sync_failures'] or '{}'}",
        ]

    def sweep_fields(self, report):
        rc, p99 = report["reconverge_s"], report["control_p99"]
        return (f"reconverge={'%.2fs' % rc if rc is not None else 'never'} "
                f"max_batch={report['max_sync_batch']:.0f} "
                f"ctl_p99={'%.0fms' % (p99 * 1000) if p99 is not None else 'n/a'} "
                f"hb_fo={report['heartbeat_failovers']} "
                f"resurrected={len(report['resurrected'])} ")

    # -- check mode -----------------------------------------------------------
    def check_env(self, seed, p):
        # Aggressive compaction, so the horizon provably moves while one
        # replica is cut off and anti-entropy must heal across it (via
        # gap-refusing batches and snapshot catch-up) rather than replay
        # a complete log.
        return build_chaos_env(seed, p["n_workers"], rc_server_kw=dict(
            compact_interval=1.0, peer_stale_after=6.0, max_sync_records=32,
            snapshot_every=64, log_keep_tail=8))

    def sample_plan(self, rng, workers, horizon):
        # One catalog replica isolated from the other two for longer than
        # the stability window (peer_stale_after + compact_interval), so
        # log compaction provably runs *while the cut is up* and the heal
        # has to cross the compaction horizon — gapped batches, snapshot
        # catch-up, and tombstone GC discipline are all on the path.
        iso = ("c0", "c1", "c2")[rng.randrange(3)]
        rest = ",".join(r for r in ("c0", "c1", "c2") if r != iso)
        return [FaultEvent("split", f"{iso}|{rest}",
                           round(rng.uniform(4.0, 10.0), 2),
                           round(rng.uniform(12.0, 18.0), 2))]

    def check_oracles(self, run):
        super().check_oracles(run)
        # Attach order matters: ConvergenceOracle.attach *sets* the
        # stores' on_apply slot; these two chain onto it.
        run.resurrection = ResurrectionOracle(run.sim)
        run.resurrection.attach(run.env)
        run.compaction = CompactionOracle(run.sim)
        run.compaction.attach(run.env)
        run.watch(run.resurrection, subscribe=False)
        run.watch(run.compaction, subscribe=False)

    def start_load(self, run):
        # Per-key write/delete load pinned to fixed replicas, with the
        # retirements (write-here/delete-there pairs) seeded *inside*
        # the split window so the tombstone and the stale live write
        # land on opposite sides of the cut.
        duration = run.p["duration"]
        splits = [e for e in run.plan if e.kind == "split"]
        if splits:
            retire_window = (splits[0].t + 0.35 * splits[0].duration,
                             splits[0].t + 0.65 * splits[0].duration)
        else:  # a shrunk plan may have dropped the split entirely
            retire_window = (duration * 0.2, duration * 0.3)
        run.heal_end = duration * 0.55
        run.heal = start_heal_sessions(
            run.env, run.hosts, 3.0, run.heal_end, 18, 0.35, 256,
            retire_frac=0.3, retire_window=retire_window)

    def check_quiescent(self, run):
        super().check_quiescent(run)
        if run.violations:
            return
        run.resurrection.check_quiescent()
        run.compaction.check_quiescent(prefix="snipe://heal/")
        for uri in sorted(run.heal["retired"]):
            holders = sorted(r for r, srv in run.env.rc_servers.items()
                             if srv.store.lookup(uri))
            if holders:
                run.violate("no-resurrection",
                            f"retired key {uri} still visible on "
                            f"{', '.join(holders)} after its delete was "
                            f"acknowledged")
        run.sweep()

    def check_summary(self, run):
        servers = run.env.rc_servers.values()
        tracked = run.heal
        return {
            **super().check_summary(run),
            "heal": {
                "writes_ok": tracked["writes_ok"],
                "writes_failed": tracked["writes_failed"],
                "deletes_ok": tracked["deletes_ok"],
                "deletes_failed": tracked["deletes_failed"],
                "retired": len(tracked["retired"]),
                "compactions": sum(s.store.compactions for s in servers),
                "tombstones_collected": sum(s.store.tombstones_collected for s in servers),
                "snapshot_catchups": sum(s.snapshot_catchups for s in servers),
            },
        }


SCENARIO = Heal()
