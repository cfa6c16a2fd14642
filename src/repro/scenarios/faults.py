"""Faults: host crashes, churn and worker partitions over a checkpointing
workload, with the Guardians repairing the damage.

Builds the star site (a stable service core, plus workers that are each
alone on a private segment behind a gateway), runs a checkpointing
workload across the workers, and drives a seeded schedule of host
crashes and partitions against them. After quiescence a chaos run
checks the system-wide invariants that self-healing must preserve:

* **completed-exactly-once** — every submitted task reports exactly one
  effective completion (duplicate reports are deduplicated and counted,
  and must agree on the result);
* **no-incarnation-regression** — the incarnations a receiver accepts
  per task never decrease, and every Guardian recovery strictly raised
  the incarnation;
* **catalogs-converged** — after anti-entropy settles, every RC replica
  independently reports the same terminal state for every task;
* **no-silent-loss** — every unit of work was reported (restart suffix
  re-reports are fine, gaps are not), no envelope is still parked in a
  reorder buffer, and everything the workers got an ack for was either
  delivered, deduplicated, or deliberately fenced at the receiver.

Worker segments go down *without* the worker host crashing — that is the
zombie scenario: the Guardian (correctly, per its lease evidence)
declares the worker dead and respawns it, and the fencing machinery must
then keep the surviving original from double-executing. Host crashes use
the refcounted injector one-shots, so overlapping fault windows compose.
"""

from __future__ import annotations

from typing import Dict, List

from repro.check.explore import FaultEvent
from repro.daemon.tasks import TaskState
from repro.rcds.server import RC_PORT
from repro.rpc import RpcClient
from repro.scenarios.harness import Flag
from repro.scenarios.workloads import (
    WorkerScenario,
    build_chaos_env,
    install_chaos_programs,
    new_coll_state,
    spawn_workload,
)


def _schedule_faults(env, workers: List[str], fault_stop: float,
                     churn: bool, partitions: bool) -> List[str]:
    """Seeded fault plan. All faults start after t=3 (first checkpoints
    are durable by then) and end by *fault_stop* so the system can
    quiesce; every window has a recovery."""
    rng = env.sim.rng.stream("chaos.schedule")
    events: List[str] = []
    if churn:
        # Scheduled crash/repair windows (refcount-safe when overlapping).
        n_crashes = max(2, len(workers))
        for _ in range(n_crashes):
            w = workers[rng.randrange(len(workers))]
            t = rng.uniform(3.0, fault_stop * 0.8)
            d = rng.uniform(1.5, 6.0)
            env.failures.host_down_at(t, w, duration=d)
            events.append(f"t={t:5.1f}s crash {w} for {d:.1f}s")
        # Plus Poisson churn on half the fleet for good measure.
        victims = workers[::2]

        def start_churn():
            yield env.sim.timeout(3.0)
            env.failures.churn_hosts(victims, mtbf=15.0, mttr=2.0,
                                     stop_at=fault_stop)

        env.sim.process(start_churn(), name="chaos:churn-start")
        events.append(f"t=  3.0s churn mtbf=15s mttr=2s on {victims} until t={fault_stop:.0f}s")
    if partitions:
        for _ in range(max(1, len(workers) // 2)):
            w = workers[rng.randrange(len(workers))]
            t = rng.uniform(4.0, fault_stop * 0.8)
            d = rng.uniform(5.0, 10.0)
            env.failures.segment_down_at(t, f"s-{w}", duration=d)
            events.append(f"t={t:5.1f}s partition {w} for {d:.1f}s (host stays up: zombie)")
    events.sort()
    return events


def _check_catalogs(env, urns: List[str]):
    """Direct per-replica reads (no failover): do the replicas agree?"""
    client = RpcClient(env.topology.hosts["gw"])
    disagreements = []
    for urn in urns:
        states = {}
        for replica, _port in env.rc_replicas:
            try:
                assertions = yield client.call(replica, RC_PORT, "rc.lookup", uri=urn)
            except Exception:
                states[replica] = "<unreachable>"
                continue
            info = assertions.get("state")
            states[replica] = info["value"] if info else None
        if len(set(states.values())) != 1 or set(states.values()) != {TaskState.EXITED}:
            disagreements.append((urn, states))
    client.close()
    return disagreements


class Faults(WorkerScenario):
    name = "faults"
    summary = "crash/partition chaos (default)"
    defaults = dict(n_workers=4, total=60, ckpt_every=4, duration=120.0,
                    churn=True, partitions=True, step=0.3)
    switches = (
        Flag("--no-churn", "churn", False, "disable host crash/churn"),
        Flag("--no-partitions", "partitions", False,
             "disable segment partitions (no zombie scenarios)"),
    )
    profile_as = "chaos"
    profile_defaults = {"duration": 60.0, "total": 30}

    def build(self, seed, p):
        return build_chaos_env(seed, p["n_workers"])

    def chaos(self, rig, workers, p):
        env, total, duration = rig.env, p["total"], p["duration"]
        acked: Dict[str, int] = {}
        coll_state = new_coll_state()
        install_chaos_programs(env, acked, coll_state)
        env.settle(2.0)
        coll, urns = spawn_workload(env, workers, "chaos", "chaos-worker",
                                    total, p["ckpt_every"], p["step"])

        fault_stop = min(duration * 0.45, 45.0)
        events = _schedule_faults(env, workers, fault_stop, p["churn"], p["partitions"])

        # Run to quiescence: everyone done, or the duration budget spent.
        deadline = env.sim.now + duration
        while env.sim.now < deadline:
            env.run(until=min(env.sim.now + 5.0, deadline))
            if len(coll_state["done"]) == len(urns) and env.sim.now > fault_stop + 12.0:
                break
        env.settle(3.0)  # let anti-entropy converge the catalogs

        recoveries = [r for g in env.guardians.values() for r in g.recoveries]
        unrecoverable: Dict[str, str] = {}
        for g in env.guardians.values():
            unrecoverable.update(g.unrecoverable)
        coll_ctx = env.daemons["c0"].contexts[coll.urn]

        invariants = []
        # 1. Every task completed exactly once.
        completed = [u for u in urns if coll_state["done"].get(u) == total]
        dups = sum(coll_state["dup_done"].values())
        invariants.append((
            "completed-exactly-once",
            len(completed) == len(urns) and not coll_state["mismatch"],
            f"{len(completed)}/{len(urns)} completed once; "
            f"{dups} duplicate reports deduplicated; "
            f"{len(coll_state['mismatch'])} result mismatches",
        ))
        # 2. Incarnations never regress.
        regressed = [
            u for u, incs in coll_state["incs"].items()
            if any(b < a for a, b in zip(incs, incs[1:]))
        ]
        bad_recs = [r for r in recoveries if (r["new_inc"] or 0) <= (r["old_inc"] or 0)]
        invariants.append((
            "no-incarnation-regression",
            not regressed and not bad_recs,
            f"{len(recoveries)} recoveries, all raised incarnation; "
            f"{len(regressed)} receivers saw a regression",
        ))
        # 3. Catalog replicas agree on terminal state.
        disagreements = env.run(until=env.sim.process(_check_catalogs(env, urns)))
        invariants.append((
            "catalogs-converged",
            not disagreements,
            "all replicas report state=exited for every task"
            if not disagreements else f"disagreeing records: {disagreements}",
        ))
        # 4. Nothing silently lost.
        missing = {
            u: sorted(set(range(1, total + 1)) - coll_state["progress"].get(u, set()))
            for u in urns
            if set(range(1, total + 1)) - coll_state["progress"].get(u, set())
        }
        held = sum(len(v) for v in coll_ctx._ooo.values())
        recv_events = coll_ctx.msgs_received + coll_ctx.msgs_deduped + coll_ctx.msgs_fenced
        acked_total = sum(acked.values())
        invariants.append((
            "no-silent-loss",
            not missing and held == 0 and recv_events >= acked_total,
            f"{acked_total} acked sends vs {coll_ctx.msgs_received} delivered + "
            f"{coll_ctx.msgs_deduped} deduped + {coll_ctx.msgs_fenced} fenced; "
            f"{held} parked out-of-order; missing work: {missing or 'none'}",
        ))

        latencies = [r["recovered_at"] - r["detected_at"] for r in recoveries]
        return invariants, {
            "workers": p["n_workers"],
            "total": total,
            "events": events,
            "fault_log": list(env.failures.log),
            "recoveries": recoveries,
            "unrecoverable": unrecoverable,
            "msgs_fenced": coll_ctx.msgs_fenced,
            "recovery_latency": {
                "count": len(latencies),
                "mean": sum(latencies) / len(latencies) if latencies else 0.0,
                "max": max(latencies) if latencies else 0.0,
            },
        }

    def header(self, report):
        lines = [
            f"chaos run: seed={report['seed']} workers={report['workers']} "
            f"x {report['total']} steps",
            "",
            "fault schedule:",
        ]
        lines += [f"  {e}" for e in report["events"]] or ["  (none)"]
        lines.append("")
        lines.append(f"recoveries: {len(report['recoveries'])}")
        for r in report["recoveries"]:
            lines.append(
                f"  {r['urn']}: {r['from']} -> {r['to']} "
                f"inc {r['old_inc']}->{r['new_inc']} "
                f"(detected t={r['detected_at']:.1f}s, recovered t={r['recovered_at']:.1f}s)"
            )
        if report["unrecoverable"]:
            lines.append(f"unrecoverable (no checkpoint): {report['unrecoverable']}")
        rl = report["recovery_latency"]
        if rl["count"]:
            lines.append(f"recovery latency: mean {rl['mean']:.2f}s, max {rl['max']:.2f}s")
        lines.append(f"fenced messages dropped at collector: {report['msgs_fenced']}")
        return lines

    def sweep_fields(self, report):
        return (f"recoveries={len(report['recoveries'])} "
                f"fenced={report['msgs_fenced']} ")

    def sample_plan(self, rng, workers, horizon):
        # The mandatory partition must outlast the Guardian's detection
        # horizon (lease lapse + grace + probe-confirmed death), or no
        # recovery ever starts while the victim is still alive and the
        # zombie/fencing chain goes untested. Probe confirmation added
        # several seconds to that horizon; durations shorter than ~12s
        # heal before a death is ever declared.
        w = workers[rng.randrange(len(workers))]
        plan = [FaultEvent("partition", f"s-{w}",
                           round(rng.uniform(3.0, horizon * 0.4), 2),
                           round(rng.uniform(14.0, 20.0), 2))]
        # Plus a seeded mix of crashes and further partitions.
        for _ in range(rng.randrange(1, 4)):
            w = workers[rng.randrange(len(workers))]
            kind = rng.choice(("crash", "partition"))
            target = w if kind == "crash" else f"s-{w}"
            plan.append(FaultEvent(kind, target,
                                   round(rng.uniform(3.0, horizon * 0.6), 2),
                                   round(rng.uniform(2.0, 8.0), 2)))
        return plan


SCENARIO = Faults()
