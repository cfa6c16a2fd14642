"""Gray (experiment E15): faults that crash nothing and bump no topology
version — every one invisible to fail-stop detection.

A chaos run gets the star site with a second core segment (dual-homed
core) and four gray faults:

* a **zombie RC replica**: :data:`ZOMBIE`'s CPU is divided by
  :data:`ZOMBIE_FACTOR`, so its single-threaded RC server (service time
  :data:`RC_SERVICE_TIME`) slows past every caller's timeout while its
  daemon (a threaded server) keeps heartbeating — alive to the lease
  detector, dead to actual work;
* **clock skew** on the last worker: its lease stamps land ~30s in the
  past, permanently "lapsed" — only the differential probe-before-death
  keeps the Guardian from a false kill;
* a **bit-flip window** on the first worker's segment — digests must
  drop the corruption and srudp must retransmit around it;
* a **one-way core link failure** (frames c1→c0 on the primary core
  segment eaten) — per-interface health steers c1's traffic onto the
  backup segment.

Meanwhile checkpointing chaos-workers run to completion and closed-loop
catalog sessions measure goodput. ``differential=False`` is the
heartbeat-only baseline of E15: health boards inert, Guardian trusts
lapsed leases. A check run samples gray fault plans (one-way cuts,
dup/reorder/corrupt links, skew, checkpoint rot) and adds the
no-false-death oracle.
"""

from __future__ import annotations

from typing import Dict, List

from repro.check.explore import FaultEvent, toggled
from repro.check.oracles import FalseDeathOracle
from repro.robust.health import HealthBoard
from repro.scenarios.harness import Flag
from repro.scenarios.workloads import (
    WorkerScenario,
    build_chaos_env,
    install_chaos_programs,
    new_coll_state,
    spawn_workload,
    start_gray_sessions,
)

#: The zombie replica, its slowdown window, and its CPU divisor.
ZOMBIE = "c2"
ZOMBIE_AT = 8.0
ZOMBIE_FOR = 22.0
ZOMBIE_FACTOR = 100.0
#: RC request service time: single-threaded replicas the zombie can stall.
RC_SERVICE_TIME = 0.02


class Gray(WorkerScenario):
    name = "gray"
    summary = "zombie replica, clock skew, corruption, one-way links — nothing fail-stop"
    defaults = dict(n_workers=4, total=60, step=0.2, duration=40.0, differential=True)
    switches = (
        Flag("--heartbeat-only", "differential", False,
             "baseline: health boards inert, Guardian trusts lapsed leases "
             "without probing"),
    )
    checks_key = "criteria"

    def context(self, p):
        return toggled(HealthBoard, "differential_enabled", p["differential"])

    def build(self, seed, p):
        return build_chaos_env(seed, p["n_workers"], rc_service_time=RC_SERVICE_TIME,
                               backup_core=True)

    def chaos(self, rig, workers, p):
        env, total, duration = rig.env, p["total"], p["duration"]
        probes: Dict = {"corrupt_deliver": 0, "deaths": []}

        def watch(kind, f):
            if kind == "srudp.corrupt_deliver":
                probes["corrupt_deliver"] += 1
            elif kind == "guardian.death":
                probes["deaths"].append(
                    (round(env.sim.now, 2), f.get("host"), f.get("reason")))

        rig.bus.subscribe(watch)

        coll_state = new_coll_state()
        install_chaos_programs(env, {}, coll_state)
        env.settle(2.0)
        _, urns = spawn_workload(env, workers, "gray", "chaos-worker", total, 4, p["step"])
        load = start_gray_sessions(env, workers, 4.0, duration - 2.0)

        # -- the gray fault schedule -----------------------------------------
        env.failures.slow_host_at(ZOMBIE_AT, ZOMBIE, ZOMBIE_FACTOR, duration=ZOMBIE_FOR)
        env.failures.skew_clock_at(6.0, workers[-1], offset=-30.0, duration=duration - 10.0)
        env.failures.impair_link_at(10.0, f"s-{workers[0]}", corrupt=0.15,
                                    symmetric=True, duration=8.0)
        env.failures.impair_link_at(12.0, "core-lan", src="c1", dst="c0",
                                    loss=1.0, duration=6.0)

        env.run(until=duration)
        env.settle(4.0)

        # -- measurements ------------------------------------------------------
        z_end = ZOMBIE_AT + ZOMBIE_FOR
        in_zombie = sum(n for t, n in load["in_window"].items()
                        if ZOMBIE_AT <= t < z_end)
        detections = [
            h.health.first_quarantine_of(ZOMBIE)
            for h in env.topology.hosts.values()
            if h.health.first_quarantine_of(ZOMBIE) is not None
        ]
        detection_s = (min(detections) - ZOMBIE_AT) if detections else None
        deaths = sum(g.deaths_declared for g in env.guardians.values())
        probe_saved = sum(g.false_deaths_averted for g in env.guardians.values())
        false_deaths = [d for d in probes["deaths"] if d[2] == "host-lease"]
        snap = env.sim.obs.metrics.snapshot()
        rx_corrupt = int(sum(v for k, v in snap.items()
                             if k.startswith("transport.rx_corrupt")))
        completed = [u for u in urns if coll_state["done"].get(u) == total]
        differential = p["differential"]

        criteria = [
            ("zombie-quarantined",
             (detection_s is not None) if differential else True,
             (f"{ZOMBIE} quarantined {detection_s:.2f}s after slowdown "
              f"by {len(detections)} host(s)") if detection_s is not None
             else f"{ZOMBIE} never quarantined"
                  + ("" if differential else " (baseline: detector off)")),
            ("no-false-deaths",
             deaths == 0,
             f"{deaths} deaths declared ({len(false_deaths)} from leases), "
             f"{probe_saved} averted by probe-before-death "
             f"(no host ever crashed: any death is false)"),
            ("no-corrupt-delivery",
             probes["corrupt_deliver"] == 0,
             f"{probes['corrupt_deliver']} corrupted deliveries; "
             f"{rx_corrupt} corrupt frames detected and dropped at receivers"),
            ("completed-exactly-once",
             len(completed) == len(urns) and not coll_state["mismatch"],
             f"{len(completed)}/{len(urns)} workers completed once; "
             f"{len(coll_state['mismatch'])} result mismatches"),
        ]
        return criteria, {
            "differential": differential,
            "workers": p["n_workers"],
            "zombie": ZOMBIE,
            "zombie_window": (ZOMBIE_AT, z_end),
            "goodput_ops_s": in_zombie / ZOMBIE_FOR,
            "ops_ok": load["ops_ok"],
            "ops_failed": load["ops_failed"],
            "sessions": load["sessions"],
            "detection_s": detection_s,
            "deaths_declared": deaths,
            "false_lease_deaths": len(false_deaths),
            "death_log": probes["deaths"],
            "probe_saved": probe_saved,
            "ckpt_rejected": sum(g.ckpt_rejected for g in env.guardians.values()),
            "rx_corrupt_dropped": rx_corrupt,
            "corrupt_delivered": probes["corrupt_deliver"],
        }

    def header(self, report):
        det = report["detection_s"]
        return [
            f"gray run: seed={report['seed']} workers={report['workers']} "
            f"differential={'on' if report['differential'] else 'off (baseline)'}",
            "",
            f"zombie {report['zombie']} (heartbeat-alive, work-dead) "
            f"t={report['zombie_window'][0]:.0f}..{report['zombie_window'][1]:.0f}s:",
            "  detection latency: "
            + (f"{det:.2f}s" if det is not None else "never detected"),
            f"  goodput in zombie window: {report['goodput_ops_s']:.1f} ops/s "
            f"({report['ops_ok']} ok / {report['ops_failed']} failed over "
            f"{report['sessions']} sessions)",
            "",
            f"false deaths: {report['false_lease_deaths']} declared, "
            f"{report['probe_saved']} averted by probe-before-death",
            f"corruption: {report['corrupt_delivered']} delivered, "
            f"{report['rx_corrupt_dropped']} dropped at receivers",
            f"checkpoints rejected on digest: {report['ckpt_rejected']}",
        ]

    def sweep_fields(self, report):
        det = report["detection_s"]
        return (f"goodput={report['goodput_ops_s']:.1f}/s "
                f"detect={'%.2fs' % det if det is not None else 'never'} "
                f"false_deaths={report['false_lease_deaths']} "
                f"saved={report['probe_saved']} ")

    # -- check mode -----------------------------------------------------------
    def check_oracles(self, run):
        super().check_oracles(run)
        # Only gray plans promise every non-crashed host stays reachable
        # over *some* path; a full partition (faults scenario) makes a
        # lease-inferred death legitimate, so the oracle stays out there.
        spans = [(e.target, e.t, e.t + e.duration + 20.0)
                 for e in run.plan if e.kind == "crash"]
        run.watch(FalseDeathOracle(
            run.sim, crashed=lambda h, t: any(
                h == c and a <= t <= b for c, a, b in spans),
        ))

    def sample_plan(self, rng, workers, horizon):
        """Gray faults: nothing here bumps the topology version or fully
        cuts a host off — every fault is the kind a lease-based detector
        misreads.

        The roles are kept on *disjoint* workers deliberately: a
        clock-skewed worker whose lease always looks lapsed must stay
        probe-reachable (overlaying a lossy window on the same host would
        turn an honest probe failure into an unavoidable "false" death and
        make clean seeds flaky). One-way cuts run core→worker only: the
        worker's lease renewals still arrive, so the Guardian never needs
        to probe through the cut direction — its replies are simply eaten,
        which is exactly the retransmission/dup stress srudp must absorb.
        """
        r2 = lambda x: round(x, 2)  # noqa: E731
        ws = list(workers)
        rng.shuffle(ws)
        skew_w, oneway_w = ws[0], ws[1 % len(ws)]
        rest = ws[2:] or ws[1:]
        plan: List[FaultEvent] = []
        # Lossy/duplicating/reordering windows on the remaining segments.
        for w in rest:
            plan.append(FaultEvent(
                "impair", f"s-{w}",
                r2(rng.uniform(3.0, horizon * 0.5)), r2(rng.uniform(4.0, 8.0)),
                extra=(("dup", round(rng.uniform(0.05, 0.15), 2)),
                       ("loss", round(rng.uniform(0.05, 0.2), 2)),
                       ("reorder", round(rng.uniform(0.05, 0.2), 2))),
            ))
        # One bit-flip window: every gray run exercises digest verification.
        cw = rest[rng.randrange(len(rest))]
        plan.append(FaultEvent(
            "impair", f"s-{cw}",
            r2(rng.uniform(4.0, horizon * 0.5)), r2(rng.uniform(3.0, 6.0)),
            extra=(("corrupt", round(rng.uniform(0.1, 0.25), 2)),),
        ))
        # Clock skew: the worker's lease stamps land far in the past, so its
        # lease looks permanently lapsed — only a probe-before-death keeps
        # the Guardian from killing a live host.
        # Early and long: the window must overlap the running workload, or
        # there is no RUNNING task whose death the naive detector could
        # wrongly declare.
        plan.append(FaultEvent(
            "skew", skew_w,
            r2(rng.uniform(2.5, 5.0)), r2(rng.uniform(15.0, 25.0)),
            extra=(("offset", -round(rng.uniform(15.0, 40.0), 1)),),
        ))
        # Asymmetric cut, replies-only direction (leases keep flowing).
        plan.append(FaultEvent(
            "oneway", f"gw->{oneway_w}",
            r2(rng.uniform(3.0, horizon * 0.5)), r2(rng.uniform(3.0, 6.0)),
        ))
        # Sometimes: a short checkpoint-bitrot window followed by a genuine
        # crash of the same worker — recovery must reject the torn record
        # and fall back to the previous good version.
        if rng.random() < 0.6:
            cv = rest[rng.randrange(len(rest))]
            t0 = r2(rng.uniform(6.0, horizon * 0.6))
            plan.append(FaultEvent("ckptrot", cv, t0, 0.4))
            plan.append(FaultEvent("crash", cv, r2(t0 + 0.45),
                                   r2(rng.uniform(2.0, 5.0))))
        return plan


SCENARIO = Gray()
