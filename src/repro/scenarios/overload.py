"""Overload (experiment E12): bulk saturation plus degradation, no crashes.

The star site is rebuilt with the RC replicas as single-threaded
bottleneck servers (``service_time`` per request, so the site's bulk
capacity is ``n_replicas / service_time`` lookups per second), then:

* long-running checkpointing workers keep leases and progress reports
  flowing — the control plane that must survive;
* open-loop Poisson generators on the worker hosts offer
  ``saturation`` times the site's capacity in bulk ``rc.lookup`` calls
  (capped outstanding per host, so the sim stays bounded);
* mid-run, the core LAN is congested and half the workers are
  CPU-starved — overload *plus* degradation, the regime where fixed
  timeouts misfire.

No host ever crashes, so **any** Guardian death declaration is a false
positive. ``adaptive=False`` is the static baseline: fixed timeouts, no
circuit breakers, no priority lanes (the bounded queues themselves stay
— they are the environment, not the treatment).
"""

from __future__ import annotations

from repro.check.explore import FaultEvent
from repro.scenarios.harness import Flag
from repro.scenarios.workloads import (
    WorkerScenario,
    build_chaos_env,
    install_chaos_programs,
    install_overload_worker,
    new_coll_state,
    spawn_workload,
    start_load_generators,
)

#: Core-LAN congestion factor and CPU-starvation factor of the chaos run's
#: degradation window.
CONGEST_FACTOR = 3.0
SLOW_FACTOR = 4.0

#: Bounded server queues small enough that overload actually bites: a
#: full bulk queue (capacity x service_time of backlog) far exceeds the
#: lease TTL, so without lanes heartbeats queue behind that backlog or
#: get shed with it.
SERVER_BULK_CAPACITY = 128


def _new_wstats():
    return {"steps": 0, "send_failures": 0, "ckpt_failures": 0}


class Overload(WorkerScenario):
    name = "overload"
    summary = "bulk saturation, no crashes"
    defaults = dict(saturation=5.0, adaptive=True, n_workers=4, duration=32.0,
                    service_time=0.1, control_p99_bound=0.5)
    switches = (
        Flag("--static", "adaptive", False,
             "baseline: fixed timeouts, no breakers, no priority lanes"),
    )
    checks_key = "criteria"
    profile_as = "overload"
    profile_defaults = {"duration": 24.0, "saturation": 3.0}
    program = "overload-worker"
    must_finish = False

    def build(self, seed, p):
        adaptive = p["adaptive"]

        def configure(sim):
            cfg = sim.overload
            cfg.adaptive = adaptive
            cfg.server_bulk_capacity = SERVER_BULK_CAPACITY

        return build_chaos_env(seed, p["n_workers"],
                               rc_service_time=p["service_time"], configure=configure)

    def chaos(self, rig, workers, p):
        env, duration, service_time = rig.env, p["duration"], p["service_time"]
        install_chaos_programs(env, {}, new_coll_state())
        wstats = _new_wstats()
        install_overload_worker(env, wstats)
        env.settle(2.0)
        # Enough steps that every worker is still mid-run (lease live,
        # reports flowing) for the whole overload window.
        spawn_workload(env, workers, "ovl", "overload-worker", 400, 8, 0.25)

        # -- bulk load: open-loop Poisson rc.lookup generators ---------------
        capacity = len(env.rc_replicas) / service_time
        offered_rate = p["saturation"] * capacity
        t_load0, t_load1 = 4.0, duration - 8.0
        load = start_load_generators(env, workers, offered_rate, t_load0, t_load1)

        # -- degradation window inside the load window -----------------------
        env.failures.congest_segment_at(8.0, "core-lan", CONGEST_FACTOR, duration=12.0)
        for w in workers[: max(1, len(workers) // 2)]:
            env.failures.slow_host_at(10.0, w, SLOW_FACTOR, duration=8.0)

        env.run(until=duration)
        env.settle(4.0)  # drain queues; late false deaths would show up here

        metrics = env.sim.obs.metrics
        snap = metrics.snapshot()
        hist = metrics.histogram("overload.control_latency")
        control_p99 = hist.percentile(99)
        bound = p["control_p99_bound"]
        deaths = sum(g.deaths_declared for g in env.guardians.values())
        recoveries = sum(len(g.recoveries) for g in env.guardians.values())
        hb_ok = sum(d.heartbeats_ok for d in env.daemons.values())
        hb_failed = sum(d.heartbeats_failed for d in env.daemons.values())
        window = t_load1 - t_load0

        criteria = [
            ("no-false-deaths",
             deaths == 0 and recoveries == 0,
             f"{deaths} deaths declared, {recoveries} recoveries "
             f"(every host stayed up: any death is false)"),
            ("no-lost-heartbeats",
             hb_failed == 0,
             f"{hb_ok} lease heartbeats delivered, {hb_failed} failed"),
            ("control-p99-bounded",
             hist.n > 0 and control_p99 <= bound,
             f"control-plane p99 {control_p99 * 1000:.1f}ms over {hist.n} calls "
             f"(bound {bound * 1000:.0f}ms)"),
        ]
        return criteria, {
            "saturation": p["saturation"],
            "adaptive": p["adaptive"],
            "workers": p["n_workers"],
            "service_time": service_time,
            "capacity_ops_s": capacity,
            "offered_rate_ops_s": offered_rate,
            "load": dict(load),
            "goodput_ops_s": load["ok_in_window"] / window if window > 0 else 0.0,
            "control_p99_s": control_p99,
            "control_calls": hist.n,
            "deaths_declared": deaths,
            "recoveries": recoveries,
            "heartbeats_ok": hb_ok,
            "heartbeats_failed": hb_failed,
            "requests_shed": int(metrics.counter("rpc.requests_shed").value),
            "rx_drops": int(sum(v for k, v in snap.items()
                                if k.startswith("transport.rx_drops"))),
            "breaker_opens": int(sum(v for k, v in snap.items()
                                     if k.startswith("robust.breaker_opened"))),
            "worker_stats": dict(wstats),
        }

    def header(self, report):
        mode = "adaptive" if report["adaptive"] else "static baseline"
        return [
            f"overload run: seed={report['seed']} "
            f"saturation={report['saturation']:.1f}x ({mode})",
            "",
            f"site capacity : {report['capacity_ops_s']:.0f} lookups/s "
            f"(3 RC replicas, {report['service_time'] * 1000:.0f}ms service time)",
            f"offered load  : {report['offered_rate_ops_s']:.0f} lookups/s "
            f"({report['load']['offered']} offered, {report['load']['issued']} issued)",
            f"bulk goodput  : {report['goodput_ops_s']:.1f} lookups/s "
            f"({report['load']['ok']} ok / {report['load']['failed']} failed)",
            f"shedding      : {report['requests_shed']} server-shed, "
            f"{report['rx_drops']} transport backpressure drops, "
            f"{report['breaker_opens']} breaker opens",
            f"control plane : p99 {report['control_p99_s'] * 1000:.1f}ms "
            f"over {report['control_calls']} calls; "
            f"heartbeats {report['heartbeats_ok']} ok / "
            f"{report['heartbeats_failed']} failed",
            f"guardian      : {report['deaths_declared']} deaths declared, "
            f"{report['recoveries']} recoveries (expected: 0 — no host crashed)",
            f"workload      : {report['worker_stats']['steps']} steps, "
            f"{report['worker_stats']['send_failures']} report failures, "
            f"{report['worker_stats']['ckpt_failures']} checkpoint failures "
            f"(best-effort bulk)",
        ]

    def sweep_fields(self, report):
        return (f"goodput={report['goodput_ops_s']:.1f}/s "
                f"control_p99={report['control_p99_s'] * 1000:.0f}ms "
                f"deaths={report['deaths_declared']} "
                f"hb_failed={report['heartbeats_failed']} ")

    # -- check mode: the adaptive controls stay on; the oracles check
    # safety, not the overload treatment.
    def check_env(self, seed, p):
        def configure(sim):
            sim.overload.server_bulk_capacity = SERVER_BULK_CAPACITY

        return build_chaos_env(seed, p["n_workers"],
                               rc_service_time=p["service_time"], configure=configure)

    def install_programs(self, run):
        super().install_programs(run)
        install_overload_worker(run.env, _new_wstats())

    def start_load(self, run):
        capacity = len(run.env.rc_replicas) / run.p["service_time"]
        start_load_generators(run.env, run.hosts, run.p["saturation"] * capacity,
                              4.0, run.p["duration"] - 6.0)

    def sample_plan(self, rng, workers, horizon):
        # Degradation windows on top of the bulk load: a congested core
        # LAN and CPU-starved workers.
        plan = [FaultEvent("congest", "core-lan",
                           round(rng.uniform(4.0, 7.0), 2),
                           round(rng.uniform(6.0, 10.0), 2),
                           factor=round(rng.uniform(2.0, 4.0), 1))]
        for w in workers[: max(1, len(workers) // 2)]:
            plan.append(FaultEvent("slow", w,
                                   round(rng.uniform(5.0, 9.0), 2),
                                   round(rng.uniform(4.0, 8.0), 2),
                                   factor=round(rng.uniform(2.0, 5.0), 1)))
        return plan


SCENARIO = Overload()
