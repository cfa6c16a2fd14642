"""Bulk (experiment E13's crash case): relay-tree distribution of one
object over the rack site while fetching hosts die mid-transfer.

A chaos run kills one rack's relay head (plus one leaf) while the object
is in flight; the durable chunk stores and swarm failover must absorb
both:

* **all-hosts-complete** — every destination holds the full object by
  the deadline, crashes notwithstanding;
* **digests-verified** — every completed host verified each chunk digest
  and the whole-object hash against the signed chunk map;
* **exactly-once-per-chunk** — no host committed the same chunk twice
  (modulo explicit corruption evictions, of which a clean run has none);
* **failover-exercised** — the kills actually landed mid-transfer (at
  least one destination's fetch was interrupted and resumed), so the run
  proves recovery rather than a quiet fair-weather pass.

A check run adds a poisoned source: one chunk is corrupted in the first
relay's store the instant that relay commits it, so every run exercises
per-chunk verification, audited by the chunk-integrity oracle.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bulk.testbed import ROOT, build_bulk_site, make_payload
from repro.check.explore import FaultEvent, apply_fault_plan
from repro.check.oracles import ChunkOracle
from repro.scenarios.harness import Scenario

#: Check-run object: a 512 KiB object in 16 KiB chunks over 2 racks x 3.
CHECK_OBJECT_KB = 512
CHECK_CHUNK_SIZE = 16384


class Bulk(Scenario):
    name = "bulk"
    summary = "relay-tree distribution with mid-transfer kills"
    defaults = dict(racks=3, per_rack=3, object_kb=2048, chunk_size=32768,
                    duration=60.0)
    profile_as = "bulk"
    profile_defaults = {"object_kb": 1024}

    def build(self, seed, p):
        env, _, dests = build_bulk_site(seed=seed, racks=p["racks"],
                                        per_rack=p["per_rack"])
        return env, dests

    def chaos(self, rig, dests, p):
        env, sim = rig.env, rig.sim
        object_kb, chunk_size = p["object_kb"], p["chunk_size"]
        commits: Dict[Tuple[str, int], int] = {}
        evicts: Dict[Tuple[str, int], int] = {}
        commits_by_host: Dict[str, int] = {}

        def counter(kind: str, fields: Dict) -> None:
            if kind == "bulk.chunk":
                key = (fields["host"], fields["seq"])
                commits[key] = commits.get(key, 0) + 1
                commits_by_host[fields["host"]] = (
                    commits_by_host.get(fields["host"], 0) + 1
                )
            elif kind == "bulk.evict":
                key = (fields["host"], fields["seq"])
                evicts[key] = evicts.get(key, 0) + 1

        rig.bus.subscribe(counter)

        # Seeded kills, triggered by *progress* rather than wall time: a
        # pipelined tree finishes everywhere almost simultaneously, so a
        # timer race would often fire after the victim is already done. The
        # assassin watches the commit stream and crashes each victim the
        # moment it has committed its target fraction of the object —
        # guaranteed mid-transfer, every seed.
        rng = sim.rng.stream("bulk-chaos.schedule")
        heads = [f"m{r}-0" for r in range(p["racks"])]
        head = heads[rng.randrange(len(heads))]
        leaves = [m for m in dests if m not in heads]
        leaf = leaves[rng.randrange(len(leaves))]
        nchunks = (object_kb * 1024 + chunk_size - 1) // chunk_size
        outage = {
            head: rng.uniform(0.5, 1.5),
            leaf: rng.uniform(0.3, 1.0),
        }
        kill_at = {head: max(1, nchunks // 4), leaf: max(2, nchunks // 2)}
        killed: Dict[str, float] = {}
        events = [
            f"kill relay head {head} at {kill_at[head]}/{nchunks} "
            f"chunks for {outage[head]:.1f}s",
            f"kill leaf {leaf} at {kill_at[leaf]}/{nchunks} "
            f"chunks for {outage[leaf]:.1f}s",
        ]

        def assassin(kind: str, fields: Dict) -> None:
            if kind != "bulk.chunk":
                return
            h = fields["host"]
            target = kill_at.get(h)
            if target is None or h in killed:
                return
            if commits_by_host.get(h, 0) >= target:
                killed[h] = sim.now
                env.failures.host_down_at(sim.now, h, duration=outage[h])

        rig.bus.subscribe(assassin)

        payload = make_payload(object_kb * 1024, chunk_size)
        dist = env.bulk_distributor(ROOT, fanout=2)
        proc = dist.distribute("chaos-obj", payload, dests,
                               chunk_size=chunk_size, strategy="tree",
                               deadline=p["duration"])
        report = env.run(until=proc)
        env.settle(1.0)

        crashes = sum(r.get("crashes", 0) for r in report["per_dest"].values())
        dups = sorted(
            f"{host}#{seq}"
            for (host, seq), n in commits.items()
            if n > 1 + evicts.get((host, seq), 0)
        )
        invariants = [
            ("all-hosts-complete",
             report["completed"] == len(dests),
             f"{report['completed']}/{len(dests)} hosts hold the object; "
             f"failed: {report['failed'] or 'none'}"),
            ("digests-verified",
             report["all_verified"],
             "every chunk digest and whole-object hash checked out"
             if report["all_verified"] else "a completed host skipped verification"),
            ("exactly-once-per-chunk",
             not dups,
             f"{sum(commits.values())} chunk commits across the site, no "
             f"duplicates" if not dups else f"duplicate commits: {dups}"),
            ("failover-exercised",
             crashes >= 1 and len(killed) >= 2,
             f"{len(killed)} hosts killed mid-object "
             f"({', '.join(f'{h} at t={t:.2f}s' for h, t in sorted(killed.items()))}); "
             f"{crashes} fetches interrupted and resumed"),
        ]
        return invariants, {
            "racks": p["racks"],
            "per_rack": p["per_rack"],
            "bytes": report["bytes"],
            "nchunks": report["nchunks"],
            "events": events,
            "killed": {h: round(t, 3) for h, t in killed.items()},
            "fault_log": list(env.failures.log),
            "completed": report["completed"],
            "hosts": len(dests),
            "elapsed": report["elapsed"],
            "aggregate_goodput": report["aggregate_goodput"],
            "chunk_commits": sum(commits.values()),
            "chunk_retries": report["chunk_retries"],
            "crashes": crashes,
        }

    def header(self, report):
        lines = [
            f"bulk chaos run: seed={report['seed']} "
            f"{report['racks']} racks x {report['per_rack']} hosts, "
            f"{report['bytes'] / 1024:.0f} KiB in {report['nchunks']} chunks",
            "",
            "fault schedule:",
        ]
        lines += [f"  {e}" for e in report["events"]] or ["  (none)"]
        lines.append("")
        lines.append(
            f"distribution : {report['completed']}/{report['hosts']} hosts in "
            f"{report['elapsed']:.2f}s "
            f"({report['aggregate_goodput'] / 1e6:.2f} MB/s aggregate)"
        )
        lines.append(
            f"chunk traffic: {report['chunk_commits']} commits, "
            f"{report['chunk_retries']} retries, "
            f"{report['crashes']} fetches crashed mid-object"
        )
        return lines

    def sweep_fields(self, report):
        return (f"completed={report['completed']}/{report['hosts']} "
                f"crashes={report['crashes']} "
                f"retries={report['chunk_retries']} "
                f"goodput={report['aggregate_goodput'] / 1e6:.1f}MB/s ")

    # -- check mode -----------------------------------------------------------
    def check_env(self, seed, p):
        env, _, dests = build_bulk_site(seed=seed, racks=2, per_rack=3)
        return env, dests

    def sample_plan(self, rng, dests, horizon):
        # Crash fetching hosts while the object is in flight (transfers
        # are sub-second to a-few-seconds, so faults land early).
        plan: List[FaultEvent] = []
        for _ in range(1 + rng.randrange(2)):
            w = dests[rng.randrange(len(dests))]
            plan.append(FaultEvent("crash", w,
                                   round(rng.uniform(0.1, min(3.0, horizon)), 2),
                                   round(rng.uniform(0.5, 2.0), 2)))
        return plan

    def check_oracles(self, run):
        env, sim = run.env, run.sim
        run.chunks = run.watch(ChunkOracle(sim))

        # Poison the first fetched commit, synchronously at commit time —
        # before the committing host can have served that chunk onward.
        run.poisoned = poisoned = {}

        def poisoner(kind, f):
            if kind != "bulk.chunk" or poisoned:
                return
            svc = env.bulk_services.get(f["host"])
            if svc is None:
                return
            data = svc.store.get(f["name"], f["seq"])
            svc.store._chunks[f["name"]][f["seq"]] = b"\x00poison\x00" + data[8:]
            poisoned[(f["host"], f["seq"])] = sim.now

        run.bus.subscribe(poisoner)

    def check_start(self, run):
        apply_fault_plan(run.env, run.plan)
        payload = make_payload(CHECK_OBJECT_KB * 1024, CHECK_CHUNK_SIZE)
        dist = run.env.bulk_distributor(ROOT)
        run.proc = dist.distribute("check-obj", payload, run.hosts,
                                   chunk_size=CHECK_CHUNK_SIZE, strategy="tree",
                                   deadline=run.p["duration"])

    def check_done(self, run):
        return run.proc.triggered

    def _result(self, run):
        """The distribution report, once the distribution has finished."""
        proc = run.proc
        return proc.value if proc.triggered and proc.ok else None

    def check_quiescent(self, run):
        report, dests = self._result(run), run.hosts
        if report is None:
            run.violate("liveness", f"distribution did not finish within the "
                                    f"{run.p['duration']:.0f}s budget")
        elif report["completed"] != len(dests):
            run.violate("liveness",
                        f"only {report['completed']}/{len(dests)} hosts completed "
                        f"(failed: {report['failed']})")
        elif not report["all_verified"]:
            run.violate("chunk-integrity",
                        "a completed host's whole-object hash did not verify")
        run.sweep()

    def check_summary(self, run):
        report = self._result(run)
        crashes = sum(
            r.get("crashes", 0) for r in (report or {}).get("per_dest", {}).values()
        )
        return {
            "completed": report["completed"] if report else 0,
            "workers": len(run.hosts),
            "recoveries": crashes,
            "delivered": run.chunks.committed,
            "poisoned": sorted(f"{h}#{s}" for h, s in run.poisoned),
            "chunk_retries": report["chunk_retries"] if report else 0,
        }


SCENARIO = Bulk()
