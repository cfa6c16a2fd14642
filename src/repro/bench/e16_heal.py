"""E16 — partition-heal reconvergence: bounded anti-entropy vs one blob.

The partition-heal scenario (:mod:`repro.scenarios.heal`) splits the
replicated catalog ``{c2} | {c0, c1}`` for a minute of
sustained per-key write/delete load — far past the replicas' staleness
horizon, so the majority side compacts its logs while the minority
diverges — then heals the cut and watches anti-entropy repair it.

Each seed runs twice on the partition shape:

* **bounded** — chunked sync (``max_sync_records`` per RPC on the BULK
  lane, vector exchange on CONTROL), log compaction with safe tombstone
  GC, and snapshot catch-up for peers behind the compaction horizon;
* **unbounded** — the legacy single-blob ``rc.sync`` exchange: no
  compaction, the whole divergence serialized into one payload that
  ships on the control lane and is applied in one head-of-line-blocking
  call on the single-threaded replica.

plus one **blackout** run per seed (bounded config): all three replicas
crash at once and must restore the full catalog — tombstones included —
from their digest-verified durable snapshots and journals.

Reported per row: reconvergence latency after heal, the largest sync
payload used to get there, control-plane p99/max measured by a dedicated
CONTROL-lane prober *during the heal window*, lost/failed-over lease
heartbeats, and snapshot catch-ups. The experiment's claims: the bounded
protocol reconverges with payloads at its configured bound, sub-100ms
heal-window control latency and zero heartbeat failovers, while the
baseline's payload grows with the whole divergence (two orders of
magnitude past the bound) and its heal storm knocks control probes and
daemon heartbeats into failover.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: (config name, bounded anti-entropy on?).
CONFIGS = (("bounded", True), ("unbounded", False))

#: Load knobs shared by every row: fast writers and 2 KiB values build a
#: divergence big enough that the unbounded baseline's blob visibly
#: storms, while the bounded protocol stays at its per-RPC record bound.
LOAD = dict(interval=0.1, value_pad=2048)


def _row(config: str, report: Dict) -> Dict:
    stats = report["replica_stats"]
    return {
        "config": config,
        "seed": report["seed"],
        "mode": report["mode"],
        "reconverge_s": (round(report["reconverge_s"], 2)
                         if report["reconverge_s"] is not None else None),
        "diverged_at_heal": report["diverged_at_heal"],
        "max_sync_batch": int(report["max_sync_batch"]),
        "bound": report["bound"],
        "control_p99_ms": (round(report["control_p99"] * 1000, 1)
                           if report["control_p99"] is not None else None),
        "control_max_ms": (round(report["control_max"] * 1000, 1)
                           if report["control_max"] is not None else None),
        "probe_failed": report["control_probe_failed"],
        "hb_failed": report["heartbeats_failed"],
        "hb_failovers": report["heartbeat_failovers"],
        "snapshot_catchups": report["snapshot_catchups"],
        "writes_ok": report["writes_ok"],
        "retired": report["retired"],
        "resurrected": len(report["resurrected"]),
        "restores": sum(s["restores"] for s in stats.values()),
        "ok": report["ok"],
    }


def heal_reconvergence(seeds: Sequence[int] = (1, 2, 3),
                       duration: float = 100.0) -> List[Dict]:
    """Run the E16 matrix; one metrics row per (config, seed)."""
    from repro.scenarios import run_chaos

    rows: List[Dict] = []
    for cname, bounded in CONFIGS:
        for seed in seeds:
            report = run_chaos("heal", seed, duration=duration,
                               bounded=bounded, flight=False, **LOAD)
            rows.append(_row(cname, report))
    for seed in seeds:
        report = run_chaos("heal", seed, blackout=True, flight=False, **LOAD)
        rows.append(_row("blackout", report))
    return rows


def _mean(vals: List[float]) -> Optional[float]:
    vals = [v for v in vals if v is not None]
    return sum(vals) / len(vals) if vals else None


def summarize(rows: List[Dict]) -> Dict:
    """Cross-seed aggregates and the headline payload/latency contrast."""
    by = {c: [r for r in rows if r["config"] == c]
          for c in ("bounded", "unbounded", "blackout")}
    bnd, base, blk = by["bounded"], by["unbounded"], by["blackout"]
    peak_bnd = max((r["max_sync_batch"] for r in bnd), default=0)
    peak_base = max((r["max_sync_batch"] for r in base), default=0)
    return {
        "reconverge_bounded_s": round(
            _mean([r["reconverge_s"] for r in bnd]) or 0.0, 2),
        "reconverge_unbounded_s": round(
            _mean([r["reconverge_s"] for r in base]) or 0.0, 2),
        "max_batch_bounded": peak_bnd,
        "max_batch_unbounded": peak_base,
        "payload_ratio": (round(peak_base / peak_bnd, 1) if peak_bnd else None),
        "control_p99_bounded_ms": round(
            _mean([r["control_p99_ms"] for r in bnd]) or 0.0, 1),
        "control_p99_unbounded_ms": round(
            _mean([r["control_p99_ms"] for r in base]) or 0.0, 1),
        "hb_failovers_bounded": sum(r["hb_failovers"] for r in bnd),
        "hb_failovers_unbounded": sum(r["hb_failovers"] for r in base),
        "probe_failed_unbounded": sum(r["probe_failed"] for r in base),
        "blackout_restores": sum(r["restores"] for r in blk),
        "blackout_resurrected": sum(r["resurrected"] for r in blk),
        "bounded_all_ok": all(r["ok"] for r in bnd),
        "blackout_all_ok": all(r["ok"] for r in blk),
        "baseline_breaches_bound": peak_base > max(
            (r["bound"] or 0 for r in bnd), default=0),
    }


def format_heal_bench(rows: List[Dict]) -> str:
    """Human-readable E16 table for the CLI."""
    s = summarize(rows)
    lines = [
        "== E16: heal reconvergence — bounded anti-entropy vs one blob ==",
        f"  {'config':10s} {'seed':>4s} {'mode':>9s} {'reconv':>7s} "
        f"{'max_batch':>9s} {'ctl_p99':>8s} {'probe_f':>7s} {'hb_fo':>5s} "
        f"{'snap':>4s} {'resur':>5s}",
    ]
    for r in rows:
        rc = f"{r['reconverge_s']:.2f}s" if r["reconverge_s"] is not None else "never"
        p99 = (f"{r['control_p99_ms']:.0f}ms"
               if r["control_p99_ms"] is not None else "n/a")
        lines.append(
            f"  {r['config']:10s} {r['seed']:4d} {r['mode']:>9s} {rc:>7s} "
            f"{r['max_sync_batch']:9d} {p99:>8s} {r['probe_failed']:7d} "
            f"{r['hb_failovers']:5d} {r['snapshot_catchups']:4d} "
            f"{r['resurrected']:5d}"
        )
    lines += [
        "",
        f"  largest sync payload: {s['max_batch_bounded']} vs "
        f"{s['max_batch_unbounded']} records "
        f"({s['payload_ratio']}x the bound's peak)",
        f"  heal-window control p99: {s['control_p99_bounded_ms']}ms vs "
        f"{s['control_p99_unbounded_ms']}ms "
        f"({s['probe_failed_unbounded']} baseline probes failed outright)",
        f"  heartbeat failovers during heal: {s['hb_failovers_bounded']} vs "
        f"{s['hb_failovers_unbounded']}",
        f"  blackout recovery: {s['blackout_restores']} durable restores, "
        f"{s['blackout_resurrected']} resurrected deletes",
    ]
    return "\n".join(lines)
