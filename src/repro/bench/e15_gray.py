"""E15 — gray-failure detection: differential health vs heartbeat-only.

The gray chaos scenario (:mod:`repro.scenarios.gray`) drives the
dual-homed chaos site through four simultaneous gray faults — a zombie
RC replica (CPU crawls, daemon heartbeats fine), a worker with ~30s of
clock skew, a bit-flipping segment, and a one-way core link cut — while
closed-loop catalog sessions measure goodput. None of the faults is
fail-stop; the lease detector alone cannot see any of them.

Each seed runs twice:

* **differential** — health boards score rpc/srudp/digest/heartbeat
  outcomes per (peer, iface), quarantine crossing peers, steer the path
  selector, and gate the Guardian's probe-before-death;
* **heartbeat-only** — the boards are inert and the Guardian trusts a
  lapsed lease without probing: the classic fail-stop detector.

Reported per (config, seed): goodput inside the zombie window, the
latency from zombie onset to its first quarantine, false lease-inferred
deaths, deaths averted by probe-before-death, and corruption accounting.
The experiment's claims: the differential detector quarantines the
zombie in seconds, declares **zero** false deaths where the baseline
declares many (every host stays up the whole run), and holds at least
``2x`` the baseline's goodput through the zombie window — detection
quality is goodput, not just alarms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: (config name, differential detector on?).
CONFIGS = (("differential", True), ("heartbeat-only", False))


def gray_goodput(seeds: Sequence[int] = (1, 2, 3),
                 duration: float = 40.0) -> List[Dict]:
    """Run the E15 matrix; one metrics row per (config, seed)."""
    from repro.scenarios import run_chaos

    rows: List[Dict] = []
    for cname, differential in CONFIGS:
        for seed in seeds:
            report = run_chaos("gray", seed, duration=duration,
                               differential=differential, flight=False)
            det = report["detection_s"]
            rows.append({
                "config": cname,
                "seed": seed,
                "goodput_ops_s": round(report["goodput_ops_s"], 2),
                "detection_s": round(det, 2) if det is not None else None,
                "false_lease_deaths": report["false_lease_deaths"],
                "deaths_declared": report["deaths_declared"],
                "probe_saved": report["probe_saved"],
                "ckpt_rejected": report["ckpt_rejected"],
                "corrupt_dropped": report["rx_corrupt_dropped"],
                "corrupt_delivered": report["corrupt_delivered"],
                "ops_ok": report["ops_ok"],
                "ops_failed": report["ops_failed"],
                "sessions": report["sessions"],
                "completed_ok": report["ok"] if differential else None,
            })
    return rows


def _mean(vals: List[float]) -> Optional[float]:
    vals = [v for v in vals if v is not None]
    return sum(vals) / len(vals) if vals else None


def summarize(rows: List[Dict]) -> Dict:
    """Cross-seed aggregates and the headline goodput ratio."""
    by = {c: [r for r in rows if r["config"] == c] for c, _ in CONFIGS}
    diff, base = by["differential"], by["heartbeat-only"]
    g_diff = _mean([r["goodput_ops_s"] for r in diff])
    g_base = _mean([r["goodput_ops_s"] for r in base])
    return {
        "goodput_differential_ops_s": round(g_diff, 2) if g_diff else None,
        "goodput_heartbeat_only_ops_s": round(g_base, 2) if g_base else None,
        "goodput_ratio": (round(g_diff / g_base, 2)
                          if g_diff and g_base else None),
        "detection_s_mean": round(
            _mean([r["detection_s"] for r in diff]) or 0.0, 2),
        "false_deaths_differential": sum(r["false_lease_deaths"] for r in diff),
        "false_deaths_heartbeat_only": sum(r["false_lease_deaths"] for r in base),
    }


def format_gray_bench(rows: List[Dict]) -> str:
    """Human-readable E15 table for the CLI."""
    s = summarize(rows)
    lines = [
        "== E15: gray-failure detection — differential vs heartbeat-only ==",
        f"  {'config':16s} {'seed':>4s} {'goodput/s':>9s} {'detect':>7s} "
        f"{'false_deaths':>12s} {'saved':>6s} {'corrupt':>12s}",
    ]
    for r in rows:
        det = f"{r['detection_s']:.2f}s" if r["detection_s"] is not None else "never"
        lines.append(
            f"  {r['config']:16s} {r['seed']:4d} {r['goodput_ops_s']:9.1f} "
            f"{det:>7s} {r['false_lease_deaths']:12d} {r['probe_saved']:6d} "
            f"{r['corrupt_delivered']}/{r['corrupt_dropped']:d} del/drop"
        )
    lines += [
        "",
        f"  goodput through the zombie window: "
        f"{s['goodput_differential_ops_s']} vs "
        f"{s['goodput_heartbeat_only_ops_s']} ops/s "
        f"({s['goodput_ratio']}x)",
        f"  zombie detection latency (mean): {s['detection_s_mean']}s "
        f"(heartbeat-only: never)",
        f"  false deaths: {s['false_deaths_differential']} vs "
        f"{s['false_deaths_heartbeat_only']} "
        f"(no host ever crashed: every death is false)",
    ]
    return "\n".join(lines)
