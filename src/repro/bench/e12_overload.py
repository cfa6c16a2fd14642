"""E12 — goodput and control-plane survival under overload.

    "... the system must continue to provide service in the face of
    resource exhaustion as well as outright failure" (§3, robustness)

Scenario: the chaos star site (three single-threaded RC replicas behind
a shared LAN, checkpointing workers on private segments) is offered a
multiple of its bulk lookup capacity while the core LAN is congested and
half the workers are CPU-starved. No host ever crashes, so every
Guardian death declaration is a false positive.

Two configurations face the same seeded load:

* **static** — fixed RPC timeouts, no circuit breakers, no priority
  lanes: lease heartbeats queue behind (and get shed with) the bulk
  backlog;
* **adaptive** — the ``repro.robust.overload`` stack: Jacobson RTT
  timeouts, circuit breakers that quarantine saturated replicas, and
  control-plane priority lanes with bulk load-shedding.

Measured per (config, saturation): bulk goodput through the overload
window, control-plane p99 latency, failed lease heartbeats, and false
death declarations. The shape assertion is the paper's robustness claim:
the adaptive stack keeps the control plane clean (zero false deaths,
zero lost heartbeats, bounded p99) at saturations where the static
baseline visibly degrades, without giving up bulk goodput.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.scenarios import run_chaos

#: Control-plane p99 budget the adaptive stack must honour (seconds).
CONTROL_P99_BOUND = 0.5


def overload_goodput(
    saturations: Sequence[float] = (2.0, 5.0),
    seed: int = 1,
) -> List[Dict]:
    """Static vs adaptive under 2x/5x saturation; returns metric rows."""
    rows: List[Dict] = []
    for saturation in saturations:
        for adaptive in (False, True):
            r = run_chaos(
                "overload",
                seed,
                saturation=saturation,
                adaptive=adaptive,
                control_p99_bound=CONTROL_P99_BOUND,
            )
            rows.append({
                "config": "adaptive" if adaptive else "static",
                "saturation_x": saturation,
                "goodput_ops_s": round(r["goodput_ops_s"], 2),
                "control_p99_ms": round(r["control_p99_s"] * 1000, 1),
                "hb_failed": r["heartbeats_failed"],
                "false_deaths": r["deaths_declared"],
                "shed": r["requests_shed"],
                "breaker_opens": r["breaker_opens"],
                "ok": r["ok"],
            })
    return rows
