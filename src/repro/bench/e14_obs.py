"""E14 — the observability layer's own overhead, quantified.

Observability that taxes the system under study distorts every other
experiment, so the zero-cost-when-off claim is itself benchmarked: the
E12 overload workload and the E13 bulk-distribution workload each run
three times over —

* **off** — tracer detached (the default every other experiment runs
  under): trace stamping allocates no ids, probe emission short-circuits;
* **sampled** — tracing enabled at 1-in-100 record sampling
  (``--obs-sample 0.01``);
* **on** — tracing enabled at full rate (``--obs-sample 1.0``).

Measured per (workload, config): wall-clock (minimum over ``repeats``
runs — the minimum is the right estimator for a deterministic workload
whose only noise source is the machine), trace records kept, records
thinned by sampling, and ring-buffer drops. ``overhead_pct`` is the
wall-clock cost relative to the detached run of the same workload. The
shape assertion is that detached stays measurably below always-on, and
sampled sits in between — the knob buys a real trade, not a placebo.
The virtual clock makes the *simulated* outcome identical across
configs; only the wall-clock differs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

#: (config name, sampling rate handed to the tracer; None = detached).
CONFIGS: Tuple[Tuple[str, Optional[float]], ...] = (
    ("off", None),
    ("sampled", 0.01),
    ("on", 1.0),
)


def _overload_workload(seed: int, obs_sample: Optional[float], quick: bool):
    """The E12 overload scenario at 2x saturation; returns the sim."""
    from repro.scenarios import run_chaos

    holder: Dict = {}
    run_chaos(
        "overload",
        seed,
        saturation=2.0,
        duration=10.0 if quick else 20.0,
        obs_sample=obs_sample,
        flight=False,  # isolate the tracing cost from the flight recorder's
        instrument=lambda sim: holder.setdefault("sim", sim),
    )
    return holder["sim"]


def _bulk_workload(seed: int, obs_sample: Optional[float], quick: bool):
    """The E13 relay-tree distribution (4x2 racks); returns the sim."""
    from repro.bulk.testbed import build_bulk_site, make_payload

    env, root, dests = build_bulk_site(seed=seed, racks=4, per_rack=2)
    sim = env.sim
    if obs_sample is not None:
        sim.obs.tracer.enabled = True
        sim.obs.tracer.sample_rate = obs_sample
    chunk_size = 16384
    size = (256 if quick else 512) * 1024
    payload = make_payload(size, chunk_size)
    dist = env.bulk_distributor(root, fanout=2)
    proc = dist.distribute("e14-obj", payload, dests,
                           chunk_size=chunk_size, strategy="tree",
                           deadline=60.0)
    env.run(until=proc)
    return sim


def obs_overhead(seed: int = 1, repeats: int = 3,
                 quick: bool = False) -> List[Dict]:
    """Off vs sampled vs always-on tracing on E12 and E13; metric rows."""
    workloads = (
        ("overload-e12", _overload_workload),
        ("bulk-e13", _bulk_workload),
    )
    rows: List[Dict] = []
    for wname, workload in workloads:
        workload(seed, None, quick)  # untimed warmup: imports, allocator
        # Interleave repeats round-robin across configs: the process keeps
        # warming (caches, allocator arenas, CPU clocks) as it runs, and
        # sequential per-config blocks would hand later configs a warmer
        # machine than "off" ever saw. Round-robin exposes every config to
        # the same drift; min-of-repeats then discards the noise.
        best: Dict[str, float] = {c: float("inf") for c, _ in CONFIGS}
        sims: Dict = {}
        for _ in range(max(1, repeats)):
            for cname, rate in CONFIGS:
                t0 = time.perf_counter()
                sims[cname] = workload(seed, rate, quick)
                best[cname] = min(best[cname], time.perf_counter() - t0)
        base_ms = round(best["off"] * 1000, 2)
        for cname, rate in CONFIGS:
            tracer = sims[cname].obs.tracer
            wall_ms = round(best[cname] * 1000, 2)
            rows.append({
                "workload": wname,
                "config": cname,
                "sample_rate": rate,
                "wall_ms": wall_ms,
                "trace_records": len(tracer),
                "trace_dropped": tracer.dropped,
                "sampled_out": tracer.sampled_out,
                "overhead_pct": (
                    round((wall_ms - base_ms) / base_ms * 100, 1)
                    if base_ms else 0.0
                ),
            })
    return rows


def format_overhead(rows: List[Dict]) -> str:
    """Human-readable overhead table for the CLI."""
    lines = [
        "== observability overhead (wall-clock, min of repeats) ==",
        f"  {'workload':14s} {'config':8s} {'wall_ms':>9s} {'overhead':>9s} "
        f"{'records':>8s} {'sampled_out':>11s} {'dropped':>8s}",
    ]
    for r in rows:
        lines.append(
            f"  {r['workload']:14s} {r['config']:8s} {r['wall_ms']:9.2f} "
            f"{r['overhead_pct']:+8.1f}% {r['trace_records']:8d} "
            f"{r['sampled_out']:11d} {r['trace_dropped']:8d}"
        )
    return "\n".join(lines)
