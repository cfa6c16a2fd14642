"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wan_rpc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the simulator is imported from
``src/``). One run repeats the workload — set-up, simulation phase,
output checks — until ``--seconds`` of wall time would be exceeded by
another repetition (at least two repetitions), then prints one line per
metric and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (host times in CPU seconds
of this process, simulated metrics in virtual time). ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones (see ``layers.py``), plus the tracing overhead;
when it ends it writes the last traced repetition's spans to
``perfbench/out/spans-<workload>.csv.gz``.
``attempted`` and ``failed`` are per repetition: every repetition of one
seed simulates the same thing, and the run fails (``correct`` false) if
their determinism digests disagree, if a traced repetition's digest
differs from an untraced one, or if it differs from the digest an
earlier run of the same seed on the same source tree recorded in
``perfbench/out/digests.json``.

Seed 1 is the default; seed 2 is the held-out seed for confirming a
claim on a seed not used while writing the change. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Repetitions per run, whatever ``--seconds`` says: the median and the
#: in-run determinism check need at least two.
MIN_REPS = 2

#: CPU seconds of extra set-ups per repetition, for workloads whose
#: set-up is too short for a few samples to give a steady median.
SETUP_PROBE_S = 0.5
MAX_SETUP_PROBES = 1000

#: End-to-end metrics: (name, unit). Mirrors BENCHMARK.json.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_s", "1/s"),
    ("op_mean_ms", "ms"),
]

#: Printed with the end-to-end metrics but left out of the JSON, which
#: takes only metrics that are never zero and vary from seed to seed:
#: op_p50_ms and op_p99_ms are the same on every wan_rpc seed (an
#: uncontended echo's latency is fixed by the topology), op_p99_ms
#: spreads by a quarter across catalog_split seeds, and the rest are
#: zero, or undefined, on some workload.
REPORTED: List[Tuple[str, str]] = [
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("update_p99_ms", "ms"),
    ("ops_failed_frac", "frac"),
    ("lookup_miss_frac", "frac"),
    ("wall_s", "s"),
]

#: Per-layer metrics: (name, unit). Mirrors BENCHMARK.json.
PER_LAYER: List[Tuple[str, str]] = [
    ("sim.events", "count"),
    ("sim.events_per_op", "events/op"),
    ("sim.self_s", "s"),
    ("net.route.calls", "count"),
    ("net.route.self_s", "s"),
    ("net.route.us_per_call", "us"),
    ("net.frames", "count"),
    ("net.frames_per_op", "frames/op"),
    ("net.datapath.self_s", "s"),
    ("net.datapath.us_per_frame", "us"),
    ("net.wire_bytes_per_op", "B/op"),
    ("transport.sends", "count"),
    ("transport.self_s", "s"),
    ("transport.pathsel.calls", "count"),
    ("transport.retransmits", "count"),
    ("transport.rx_drops", "count"),
    ("transport.retransmit_ratio", "frac"),
    ("transport.srudp.msg_p99_ms", "ms"),
    ("transport.tcp.msg_p99_ms", "ms"),
    ("transport.mcast.msg_p99_ms", "ms"),
    ("rpc.calls", "count"),
    ("rpc.self_s", "s"),
    ("rpc.us_per_call", "us"),
    ("rpc.failed", "count"),
    ("rpc.requests_shed", "count"),
    ("rpc.payload_size.calls", "count"),
    ("security.encodes_per_op", "calls/op"),
    ("security.encoded_bytes_per_op", "B/op"),
    ("security.canonical_bytes.self_s", "s"),
    ("security.content_hash.calls", "count"),
    ("security.content_hash.self_s", "s"),
    ("security.content_hash.incl_s", "s"),
    ("rcds.client_ops", "count"),
    ("rcds.self_s", "s"),
    ("rcds.store.applies", "count"),
    ("rcds.store.self_s", "s"),
    ("rcds.query.self_s", "s"),
    ("rcds.snapshot.calls", "count"),
    ("rcds.snapshot.entries_per_call", "entries/call"),
    ("rcds.snapshot.self_s", "s"),
    ("rcds.preload_s", "s"),
    ("rcds.shard.route.calls_per_op", "calls/op"),
    ("rcds.shard.route.self_s", "s"),
    ("rcds.shard.self_s", "s"),
    ("rcds.shard.redirects", "count"),
    ("rcds.shard.redirect_retries", "count"),
    ("rcds.shard.handoffs", "count"),
    ("rcds.shard.drain_s", "s"),
    ("robust.self_s", "s"),
    ("robust.health.calls", "count"),
    ("robust.retries", "count"),
    ("robust.giveups", "count"),
    ("obs.self_s", "s"),
    ("obs.calls", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.attributed_frac", "frac"),
]


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(reps, setup_times: List[float]) -> Dict[str, float]:
    """End-to-end metrics of a run's untraced repetitions: host times
    are medians (``setup_s`` over *setup_times*, which include the
    set-up probes), simulated metrics come from the first repetition,
    since every repetition simulates the same."""
    from repro.bench.e18_catalog_scale import _pct  # nearest rank

    def ms(vals: List[float], q: float) -> float:
        return (_pct(vals, q) or 0.0) * 1000.0

    r = reps[0]
    lat = [x for v in r.latencies.values() for x in v]
    updates = r.latencies.get("update", []) + r.latencies.get("create", [])
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_cpu_s": statistics.median(x.completed / x.sim_cpu_s
                                           for x in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_ops_per_s": _div(r.completed, r.sim_span_s),
        "op_mean_ms": _div(sum(lat), len(lat)) * 1000.0,
        "op_p50_ms": ms(lat, 0.50),
        "op_p99_ms": ms(lat, 0.99),
        "update_p99_ms": ms(updates, 0.99),
        "ops_failed_frac": _div(r.failed, r.attempted),
        "lookup_miss_frac": _div(r.lookup_misses, r.lookups_checked),
        "wall_s": statistics.median(x.wall_s for x in reps),
    }


def _obs_sum(obs: Dict[str, float], name: str) -> float:
    """Sum of a counter over all its tag sets."""
    return sum(v for k, v in obs.items()
               if k == name or (k.startswith(name + "{") and k.endswith("}")))


def per_layer(rep, untraced_cpu_s: float, preload_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    L = rep.layer
    self_s, calls, counts, lay = (L["self"], L["calls"], L["counts"],
                                  L["layer_self"])
    obs = rep.obs
    ops = rep.attempted
    s = lambda name: self_s.get(name, 0.0)
    c = lambda name: calls.get(name, 0)
    frames = counts["net.frames"]
    retransmits = _obs_sum(obs, "transport.retransmits")
    out = {
        "sim.events": rep.facts["events"],
        "sim.events_per_op": _div(rep.facts["events"], ops),
        "sim.self_s": lay["sim"],
        "net.route.calls": c("net.route"),
        "net.route.self_s": s("net.route"),
        "net.route.us_per_call": _div(s("net.route"), c("net.route")) * 1e6,
        "net.frames": frames,
        "net.frames_per_op": _div(frames, ops),
        "net.datapath.self_s": s("net.datapath"),
        "net.datapath.us_per_frame": _div(s("net.datapath"), frames) * 1e6,
        "net.wire_bytes_per_op": _div(counts["net.wire_bytes"], ops),
        "transport.sends": c("transport.send"),
        "transport.self_s": lay["transport"],
        "transport.pathsel.calls": c("transport.pathsel"),
        "transport.retransmits": retransmits,
        "transport.rx_drops": _obs_sum(obs, "transport.rx_drops"),
        "transport.retransmit_ratio": _div(retransmits,
                                           counts["transport.data_frames"]),
        "rpc.calls": c("rpc.call"),
        "rpc.self_s": lay["rpc"],
        "rpc.us_per_call": _div(lay["rpc"], c("rpc.call")) * 1e6,
        "rpc.failed": _obs_sum(obs, "rpc.errors"),
        "rpc.requests_shed": _obs_sum(obs, "rpc.requests_shed"),
        "rpc.payload_size.calls": counts["rpc.payload_size.calls"],
        "security.encodes_per_op": _div(c("security.canonical_bytes"), ops),
        "security.encoded_bytes_per_op": _div(
            counts["security.encoded_bytes"], ops),
        "security.canonical_bytes.self_s": s("security.canonical_bytes"),
        "security.content_hash.calls": c("security.content_hash"),
        "security.content_hash.self_s": s("security.content_hash"),
        "security.content_hash.incl_s": L["incl"].get(
            "security.content_hash", 0.0),
        "rcds.client_ops": c("rcds.client") + c("rcds.shard.client"),
        "rcds.self_s": lay["rcds"],
        "rcds.store.applies": counts["rcds.store.applies"],
        "rcds.store.self_s": s("rcds.store"),
        "rcds.query.self_s": s("rcds.query"),
        "rcds.snapshot.calls": c("rcds.snapshot"),
        "rcds.snapshot.entries_per_call": _div(
            counts["rcds.snapshot.entries"], c("rcds.snapshot")),
        "rcds.snapshot.self_s": s("rcds.snapshot"),
        "rcds.preload_s": preload_s,
        "rcds.shard.route.calls_per_op": _div(c("rcds.shard.route"), ops),
        "rcds.shard.route.self_s": s("rcds.shard.route"),
        "rcds.shard.self_s": lay["rcds.shard"],
        "rcds.shard.redirects": _obs_sum(obs, "rcds.redirects"),
        "rcds.shard.redirect_retries": _obs_sum(obs, "rcds.redirect_retries"),
        "rcds.shard.handoffs": _obs_sum(obs, "rcds.handoffs"),
        "rcds.shard.drain_s": rep.facts.get("drain_s") or 0.0,
        "robust.self_s": lay["robust"],
        "robust.health.calls": c("robust.health"),
        "robust.retries": _obs_sum(obs, "robust.retries"),
        "robust.giveups": _obs_sum(obs, "robust.giveups"),
        "obs.self_s": lay["obs"],
        "obs.calls": c("obs"),
        "trace.overhead_frac": _div(rep.sim_cpu_s - untraced_cpu_s,
                                    untraced_cpu_s),
        "trace.attributed_frac": _div(
            sum(v for k, v in lay.items() if k != "sim"), rep.sim_cpu_s),
    }
    for proto in ("srudp", "tcp", "mcast"):
        out[f"transport.{proto}.msg_p99_ms"] = 1000.0 * obs.get(
            f"transport.msg_latency{{proto={proto}}}.p99", 0.0)
    return out


def source_fingerprint() -> str:
    """Hash of the simulator and benchmark sources: the digest store key."""
    h = hashlib.sha256()
    for path in sorted(list((SRC / "repro").rglob("*.py"))
                       + list(BENCH_DIR.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_stored_digest(key: str, digest: str) -> Optional[str]:
    """Compare with (or record) the digest stored under *key* (workload,
    seed, source fingerprint). Returns the stored digest when it
    disagrees, else None."""
    path = OUT_DIR / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    known = store.get(key)
    if known is not None:
        return None if known == digest else known
    store[key] = digest
    OUT_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def probe_setup(workload, seed: int, shape, setup_s: float) -> List[float]:
    """CPU times of extra set-ups (built and dropped), about
    SETUP_PROBE_S worth; none when one set-up already takes that long."""
    from workloads import Rep

    times = []
    for _ in range(min(MAX_SETUP_PROBES, int(SETUP_PROBE_S / max(setup_s, 1e-6)))):
        t = time.process_time()
        workload.setup(seed, shape or workload.full, Rep())
        times.append(time.process_time() - t)
        gc.collect()  # a dropped site is cyclic garbage: keep it off peak RSS
    return times


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        shape=None) -> Dict:
    """Repeat one workload for ``seconds``; return the result object."""
    from layers import LayerTracer
    from workloads import WORKLOADS, run_rep

    workload = WORKLOADS[workload_name]
    fingerprint = source_fingerprint()  # before any edit can race the run
    untraced, traced = [], []
    problems: List[str] = []
    tracer = None
    setup_times: List[float] = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        rep = run_rep(workload, seed, shape)
        untraced.append(rep)
        gc.collect()  # the repetition's site is cyclic garbage
        setup_times.append(rep.setup_s)
        if trace:
            tracer = LayerTracer()
            with tracer:
                traced.append(run_rep(workload, seed, shape, tracer=tracer))
            gc.collect()
        else:
            setup_times += probe_setup(workload, seed, shape, rep.setup_s)
        n = len(untraced) + len(traced)
        elapsed = time.perf_counter() - t0
        if n >= MIN_REPS and elapsed * (n + (2 if trace else 1)) / n > seconds:
            break
    spans = None
    if tracer is not None:
        # One file per workload, not per seed: repeated runs must not pile
        # up files of tens of MB.
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{workload_name}.csv.gz"
        tracer.write_spans(spans)

    reps = untraced + traced
    first = untraced[0]
    digests = sorted({r.digest for r in reps})
    if len(digests) > 1:
        problems.append(f"repetitions disagree: digests {digests}")
    stored = check_stored_digest(f"{workload_name}:{seed}:{fingerprint}",
                                 first.digest)
    if stored is not None:
        problems.append(f"digest {first.digest} != {stored} recorded by an "
                        "earlier run of this seed on this source tree")
    for name, ok in first.checks.items():
        if not ok:
            problems.append(f"check failed: {name}")

    if trace:
        cpu = statistics.median(r.sim_cpu_s for r in untraced)
        preload = statistics.median(r.preload_s for r in reps)
        per_rep = [per_layer(r, cpu, preload) for r in traced]
        metrics = {name: (statistics.median(m[name] for m in per_rep), unit)
                   for name, unit in PER_LAYER}
        e2e = {}
    else:
        e2e = end_to_end(untraced, setup_times)
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END}
    return {
        "workload": workload_name, "seed": seed, "reps": len(untraced),
        "traced_reps": len(traced), "digest": first.digest, "spans": spans,
        "checks": first.checks, "errors": first.errors, "problems": problems,
        "rep_cpu_s": [(r.setup_s, r.sim_cpu_s) for r in reps],
        "completed": first.completed, "samples": {
            k: len(v) for k, v in first.latencies.items()},
        "e2e": e2e, "metrics": metrics,
        "result": {
            "correct": not problems,
            "attempted": first.attempted,
            "failed": first.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def _print_report(out: Dict, trace: bool) -> None:
    print(f"workload {out['workload']}  seed {out['seed']}  "
          f"reps {out['reps']}+{out['traced_reps']} traced  "
          f"digest {out['digest']}")
    print(f"  ops completed {out['completed']} per rep; latency samples "
          + ", ".join(f"{k} {n}" for k, n in out["samples"].items()))
    print("  CPU s per rep (set-up, simulation): " + ", ".join(
        f"({a:.3f}, {b:.3f})" for a, b in out["rep_cpu_s"]))
    for name, ok in out["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for msg in out["errors"]:
        print(f"  failed op: {msg}")
    for msg in out["problems"]:
        print(f"  PROBLEM: {msg}")
    if out["spans"] is not None:
        print(f"  spans of the last traced repetition: {out['spans']}")
    shown = dict(out["metrics"])
    if not trace:
        shown.update({name: (out["e2e"][name], unit)
                      for name, unit in REPORTED})
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(out, bool(args.trace))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
