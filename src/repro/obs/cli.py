"""``python -m repro obs`` — render, diff, profile, and gate observability.

Subcommands:

* ``report`` — no argument: run the built-in lossy-LAN demo scenario
  (srudp, tcp, and ethernet multicast traffic under 5% frame loss) and
  print the per-subsystem metrics report — p50/p95/p99 message latency
  and retransmit counts per transport. With a file argument: render a
  previously saved export (or ``BENCH_*.json``) instead of simulating.
  ``--json PATH`` saves the export; ``--trace PATH`` enables tracing and
  dumps the JSON-lines trace log.
* ``diff BASE NEW`` — align two saved exports by (metric, tags) and
  print per-column deltas. ``--fail-over PCT`` turns the diff into a CI
  regression gate: exit nonzero when any matching metric moved more than
  PCT percent (``--metrics GLOB`` filters, ``--direction up|down|any``
  picks the gated direction).
* ``profile`` — run a scenario (demo/chaos/overload/bulk) under the
  deterministic kernel profiler; print the hot-subsystem table and write
  ``BENCH_profile_<scenario>.json`` (with a d3-flamegraph-style nested
  JSON under ``flame``; ``--flame PATH`` also writes it standalone).
* ``overhead`` — measure the cost of the observability layer itself:
  runs the E12 overload and E13 bulk workloads with tracing detached,
  sampled (1-in-100), and always-on, and writes
  ``BENCH_obs_overhead.json``.
* ``slo`` — evaluate the declarative SLOs (control-RPC p99, heartbeat
  loss, recovery MTTR, shed rate) continuously over an overload run —
  or offline against a saved export (``--export FILE``) — and exit
  nonzero on violation.
* ``perf-gate`` — measure the kernel's wall-clock cost on short E12
  (overload) and E13 (bulk chaos) slices, normalised by a pure-Python
  calibration loop so the numbers compare across machines, and write
  them as an export (``perf.e12_norm`` / ``perf.e13_norm`` gauges).
  CI diffs the file against ``baselines/perf-kernel.json`` with
  ``obs diff --fail-over 20 --metrics 'perf.*' --direction up`` — the
  kernel performance regression gate.
"""

from __future__ import annotations

import argparse
import json
from typing import Callable, List, Optional

from repro.obs.prof import profile_scenarios
from repro.obs.report import (
    diff_exports,
    gate_diff,
    load_export,
    render_diff,
    render_report,
    save_export,
    write_bench_json,
)

#: Demo scenario knobs.
LOSS_RATE = 0.05
N_MESSAGES = 20
MSG_BYTES = 65_536


def demo_scenario(
    loss_rate: float = LOSS_RATE,
    n_messages: int = N_MESSAGES,
    msg_bytes: int = MSG_BYTES,
    seed: int = 7,
    trace: bool = False,
    instrument: Optional[Callable] = None,
):
    """Three hosts on a lossy LAN pushing srudp, tcp, and mcast traffic.

    Returns the finished :class:`~repro.sim.kernel.Simulator`; its
    ``sim.obs`` holds the metrics (and the trace, when enabled).
    ``instrument(sim)`` runs before any process exists — the profiler
    attaches through it.
    """
    from repro.net import ETHERNET_100, Medium, Topology
    from repro.sim import Simulator
    from repro.transport import EthernetMulticast, SrudpEndpoint, StreamEndpoint

    medium = Medium(
        name="lan",
        bandwidth=ETHERNET_100.bandwidth,
        latency=ETHERNET_100.latency,
        mtu=ETHERNET_100.mtu,
        frame_overhead=ETHERNET_100.frame_overhead,
        loss_rate=loss_rate,
    )
    sim = Simulator(seed=seed)
    if trace:
        sim.obs.tracer.enabled = True
    if instrument is not None:
        instrument(sim)
    topo = Topology(sim)
    seg = topo.add_segment("lan", medium)
    hosts = []
    for i in range(3):
        h = topo.add_host(f"h{i}")
        topo.connect(h, seg)
        hosts.append(h)
    a, b, c = hosts

    srudp_tx = SrudpEndpoint(a, 5000)
    srudp_rx = SrudpEndpoint(b, 5000)
    tcp_tx = StreamEndpoint(a, 6000)
    tcp_rx = StreamEndpoint(b, 6000)
    mcast = {h.name: EthernetMulticast(h, 7000, "lan") for h in hosts}

    def drain(ep, n):
        for _ in range(n):
            yield ep.recv()

    def send_all(ep, n):
        for i in range(n):
            yield ep.send(b.name, ep.port, f"msg-{i}", msg_bytes)

    def send_group(ep, n):
        for i in range(n):
            yield ep.send_group([b.name, c.name], 7000, f"m-{i}", msg_bytes)

    sim.process(drain(srudp_rx, n_messages), name="drain-srudp")
    sim.process(drain(tcp_rx, n_messages), name="drain-tcp")
    sim.process(drain(mcast[b.name], n_messages), name="drain-mcast-b")
    sim.process(drain(mcast[c.name], n_messages), name="drain-mcast-c")
    procs = [
        sim.process(send_all(srudp_tx, n_messages), name="send-srudp"),
        sim.process(send_all(tcp_tx, n_messages), name="send-tcp"),
        sim.process(send_group(mcast[a.name], n_messages), name="send-mcast"),
    ]
    sim.run(until=sim.all_of(procs))
    return sim


def _cmd_report(args: argparse.Namespace) -> int:
    if args.export is not None:
        export = load_export(args.export)
        print(render_report(export, title=f"observability report: {args.export}"))
        return 0
    sim = demo_scenario(trace=args.trace is not None)
    export = sim.obs.export()
    title = (
        "observability report: lossy-LAN demo "
        f"(loss={LOSS_RATE:.0%}, {N_MESSAGES}x{MSG_BYTES}B per transport)"
    )
    print(render_report(export, title=title))
    if args.json is not None:
        save_export(export, args.json)
        print(f"\nexport written to {args.json}")
    if args.trace is not None:
        sim.obs.tracer.dump_jsonl(args.trace)
        print(f"trace ({len(sim.obs.tracer)} records) written to {args.trace}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    base = load_export(args.base)
    new = load_export(args.new)
    print(render_diff(base, new, title=f"observability diff: {args.new} vs {args.base}"))
    if args.fail_over is None:
        return 0
    rows = diff_exports(base, new)
    tripped = gate_diff(rows, args.fail_over, metrics_glob=args.metrics,
                        direction=args.direction)
    print()
    if not tripped:
        print(f"GATE OK: no metric matching {args.metrics!r} moved "
              f"{args.direction} by more than {args.fail_over:g}%")
        return 0
    print(f"GATE FAILED: {len(tripped)} metric change(s) beyond "
          f"{args.fail_over:g}% ({args.direction}):")
    for row in tripped:
        tags = f"[{row['tags']}]" if row["tags"] else ""
        print(f"  {row['metric']}{tags} {row['column']}: "
              f"{row['base']} -> {row['new']} ({row['pct']:+.1f}%)")
    return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.prof import profile_scenario

    result = profile_scenario(args.scenario, seed=args.seed)
    prof = result["profiler"]
    print(prof.format_report(args.scenario))
    path = write_bench_json(
        f"profile_{args.scenario}",
        result["profile"]["by_subsystem"],
        args.out,
        wall_s=result["profile"]["wall_s"],
        scenario=args.scenario,
        seed=args.seed,
        extra={"ok": result["ok"], "profile": result["profile"],
               "flame": result["flame"]},
    )
    print(f"\nprofile written to {path}")
    if args.flame is not None:
        with open(args.flame, "w") as fh:
            json.dump(result["flame"], fh, indent=2)
            fh.write("\n")
        print(f"flamegraph JSON written to {args.flame}")
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.bench.e14_obs import format_overhead, obs_overhead

    rows = obs_overhead(seed=args.seed, repeats=args.repeats, quick=args.quick)
    print(format_overhead(rows))
    path = write_bench_json(
        "obs_overhead", rows, args.out, seed=args.seed,
        extra={"repeats": args.repeats, "quick": args.quick},
    )
    print(f"\nwritten to {path}")
    return 0


#: Iterations of the pure-Python calibration spin perf-gate divides by.
#: Sized so the spin takes roughly as long as a workload slice (~0.3 s),
#: so each spin samples the same instantaneous machine load as the
#: workload it is paired with.
CALIBRATION_LOOPS = 400_000


def _calibration_spin() -> int:
    # Allocation- and dispatch-heavy on purpose: the simulator's cost is
    # dominated by object churn and method calls, so a spin with the
    # same profile tracks allocator/GC pressure a pure-arithmetic loop
    # would miss.
    acc = []
    n = 0
    for i in range(CALIBRATION_LOOPS):
        acc.append({"i": i, "t": (i, i & 7)})
        if len(acc) >= 64:
            n += sum(d["t"][1] for d in acc)
            acc.clear()
    return n


def _cmd_perf_gate(args: argparse.Namespace) -> int:
    import time

    from repro.bench.table import format_table
    from repro.scenarios import run_chaos

    if args.quick:
        workloads = [
            ("e12", lambda: run_chaos("overload", args.seed, saturation=3.0, duration=4.0)),
            ("e13", lambda: run_chaos("bulk", args.seed, object_kb=128, duration=20.0)),
        ]
    else:
        workloads = [
            ("e12", lambda: run_chaos("overload", args.seed, saturation=3.0, duration=16.0)),
            ("e13", lambda: run_chaos("bulk", args.seed, object_kb=2048, duration=60.0)),
        ]

    def timed(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    # Each repeat pairs a calibration spin with the workload run and
    # normalises within the pair, so drifting background load (the CI
    # runner's co-tenants) cancels instead of masquerading as a kernel
    # change. The median pair-ratio is reported: the min would reward
    # a pair whose spin ran slow, the max punish one whose workload did.
    rows = []
    gauges = []
    calibs = []
    for name, fn in workloads:
        pairs = []
        for _ in range(args.repeats):
            calib = timed(_calibration_spin)
            wall = timed(fn)
            calibs.append(calib)
            pairs.append((wall / calib, wall))
        pairs.sort()
        norm, wall = pairs[len(pairs) // 2]
        rows.append({"workload": name, "wall_s": round(wall, 4),
                     "norm": round(norm, 3)})
        # Only the normalised costs live under perf.* — the gate's
        # metric glob — because raw wall seconds differ across machines
        # for reasons that are not regressions.
        gauges.append({"name": f"perf.{name}_norm", "tags": {},
                       "value": round(norm, 3)})
        gauges.append({"name": f"info.{name}_wall_s", "tags": {},
                       "value": round(wall, 4)})
    gauges.append({"name": "info.calib_s", "tags": {},
                   "value": round(min(calibs), 4)})
    gauges.sort(key=lambda g: g["name"])
    print(f"calibration spin: {min(calibs):.4f}s (best of "
          f"{len(calibs)}; norm = workload wall / paired spin wall)")
    print(format_table(rows))
    save_export({"counters": [], "gauges": gauges, "histograms": []}, args.out)
    print(f"\nwritten to {args.out}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.slo import (
        DEFAULT_SLOS,
        SloMonitor,
        evaluate_slos,
        format_slo_results,
        parse_slo,
    )

    slos = tuple(parse_slo(s) for s in args.slo) if args.slo else DEFAULT_SLOS
    if args.export is not None:
        results = evaluate_slos(load_export(args.export), slos)
        title = f"SLO evaluation: {args.export}"
    else:
        from repro.scenarios import run_chaos

        holder = {}

        def instrument(sim):
            holder["monitor"] = SloMonitor(sim, slos,
                                           interval=args.interval).attach()

        run_chaos("overload", args.seed, saturation=args.saturation,
                  adaptive=not args.static, duration=args.duration,
                  instrument=instrument)
        results = holder["monitor"].results()
        mode = "static baseline" if args.static else "adaptive"
        title = (f"SLO evaluation: overload seed={args.seed} "
                 f"saturation={args.saturation:g}x ({mode})")
    print(format_slo_results(results, title=title))
    if args.json is not None:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {args.json}")
    return 0 if all(r["ok"] for r in results) else 1


def main(argv: Optional[List[str]] = None) -> int:
    from repro.scenarios import SCENARIOS

    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="render and diff simulator observability reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="print a per-subsystem metrics report")
    p_report.add_argument(
        "export", nargs="?", default=None,
        help="saved export (or BENCH_*.json) to render; omit to run the demo scenario",
    )
    p_report.add_argument("--json", default=None, metavar="PATH",
                          help="save the demo scenario's export as JSON")
    p_report.add_argument("--trace", default=None, metavar="PATH",
                          help="enable tracing and dump the JSON-lines trace log")
    p_report.set_defaults(fn=_cmd_report)

    p_diff = sub.add_parser("diff", help="diff two saved exports "
                                         "(optionally as a CI regression gate)")
    p_diff.add_argument("base")
    p_diff.add_argument("new")
    p_diff.add_argument("--fail-over", type=float, default=None, metavar="PCT",
                        help="exit nonzero if any gated metric changed by "
                             "more than PCT percent")
    p_diff.add_argument("--metrics", default="*", metavar="GLOB",
                        help="glob of metric names the gate applies to "
                             "(default: all)")
    p_diff.add_argument("--direction", choices=("any", "up", "down"),
                        default="any",
                        help="gate increases, decreases, or both (default any)")
    p_diff.set_defaults(fn=_cmd_diff)

    p_prof = sub.add_parser("profile",
                            help="run a scenario under the kernel profiler")
    p_prof.add_argument("--scenario", choices=list(profile_scenarios()), default="demo")
    p_prof.add_argument("--seed", type=int, default=1)
    p_prof.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_profile_<scenario>.json "
                             "(default: .)")
    p_prof.add_argument("--flame", default=None, metavar="PATH",
                        help="also write the d3-flamegraph JSON standalone")
    p_prof.set_defaults(fn=_cmd_profile)

    p_over = sub.add_parser("overhead",
                            help="measure tracing overhead (off/sampled/on) "
                                 "on the E12/E13 workloads")
    p_over.add_argument("--seed", type=int, default=1)
    p_over.add_argument("--repeats", type=int, default=3,
                        help="wall-clock repeats per cell; min is reported "
                             "(default 3)")
    p_over.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    p_over.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_obs_overhead.json (default: .)")
    p_over.set_defaults(fn=_cmd_overhead)

    p_perf = sub.add_parser(
        "perf-gate",
        help="measure normalised kernel cost on E12/E13 slices "
             "(diff the output against baselines/perf-kernel.json)",
    )
    p_perf.add_argument("--seed", type=int, default=1)
    p_perf.add_argument("--repeats", type=int, default=5,
                        help="spin+workload pairs per workload; the median "
                             "pair-ratio is reported (default 5)")
    p_perf.add_argument("--quick", action="store_true",
                        help="smaller workload slices (smoke tests)")
    p_perf.add_argument("--out", default="perf-kernel.json", metavar="PATH",
                        help="export file to write (default perf-kernel.json)")
    p_perf.set_defaults(fn=_cmd_perf_gate)

    p_slo = sub.add_parser("slo", help="evaluate SLOs over an overload run "
                                       "or a saved export")
    p_slo.add_argument("--seed", type=int, default=1)
    overload = SCENARIOS["overload"].defaults
    p_slo.add_argument("--saturation", type=float, default=overload["saturation"],
                       help="offered load as a multiple of site capacity "
                            f"(default {overload['saturation']})")
    p_slo.add_argument("--static", action="store_true",
                       help="baseline: fixed timeouts, no breakers, no "
                            "priority lanes (the natural SLO breach)")
    p_slo.add_argument("--duration", type=float, default=overload["duration"])
    p_slo.add_argument("--interval", type=float, default=1.0,
                       help="virtual seconds between in-run SLO samples "
                            "(default 1.0)")
    p_slo.add_argument("--slo", action="append", default=None, metavar="SPEC",
                       help="name:metric[:column]:op:threshold (repeatable; "
                            "default: the built-in SLO set)")
    p_slo.add_argument("--export", default=None, metavar="FILE",
                       help="evaluate offline against a saved export instead "
                            "of simulating")
    p_slo.add_argument("--json", default=None, metavar="PATH",
                       help="save the per-SLO verdicts as JSON")
    p_slo.set_defaults(fn=_cmd_slo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
