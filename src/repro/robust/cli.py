"""``python -m repro chaos`` — run the seeded chaos harness.

Subcommands:

* ``run`` — one chaos run of a scenario (``--scenario``; the registry
  in :mod:`repro.scenarios` lists them: faults, overload, bulk, gray,
  heal, shard). Prints the scenario's report — fault schedule,
  measurements, and its invariant/criteria table — and exits 0 iff
  every check holds. ``--seed N`` picks the schedule; same seed, same
  run. Each flag's help names the scenarios that use it, with their
  defaults; a scenario ignores the flags it does not use. Baselines:
  ``--static`` (overload), ``--heartbeat-only`` (gray), ``--unbounded``
  and ``--blackout`` (heal).
* ``sweep`` — run several seeds back to back (default: the CI seeds)
  and print one summary line each; exit non-zero if any seed fails.
* ``bench`` — the robustness benchmarks: ``--experiment gray`` (E15,
  differential detector vs heartbeat-only; writes
  ``BENCH_gray_goodput.json``), ``--experiment heal`` (E16, bounded
  anti-entropy vs the unbounded blob plus blackout restore; writes
  ``BENCH_heal_reconvergence.json``) or ``--experiment catalog`` (E18).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.scenarios import DEFAULT_SEEDS, SCENARIOS, run_chaos

#: Chaos value flags: (flag, scenario parameter, type, help). A scenario
#: takes the flag iff the parameter is one of its defaults.
VALUE_FLAGS = (
    ("--workers", "n_workers", int, "worker hosts"),
    ("--steps", "total", int, "work units per task"),
    ("--duration", "duration", float, "simulated-seconds budget"),
    ("--saturation", "saturation", float,
     "offered load as a multiple of site capacity"),
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _defaults_help(param: str) -> str:
    """The scenarios that use *param*, with the value each run uses by
    default (and under any switch that changes it)."""
    parts = []
    for sc in SCENARIOS.values():
        if param not in sc.defaults:
            continue
        base = sc.params()[param]
        text = f"{sc.name} {base:g}"
        for sw in sc.switches:
            alt = sc.params(**{sw.param: sw.value})[param]
            if alt != base:
                text += f" ({alt:g} with {sw.name})"
        if param in sc.limits:
            text += f", at most {sc.limits[param]}"
        parts.append(text)
    return "default: " + "; ".join(parts)


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=list(SCENARIOS), default="faults",
                   help="; ".join(f"{sc.name}: {sc.summary}"
                                  for sc in SCENARIOS.values()))
    for flag, param, typ, text in VALUE_FLAGS:
        p.add_argument(flag, type=typ, default=None,
                       help=f"{text} ({_defaults_help(param)})")
    for sc in SCENARIOS.values():
        for sw in sc.switches:
            p.add_argument(sw.name, action="store_true", help=f"[{sc.name}] {sw.help}")
    p.add_argument("--obs-sample", type=float, default=None, metavar="RATE",
                   help="enable tracing at this sampling rate (1.0 = every "
                        "record, 0.01 = 1-in-100; default: tracing off)")
    p.add_argument("--export", default=None, metavar="PATH",
                   help="save the run's observability metrics export as "
                        "JSON (diffable with `python -m repro obs diff`)")


def _overrides(args) -> dict:
    """The scenario parameters the command line sets."""
    sc = SCENARIOS[args.scenario]
    kw = {}
    for flag, param, _, _ in VALUE_FLAGS:
        value = getattr(args, _dest(flag))
        if value is not None and param in sc.defaults:
            kw[param] = value
    for sw in sc.switches:
        if getattr(args, _dest(sw.name)):
            kw[sw.param] = sw.value
    return kw


def _run_one(seed: int, args) -> dict:
    holder = {}
    instrument = (lambda sim: holder.setdefault("sim", sim)) if args.export else None
    report = run_chaos(args.scenario, seed, instrument=instrument,
                       obs_sample=args.obs_sample, **_overrides(args))
    if args.export and holder.get("sim") is not None:
        from repro.obs.report import save_export

        save_export(holder["sim"].obs.export(), args.export)
        print(f"metrics export written to {args.export}")
    if not report["ok"] and report.get("flight"):
        from repro.obs.flight import dump_flight_records

        path = f"flight-{args.scenario}-seed{seed}.jsonl"
        n = dump_flight_records(path, report["flight"])
        print(f"flight recorder: {n} records dumped to {path}")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro chaos",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="one seeded chaos run")
    p_run.add_argument("--seed", type=int, default=1)
    _add_run_args(p_run)
    p_sweep = sub.add_parser("sweep", help="run a set of seeds")
    p_sweep.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    _add_run_args(p_sweep)
    p_bench = sub.add_parser(
        "bench", help="robustness benchmarks: E15 gray goodput, E16 heal "
                      "reconvergence, or E18 catalog scale")
    p_bench.add_argument("--experiment", choices=("gray", "heal", "catalog"),
                         default="gray",
                         help="gray: E15, differential detector vs "
                              "heartbeat-only; heal: E16, bounded "
                              "anti-entropy vs the unbounded blob, plus "
                              "blackout restore; catalog: E18, sharded "
                              "federation vs full replication at 10^4-10^5 "
                              "names plus a shard split under live load "
                              "(default: gray)")
    p_bench.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p_bench.add_argument("--duration", type=float, default=None,
                         help="simulated-seconds budget per run "
                              "(default: 40 for gray, 100 for heal, "
                              "20 for catalog)")
    p_bench.add_argument("--names", type=int, nargs="+", default=None,
                         help="[catalog] preloaded catalog sizes per row "
                              "(default: 10000 100000)")
    p_bench.add_argument("--split-names", type=int, default=None,
                         help="[catalog] preload size for the "
                              "split-under-load run (default: 3000)")
    p_bench.add_argument("--clients", type=int, default=None,
                         help="[catalog] client hosts driving the "
                              "closed-loop mix (default: 8)")
    p_bench.add_argument("--json-dir", default=".",
                         help="directory for the BENCH json "
                              "(default: current directory)")
    args = parser.parse_args(argv)

    if args.cmd == "bench":
        import time as _time

        from repro.obs.report import write_bench_json

        if args.experiment == "catalog":
            from repro.bench.e18_catalog_scale import (
                catalog_scale,
                format_catalog_bench,
                split_under_load,
                summarize,
            )

            t0 = _time.monotonic()
            window = args.duration if args.duration is not None else 20.0
            kw = {}
            if args.names is not None:
                kw["name_counts"] = tuple(args.names)
            if args.clients is not None:
                kw["n_client_hosts"] = args.clients
            rows = catalog_scale(seed=args.seeds[0], window=window, **kw)
            skw = {}
            if args.split_names is not None:
                skw["n_names"] = args.split_names
            holder = {}
            split = split_under_load(
                seed=args.seeds[0], window=min(window + 10.0, 30.0),
                instrument=lambda sim: holder.setdefault("sim", sim), **skw)
            print(format_catalog_bench(rows, split))
            metrics = (holder["sim"].obs.metrics.export()
                       if holder.get("sim") is not None else None)
            path = write_bench_json(
                "catalog_scale", rows, args.json_dir,
                wall_s=round(_time.monotonic() - t0, 2), scenario="catalog",
                seed=args.seeds[0], metrics=metrics,
                extra={"summary": summarize(rows, split), "split": split},
            )
            print(f"\nbench json written: {path}")
            sharded = [r for r in rows if r["config"] == "sharded"]
            # misses are a hard zero (every preloaded name must resolve);
            # failed ops get a 0.1%-of-writes allowance — at the saturated
            # top scale a closed-loop QUORUM write can exhaust its retry
            # budget without indicting the federation.
            ok = (all(r["misses"] == 0
                      and r["failed"] <= 0.001 * (r["updates"] + r["creates"])
                      for r in sharded)
                  and split["splits"] >= 1 and split["drain_s"] is not None)
            return 0 if ok else 1

        if args.experiment == "heal":
            from repro.bench.e16_heal import (
                format_heal_bench,
                heal_reconvergence,
                summarize,
            )

            t0 = _time.monotonic()
            rows = heal_reconvergence(
                seeds=args.seeds,
                duration=args.duration if args.duration is not None else 100.0,
            )
            print(format_heal_bench(rows))
            path = write_bench_json(
                "heal_reconvergence", rows, args.json_dir,
                wall_s=round(_time.monotonic() - t0, 2), scenario="heal",
                extra={"summary": summarize(rows), "seeds": list(args.seeds)},
            )
            print(f"\nbench json written: {path}")
            s = summarize(rows)
            ok = (s["bounded_all_ok"] and s["blackout_all_ok"]
                  and s["baseline_breaches_bound"]
                  and s["blackout_resurrected"] == 0)
            return 0 if ok else 1

        from repro.bench.e15_gray import format_gray_bench, gray_goodput, summarize

        t0 = _time.monotonic()
        rows = gray_goodput(
            seeds=args.seeds,
            duration=args.duration if args.duration is not None else 40.0,
        )
        print(format_gray_bench(rows))
        path = write_bench_json(
            "gray_goodput", rows, args.json_dir,
            wall_s=round(_time.monotonic() - t0, 2), scenario="gray",
            extra={"summary": summarize(rows), "seeds": list(args.seeds)},
        )
        print(f"\nbench json written: {path}")
        s = summarize(rows)
        ok = (s["goodput_ratio"] is not None and s["goodput_ratio"] >= 2.0
              and s["false_deaths_differential"] == 0)
        return 0 if ok else 1

    scenario = SCENARIOS[args.scenario]
    if args.cmd == "run":
        report = _run_one(args.seed, args)
        print(scenario.format(report))
        return 0 if report["ok"] else 1
    failures = 0
    for seed in args.seeds:
        report = _run_one(seed, args)
        print(scenario.sweep_line(seed, report))
        failures += 0 if report["ok"] else 1
    return 0 if failures == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
