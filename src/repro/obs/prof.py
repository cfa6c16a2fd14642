"""Deterministic kernel profiler: where does the simulator spend its time?

The profiler hooks the two hot points of :class:`repro.sim.kernel.
Simulator` — ``_schedule`` (heap pushes) and ``step`` (heap pops plus
callback dispatch) — and attributes the wall-clock cost of every event
callback to the component that owns it. Attribution uses what the kernel
already knows: a callback bound to a :class:`~repro.sim.process.Process`
carries the process name (``srudp:h0:5000``, ``nic:10.0.0.1(h0.eth0)``,
``ovl-load:w1``...), whose leading token is the subsystem and whose
second token names the host; unbound callbacks fall back to the module
that defined them.

Alongside wall-clock, the profiler counts the kernel-level work the
ROADMAP's 10x item targets: event-heap pushes/pops and high-water queue
length, timer churn (``Timeout`` events plus wheel timers noted through
:meth:`KernelProfiler.note_timer`), Frame constructions (the simulator's
per-sim frame-id counter), and bytes serialized onto wires (charged by
the NIC tx paths).

Everything is gated on ``sim._prof``: a detached simulator pays one
``is not None`` test per schedule and per step, nothing else. Counts and
attribution are deterministic for a given seed; only the wall-clock
figures vary run to run, which is why the report keeps them separate.

``python -m repro obs profile --scenario <s>`` runs a scenario under the
profiler and writes ``BENCH_profile_<s>.json`` plus a d3-flamegraph-style
nested JSON (root -> subsystem -> host -> event type, value = µs).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.events import Event, Timeout
from repro.sim.kernel import TimerHandle


def _module_subsystem(mod: Optional[str]) -> str:
    """``repro.transport.base`` -> ``transport``; anything else, last part."""
    if not mod:
        return "unknown"
    parts = mod.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[-1]


def _split_name(name: str) -> Tuple[str, Optional[str]]:
    """(subsystem, host) from a process name.

    ``srudp:h0:5000`` -> (srudp, h0); ``nic:10.0.0.1(h0.eth0)`` -> (nic,
    h0); ``drain-mcast-b`` -> (drain-mcast-b, None).
    """
    parts = name.split(":")
    sub = parts[0] or "anon"
    host: Optional[str] = None
    if len(parts) > 1 and parts[1]:
        p = parts[1]
        if "(" in p:
            host = p.split("(", 1)[1].rstrip(")").split(".", 1)[0]
        else:
            host = p
    return sub, host


class KernelProfiler:
    """Attributes kernel wall-clock and event counts while attached.

    Use :meth:`attach` / :meth:`detach` (or run a scenario through
    :func:`profile_scenario`); while attached, the kernel routes every
    popped event through :meth:`run_event` and notes every push through
    :meth:`note_schedule`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.events = 0
        self.callbacks = 0
        self.heap_pushes = 0
        self.heap_pops = 0
        self.queue_max = 0
        self.timers_scheduled = 0
        self.wire_bytes = 0
        self.wire_frames = 0
        #: (subsystem, host, event type) -> [wall seconds, callback count]
        self.cells: Dict[Tuple[str, Optional[str], str], List[float]] = {}
        self._frames0 = 0
        self._frames1 = 0
        self._sim = None
        self._attached_at: Optional[float] = None
        self.wall_s: float = 0.0
        #: Memoized owner-name -> (subsystem, host) attribution; parsing
        #: a process name is pure, so splitting each distinct name once
        #: is enough.
        self._owner_cache: Dict[str, Tuple[str, Optional[str]]] = {}

    # -- kernel hooks -------------------------------------------------------
    def attach(self, sim) -> "KernelProfiler":
        sim._prof = self
        self._sim = sim
        self._frames0 = sim.frames_constructed
        self._attached_at = self.clock()
        return self

    def detach(self, sim) -> "KernelProfiler":
        if sim._prof is self:
            sim._prof = None
        self._frames1 = sim.frames_constructed
        if self._attached_at is not None:
            self.wall_s = self.clock() - self._attached_at
            self._attached_at = None
        return self

    def note_schedule(self, event: Event, queue_len: int) -> None:
        """Called by ``Simulator._schedule`` after the heap push."""
        self.heap_pushes += 1
        if queue_len > self.queue_max:
            self.queue_max = queue_len
        if isinstance(event, Timeout):
            self.timers_scheduled += 1

    def note_timer(self, handle: TimerHandle) -> None:
        """Called by ``Simulator.schedule_timer`` for every wheel timer."""
        self.timers_scheduled += 1

    def run_event(self, event: Event) -> None:
        """Process one popped event, timing each callback individually.

        Replicates :meth:`Event._process` so the per-callback clock reads
        surround exactly one callback. An Event subclass that overrides
        ``_process`` (none in-tree does) is timed as a single block so
        behaviour is never changed by profiling.
        """
        self.heap_pops += 1
        self.events += 1
        cls = type(event)
        tname = cls.__name__
        if cls is TimerHandle:
            t0 = self.clock()
            event._process()
            if event.fired:
                self.callbacks += 1
                sub, host = _split_name(event.owner) if event.owner else ("timer", None)
                self._charge(sub, host, "Timer", self.clock() - t0)
            return
        if cls._process is not Event._process:
            t0 = self.clock()
            event._process()
            owner = getattr(event, "prof_owner", None)
            if owner is None:
                self._charge("kernel", None, tname, self.clock() - t0)
            else:
                self._charge(owner[0], owner[1], tname, self.clock() - t0)
            return
        if event._processed:
            return
        event._processed = True
        callbacks, event.callbacks = event.callbacks, None
        if not callbacks:
            self._charge("kernel", None, tname, 0.0)
            return
        clock = self.clock
        for fn in callbacks:
            t0 = clock()
            fn(event)
            dt = clock() - t0
            self.callbacks += 1
            sub, host = self._owner(fn)
            self._charge(sub, host, tname, dt)

    # -- attribution --------------------------------------------------------
    def _owner(self, fn: Callable) -> Tuple[str, Optional[str]]:
        obj = getattr(fn, "__self__", None)
        if obj is not None:
            name = getattr(obj, "name", None)
            if isinstance(name, str) and name:
                cached = self._owner_cache.get(name)
                if cached is None:
                    cached = self._owner_cache[name] = _split_name(name)
                return cached
            return _module_subsystem(type(obj).__module__), None
        return _module_subsystem(getattr(fn, "__module__", None)), None

    def _charge(self, sub: str, host: Optional[str], etype: str, dt: float) -> None:
        key = (sub, host, etype)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0.0, 0]
        cell[0] += dt
        cell[1] += 1

    # -- reporting ----------------------------------------------------------
    @property
    def frames_constructed(self) -> int:
        if self._attached_at is None or self._sim is None:
            end = self._frames1
        else:
            end = self._sim.frames_constructed
        return end - self._frames0

    def _aggregate(self, index: int) -> List[Dict[str, Any]]:
        agg: Dict[str, List[float]] = {}
        for key, (wall, count) in self.cells.items():
            k = key[index]
            label = k if k is not None else "-"
            cell = agg.setdefault(label, [0.0, 0])
            cell[0] += wall
            cell[1] += count
        total = sum(w for w, _ in agg.values()) or 1.0
        field = ("subsystem", "host", "event_type")[index]
        rows = [
            {field: label, "wall_ms": round(wall * 1000, 3),
             "share_pct": round(wall / total * 100, 2), "callbacks": count}
            for label, (wall, count) in agg.items()
        ]
        rows.sort(key=lambda r: (-r["wall_ms"], r[field]))
        return rows

    def top_subsystems(self, n: int = 3) -> List[str]:
        """The *n* hottest subsystems by attributed wall-clock."""
        return [r["subsystem"] for r in self._aggregate(0)[:n]]

    def export(self) -> Dict[str, Any]:
        by_sub = self._aggregate(0)
        return {
            "events": self.events,
            "callbacks": self.callbacks,
            "heap": {
                "pushes": self.heap_pushes,
                "pops": self.heap_pops,
                "queue_max": self.queue_max,
            },
            "timers_scheduled": self.timers_scheduled,
            "frames_constructed": self.frames_constructed,
            "wire": {"bytes": self.wire_bytes, "frames": self.wire_frames},
            "wall_s": round(self.wall_s, 6),
            "attributed_wall_s": round(
                sum(w for w, _ in self.cells.values()), 6
            ),
            "by_subsystem": by_sub,
            "by_host": self._aggregate(1),
            "by_event_type": self._aggregate(2),
            "top": [r["subsystem"] for r in by_sub[:3]],
        }

    def flamegraph(self) -> Dict[str, Any]:
        """d3-flamegraph nesting: root -> subsystem -> host -> event type.

        Values are attributed microseconds (ints); every level's value is
        the sum of its children, so any flamegraph renderer that accepts
        the d3 JSON shape can draw it directly.
        """
        tree: Dict[str, Dict[Optional[str], Dict[str, float]]] = {}
        for (sub, host, etype), (wall, _count) in self.cells.items():
            tree.setdefault(sub, {}).setdefault(host, {})
            tree[sub][host][etype] = tree[sub][host].get(etype, 0.0) + wall

        def us(x: float) -> int:
            return int(round(x * 1e6))

        children = []
        for sub in sorted(tree):
            hosts = []
            for host in sorted(tree[sub], key=lambda h: h or ""):
                leaves = [
                    {"name": etype, "value": us(wall)}
                    for etype, wall in sorted(tree[sub][host].items())
                ]
                hosts.append({
                    "name": host if host is not None else "-",
                    "value": sum(leaf["value"] for leaf in leaves),
                    "children": leaves,
                })
            children.append({
                "name": sub,
                "value": sum(h["value"] for h in hosts),
                "children": hosts,
            })
        children.sort(key=lambda c: -c["value"])
        return {
            "name": "kernel",
            "value": sum(c["value"] for c in children),
            "children": children,
        }

    def format_report(self, scenario: str = "") -> str:
        """Human-readable profile summary for the CLI."""
        ex = self.export()
        title = f"kernel profile{f': {scenario}' if scenario else ''}"
        lines = [
            f"== {title} ==",
            f"events processed : {ex['events']} "
            f"({ex['callbacks']} callbacks, "
            f"{ex['timers_scheduled']} timers scheduled)",
            f"event heap       : {ex['heap']['pushes']} pushes / "
            f"{ex['heap']['pops']} pops, queue high-water "
            f"{ex['heap']['queue_max']}",
            f"frames           : {ex['frames_constructed']} constructed, "
            f"{ex['wire']['frames']} serialized onto wires "
            f"({ex['wire']['bytes']} bytes)",
            f"wall clock       : {ex['wall_s'] * 1000:.1f}ms total, "
            f"{ex['attributed_wall_s'] * 1000:.1f}ms attributed to callbacks",
            "",
            "hot subsystems:",
        ]
        for r in ex["by_subsystem"][:10]:
            lines.append(
                f"  {r['subsystem']:16s} {r['wall_ms']:9.2f}ms "
                f"{r['share_pct']:6.2f}%  {r['callbacks']} callbacks"
            )
        lines.append("")
        lines.append("top-3 hot spots: " + ", ".join(ex["top"]))
        return "\n".join(lines)


def profile_scenarios() -> Dict[str, Any]:
    """``obs profile --scenario`` name -> registered scenario (None for the
    built-in lossy-LAN demo)."""
    from repro.scenarios import SCENARIOS

    return {"demo": None, **{sc.profile_as: sc for sc in SCENARIOS.values()
                             if sc.profile_as}}


def profile_scenario(scenario: str, seed: int = 1, **kw: Any) -> Dict[str, Any]:
    """Run one scenario under the profiler; returns a result dict.

    ``{"scenario", "seed", "ok", "profile", "flame"}`` — ``profile`` is
    :meth:`KernelProfiler.export`, ``flame`` the nested flamegraph JSON.
    """
    known = profile_scenarios()
    if scenario not in known:
        raise ValueError(
            f"unknown profile scenario {scenario!r} (known: {tuple(known)})"
        )
    target = known[scenario]
    prof = KernelProfiler()
    if target is None:
        from repro.obs.cli import demo_scenario

        kw.setdefault("seed", seed)
        prof.detach(demo_scenario(instrument=prof.attach, **kw))
        ok = True
    else:
        from repro.scenarios import run_chaos

        holder: Dict[str, Any] = {}

        def instrument(sim):
            holder["sim"] = sim
            prof.attach(sim)

        report = run_chaos(target.name, seed, instrument=instrument,
                           **{**target.profile_defaults, **kw})
        prof.detach(holder["sim"])
        ok = report["ok"]
    return {
        "scenario": scenario,
        "seed": seed,
        "ok": ok,
        "profiler": prof,
        "profile": prof.export(),
        "flame": prof.flamegraph(),
    }
