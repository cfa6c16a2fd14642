"""Failure injection: scheduled and stochastic host/link failures.

This is the stand-in for the paper's unreliable Internet: experiments E3,
E5, E7 and E8 use it to kill hosts, cut segments, and partition the
network, either at fixed times (reproducible scenarios) or as a Poisson
failure/repair process (availability measurements). The fault
scenarios (:mod:`repro.scenarios`) layer seeded schedules of all three
on top.

Concurrent scripts are safe: each host/segment carries a hold *refcount*,
so a scheduled ``host_down_at`` overlapping ``churn_hosts`` on the same
host neither re-crashes an already-down host nor "recovers" a host that
another script still holds down — the overlapping action is skipped and
logged (``*_skipped`` log entries, ``failures.skipped`` counter).

Every injected event is also emitted into the observability layer
(counters ``failures.host_down|host_up|segment_down|segment_up`` and
trace events), so ``obs report`` shows the fault timeline alongside the
latency tables it produced.

Gray faults (none of which bump the topology version — gray failures are
*invisible* to the control plane by design):

* :meth:`partition_oneway_at` — cut A→B while B→A still flows; the
  symmetric :meth:`partition_at` is implemented on the same per-direction
  hold records, so both land identically in the log/FlightRecorder.
* :meth:`impair_link_at` — probabilistic loss/duplication/reorder/
  bit-flip corruption on one segment direction.
* :meth:`skew_clock_at` — offset/drift a host's wall clock, which skews
  its lease and LWW assertion stamps.
* :meth:`corrupt_checkpoints_at` — checkpoint writes from a host are
  silently corrupted after digesting (torn writes / bit rot).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Topology
    from repro.sim.kernel import Simulator


class FailureInjector:
    """Drives crash/recover and link down/up events against a topology."""

    def __init__(self, sim: "Simulator", topology: "Topology") -> None:
        self.sim = sim
        self.topology = topology
        self._rng = sim.rng.stream("failures")
        self.log: List[Tuple[float, str, str]] = []
        #: Hold refcounts: how many injection scripts currently want this
        #: host/segment down. Transitions happen only at 0 <-> 1.
        self._host_holds: Dict[str, int] = {}
        self._segment_holds: Dict[str, int] = {}
        metrics = sim.obs.metrics
        self._m_host_down = metrics.counter("failures.host_down")
        self._m_host_up = metrics.counter("failures.host_up")
        self._m_segment_down = metrics.counter("failures.segment_down")
        self._m_segment_up = metrics.counter("failures.segment_up")
        self._m_skipped = metrics.counter("failures.skipped")
        self._m_congested = metrics.counter("failures.segment_congested")
        self._m_decongested = metrics.counter("failures.segment_decongested")
        self._m_slowed = metrics.counter("failures.host_slowed")
        self._m_unslowed = metrics.counter("failures.host_unslowed")
        self._m_link_down = metrics.counter("failures.link_down")
        self._m_link_up = metrics.counter("failures.link_up")
        self._m_impaired = metrics.counter("failures.link_impaired")
        self._m_unimpaired = metrics.counter("failures.link_unimpaired")
        self._m_skewed = metrics.counter("failures.clock_skewed")
        self._m_unskewed = metrics.counter("failures.clock_unskewed")
        self._m_ckpt_corrupt = metrics.counter("failures.ckpt_corruptor")

    # -- scheduled one-shots -----------------------------------------------
    def host_down_at(self, t: float, host: str, duration: Optional[float] = None) -> None:
        """Crash *host* at time *t*; recover after *duration* if given."""

        def script():
            yield self.sim.timeout(max(0.0, t - self.sim.now))
            self._host_down(host)
            if duration is not None:
                yield self.sim.timeout(duration)
                self._host_up(host)

        self.sim.process(script(), name=f"fail:host:{host}")

    def segment_down_at(self, t: float, segment: str, duration: Optional[float] = None) -> None:
        """Cut *segment* at time *t*; restore after *duration* if given."""

        def script():
            yield self.sim.timeout(max(0.0, t - self.sim.now))
            self._segment_down(segment)
            if duration is not None:
                yield self.sim.timeout(duration)
                self._segment_up(segment)

        self.sim.process(script(), name=f"fail:segment:{segment}")

    def partition_at(
        self, t: float, side_a: Iterable[str], side_b: Iterable[str],
        duration: Optional[float] = None,
    ) -> None:
        """Partition: cut cross-side traffic on every spanning segment.

        Implemented as per-direction hold records (A→B *and* B→A), the
        same primitive :meth:`partition_oneway_at` uses — so symmetric
        and asymmetric partitions share one code path and log shape.
        Same-side traffic on a spanning segment keeps flowing, which is
        what a real partition does (the old implementation took the
        whole segment down).
        """
        self._partition_script(t, side_a, side_b, duration, both=True)

    def partition_oneway_at(
        self, t: float, side_a: Iterable[str], side_b: Iterable[str],
        duration: Optional[float] = None,
    ) -> None:
        """Asymmetric partition: frames A→B are eaten, B→A still flow.

        This is the classic gray failure: B's replies/heartbeats arrive
        nowhere, while everything B sends looks healthy.
        """
        self._partition_script(t, side_a, side_b, duration, both=False)

    def _partition_script(
        self, t: float, side_a: Iterable[str], side_b: Iterable[str],
        duration: Optional[float], both: bool,
    ) -> None:
        side_a, side_b = set(side_a), set(side_b)

        def script():
            yield self.sim.timeout(max(0.0, t - self.sim.now))
            cut = []
            for seg in self.topology.segments.values():
                owners = {nic.host.name for nic in seg.nics.values()}
                on_a, on_b = owners & side_a, owners & side_b
                if not on_a or not on_b:
                    continue
                for a in sorted(on_a):
                    for b in sorted(on_b):
                        self._link_down(seg.name, a, b)
                        cut.append((seg.name, a, b))
                        if both:
                            self._link_down(seg.name, b, a)
                            cut.append((seg.name, b, a))
            if duration is not None:
                yield self.sim.timeout(duration)
                for seg_name, src, dst in cut:
                    self._link_up(seg_name, src, dst)

        name = "fail:partition" if both else "fail:partition-oneway"
        self.sim.process(script(), name=name)

    # -- gray link/host faults ---------------------------------------------
    def impair_link_at(
        self, t: float, segment: str, src: str = "*", dst: str = "*",
        loss: float = 0.0, dup: float = 0.0, reorder: float = 0.0,
        corrupt: float = 0.0, jitter: float = 0.05,
        duration: Optional[float] = None, symmetric: bool = False,
    ) -> None:
        """Impair the *src*→*dst* direction of *segment* at time *t*.

        Installs a probabilistic :class:`~repro.net.segment.LinkFault`
        (loss / duplication / reordering / bit-flip corruption) and
        removes it after *duration*. ``"*"`` wildcards either endpoint;
        ``symmetric=True`` impairs both directions.
        """
        from repro.net.segment import LinkFault

        fault = LinkFault(loss=loss, dup=dup, reorder=reorder,
                          corrupt=corrupt, jitter=jitter)

        def script():
            yield self.sim.timeout(max(0.0, t - self.sim.now))
            seg = self.topology.segments[segment]
            dirs = [(src, dst)]
            if symmetric and (src, dst) != (dst, src):
                dirs.append((dst, src))
            for s, d in dirs:
                seg.add_fault(s, d, fault)
                self.log.append((self.sim.now, "link_impaired",
                                 f"{segment}:{s}->{d}"))
                self._m_impaired.inc()
                self._trace("link_impaired", f"{segment}:{s}->{d}")
            if duration is not None:
                yield self.sim.timeout(duration)
                for s, d in dirs:
                    seg.remove_fault(s, d, fault)
                    self.log.append((self.sim.now, "link_unimpaired",
                                     f"{segment}:{s}->{d}"))
                    self._m_unimpaired.inc()
                    self._trace("link_unimpaired", f"{segment}:{s}->{d}")

        self.sim.process(script(), name=f"fail:impair:{segment}")

    def skew_clock_at(
        self, t: float, host: str, offset: float = 0.0, drift: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        """Skew *host*'s wall clock at time *t*; restore after *duration*.

        Everything the host stamps with wall time — daemon lease expiry,
        LWW assertion stamps — is skewed by ``offset + drift * elapsed``.
        """

        def script():
            yield self.sim.timeout(max(0.0, t - self.sim.now))
            h = self.topology.hosts[host]
            h.set_clock_skew(offset=offset, drift=drift)
            self.log.append((self.sim.now, "clock_skewed", host))
            self._m_skewed.inc()
            self._trace("clock_skewed", host)
            if duration is not None:
                yield self.sim.timeout(duration)
                h.set_clock_skew()
                self.log.append((self.sim.now, "clock_unskewed", host))
                self._m_unskewed.inc()
                self._trace("clock_unskewed", host)

        self.sim.process(script(), name=f"fail:skew:{host}")

    def corrupt_checkpoints_at(
        self, t: float, host: str, duration: Optional[float] = None,
    ) -> None:
        """From time *t*, checkpoint records written by processes on
        *host* are silently corrupted after digesting (torn writes)."""

        def script():
            yield self.sim.timeout(max(0.0, t - self.sim.now))
            h = self.topology.hosts[host]
            h.corrupt_ckpt_writes = True
            self.log.append((self.sim.now, "ckpt_corruptor_on", host))
            self._m_ckpt_corrupt.inc()
            self._trace("ckpt_corruptor_on", host)
            if duration is not None:
                yield self.sim.timeout(duration)
                h.corrupt_ckpt_writes = False
                self.log.append((self.sim.now, "ckpt_corruptor_off", host))
                self._trace("ckpt_corruptor_off", host)

        self.sim.process(script(), name=f"fail:ckpt:{host}")

    # -- degradation (overload scenarios) -----------------------------------
    def congest_segment_at(
        self, t: float, segment: str, factor: float, duration: Optional[float] = None
    ) -> None:
        """Degrade *segment* at time *t*: divide bandwidth and multiply
        latency by *factor*; restore after *duration* if given.

        Media are frozen and shared between segments, so congestion swaps
        the segment's ``medium`` for a degraded replica rather than
        mutating it. Overlapping congestion windows stack
        multiplicatively and unwind in any order (each script undoes
        exactly its own factor).
        """

        def script():
            import dataclasses

            yield self.sim.timeout(max(0.0, t - self.sim.now))
            seg = self.topology.segments[segment]
            seg.medium = dataclasses.replace(
                seg.medium,
                bandwidth=seg.medium.bandwidth / factor,
                latency=seg.medium.latency * factor,
            )
            self.log.append((self.sim.now, "segment_congested", segment))
            self._m_congested.inc()
            self._trace("segment_congested", segment)
            if duration is not None:
                yield self.sim.timeout(duration)
                seg.medium = dataclasses.replace(
                    seg.medium,
                    bandwidth=seg.medium.bandwidth * factor,
                    latency=seg.medium.latency / factor,
                )
                self.log.append((self.sim.now, "segment_decongested", segment))
                self._m_decongested.inc()
                self._trace("segment_decongested", segment)

        self.sim.process(script(), name=f"fail:congest:{segment}")

    def slow_host_at(
        self, t: float, host: str, factor: float, duration: Optional[float] = None
    ) -> None:
        """Slow *host* at time *t*: divide ``cpu_speed`` by *factor* (all
        compute takes *factor* times longer); restore after *duration*.
        Overlaps stack multiplicatively, like congestion."""

        def script():
            yield self.sim.timeout(max(0.0, t - self.sim.now))
            h = self.topology.hosts[host]
            h.cpu_speed /= factor
            self.log.append((self.sim.now, "host_slowed", host))
            self._m_slowed.inc()
            self._trace("host_slowed", host)
            if duration is not None:
                yield self.sim.timeout(duration)
                h.cpu_speed *= factor
                self.log.append((self.sim.now, "host_unslowed", host))
                self._m_unslowed.inc()
                self._trace("host_unslowed", host)

        self.sim.process(script(), name=f"fail:slow:{host}")

    # -- stochastic churn -----------------------------------------------------
    def churn_hosts(
        self,
        hosts: Iterable[str],
        mtbf: float,
        mttr: float,
        stop_at: float,
    ) -> None:
        """Each host alternates up (Exp(mtbf)) and down (Exp(mttr)) phases.

        This models the paper's testbed environment: independent node
        failures with repair, over a long horizon.
        """
        for name in hosts:
            self.sim.process(self._churn_one(name, mtbf, mttr, stop_at), name=f"churn:{name}")

    def _churn_one(self, host: str, mtbf: float, mttr: float, stop_at: float):
        while self.sim.now < stop_at:
            uptime = self._rng.expovariate(1.0 / mtbf)
            yield self.sim.timeout(uptime)
            if self.sim.now >= stop_at:
                break
            self._host_down(host)
            downtime = self._rng.expovariate(1.0 / mttr)
            yield self.sim.timeout(downtime)
            self._host_up(host)

    # -- primitives --------------------------------------------------------
    def _trace(self, kind: str, name: str) -> None:
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.event(f"failure.{kind}", target=name)

    def _host_down(self, name: str) -> None:
        holds = self._host_holds.get(name, 0)
        self._host_holds[name] = holds + 1
        if holds:
            # Another script already holds this host down; stacking the
            # hold is enough — crashing a corpse would double-run cleanups.
            self.log.append((self.sim.now, "host_down_skipped", name))
            self._m_skipped.inc()
            return
        self.topology.hosts[name].crash()
        self.log.append((self.sim.now, "host_down", name))
        self._m_host_down.inc()
        self._trace("host_down", name)

    def _host_up(self, name: str) -> None:
        holds = self._host_holds.get(name, 0)
        if holds > 1:
            # Someone else still wants it down: release our hold only.
            self._host_holds[name] = holds - 1
            self.log.append((self.sim.now, "host_up_skipped", name))
            self._m_skipped.inc()
            return
        self._host_holds[name] = 0
        self.topology.hosts[name].recover()
        self.log.append((self.sim.now, "host_up", name))
        self._m_host_up.inc()
        self._trace("host_up", name)

    def _link_down(self, segment: str, src: str, dst: str) -> None:
        """Hold the *src*→*dst* direction of *segment* down (refcounted).

        Per-direction hold records are the shared primitive beneath both
        symmetric and one-way partitions; the segment's own refcount
        makes overlapping scripts safe (each release undoes one hold).
        Deliberately does *not* bump the topology version: a gray cut is
        invisible to routing and path caches.
        """
        self.topology.segments[segment].block_link(src, dst)
        self.log.append((self.sim.now, "link_down", f"{segment}:{src}->{dst}"))
        self._m_link_down.inc()
        self._trace("link_down", f"{segment}:{src}->{dst}")

    def _link_up(self, segment: str, src: str, dst: str) -> None:
        self.topology.segments[segment].unblock_link(src, dst)
        self.log.append((self.sim.now, "link_up", f"{segment}:{src}->{dst}"))
        self._m_link_up.inc()
        self._trace("link_up", f"{segment}:{src}->{dst}")

    def _segment_down(self, name: str) -> None:
        holds = self._segment_holds.get(name, 0)
        self._segment_holds[name] = holds + 1
        if holds:
            self.log.append((self.sim.now, "segment_down_skipped", name))
            self._m_skipped.inc()
            return
        self.topology.segments[name].up = False
        self.topology.bump_version()
        self.log.append((self.sim.now, "segment_down", name))
        self._m_segment_down.inc()
        self._trace("segment_down", name)

    def _segment_up(self, name: str) -> None:
        holds = self._segment_holds.get(name, 0)
        if holds > 1:
            self._segment_holds[name] = holds - 1
            self.log.append((self.sim.now, "segment_up_skipped", name))
            self._m_skipped.inc()
            return
        self._segment_holds[name] = 0
        self.topology.segments[name].up = True
        self.topology.bump_version()
        self.log.append((self.sim.now, "segment_up", name))
        self._m_segment_up.inc()
        self._trace("segment_up", name)
