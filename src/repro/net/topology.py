"""Topology: the registry of hosts and segments, plus IP-style routing.

Routing runs Dijkstra over the bipartite host–segment graph; only hosts
flagged ``forwarding`` may appear in a path's interior (gateways). Route
computations respect link/host health and are cached against a topology
version counter that failure events bump, so routes recompute after every
failure or repair — this is what E8 (failover) exercises.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.media import Medium
from repro.net.segment import Segment

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.nic import NIC
    from repro.sim.kernel import Simulator


def _segment_cost(medium: Medium) -> float:
    """Routing metric: time to push one full frame across the segment."""
    return medium.latency + medium.serialize_time(medium.mtu)


class Topology:
    """Builder and router for the simulated internetwork."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.hosts: Dict[str, Host] = {}
        self.segments: Dict[str, Segment] = {}
        self._ip_to_host: Dict[str, str] = {}
        self._next_seg_id = 1
        self._version = 0
        self._route_cache: Dict[Tuple[str, str, int], Optional[List[str]]] = {}

    # -- construction -----------------------------------------------------
    def add_segment(self, name: str, medium: Medium) -> Segment:
        if name in self.segments:
            raise ValueError(f"duplicate segment {name!r}")
        seg = Segment(self.sim, name, medium)
        seg._seg_id = self._next_seg_id  # type: ignore[attr-defined]
        self._next_seg_id += 1
        self.segments[name] = seg
        self.bump_version()
        return seg

    def add_host(self, name: str, **kwargs) -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(self.sim, name, self, **kwargs)
        self.hosts[name] = host
        self.bump_version()
        return host

    def connect(
        self, host: Host, segment: Segment, iface: Optional[str] = None, ip: Optional[str] = None
    ) -> "NIC":
        """Attach *host* to *segment*, auto-assigning iface name and IP."""
        if iface is None:
            iface = f"if{len(host.nics)}"
        if ip is None:
            seg_id = getattr(segment, "_seg_id", 0)
            ip = f"10.{seg_id}.0.{len(segment.nics) + 1}"
        nic = host.add_nic(iface, ip, segment)
        self._ip_to_host[ip] = host.name
        self.bump_version()
        return nic

    def bump_version(self) -> None:
        """Invalidate cached routes (called on any topology/health change)."""
        self._version += 1
        if len(self._route_cache) > 100_000:
            self._route_cache.clear()

    # -- media selection (§5.3) --------------------------------------------
    def shared_segments(self, a: str, b: str) -> List[Segment]:
        """Healthy segments both hosts sit on, fastest medium first."""
        ha, hb = self.hosts[a], self.hosts[b]
        out = []
        for nic in ha.nics.values():
            seg = nic.segment
            if not seg.up or not nic.up:
                continue
            other = hb.nic_on_segment(seg.name)
            if other is not None and other.up:
                out.append(seg)
        out.sort(key=lambda s: s.medium.bandwidth, reverse=True)
        return out

    # -- routing ------------------------------------------------------------
    def route(self, src_host: str, dst_host: str) -> Optional[List[str]]:
        """Alternating [host, segment, host, ...] path, or None if cut off."""
        key = (src_host, dst_host, self._version)
        if key in self._route_cache:
            return self._route_cache[key]
        path = self._dijkstra(src_host, dst_host)
        self._route_cache[key] = path
        return path

    def next_hop(self, src_host: str, dst_ip: str) -> Optional[Tuple["NIC", str]]:
        """(outgoing NIC, next-hop IP on that segment) toward *dst_ip*."""
        dst_host = self._ip_to_host.get(dst_ip)
        if dst_host is None:
            return None
        if dst_host == src_host:
            return None  # local delivery, no hop
        path = self.route(src_host, dst_host)
        if path is None or len(path) < 3:
            return None
        seg_name, nh_host_name = path[1], path[2]
        src = self.hosts[src_host]
        nic = src.nic_on_segment(seg_name)
        if nic is None or not nic.up:
            return None
        nh_ip = self.hosts[nh_host_name].ip_on_segment(seg_name)
        if nh_ip is None:
            return None
        return nic, nh_ip

    def _dijkstra(self, src: str, dst: str) -> Optional[List[str]]:
        if src not in self.hosts or dst not in self.hosts:
            return None
        if not self.hosts[src].up or not self.hosts[dst].up:
            return None
        # Nodes: ("h", host) and ("s", segment). Edges exist where an up NIC
        # joins an up host to an up segment. Interior hosts must forward.
        dist: Dict[Tuple[str, str], float] = {("h", src): 0.0}
        prev: Dict[Tuple[str, str], Tuple[str, str]] = {}
        pq: List[Tuple[float, Tuple[str, str]]] = [(0.0, ("h", src))]
        target = ("h", dst)
        while pq:
            d, node = heapq.heappop(pq)
            if d > dist.get(node, float("inf")):
                continue
            if node == target:
                break
            kind, name = node
            if kind == "h":
                host = self.hosts[name]
                if not host.up:
                    continue
                if name != src and name != dst and not host.forwarding:
                    continue  # cannot route *through* a non-gateway
                for nic in host.nics.values():
                    if not nic.up or not nic.segment.up:
                        continue
                    nxt = ("s", nic.segment.name)
                    nd = d + _segment_cost(nic.segment.medium) / 2
                    if nd < dist.get(nxt, float("inf")):
                        dist[nxt] = nd
                        prev[nxt] = node
                        heapq.heappush(pq, (nd, nxt))
            else:
                seg = self.segments[name]
                if not seg.up:
                    continue
                for nic in seg.nics.values():
                    if not nic.up or not nic.host.up:
                        continue
                    nxt = ("h", nic.host.name)
                    nd = d + _segment_cost(seg.medium) / 2
                    if nd < dist.get(nxt, float("inf")):
                        dist[nxt] = nd
                        prev[nxt] = node
                        heapq.heappush(pq, (nd, nxt))
        if target not in dist:
            return None
        # Reconstruct the alternating path.
        path: List[str] = []
        node = target
        while True:
            path.append(node[1])
            if node == ("h", src):
                break
            node = prev[node]
        path.reverse()
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Topology hosts={len(self.hosts)} segments={len(self.segments)}>"
