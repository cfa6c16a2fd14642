"""The sharded catalog facade — drop-in for :class:`RCClient`.

Callers keep the exact RCClient API (lookup/update/delete/query/get/
set/stats, consistency levels, lanes); underneath, every operation is
routed by the cached shard map to an :class:`RCClient` over the owning
shard's replica group. The map is fetched from the root directory group
(QUORUM when possible), cached for :data:`MAP_TTL` seconds, and refreshed
early whenever an operation fails against a whole group — the signature
of an epoch-fenced redirect. If the map now carries a newer epoch than
the one the operation was routed on (refreshed by this operation or by
another one sharing the client), the operation re-routes and retries;
if the epoch did not move, the group is genuinely unreachable and the
failure surfaces unchanged.

Cross-shard prefix queries scatter to every shard whose ownership can
intersect the prefix, page each shard with ``after``/``limit`` cursors
(no unbounded responses), and merge the sorted streams. Before any map
is published — or when the root group is unreachable at first use —
the facade degrades to the epoch-0 map where the root group owns
everything, i.e. exactly the un-sharded catalog.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.rcds.client import ONE, QUORUM, ConsistencyError, RCClient
from repro.rcds.shard.map import MAP_KEY, MAP_URI, ShardInfo, ShardMap
from repro.robust.overload import BULK, CONTROL

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: Page size for scatter-gather prefix queries.
QUERY_PAGE = 256

#: Seconds a fetched map is trusted before the next operation refetches it.
MAP_TTL = 5.0

#: Routed-operation attempts: first try + retries after map refreshes.
_MAX_REROUTES = 3


class ShardedRCClient:
    """Client-side access to the federated catalog from one host."""

    def __init__(
        self,
        host: "Host",
        root_replicas: List[Tuple[str, int]],
        secret: Optional[bytes] = None,
    ) -> None:
        if not root_replicas:
            raise ValueError("ShardedRCClient needs at least one root replica")
        self.sim = host.sim
        self.host = host
        self.secret = secret
        self.root_replicas = [tuple(r) for r in root_replicas]
        #: Surface compatibility with RCClient (callers introspect this).
        self.replicas = list(self.root_replicas)
        self.map: ShardMap = ShardMap.initial(self.root_replicas)
        self._map_fetched = -1e18
        self._clients: Dict[Tuple[Tuple[str, int], ...], RCClient] = {}
        self._root = self._client_for_replicas(tuple(self.root_replicas))
        self.redirect_retries = 0
        metrics = self.sim.obs.metrics
        self._m_redirect_retries = metrics.counter("rcds.redirect_retries")
        self._m_map_refreshes = metrics.counter("rcds.map_refreshes")
        self._m_fanout = metrics.histogram("rcds.query_fanout")

    # -- plumbing -----------------------------------------------------------
    def _client_for_replicas(self, replicas: Tuple[Tuple[str, int], ...]) -> RCClient:
        client = self._clients.get(replicas)
        if client is None:
            client = RCClient(self.host, list(replicas), secret=self.secret)
            self._clients[replicas] = client
        return client

    def _client_for(self, info: ShardInfo) -> RCClient:
        return self._client_for_replicas(tuple(tuple(r) for r in info.replicas))

    @property
    def failovers(self) -> int:
        return sum(c.failovers for c in self._clients.values())

    def _ensure_map(self, force: bool = False):
        if not force and self.sim.now - self._map_fetched < MAP_TTL:
            return
        self._map_fetched = self.sim.now
        self._m_map_refreshes.inc()
        try:
            assertions = yield from self._root._lookup(MAP_URI, QUORUM, CONTROL)
        except ConsistencyError:
            try:
                assertions = yield from self._root._lookup(MAP_URI, ONE, CONTROL)
            except ConsistencyError:
                return  # root unreachable: keep routing on the cached map
        info = assertions.get(MAP_KEY)
        if info and isinstance(info.get("value"), dict):
            fetched = ShardMap.from_dict(info["value"])
            if fetched.epoch > self.map.epoch:
                self.map = fetched

    def _routed(self, uri: str, op):
        """Run *op(client)* against the owning group, refreshing the map
        and re-routing when the whole group refuses (epoch redirect)."""
        yield from self._ensure_map()
        for _attempt in range(_MAX_REROUTES):
            routed_epoch = self.map.epoch
            client = self._client_for(self.map.owner(uri))
            try:
                return (yield from op(client))
            except ConsistencyError:
                # Sessions share this client: another one may have
                # installed a newer map while this op was in flight.
                if self.map.epoch == routed_epoch:
                    yield from self._ensure_map(force=True)
                    if self.map.epoch == routed_epoch:
                        raise  # not a stale map — the group is unreachable
                self.redirect_retries += 1
                self._m_redirect_retries.inc()
        raise ConsistencyError(f"shard map unstable for {uri}")

    # -- public API (all return sim processes; use with ``yield``) ----------
    def lookup(self, uri: str, consistency: str = ONE, lane: str = BULK):
        return self.sim.process(
            self._routed(uri, lambda c: c._lookup(uri, consistency, lane)),
            name=f"rc.lookup:{uri}")

    def update(self, uri: str, assertions: Dict[str, Any],
               consistency: str = ONE, lane: str = BULK):
        return self.sim.process(
            self._routed(uri, lambda c: c._update(uri, assertions, consistency, lane)),
            name=f"rc.update:{uri}")

    def delete(self, uri: str, keys: Optional[List[str]] = None,
               consistency: str = ONE, lane: str = BULK):
        return self.sim.process(
            self._routed(uri, lambda c: c._delete(uri, keys, consistency, lane)),
            name=f"rc.delete:{uri}")

    def query(self, prefix: str, lane: str = BULK):
        """URIs under *prefix*, scatter-gathered across every shard whose
        ownership can intersect it and merged."""
        return self.sim.process(self._query(prefix, lane),
                                name=f"rc.query:{prefix}")

    def _query(self, prefix: str, lane: str = BULK):
        yield from self._ensure_map()
        shards = self.map.shards_for_prefix(prefix)
        self._m_fanout.observe(len(shards))
        found = set()
        for info in shards:
            client = self._client_for(info)
            after: Optional[str] = None
            while True:
                page = yield from client._query(prefix, lane, after,
                                                QUERY_PAGE)
                found.update(page)
                if len(page) < QUERY_PAGE:
                    break
                after = page[-1]
        return sorted(found)

    def stats(self, lane: str = BULK):
        """Replication stats from every reachable replica of every shard,
        keyed by server id (the RCClient.stats shape, federation-wide)."""
        return self.sim.process(self._stats(lane), name="rc.stats")

    def _stats(self, lane: str = BULK):
        yield from self._ensure_map()
        out: Dict[str, Dict[str, Any]] = {}
        for _sid, info in sorted(self.map.shards.items()):
            client = self._client_for(info)
            stats = yield from client._stats(lane)
            out.update(stats)
        return out

    # -- convenience --------------------------------------------------------
    def get(self, uri: str, key: str, consistency: str = ONE, lane: str = BULK):
        return self.sim.process(self._get(uri, key, consistency, lane),
                                name=f"rc.get:{uri}")

    def _get(self, uri: str, key: str, consistency: str, lane: str = BULK):
        assertions = yield self.lookup(uri, consistency, lane=lane)
        info = assertions.get(key)
        return info["value"] if info else None

    def set(self, uri: str, key: str, value: Any, consistency: str = ONE,
            lane: str = BULK):
        return self.update(uri, {key: value}, consistency, lane=lane)

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
