"""Sharded, federated RCDS catalog.

The full-replication catalog holds every name on every replica — fine
for hundreds of URNs, fatal for the millions-of-names north star. This
package partitions the URN namespace by hierarchical prefix into
*shards*, each backed by its own replica group reusing the existing
:class:`~repro.rcds.server.RCServer` machinery (journals, compaction,
anti-entropy, and snapshot catch-up all come for free per shard),
following the AMGA metadata catalog's federation design.

* :mod:`repro.rcds.shard.map` — the epoch-numbered shard map and the
  longest-prefix router, plus the deterministic split planner.
* :mod:`repro.rcds.shard.server` — :class:`ShardRCServer`, an RCServer
  that fences writes by shard ownership (redirecting stale-epoch
  clients) and hands misplaced names off to their owning group.
* :mod:`repro.rcds.shard.client` — :class:`ShardedRCClient`, a facade
  with the exact :class:`~repro.rcds.client.RCClient` API that caches
  the map, routes to owning replicas, retries through redirects, and
  scatter-gathers cross-shard prefix queries with pagination.
* :mod:`repro.rcds.shard.director` — :class:`ShardManager`, the control
  loop that publishes the map and splits shards past the size threshold.
"""

from repro.rcds.shard.client import ShardedRCClient
from repro.rcds.shard.director import ShardManager
from repro.rcds.shard.map import MAP_KEY, MAP_URI, ROOT_SID, ShardMap, plan_split
from repro.rcds.shard.server import ShardRCServer

__all__ = [
    "MAP_KEY",
    "MAP_URI",
    "ROOT_SID",
    "ShardMap",
    "ShardManager",
    "ShardRCServer",
    "ShardedRCClient",
    "plan_split",
]
