"""Per-layer tracing from outside the program: spans around each layer's
entry points, named after the repo's modules.

:class:`LayerTracer` patches the entry points listed in :data:`SPANS`
(and the counting-only hooks in :data:`COUNTS`) with wrappers that open a
span, and :meth:`LayerTracer.remove` puts every original back. A span
records its name, CPU start and end (``time.process_time``), parent span
and a request id; spans stay in memory (``array`` columns) until the run
ends, when :meth:`LayerTracer.write_spans` writes them out. Self time is
computed as spans close: a span's duration minus the time covered by its
child spans.

Deferred work is charged to the layer that scheduled it, under the
layer's own name (work deferred from an ``rpc.call`` span runs in
``rpc`` spans, so span counts of the entry points stay call counts). Many layer
calls (``RpcClient.call``, the catalog client ops, transport sends)
return ``sim.process(...)`` and do their work at later resumptions, and
the transports arm retransmit timers; so while a layer span is open,
``Simulator.process`` wraps the new generator so each resumption runs in
a span of that layer, and ``Simulator.schedule_timer`` does the same for
the timer callback. A generator body one layer runs inside another's
process through ``yield from`` is charged to its own layer the same way
(:data:`BODIES`: the sharded catalog client drives the plain
``RCClient`` op bodies, whose work belongs to ``rcds``).

Install before the site is built: a port binding captures its transport's
``_on_frame`` and an RPC server its handlers when they are constructed,
and modules that imported ``canonical_bytes``/``content_hash``/
``payload_size`` by name each hold their own binding, which is patched
separately.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from types import FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.nic import NIC
from repro.net.segment import Segment
from repro.net.topology import Topology
from repro.obs.metrics import Gauge, Histogram, MetricCounter, MetricsRegistry
from repro.rcds.client import RCClient
from repro.rcds.records import RCStore
from repro.rcds.server import RCServer
from repro.rcds.shard.client import ShardedRCClient
from repro.rcds.shard.director import ShardManager
from repro.rcds.shard.map import ShardMap
from repro.rcds.shard.server import ShardRCServer
from repro.robust.health import HealthBoard
from repro.robust.overload import AdaptiveTimeouts, BreakerBoard
from repro.rpc import RpcClient, RpcServer
from repro.security import hashes
from repro.sim.kernel import Simulator
from repro.transport.base import TransportEndpoint
from repro.transport.multicast import EthernetMulticast
from repro.transport.pathsel import PathSelector
from repro.transport.srudp import SrudpEndpoint
from repro.transport.stream import StreamEndpoint

#: Layers, outermost name first where one is a prefix of another. A span
#: name belongs to the longest layer it equals or extends with ``.``.
LAYERS = ("sim", "net", "transport", "rpc", "security", "rcds", "rcds.shard",
          "robust", "obs")

_CLIENT_OPS = ("lookup", "update", "delete", "query", "get", "set")

#: (owner, attribute names, span name). Owners are classes, or modules
#: for functions imported by name (every module holding the same
#: function object is patched).
SPANS: List[Tuple[Any, Tuple[str, ...], str]] = [
    (Simulator, ("run",), "sim"),
    (Topology, ("route",), "net.route"),
    (NIC, ("send", "receive", "_drain"), "net.datapath"),
    (Segment, ("propagate",), "net.datapath"),
    (Host, ("deliver",), "net.datapath"),
    (SrudpEndpoint, ("send",), "transport.send"),
    (StreamEndpoint, ("send",), "transport.send"),
    (EthernetMulticast, ("send_group",), "transport.send"),
    (SrudpEndpoint, ("_on_frame",), "transport.rx"),
    (StreamEndpoint, ("_on_frame",), "transport.rx"),
    (EthernetMulticast, ("_on_frame",), "transport.rx"),
    (PathSelector, ("select",), "transport.pathsel"),
    (RpcClient, ("call",), "rpc.call"),
    (RpcClient, ("__init__",), "rpc"),
    (RpcServer, ("__init__",), "rpc"),
    (hashes, ("canonical_bytes",), "security.canonical_bytes"),
    (hashes, ("content_hash",), "security.content_hash"),
    (hashes, ("hmac_tag",), "security.hmac"),
    (RCClient, _CLIENT_OPS, "rcds.client"),
    (RCServer, ("__init__", "_h_lookup", "_h_update", "_h_delete",
                "_h_query", "_h_sync", "_h_sync_begin", "_h_sync_pull",
                "_h_sync_push", "_h_snapshot", "_h_stats"), "rcds"),
    (RCStore, ("local_update", "local_delete", "apply_remote",
               "import_entry", "install_entries", "lookup", "get"),
     "rcds.store"),
    (RCStore, ("query",), "rcds.query"),
    (RCStore, ("state_entries",), "rcds.snapshot"),
    (ShardedRCClient, _CLIENT_OPS, "rcds.shard.client"),
    (ShardRCServer, ("__init__", "_h_lookup", "_h_update", "_h_delete",
                     "_h_shard_config"), "rcds.shard"),
    (ShardManager, ("start", "seed_map"), "rcds.shard"),
    (ShardMap, ("route",), "rcds.shard.route"),
    (HealthBoard, ("note_outcome", "score", "is_quarantined",
                   "iface_quarantined"), "robust.health"),
    (BreakerBoard, ("allow", "record", "is_open"), "robust"),
    (AdaptiveTimeouts, ("timeout_for", "observe", "note_timeout"), "robust"),
    (MetricCounter, ("inc",), "obs"),
    (Gauge, ("set",), "obs"),
    (Histogram, ("observe",), "obs"),
    (MetricsRegistry, ("counter", "gauge", "histogram"), "obs"),
]


#: Generator functions whose bodies run inside another layer's process
#: via ``yield from``: (owner, attribute names, layer charged).
BODIES: List[Tuple[Any, Tuple[str, ...], str]] = [
    (RCClient, ("_lookup", "_update", "_delete", "_query", "_stats"), "rcds"),
]

#: The span clock: CPU seconds of this process.
CLOCK = time.process_time


def _data_frame(payload: Any) -> bool:
    return type(payload).__name__ in ("_Data", "_Seg", "_MData")


#: Counting-only hooks (no span): (owner, attribute, counter name,
#: amount(args, result)). ``None`` counts calls.
COUNTS: List[Tuple[Any, str, str, Optional[Callable]]] = [
    (NIC, "_transmit", "net.frames", None),
    (NIC, "_transmit", "net.wire_bytes", lambda a, r: a[1].size),
    (TransportEndpoint, "_send_frame", "transport.data_frames",
     lambda a, r: _data_frame(a[3])),
    (EthernetMulticast, "_broadcast", "transport.data_frames",
     lambda a, r: _data_frame(a[2])),
    (hashes, "canonical_bytes", "security.encoded_bytes", lambda a, r: len(r)),
    (sys.modules["repro.rpc"], "payload_size", "rpc.payload_size.calls", None),
    (RCStore, "_apply_entry", "rcds.store.applies", None),
    (RCStore, "state_entries", "rcds.snapshot.entries", lambda a, r: len(r)),
]


class _TimedGen:
    """A process body whose every resumption runs in one layer's span.
    Iterable, so it can also be delegated to with ``yield from``."""

    __slots__ = ("gen", "nid", "rid", "tracer", "__name__")

    def __init__(self, gen, nid: int, rid: int, tracer: "LayerTracer") -> None:
        self.gen = gen
        self.nid = nid
        self.rid = rid
        self.tracer = tracer
        self.__name__ = getattr(gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        frame = self.tracer._enter(self.nid, self.rid)
        try:
            return self.gen.send(value)
        finally:
            self.tracer._exit(frame)

    def throw(self, *exc):
        frame = self.tracer._enter(self.nid, self.rid)
        try:
            return self.gen.throw(*exc)
        finally:
            self.tracer._exit(frame)

    def close(self):
        return self.gen.close()


def _rid_of(args: tuple) -> Optional[int]:
    """Request id carried by a call's arguments: a frame's trace id."""
    for a in args[1:3]:
        tid = getattr(a, "trace_id", None)
        if tid is not None:
            return tid
    return None


class LayerTracer:
    """Installs the layer wrappers; accumulates spans, self times, counts.

    ``rid`` is the ambient request id (the workload's op index), taken by
    a span whose arguments carry no frame trace id and whose parent is
    the kernel; nested spans and deferred work inherit their parent's.
    """

    def __init__(self) -> None:
        self.rid = -1
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.incl_s: List[float] = []
        self.calls: List[int] = []
        self.counts: Dict[str, float] = {}
        # Span columns.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_rid = array("q")
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[Callable, Callable] = {}  # wrapper -> wrapped
        self._sim_id = self._nid("sim")
        #: Span name id -> id of its layer's name (for deferred work).
        self._layer_id: List[int] = [self._sim_id]

    # -- spans ---------------------------------------------------------------
    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self.calls.append(0)
            if nid:  # "sim" itself is created before _layer_id exists
                layer = self.layer_of(name)
                self._layer_id.append(nid if layer == name else self._nid(layer))
        return nid

    def _ambient_rid(self) -> int:
        stack = self._stack
        if not stack:
            return -1
        if stack[-1][0] == self._sim_id:
            return self.rid
        return stack[-1][3]

    def _enter(self, nid: int, rid: Optional[int]) -> list:
        stack = self._stack
        if rid is None:
            rid = self._ambient_rid()
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][4] if stack else -1)
        self.span_rid.append(rid)
        self.span_end.append(0.0)
        start = CLOCK()
        self.span_start.append(start)
        frame = [nid, start, 0.0, rid, idx]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = CLOCK()
        stack = self._stack
        stack.pop()
        dur = end - frame[1]
        nid = frame[0]
        self.self_s[nid] += dur - frame[2]
        self.incl_s[nid] += dur
        self.calls[nid] += 1
        if stack:
            stack[-1][2] += dur
        self.span_end[frame[4]] = end

    def _span_wrapper(self, fn: Callable, nid: int) -> Callable:
        tracer = self

        def wrapper(*args, **kw):
            frame = tracer._enter(nid, _rid_of(args))
            try:
                return fn(*args, **kw)
            finally:
                tracer._exit(frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def _body_wrapper(self, fn: Callable, nid: int) -> Callable:
        """Wrap a generator function so its body's resumptions run in
        spans of layer *nid*, unless it is created inside that layer
        already (the process wrapper then charges it)."""
        tracer = self

        def wrapper(*args, **kw):
            gen = fn(*args, **kw)
            stack = tracer._stack
            if stack and tracer._layer_id[stack[-1][0]] == nid:
                return gen
            return _TimedGen(gen, nid, tracer._ambient_rid(), tracer)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn: Callable, key: str,
                      amount: Optional[Callable]) -> Callable:
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kw):
            result = fn(*args, **kw)
            counts[key] += 1 if amount is None else amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove ----------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            targets = [owner]
        else:
            orig = getattr(owner, attr)
            # Every repro module that imported the function by name.
            targets = [m for name, m in sorted(sys.modules.items())
                       if name.startswith("repro") and m is not None
                       and m.__dict__.get(attr) is orig]
        new = make(orig)
        self._originals[new] = orig
        for target in targets:
            self._patches.append((target, attr, target.__dict__[attr]))
            setattr(target, attr, new)

    def install(self) -> None:
        """Patch every entry point; call before the site is built."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, key, amount in COUNTS:
            self._patch(owner, attr,
                        lambda fn, k=key, a=amount: self._count_wrapper(fn, k, a))
        for owner, attrs, name in SPANS:
            nid = self._nid(name)
            for attr in attrs:
                self._patch(owner, attr,
                            lambda fn, n=nid: self._span_wrapper(fn, n))
        for owner, attrs, layer in BODIES:
            nid = self._nid(layer)
            for attr in attrs:
                self._patch(owner, attr,
                            lambda fn, n=nid: self._body_wrapper(fn, n))
        self._patch_deferral()

    def _patch_deferral(self) -> None:
        tracer = self
        sim_id = self._sim_id

        def layer_open():
            """(layer name id, request id) of the open span, or None."""
            stack = tracer._stack
            if stack and stack[-1][0] != sim_id:
                top = stack[-1]
                return tracer._layer_id[top[0]], top[3]
            return None

        def process_maker(orig):
            def process(sim, gen, *args, **kw):
                top = layer_open()
                if top is not None:
                    gen = _TimedGen(gen, top[0], top[1], tracer)
                return orig(sim, gen, *args, **kw)
            return process

        def timer_maker(orig):
            def schedule_timer(sim, delay, fn, *args, **kw):
                top = layer_open()
                if top is not None:
                    (nid, rid), inner = top, fn

                    def timed():
                        frame = tracer._enter(nid, rid)
                        try:
                            inner()
                        finally:
                            tracer._exit(frame)
                    fn = timed
                return orig(sim, delay, fn, *args, **kw)
            return schedule_timer

        self._patch(Simulator, "process", process_maker)
        self._patch(Simulator, "schedule_timer", timer_maker)

    def remove(self) -> None:
        """Restore every patched attribute, newest patch first; then any
        module imported while installed that bound a wrapper by name."""
        while self._patches:
            target, attr, orig = self._patches.pop()
            setattr(target, attr, orig)
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and mod is not None:
                for attr, value in list(mod.__dict__.items()):
                    if isinstance(value, FunctionType) and value in self._originals:
                        while value in self._originals:
                            value = self._originals[value]
                        setattr(mod, attr, value)
        self._originals.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results ------------------------------------------------------------
    def reset(self) -> None:
        """Zero the self times and counts (spans are kept); call between
        set-up and the simulation phase, with no span open."""
        if self._stack:
            raise RuntimeError("reset() with a span open")
        self.self_s = [0.0] * len(self.names)
        self.incl_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        for key in self.counts:
            self.counts[key] = 0

    def layer_of(self, name: str) -> str:
        return max((layer for layer in LAYERS
                    if name == layer or name.startswith(layer + ".")),
                   key=len)

    def totals(self) -> Dict[str, Dict]:
        """Copy of the current totals: self seconds, inclusive seconds
        and calls by span name, self seconds by layer, and the counting
        hooks."""
        by_layer = {layer: 0.0 for layer in LAYERS}
        for name, s in zip(self.names, self.self_s):
            by_layer[self.layer_of(name)] += s
        return {"self": dict(zip(self.names, self.self_s)),
                "incl": dict(zip(self.names, self.incl_s)),
                "calls": dict(zip(self.names, self.calls)),
                "layer_self": by_layer,
                "counts": dict(self.counts)}

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV, in opening order: name, CPU
        start and end (s), parent span's row index (-1 for none) and
        request id. A traced run has up to a few million spans; this
        format keeps one run's file to tens of MB."""
        names = self.names
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            f.write("name,start_s,end_s,parent,rid\n")
            f.writelines(
                f"{names[n]},{a!r},{b!r},{p},{r}\n" for n, a, b, p, r in zip(
                    self.span_name, self.span_start, self.span_end,
                    self.span_parent, self.span_rid))
