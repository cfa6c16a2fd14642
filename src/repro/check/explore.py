"""Schedule exploration: seeded tie-breaking, explicit fault plans,
deliberately seeded bugs, and :func:`run_check`, the entry point of a
model-checking run (the scenarios themselves live in
:mod:`repro.scenarios`).

One integer — the seed — fully determines a run: it picks the fault
plan (an explicit, replayable list of :class:`FaultEvent`), seeds every
workload RNG stream, and seeds the :class:`ExplorationScheduler` that
permutes same-timestamp event ties inside the kernel. Replaying the
same (scenario, seed, plan, bug) tuple therefore reproduces the same
execution bit-for-bit, which is what makes shrinking
(:mod:`repro.check.shrink`) possible.
"""

from __future__ import annotations

import random
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bulk.fetch import BulkFetcher
from repro.core.process import SnipeContext
from repro.guardian.guardian import Guardian
from repro.rcds.records import RCStore
from repro.rcds.shard.server import ShardRCServer
from repro.robust.health import HealthBoard
from repro.transport.srudp import SrudpEndpoint


class ExplorationScheduler:
    """Seeded same-timestamp tie-breaker for the simulation kernel.

    ``pick(now, n)`` chooses uniformly among the *n* runnable events
    sharing the head (timestamp, priority); seed 0 always picks index 0,
    which is the kernel's default FIFO schedule. The pick sequence is a
    pure function of the seed and of the schedule so far, so a seed is a
    complete schedule description.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(0x5EED ^ (seed * 0x9E3779B1)) if seed else None
        self.picks = 0
        self.reordered = 0

    def pick(self, now: float, n: int) -> int:
        self.picks += 1
        if self._rng is None or n <= 1:
            return 0
        choice = self._rng.randrange(n)
        if choice:
            self.reordered += 1
        return choice


# ---------------------------------------------------------------------------
# Explicit fault plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, explicit and serializable (so shrinkable).

    ``kind`` is one of ``crash`` (host down), ``partition`` (segment
    down, host stays up — the zombie scenario), ``split`` (target
    ``"a,b|c,d"``: a full two-sided cut between the host groups on a
    shared segment — the heal scenario's replica-group partition),
    ``congest`` (segment bandwidth/latency degraded by ``factor``),
    ``slow`` (host CPU divided by ``factor``), or one of the gray
    kinds: ``oneway``
    (target ``"a->b"``, frames a→b eaten while b→a flow), ``impair``
    (probabilistic loss/dup/reorder/corrupt on a segment, rates in
    ``extra``), ``skew`` (host wall clock offset/drift in ``extra``)
    and ``ckptrot`` (checkpoints written by the host are corrupted).
    Every window heals after ``duration``. ``extra`` is a sorted tuple
    of ``(key, value)`` pairs — hashable, so the event stays frozen,
    and round-trips through ``to_dict`` for shrinking.
    """

    kind: str
    target: str
    t: float
    duration: float
    factor: float = 1.0
    extra: tuple = ()

    def to_dict(self) -> Dict:
        d = {"kind": self.kind, "target": self.target, "t": self.t,
             "duration": self.duration, "factor": self.factor}
        if self.extra:
            d["extra"] = dict(self.extra)
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultEvent":
        return cls(kind=d["kind"], target=d["target"], t=d["t"],
                   duration=d["duration"], factor=d.get("factor", 1.0),
                   extra=tuple(sorted(d.get("extra", {}).items())))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        extra = f" x{self.factor:g}" if self.kind in ("congest", "slow") else ""
        if self.extra:
            extra += " " + ",".join(f"{k}={v:g}" for k, v in self.extra)
        return f"t={self.t:5.1f}s {self.kind} {self.target} for {self.duration:.1f}s{extra}"


def apply_fault_plan(env, plan: List[FaultEvent]) -> None:
    """Arm every event of *plan* on the environment's failure injector."""
    for ev in plan:
        if ev.kind == "crash":
            env.failures.host_down_at(ev.t, ev.target, duration=ev.duration)
        elif ev.kind == "partition":
            env.failures.segment_down_at(ev.t, ev.target, duration=ev.duration)
        elif ev.kind == "split":
            a, b = ev.target.split("|", 1)
            env.failures.partition_at(ev.t, a.split(","), b.split(","),
                                      duration=ev.duration)
        elif ev.kind == "congest":
            env.failures.congest_segment_at(ev.t, ev.target, ev.factor,
                                            duration=ev.duration)
        elif ev.kind == "slow":
            env.failures.slow_host_at(ev.t, ev.target, ev.factor,
                                      duration=ev.duration)
        elif ev.kind == "oneway":
            a, b = ev.target.split("->", 1)
            env.failures.partition_oneway_at(ev.t, [a], [b],
                                             duration=ev.duration)
        elif ev.kind == "impair":
            env.failures.impair_link_at(ev.t, ev.target, symmetric=True,
                                        duration=ev.duration,
                                        **dict(ev.extra))
        elif ev.kind == "skew":
            env.failures.skew_clock_at(ev.t, ev.target, duration=ev.duration,
                                       **dict(ev.extra))
        elif ev.kind == "ckptrot":
            env.failures.corrupt_checkpoints_at(ev.t, ev.target,
                                                duration=ev.duration)
        else:
            raise ValueError(f"unknown fault kind {ev.kind!r}")


# ---------------------------------------------------------------------------
# Deliberately seeded bugs
# ---------------------------------------------------------------------------

#: name -> (what it breaks, which oracle must catch it).
BUGS: Dict[str, str] = {
    "no-fence-write": "Guardian skips the fenced-below quorum writes during "
                      "recovery (caught by the single-owner oracle)",
    "no-rx-fencing": "receivers accept envelopes from superseded incarnations "
                     "(caught by the delivery oracle)",
    "no-lww": "catalog replicas apply entries without the last-writer-wins "
              "comparison (caught by the convergence oracle)",
    "no-chunk-verify": "bulk fetchers commit chunks without checking their "
                       "digest against the chunk map (caught by the "
                       "chunk-integrity oracle; bulk scenario)",
    "no-digest": "transports skip payload digest stamping, so bit-flipped "
                 "fragments reassemble silently (caught by the "
                 "no-corrupt-delivery oracle; gray scenario)",
    "naive-health": "the Guardian trusts lapsed leases without the "
                    "differential probe-before-death, so a clock-skewed "
                    "live host is declared dead (caught by the "
                    "no-false-death oracle; gray scenario)",
    "early-gc": "replicas collect tombstones before every peer has acked "
                "past them, so a partitioned peer's stale pre-delete "
                "write resurrects the key on heal (caught by the "
                "no-resurrection oracle; heal scenario)",
    "vector-gap": "a gapped anti-entropy batch bumps the version vector "
                  "past records that were never applied, so the skipped "
                  "records are never requested again (caught by the "
                  "compaction-convergence oracle; heal scenario)",
    "stale-epoch-write": "shard replicas drop the epoch ownership fence, so "
                         "a client routing on a stale pre-split map lands "
                         "writes in the parent shard after the epoch "
                         "advanced (caught by the shard-ownership oracle; "
                         "shard scenario)",
}

_BUG_HOOKS = {
    "no-fence-write": (Guardian, "fence_writes_enabled"),
    "no-rx-fencing": (SnipeContext, "rx_fencing_enabled"),
    "no-lww": (RCStore, "lww_enabled"),
    "no-chunk-verify": (BulkFetcher, "verify_enabled"),
    "no-digest": (SrudpEndpoint, "digest_enabled"),
    "naive-health": (HealthBoard, "differential_enabled"),
    "early-gc": (RCStore, "safe_gc_enabled"),
    "vector-gap": (RCStore, "contiguous_vector_enabled"),
    "stale-epoch-write": (ShardRCServer, "epoch_fencing_enabled"),
}


@contextmanager
def toggled(cls: type, attr: str, value: Any):
    """Set the class-attribute switch ``cls.attr`` to *value* for the
    duration of the block (the safety mechanisms are such switches)."""
    saved = getattr(cls, attr)
    setattr(cls, attr, value)
    try:
        yield
    finally:
        setattr(cls, attr, saved)


def seeded_bug(name: Optional[str]):
    """Disable one safety mechanism for the duration of the block."""
    if name is None:
        return nullcontext()
    if name not in _BUG_HOOKS:
        raise ValueError(f"unknown bug {name!r} (known: {sorted(_BUG_HOOKS)})")
    cls, attr = _BUG_HOOKS[name]
    return toggled(cls, attr, False)


# ---------------------------------------------------------------------------
# The check harness entry point
# ---------------------------------------------------------------------------

def run_check(
    scenario: str = "faults",
    seed: int = 1,
    bug: Optional[str] = None,
    plan: Optional[List[FaultEvent]] = None,
    explore: bool = True,
    obs_sample: Optional[float] = None,
    **params: Any,
) -> Dict:
    """One model-checking run; returns a report dict (``report["ok"]``).

    Runs *scenario* (see :mod:`repro.scenarios`) under the seeded fault
    *plan* (sampled from the seed when not given), with tie permutation
    *explore* enabled and the safety mechanism *bug* disabled. *params*
    are the workload knobs of
    :data:`repro.scenarios.harness.CHECK_DEFAULTS` (``n_workers``,
    ``total``, ``step``, ``duration``, ``saturation``,
    ``service_time``); the report records them under ``params`` so a
    trace can replay the run.
    """
    from repro.scenarios import get, harness  # the scenarios build on this module

    with seeded_bug(bug):
        report = harness.run_check(get(scenario), seed, plan, explore, obs_sample,
                                   **params)
    report["bug"] = bug
    return report
