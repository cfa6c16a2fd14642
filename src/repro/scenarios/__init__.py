"""repro.scenarios — every fault scenario, defined once.

Each scenario module (``faults``, ``overload``, ``bulk``, ``gray``,
``heal``, ``shard``) holds that scenario's five parts — environment
builder, workload installer, chaos fault schedule and check plan
sampler, invariants and oracles, report summary and sweep line — as one
:class:`~repro.scenarios.harness.Scenario`. The harness
(:mod:`repro.scenarios.harness`) owns what the runs share, and every
scenario run goes through this registry: ``chaos run|sweep``, ``check
run|sweep|replay`` and shrinking, ``obs profile|slo|perf-gate``, and the
E12/E14/E15/E16 benches.

Adding a scenario means writing one module and adding its ``SCENARIO``
to :data:`SCENARIOS`; the CLIs take their ``--scenario`` choices and
per-scenario defaults from here.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.scenarios import bulk, faults, gray, heal, overload, shard
from repro.scenarios import harness
from repro.scenarios.harness import CHECK_DEFAULTS, Scenario

#: name -> scenario, in CLI order.
SCENARIOS: Dict[str, Scenario] = {
    s.name: s for s in (faults.SCENARIO, overload.SCENARIO, bulk.SCENARIO,
                        gray.SCENARIO, heal.SCENARIO, shard.SCENARIO)
}

#: Seeds the CI smoke and the pytest suites pin.
DEFAULT_SEEDS = (1, 2, 3, 4, 5)


def get(name: str) -> Scenario:
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(f"unknown scenario {name!r} (known: {list(SCENARIOS)})")
    return scenario


def run_chaos(name: str, seed: int, **params: Any) -> Dict:
    """One seeded chaos run of scenario *name*; see
    :func:`repro.scenarios.harness.run_chaos`."""
    return harness.run_chaos(get(name), seed, **params)


def sample_fault_plan(name: str, seed: int, hosts: List[str], horizon: float):
    """Seeded explicit fault plan of scenario *name* over *hosts*."""
    return harness.sample_plan(get(name), seed, hosts, horizon)


__all__ = [
    "CHECK_DEFAULTS",
    "DEFAULT_SEEDS",
    "SCENARIOS",
    "Scenario",
    "get",
    "run_chaos",
    "sample_fault_plan",
]
