"""Scenario report equivalence: the lock on scenario refactors.

Every fault scenario (faults, overload, bulk, gray, heal, shard) runs in
two modes — a chaos run (``python -m repro chaos run``) and a
model-checking run (``python -m repro check run``). For each run this
suite stores golden SHA-256 digests, in ``report_goldens.json``, of

* the report dict the run returns,
* the simulator's metrics export (``sim.obs.metrics.export()``), and
* the text the CLI prints for the same seed and parameters (plus its
  exit status),

and for each deliberately seeded bug, the violation list its check run
records. Refactoring how scenarios are built, run or reported must not
change a single digest: same seed, same params, same bytes.

Tier-1 runs seed 1 with a reduced workload (as the kernel-equivalence
suite does), every chaos-mode baseline, and every seeded bug; the
``slow`` set covers seeds 1-5 of every scenario in both modes at the
default parameters.

Goldens change only when a change is *meant* to alter simulated
behaviour. Regenerate them with::

    PYTHONPATH=src python -m tests.scenarios.test_report_equivalence [--slow]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.sim.kernel import Simulator
from tests.fingerprint import digest

GOLDENS = Path(__file__).with_name("report_goldens.json")

SCENARIOS = ("faults", "overload", "bulk", "gray", "heal", "shard")
SLOW_SEEDS = (1, 2, 3, 4, 5)

#: Chaos scenarios whose ``--steps`` flag sets the per-task work units.
STEPPED = ("faults", "gray")

#: Tier-1 workload: shorter budget and fewer work units per task.
QUICK = {"duration": 30.0, "total": 8}
QUICK_ARGV = ("--duration", "30", "--steps", "8")

#: Chaos-mode baselines: id -> (scenario, runner kwargs, CLI flags).
BASELINES: Dict[str, Tuple[str, Dict, Tuple[str, ...]]] = {
    "overload-static": ("overload", {"adaptive": False}, ("--static",)),
    "gray-heartbeat-only": ("gray", {"differential": False}, ("--heartbeat-only",)),
    "heal-unbounded": ("heal", {"bounded": False}, ("--unbounded",)),
    "heal-blackout": ("heal", {"blackout": True}, ("--blackout",)),
}

#: Seeded bug -> the scenario whose oracles must catch it.
BUG_SCENARIO = {
    "no-fence-write": "faults",
    "no-rx-fencing": "faults",
    "no-lww": "faults",
    "no-chunk-verify": "bulk",
    "no-digest": "gray",
    "naive-health": "gray",
    "early-gc": "heal",
    "vector-gap": "heal",
    "stale-epoch-write": "shard",
}


class Case(NamedTuple):
    """One fingerprinted run: what to call, and the equivalent CLI line."""

    id: str
    mode: str  # "chaos", "check" or "bug"
    scenario: str
    seed: int
    kwargs: Dict
    argv: Tuple[str, ...]


def _chaos_case(scenario: str, seed: int, quick: bool, baseline: str = "") -> Case:
    kwargs: Dict = {}
    argv: Tuple[str, ...] = ()
    if baseline:
        _, kwargs, argv = BASELINES[baseline]
        kwargs = dict(kwargs)
    if quick:
        kwargs["duration"] = QUICK["duration"]
        if scenario in STEPPED:
            kwargs["total"] = QUICK["total"]
        argv = QUICK_ARGV + argv
    tag = f"{scenario}-{baseline.split('-', 1)[1]}" if baseline else scenario
    return Case(f"chaos/{tag}/seed{seed}/{'quick' if quick else 'default'}",
                "chaos", scenario, seed, kwargs, argv)


def _check_case(scenario: str, seed: int, quick: bool) -> Case:
    kwargs = dict(QUICK) if quick else {}
    argv = QUICK_ARGV if quick else ()
    return Case(f"check/{scenario}/seed{seed}/{'quick' if quick else 'default'}",
                "check", scenario, seed, kwargs, argv)


def quick_cases() -> List[Case]:
    cases = [_chaos_case(s, 1, True) for s in SCENARIOS]
    cases += [_chaos_case(spec[0], 1, True, name) for name, spec in BASELINES.items()]
    cases += [_check_case(s, 1, True) for s in SCENARIOS]
    cases += [Case(f"bug/{bug}/seed1", "bug", scenario, 1, {"bug": bug}, ())
              for bug, scenario in BUG_SCENARIO.items()]
    return cases


def slow_cases() -> List[Case]:
    return [make(s, seed, False)
            for make in (_chaos_case, _check_case)
            for s in SCENARIOS for seed in SLOW_SEEDS]


# ---------------------------------------------------------------------------
# Running a case
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _tracking_simulators():
    """Collect every Simulator constructed inside the block."""
    sims: List[Simulator] = []
    orig_init = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        sims.append(self)

    Simulator.__init__ = tracking_init
    try:
        yield sims
    finally:
        Simulator.__init__ = orig_init


def _run_report(case: Case) -> Dict:
    if case.mode == "chaos":
        from repro.scenarios import run_chaos

        return run_chaos(case.scenario, case.seed, **case.kwargs)
    from repro.check.explore import run_check

    return run_check(scenario=case.scenario, seed=case.seed, **case.kwargs)


def _run_cli(case: Case) -> str:
    """What ``python -m repro <mode> run ...`` prints, plus its exit status.

    Runs in a scratch working directory: failing runs dump flight tapes
    (and check runs write traces) relative to the cwd.
    """
    if case.mode == "chaos":
        from repro.robust.cli import main

        extra: Tuple[str, ...] = ()
    else:
        from repro.check.cli import main

        extra = ("--no-shrink", "--trace", "trace.json")
    argv = ["run", "--scenario", case.scenario, "--seed", str(case.seed),
            *case.argv, *extra]
    out = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        finally:
            os.chdir(cwd)
    return f"{out.getvalue()}exit={code}\n"


def measure(case: Case) -> Dict[str, str]:
    """The digests of one case, keyed like the goldens file."""
    with _tracking_simulators() as sims:
        report = _run_report(case)
    if case.mode == "bug":
        return {"violations": digest(report["violations"])}
    return {
        "report": digest(report),
        "metrics": digest([sim.obs.metrics.export() for sim in sims]),
        "cli": digest(_run_cli(case)),
    }


def _goldens() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDENS.read_text())


def _assert_matches(case: Case) -> None:
    want = _goldens().get(case.id)
    assert want is not None, f"no golden for {case.id}"
    got = measure(case)
    changed = sorted(k for k in want if got.get(k) != want[k])
    assert not changed, f"{case.id}: {', '.join(changed)} changed"


@pytest.mark.parametrize("case", quick_cases(), ids=lambda c: c.id)
def test_quick_reports_match_goldens(case):
    _assert_matches(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", slow_cases(), ids=lambda c: c.id)
def test_default_reports_match_goldens(case):
    _assert_matches(case)


def test_goldens_cover_every_case():
    ids = {c.id for c in quick_cases() + slow_cases()}
    assert set(_goldens()) == ids


def _regenerate(include_slow: bool) -> None:
    goldens = _goldens() if GOLDENS.exists() else {}
    cases = quick_cases() + (slow_cases() if include_slow else [])
    for case in cases:
        goldens[case.id] = measure(case)
        print(case.id, flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    _regenerate(include_slow="--slow" in sys.argv[1:])
