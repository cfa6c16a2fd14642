"""The scenario harness: what every scenario run shares, written once.

A scenario module supplies five parts: an environment builder, a
workload installer, a fault schedule (chaos mode) and fault-plan
sampler (check mode), its invariants and oracles, and a report summary
plus sweep line. Everything else lives here:

* :class:`Rig` — observability on a fresh environment: the
  ``instrument``/``obs_sample`` knobs, the probe bus, the flight
  recorder, and the flight snapshot taken only when a run fails;
* :func:`run_chaos` — one chaos run: build, run, judge the checks,
  report;
* :func:`run_check` — one model-checking run: seeded fault plan,
  explored schedule, the :data:`CHUNK` loop with process-crash capture
  and oracle sweeps;
* :meth:`Scenario.format` / :meth:`Scenario.sweep_line` — the
  ``[PASS]/[FAIL]`` table and ``RESULT`` tail every report ends with.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.check.explore import ExplorationScheduler, FaultEvent
from repro.check.oracles import Violation
from repro.obs.flight import FlightRecorder
from repro.sim import ProbeBus

#: One judged property of a chaos run: (name, ok, detail).
Check = Tuple[str, bool, str]

#: Virtual seconds between oracle sweeps of a check run.
CHUNK = 0.5

#: Workload parameters of a check run; every scenario accepts all of
#: them (so a trace can record and replay them), using what applies.
CHECK_DEFAULTS: Dict[str, Any] = {
    "n_workers": 3,
    "total": 16,
    "step": 0.2,
    "duration": 60.0,
    "saturation": 3.0,
    "service_time": 0.05,
}


class Flag(NamedTuple):
    """A chaos CLI switch: passing ``name`` sets *param* to *value*."""

    name: str
    param: str
    value: Any
    help: str


class Rig:
    """A fresh environment armed for a scenario run.

    Applies the per-run observability knobs before any workload process
    runs — ``obs_sample`` enables tracing at that sampling rate, and
    ``instrument(sim)`` is an arbitrary hook the profiler and SLO
    monitor attach through — then installs the probe bus and, when
    *flight* is set, a flight recorder on it.
    """

    def __init__(self, env, instrument: Optional[Callable] = None,
                 obs_sample: Optional[float] = None, flight: bool = True) -> None:
        self.env = env
        self.sim = env.sim
        if obs_sample is not None:
            self.sim.obs.tracer.enabled = True
            self.sim.obs.tracer.sample_rate = obs_sample
        if instrument is not None:
            instrument(self.sim)
        self.bus = self.sim.probes = ProbeBus()
        self.recorder = FlightRecorder(self.sim).attach(self.bus) if flight else None

    def flight_on_failure(self, violations: List[Tuple[str, float, str]]
                          ) -> Optional[List[Dict]]:
        """Stamp ``(oracle, time, detail)`` violations onto the flight tape
        and snapshot it — only on failure; a clean run ships no tape."""
        if self.recorder is None or not violations:
            return None
        for oracle, t, detail in violations:
            self.recorder.note_violation(oracle, t, detail)
        return self.recorder.snapshot()


class CheckRun(Rig):
    """A model-checking run in progress: the rig plus its oracles, the
    violations swept from them, and whatever state the scenario's hooks
    keep on it between phases."""

    def __init__(self, env, hosts: List[str], plan: List[FaultEvent],
                 params: Dict[str, Any], obs_sample: Optional[float]) -> None:
        super().__init__(env, obs_sample=obs_sample)
        self.hosts = hosts
        self.plan = plan
        self.p = params
        self.oracles: List[Any] = []
        self.violations: List[Violation] = []

    def watch(self, oracle, subscribe: bool = True):
        """Sweep *oracle*'s violations (and feed it probes if *subscribe*)."""
        if subscribe:
            self.bus.subscribe(oracle.on_probe)
        self.oracles.append(oracle)
        return oracle

    def sweep(self) -> None:
        for oracle in self.oracles:
            self.violations.extend(oracle.violations)
            oracle.violations = []

    def violate(self, oracle: str, detail: str) -> None:
        self.violations.append(Violation(oracle, self.sim.now, detail))

    def guard(self, fn: Callable[[], Any]) -> bool:
        """Run *fn*; a component process dying inside it (strict mode) is
        recorded as a ``process-crash`` violation. False if it died."""
        try:
            fn()
        except Exception as exc:
            self.violate("process-crash", f"{type(exc).__name__}: {exc}")
            return False
        return True

    def settle(self, seconds: float) -> None:
        """Drain for *seconds* under :meth:`guard`, then sweep."""
        self.guard(lambda: self.env.settle(seconds))
        self.sweep()


class Scenario:
    """One fault scenario: chaos run, check run, and their reports.

    Subclasses set the class attributes and implement the hooks; the
    registry (:data:`repro.scenarios.SCENARIOS`) holds one instance each.
    """

    name: str = ""
    #: One line for the ``--scenario`` help.
    summary: str = ""
    #: Chaos-run parameters and their defaults: the settable knobs.
    defaults: Dict[str, Any] = {}
    #: Parameters capped at a maximum (applied to chaos and check runs).
    limits: Dict[str, int] = {}
    #: Chaos CLI switches this scenario honours.
    switches: Tuple[Flag, ...] = ()
    #: Report key of the judged checks: "invariants" or "criteria".
    checks_key = "invariants"
    #: Name under ``obs profile --scenario`` (None: not profiled) and
    #: the parameters a profiling run uses.
    profile_as: Optional[str] = None
    profile_defaults: Dict[str, Any] = {}

    def params(self, **overrides: Any) -> Dict[str, Any]:
        """The chaos parameters a run uses, given the caller's overrides."""
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise TypeError(f"scenario {self.name!r} has no parameter(s) {unknown}")
        p = {**self.defaults, **overrides}
        for key, cap in self.limits.items():
            p[key] = min(p[key], cap)
        return p

    def context(self, p: Dict[str, Any]):
        """Process-wide switches held for the whole chaos run."""
        return nullcontext()

    # -- chaos mode ---------------------------------------------------------
    def build(self, seed: int, p: Dict[str, Any]):
        """The chaos site: ``(env, hosts)``."""
        raise NotImplementedError

    def chaos(self, rig: Rig, hosts, p: Dict[str, Any]) -> Tuple[List[Check], Dict]:
        """Install the workload and fault schedule, run, and judge:
        returns the checks and the scenario's report fields."""
        raise NotImplementedError

    def header(self, report: Dict) -> List[str]:
        """The report lines above the checks table."""
        raise NotImplementedError

    def sweep_fields(self, report: Dict) -> str:
        """The scenario's figures on a ``chaos sweep`` line."""
        raise NotImplementedError

    def format(self, report: Dict) -> str:
        """Human-readable chaos report for the CLI."""
        lines = self.header(report) + ["", f"{self.checks_key}:"]
        for name, ok, detail in report[self.checks_key]:
            lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        lines.append("")
        lines.append(f"RESULT: {'OK' if report['ok'] else 'FAILED'} "
                     f"(simulated {report['finished_at']:.1f}s)")
        return "\n".join(lines)

    def sweep_line(self, seed: int, report: Dict) -> str:
        bad = [name for name, ok, _ in report[self.checks_key] if not ok]
        return (f"seed {seed:4d}: {'OK  ' if report['ok'] else 'FAIL'} "
                + self.sweep_fields(report)
                + (f"failed: {bad}" if bad else ""))

    # -- check mode ---------------------------------------------------------
    def check_env(self, seed: int, p: Dict[str, Any]):
        """The checked site: ``(env, hosts)``; *hosts* are the fault targets."""
        raise NotImplementedError

    def sample_plan(self, rng: random.Random, hosts: List[str],
                    horizon: float) -> List[FaultEvent]:
        """A seeded explicit fault plan (times rounded to serialize cleanly)."""
        raise NotImplementedError

    def check_oracles(self, run: CheckRun) -> None:
        """Attach and :meth:`CheckRun.watch` the scenario's oracles."""
        raise NotImplementedError

    def check_start(self, run: CheckRun) -> None:
        """Install the workload and arm ``run.plan``."""
        raise NotImplementedError

    def check_done(self, run: CheckRun) -> bool:
        """True once the run may stop early (checked after each sweep)."""
        return False

    def check_quiescent(self, run: CheckRun) -> None:
        """End-of-run checks; only called while the run is still clean."""

    def check_summary(self, run: CheckRun) -> Dict:
        """The scenario's fields of the check report."""
        raise NotImplementedError

    def describe(self, report: Dict) -> str:
        """The figures on a ``check run``/``sweep`` line."""
        return (f"completed={report['completed']}/{report['workers']} "
                f"recoveries={report['recoveries']} "
                f"delivered={report['delivered']}")


def run_chaos(scenario: Scenario, seed: int, instrument: Optional[Callable] = None,
              obs_sample: Optional[float] = None, flight: bool = True,
              **params: Any) -> Dict:
    """One seeded chaos run of *scenario*; returns its report dict.

    ``report["ok"]`` holds iff every check passed; a failing run also
    carries its flight-recorder snapshot under ``report["flight"]``.
    """
    p = scenario.params(**params)
    with scenario.context(p):
        env, hosts = scenario.build(seed, p)
        rig = Rig(env, instrument, obs_sample, flight)
        checks, report = scenario.chaos(rig, hosts, p)
    prefix = "invariant" if scenario.checks_key == "invariants" else "criterion"
    failed = [(f"{prefix}:{name}", env.sim.now, detail)
              for name, ok, detail in checks if not ok]
    report.update({
        "seed": seed,
        scenario.checks_key: checks,
        "ok": not failed,
        "flight": rig.flight_on_failure(failed),
        "finished_at": env.sim.now,
    })
    return report


def sample_plan(scenario: Scenario, seed: int, hosts: List[str],
                horizon: float) -> List[FaultEvent]:
    """*scenario*'s fault plan for *seed*, in time order."""
    rng = random.Random(0xFA017 ^ (seed * 0x61C88647))
    plan = scenario.sample_plan(rng, hosts, horizon)
    return sorted(plan, key=lambda e: (e.t, e.kind, e.target))


def run_check(scenario: Scenario, seed: int, plan: Optional[List[FaultEvent]],
              explore: bool, obs_sample: Optional[float], **params: Any) -> Dict:
    """One model-checking run of *scenario*; returns its report dict.

    Builds the checked site, attaches the probe bus and the scenario's
    oracles, runs the workload under the seeded fault *plan* (sampled
    from the seed when not given) with tie permutation *explore*
    enabled, and sweeps the oracles every :data:`CHUNK` virtual seconds.
    The run stops at the first violation — everything after it is noise
    for shrinking purposes.

    Violations are *recorded*, never raised: several components
    legitimately wrap their loops in broad ``except`` clauses, so an
    oracle exception could be swallowed at the point of detection. A
    process crash escaping the kernel (strict mode) is itself recorded
    as a ``process-crash`` violation.
    """
    unknown = sorted(set(params) - set(CHECK_DEFAULTS))
    if unknown:
        raise TypeError(f"check runs have no parameter(s) {unknown}")
    p = {**CHECK_DEFAULTS, **params}
    env, hosts = scenario.check_env(seed, p)
    if plan is None:
        plan = sample_plan(scenario, seed, hosts, horizon=p["duration"] * 0.5)
    run = CheckRun(env, hosts, plan, p, obs_sample)
    sim = run.sim
    scenario.check_oracles(run)
    scheduler = ExplorationScheduler(seed) if explore else None
    if scheduler is not None:
        sim.set_scheduler(scheduler)
    scenario.check_start(run)

    duration = p["duration"]
    while sim.now < duration:
        if not run.guard(lambda: env.run(until=min(sim.now + CHUNK, duration))):
            break
        run.sweep()
        if run.violations or scenario.check_done(run):
            break
    if not run.violations:
        scenario.check_quiescent(run)

    violations = run.violations
    return {
        "scenario": scenario.name,
        "seed": seed,
        "explore": explore,
        "plan": [e.to_dict() for e in plan],
        "violations": [v.to_dict() for v in violations],
        "flight": run.flight_on_failure(
            [(v.oracle, v.time, v.detail) for v in violations]),
        "ok": not violations,
        **scenario.check_summary(run),
        "schedule_picks": scheduler.picks if scheduler else 0,
        "schedule_reordered": scheduler.reordered if scheduler else 0,
        "finished_at": sim.now,
        "params": {**p, "obs_sample": obs_sample},
    }
