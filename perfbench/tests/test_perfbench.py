"""The benchmark's own tests: small-size smokes of every workload through
the benchmark's code path, wrapper hygiene of the traced run, and the
benchmark's contract with ``BENCHMARK.json``.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for p in (str(ROOT / "src"), str(BENCH_DIR)):
    if p not in sys.path:
        sys.path.insert(0, p)

import layers  # noqa: E402
import run  # noqa: E402
from layers import BODIES, COUNTS, SPANS, LayerTracer  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from workloads import WORKLOADS, run_rep  # noqa: E402


def _smoke(name: str, seed: int = 1, tracer=None):
    w = WORKLOADS[name]
    return run_rep(w, seed, w.smoke, tracer=tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_workload_checks_pass_and_repeat(name):
    a = _smoke(name)
    assert a.attempted > 0 and a.completed > 0
    assert a.checks and all(a.checks.values()), a.checks
    assert a.completed + a.failed == a.attempted
    b = _smoke(name)
    assert a.digest == b.digest
    assert _smoke(name, seed=2).digest != a.digest


def test_wan_rpc_and_lossy_stream_smoke_have_no_failed_ops():
    for name in ("wan_rpc", "lossy_stream"):
        rep = _smoke(name)
        assert rep.failed == 0, rep.errors
        assert rep.completed == rep.attempted


def _bindings():
    """Every attribute the tracer patches, as (owner, attr) -> object."""
    out = {}
    for owner, attrs, _name in SPANS + BODIES:
        for attr in attrs:
            out[(owner, attr)] = getattr(owner, attr)
    for owner, attr, _key, _amount in COUNTS:
        out[(owner, attr)] = getattr(owner, attr)
    for attr in ("process", "schedule_timer"):
        out[(Simulator, attr)] = getattr(Simulator, attr)
    for name, mod in list(sys.modules.items()):
        if name.startswith("repro") and mod is not None:
            for attr in ("canonical_bytes", "content_hash", "payload_size"):
                if attr in mod.__dict__:
                    out[(mod, attr)] = mod.__dict__[attr]
    return out


def test_traced_run_leaves_no_wrapper_behind():
    before = _bindings()
    untraced = _smoke("catalog_mix")
    tracer = LayerTracer()
    with tracer:
        assert Simulator.process is not before[(Simulator, "process")]
        traced = _smoke("catalog_mix", tracer=tracer)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed
    # Tracing observes; it must not change what is simulated.
    assert traced.digest == untraced.digest
    assert traced.layer["calls"]["rcds.shard.client"] > 0
    # The plain RCClient op bodies the sharded client runs via
    # ``yield from`` are charged to rcds, inside rcds.shard spans.
    names = tracer.names
    assert any(names[tracer.span_name[i]] == "rcds"
               and names[tracer.span_name[tracer.span_parent[i]]] == "rcds.shard"
               for i in range(len(tracer.span_name))
               if tracer.span_parent[i] >= 0)
    # A later untraced run calls the originals: the old tracer sees nothing.
    n_spans = len(tracer.span_name)
    _smoke("catalog_mix")
    assert len(tracer.span_name) == n_spans


@pytest.mark.parametrize("name", ["wan_rpc", "lossy_stream", "catalog_split"])
def test_layer_self_times_sum_within_traced_cpu(name):
    with LayerTracer() as tracer:
        rep = _smoke(name, tracer=tracer)
    layer_self = rep.layer["layer_self"]
    assert all(v >= 0.0 for v in layer_self.values()), layer_self
    assert sum(layer_self.values()) <= rep.sim_cpu_s + 1e-9
    assert layer_self["net"] > 0 and layer_self["transport"] > 0


def test_spans_record_parents_and_close():
    with LayerTracer() as tracer:
        _smoke("wan_rpc", tracer=tracer)
    n = len(tracer.span_name)
    assert n > 0
    for i in range(n):
        assert tracer.span_end[i] >= tracer.span_start[i]
        parent = tracer.span_parent[i]
        assert parent < i
        if parent >= 0:
            assert tracer.span_start[parent] <= tracer.span_start[i]


def test_layer_names_follow_modules():
    tracer = LayerTracer()
    assert tracer.layer_of("rcds.shard.route") == "rcds.shard"
    assert tracer.layer_of("rcds.snapshot") == "rcds"
    assert tracer.layer_of("net.datapath") == "net"
    assert set(layers.LAYERS) >= {tracer.layer_of(n) for _o, _a, n in SPANS}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_reports_every_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    w = WORKLOADS["lossy_stream"]
    out = run.run("lossy_stream", 1, 0.0, trace=False, shape=w.smoke)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    out = run.run("lossy_stream", 1, 0.0, trace=True, shape=w.smoke)
    assert out["result"]["correct"]
    assert set(out["result"]["metrics"]) == {n for n, _ in run.PER_LAYER}
    # The traced run wrote its last repetition's spans.
    assert out["spans"] == tmp_path / "spans-lossy_stream.csv.gz"
    with gzip.open(out["spans"], "rt", newline="") as f:
        rows = list(csv.DictReader(f))
    assert rows and set(rows[0]) == {"name", "start_s", "end_s", "parent", "rid"}
    for i, row in enumerate(rows):
        assert float(row["end_s"]) >= float(row["start_s"])
        assert -1 <= int(row["parent"]) < i
    assert {r["name"] for r in rows} >= {"sim", "net.datapath", "transport.send"}


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wan_rpc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
