"""Tests of the benchmark itself: output contract, oracle, tracer.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Every run here uses the ``tiny`` scale.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import harness, oracle
from perfbench.run import END_TO_END, PER_LAYER, benchmark_manifest
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS = list(harness.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_oracle_and_prints_every_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "tiny")
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == set(END_TO_END)
    for name, (unit, _better, _bound) in END_TO_END.items():
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0
        assert re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}$", proc.stdout, re.M)


def test_traced_tiny_run_prints_every_per_layer_metric():
    proc = _run(
        "--workload", "durable-lossy", "--seed", "3", "--seconds", "1",
        "--scale", "tiny", "--trace", "1",
    )
    res = _result(proc)
    assert res["failed"] == 0
    assert set(res["metrics"]) == set(PER_LAYER)
    for name, (unit, _better) in PER_LAYER.items():
        assert res["metrics"][name]["unit"] == unit
        assert f"\n{name} = " in proc.stdout
    spans = ROOT / "perfbench" / "out" / "durable-lossy-seed3-trace-spans.jsonl"
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    layers = {r["layer"] for r in records}
    assert {"core.node.publish", "sim.network", "core.node.handle.event"} <= layers
    assert all(r["start"] <= r["end"] for r in records)


def test_same_seed_same_digests_other_seed_differs():
    def digests(seed):
        _result(_run("--workload", "paper", "--seed", str(seed), "--seconds", "1", "--scale", "tiny"))
        doc = json.loads((ROOT / "perfbench" / "out" / f"paper-seed{seed}.json").read_text())
        return doc["delivery_digest"], doc["outcome_digest"]

    first = digests(11)
    assert digests(11) == first
    assert digests(12)[0] != first[0]


def test_layer_self_times_sum_to_phase_span():
    wl = harness.WORKLOADS["install-dense"]
    inp = harness.make_inputs(wl, wl.shapes["tiny"], 5)
    tracer = Tracer(inp.span_sample)
    tracer.install()
    try:
        rep = harness.run_rep(inp, tracer=tracer)
    finally:
        tracer.uninstall()
    assert rep.verdict.failed == 0
    for phase in ("setup", "event"):
        span = tracer.phase_span[phase]
        assert tracer.accounted_s(phase) == pytest.approx(span, rel=0.01, abs=1e-4)
    assert tracer.calls("setup", "dht.lookup") > 0
    assert tracer.calls("event", "core.matching.match_point") > 0


def test_self_time_excludes_children_exactly():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    child = tracer._plain("child")(lambda: busy(0.02))

    def parent():
        busy(0.01)
        child()
        child()

    tracer.run_phase("p", "parent", tracer._plain("parent")(parent))
    assert tracer.calls("p", "child") == 2
    assert tracer.self_s("p", "child") == pytest.approx(0.04, rel=0.2)
    assert tracer.self_s("p", "parent") == pytest.approx(0.01, rel=0.5)
    assert tracer.accounted_s("p") == pytest.approx(tracer.phase_span["p"], rel=0.01)


def test_tracer_restores_every_patched_attribute():
    from repro.dht.chord import ChordNode
    from repro.sim.network import Network

    before = (Network.send, ChordNode.next_hop_addr)
    tracer = Tracer()
    tracer.install()
    assert Network.send is not before[0]
    tracer.uninstall()
    assert (Network.send, ChordNode.next_hop_addr) == before


def test_unwrapped_callback_fails_the_coverage_check():
    from repro.sim.engine import Simulator

    tracer = Tracer()
    tracer.install()
    try:
        sim = Simulator()
        sim.schedule_at(1.0, Simulator.run, sim)  # a patched entry point
        assert tracer.unwrapped == {}
        sim.schedule_at(2.0, time.perf_counter)
    finally:
        tracer.uninstall()
    assert tracer.unwrapped == {"perf_counter": 1}


@pytest.fixture(scope="module")
def recorded():
    """One tiny durable+fifo repetition: its inputs and its result."""
    wl = harness.WORKLOADS["durable-lossy"]
    inp = harness.make_inputs(wl, wl.shapes["tiny"], 4)
    rep = harness.run_rep(inp)
    assert rep.verdict.failed == 0 and rep.verdict.spurious == 0
    return inp, rep.delivered


def test_injected_duplicate_and_drop_are_failed_operations(recorded):
    inp, delivered = recorded
    tampered = delivered[1:] + [delivered[-1]]  # drop the first, repeat the last
    verdict = oracle.check_deliveries(inp.expected, tampered, inp.publishers, True)
    assert verdict.missing == 1
    assert verdict.duplicate == 1
    assert verdict.failed == 2
    assert verdict.spurious == 0


def test_injected_spurious_delivery_is_a_correctness_error(recorded):
    inp, delivered = recorded
    stray = next(
        (ev, sub)
        for ev in range(len(inp.publishers))
        for sub in range(len(inp.subs))
        if (ev, sub) not in inp.expected
    )
    verdict = oracle.check_deliveries(inp.expected, delivered + [stray])
    assert verdict.spurious == 1 and verdict.failed == 0


def test_out_of_order_delivery_is_a_fifo_violation(recorded):
    inp, delivered = recorded
    # two deliveries to one subscription from one publisher, swapped
    seen = {}
    for i, (ev, sub) in enumerate(delivered):
        key = (sub, inp.publishers[ev])
        if key in seen:
            j = seen[key]
            break
        seen[key] = i
    else:
        pytest.skip("no subscription received two events of one publisher")
    swapped = list(delivered)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    verdict = oracle.check_deliveries(inp.expected, swapped, inp.publishers, True)
    assert verdict.fifo_violations >= 1 and verdict.failed >= 1


def test_expected_pairs_match_subscription_matches():
    wl = harness.WORKLOADS["paper"]
    inp = harness.make_inputs(wl, wl.shapes["tiny"], 2)
    events = [e for seg in inp.segments for e in seg.events]
    brute = {
        (e, s)
        for e, ev in enumerate(events)
        for s, sub in enumerate(inp.subs)
        if sub.matches(ev)
    }
    assert inp.expected == brute and brute


def test_benchmark_json_matches_definitions_and_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc == benchmark_manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert 2 <= len(doc["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(unit.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert 1 <= len(doc["per_layer"]) <= 128
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 10) < 3420


def test_fails_without_the_repository_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
