"""HyperSub benchmark: one command, three workloads, oracle-checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 35 --trace 0

``--trace 0`` repeats the workload -- a fresh system per repetition,
publishing the seed's segments back to back -- for about ``--seconds``
(every repeat must reproduce the first repetition's digests) and
reports the end-to-end metrics; ``--trace 1`` runs one repetition
untraced and one under the layer tracer and reports the per-layer
metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details
(digests, per-repetition times, the tail percentile and its sample
count, sampled spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: a run repeats the workload at least twice: the repeat must
#: reproduce the first repetition's digests
MIN_REPS = 2
MAX_REPS = 50
#: setup-only repetitions are added until there are SETUP_MIN_SAMPLES
#: samples and SETUP_MIN_TOTAL_S of setup time (at most SETUP_MAX_SAMPLES)
SETUP_MIN_SAMPLES = 3
SETUP_MIN_TOTAL_S = 2.0
SETUP_MAX_SAMPLES = 30
#: relative difference allowed between repetitions' heap walks
MEM_TOLERANCE = 1e-3
#: deliveries that must lie beyond the reported tail percentile
TAIL_MIN_SUPPORT = 10

#: name -> (unit, better, bound): every workload reports all of them
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "events_per_s": ("events/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
    "mem_bytes_per_node": ("B", "lower", 0.1),
    "latency_p50_ms": ("ms", "lower", 0.15),
    "latency_tail_ms": ("ms", "lower", 0.15),
    "kb_per_event": ("KB", "lower", 0.2),
    "install_kb_per_sub": ("KB", "lower", 0.1),
}

_HANDLE_GROUPS = ("event", "ack", "install", "maintenance", "repair", "load-balance", "other")
_NET_GROUPS = ("event", "ack", "install", "lookup", "maintenance", "repair", "load-balance", "other")

#: name -> (unit, better); event phase unless the name says setup
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "sim.engine.dispatched": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.us_per_dispatch": ("us", "lower"),
    "sim.engine.bare_us_per_dispatch": ("us", "lower"),
    "sim.engine.wrapped_us_per_dispatch": ("us", "lower"),
    "sim.engine.share": ("ratio", "lower"),
    "sim.engine.setup_dispatched": ("count", "lower"),
    "sim.engine.setup_self_s": ("s", "lower"),
    "sim.network.sends": ("count", "lower"),
    "sim.network.self_s": ("s", "lower"),
    "sim.network.share": ("ratio", "lower"),
    "sim.network.setup_self_s": ("s", "lower"),
    "sim.network.dropped": ("count", "lower"),
    **{f"sim.network.msgs.{g}": ("count", "lower") for g in _NET_GROUPS},
    **{f"sim.network.bytes.{g}": ("B", "lower") for g in _NET_GROUPS},
    "dht.next_hop.calls": ("count", "lower"),
    "dht.next_hop.self_s": ("s", "lower"),
    "dht.next_hop.setup_self_s": ("s", "lower"),
    "dht.is_responsible.calls": ("count", "lower"),
    "dht.is_responsible.self_s": ("s", "lower"),
    "dht.route_cache.hit_ratio": ("ratio", "higher"),
    "dht.lookup.calls": ("count", "lower"),
    "dht.lookup.hops_mean": ("hops", "lower"),
    "dht.lookup.self_s": ("s", "lower"),
    "dht.lookup.setup_calls": ("count", "lower"),
    "dht.lookup.setup_hops_mean": ("hops", "lower"),
    "dht.lookup.setup_self_s": ("s", "lower"),
    "dht.maintenance.calls": ("count", "lower"),
    "dht.maintenance.self_s": ("s", "lower"),
    "dht.share": ("ratio", "lower"),
    "core.node.publish.calls": ("count", "lower"),
    "core.node.publish.self_s": ("s", "lower"),
    **{
        f"core.node.handle.{g}.{m}": (u, "lower")
        for g in _HANDLE_GROUPS
        for m, u in (("calls", "count"), ("self_s", "s"))
    },
    "core.node.handle.install.setup_self_s": ("s", "lower"),
    "core.node.timers.self_s": ("s", "lower"),
    "core.node.deliveries": ("count", "higher"),
    "core.node.share": ("ratio", "lower"),
    "core.matching.match_point.calls": ("count", "lower"),
    "core.matching.match_point.self_s": ("s", "lower"),
    "core.matching.match_point.us_per_call": ("us", "lower"),
    "core.matching.match_point.boxes_per_call": ("count", "lower"),
    "core.matching.match_point.hit_ratio": ("ratio", "higher"),
    "core.matching.put.setup_calls": ("count", "lower"),
    "core.matching.put.setup_self_s": ("s", "lower"),
    "core.matching.share": ("ratio", "lower"),
    "core.zones.repos": ("count", "lower"),
    "core.zones.one_box_share": ("ratio", "lower"),
    "core.zones.max_repo_boxes": ("count", "lower"),
    "core.system.subscribe.setup_calls": ("count", "lower"),
    "core.system.subscribe.setup_self_s": ("s", "lower"),
    "core.system.build.setup_self_s": ("s", "lower"),
    "core.install.sub_registrations": ("count", "lower"),
    "core.install.marker_registrations": ("count", "lower"),
    "core.durability.log_high_water": ("count", "lower"),
    "core.durability.truncated": ("count", "lower"),
    "core.durability.redelivered": ("count", "lower"),
    "core.durability.retransmitted": ("count", "lower"),
    "core.durability.ack_msgs": ("count", "lower"),
    **{
        f"mem.{c}": ("B", "lower")
        for c in (
            "zones", "subscriptions", "overlay", "transport", "route_cache",
            "durable_log", "sim_queue",
        )
    },
    "runtime.gc.self_s": ("s", "lower"),
    "runtime.gc.share": ("ratio", "lower"),
    "runtime.gc.setup_self_s": ("s", "lower"),
    "trace.phase_s": ("s", "lower"),
    "trace.setup_phase_s": ("s", "lower"),
    "trace.bookkeeping_share": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.setup_overhead": ("ratio", "lower"),
    "trace.coverage_ratio": ("ratio", "lower"),
    "trace.unwrapped_callbacks": ("count", "lower"),
}


def benchmark_manifest() -> dict:
    """The content of ``BENCHMARK.json`` (a test keeps them equal)."""
    from perfbench.harness import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 35,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }


def _problems_of(reps, label: str) -> List[str]:
    """Correctness errors: spurious deliveries, and repetitions of one
    seed's input that disagree."""
    problems = []
    for i, rep in enumerate(reps):
        if rep.verdict.spurious:
            problems.append(f"{label} rep {i}: {rep.verdict.spurious} spurious deliveries")
    if len({r.delivery_digest for r in reps}) > 1:
        problems.append(f"{label}: delivery digests differ between runs of one seed")
    if len({r.outcome_digest for r in reps}) > 1:
        problems.append(f"{label}: simulated outcomes differ between runs of one seed")
    mem = [r.mem_bytes_per_node for r in reps]
    if max(mem) - min(mem) > MEM_TOLERANCE * max(mem):
        problems.append(f"{label}: memory per node differs between runs of one seed: {mem}")
    return problems


def measure(workload: str, seed: int, seconds: float, scale: str = "full") -> dict:
    """Untraced run: repeat the workload while ``seconds`` allow (at
    least twice, so every run checks its own determinism).  Setup time
    is the median of every setup; the event rate takes each segment's
    fastest time over the repetitions."""
    from perfbench import harness, oracle

    wl = harness.WORKLOADS[workload]
    shape = wl.shapes[scale]
    inp = harness.make_inputs(wl, shape, seed)
    reps = []
    t0 = time.perf_counter()
    while len(reps) < MAX_REPS:
        rep = harness.run_rep(inp)
        if reps:
            # a repeat only contributes timings and digests; keeping its
            # deliveries would make peak RSS grow with the rep count
            rep.delivered, rep.latencies = [], []
        reps.append(rep)
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed * (1 + 1 / len(reps)) > seconds:
            break
    setup_samples = [r.setup_s for r in reps]
    while len(setup_samples) < SETUP_MAX_SAMPLES and (
        len(setup_samples) < SETUP_MIN_SAMPLES or sum(setup_samples) < SETUP_MIN_TOTAL_S
    ):
        setup_samples.append(harness.time_setup(inp))
    outcome = harness.outcomes(inp, reps[0])
    problems = _problems_of(reps, workload)
    if outcome["tail_support"] < TAIL_MIN_SUPPORT:
        problems.append(
            f"only {outcome['tail_support']:.0f} deliveries beyond p{shape.tail_pct:g}"
        )
    # Every repetition replays the same input, so a segment does the same
    # work in each; its fastest time is the one least slowed by other
    # tenants of the host's caches, which slow identical work by up to 2x
    # for a minute at a time and move a median over one run with them.
    fastest = [min(r.segment_s[i] for r in reps) for i in range(len(inp.segments))]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "events_per_s": shape.events * len(fastest) / sum(fastest),
        "peak_rss_mb": harness.peak_rss_mb(),
        "mem_bytes_per_node": outcome["mem_bytes_per_node"],
        "latency_p50_ms": outcome["latency_p50_ms"],
        "latency_tail_ms": outcome["latency_tail_ms"],
        "kb_per_event": outcome["kb_per_event"],
        "install_kb_per_sub": outcome["install_kb_per_sub"],
    }
    return {
        "reps": reps,
        "problems": problems,
        "metrics": metrics,
        "units": {n: END_TO_END[n][0] for n in metrics},
        "delivery_digest": reps[0].delivery_digest,
        "outcome_digest": oracle.sha256_json(outcome),
        "details": {
            "setup_samples_s": setup_samples,
            "segment_s": [r.segment_s for r in reps],
            "tail_percentile": shape.tail_pct,
            "tail_support": int(outcome["tail_support"]),
            "deliveries": int(outcome["deliveries"]),
        },
    }


def measure_traced(workload: str, seed: int, scale: str = "full") -> dict:
    """Traced run: one untraced and one traced repetition."""
    from perfbench import harness
    from perfbench.tracer import Tracer, dispatch_us

    wl = harness.WORKLOADS[workload]
    inp = harness.make_inputs(wl, wl.shapes[scale], seed)
    plain = harness.run_rep(inp)
    tracer = Tracer(inp.span_sample)
    tracer.install()
    try:
        traced = harness.run_rep(inp, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(
        tracer, traced, plain, dispatch_us(traced=False), dispatch_us(traced=True)
    )
    problems = _problems_of([plain, traced], workload + " traced")
    if tracer.unwrapped:
        problems.append(
            f"trace coverage: callbacks without a span, their time hides in "
            f"the engine's self time: {tracer.unwrapped}"
        )
    return {
        "reps": [plain, traced],
        "problems": problems,
        "metrics": metrics,
        "units": {n: PER_LAYER[n][0] for n in metrics},
        "tracer": tracer,
        "delivery_digest": plain.delivery_digest,
        "outcome_digest": plain.outcome_digest,
        "details": {
            "event_phase_s": {"untraced": plain.event_s, "traced": traced.event_s},
            "setup_s": {"untraced": plain.setup_s, "traced": traced.setup_s},
            "accounted_s": tracer.accounted_s("event"),
        },
    }


def layer_metrics(
    tracer, traced, plain, bare_us: float, wrapped_us: float
) -> Dict[str, float]:
    """Per-layer metrics of the traced repetition."""
    E, S = "event", "setup"
    m: Dict[str, float] = dict(traced.layers)
    span = tracer.phase_span[E]
    self_s = tracer.self_s
    calls = tracer.calls
    counter = tracer.counter

    def mean(total: float, n: float) -> float:
        return total / n if n else 0.0

    dispatched = m["sim.engine.dispatched"]
    m["sim.engine.self_s"] = self_s(E, "sim.engine")
    m["sim.engine.us_per_dispatch"] = mean(m["sim.engine.self_s"], dispatched) * 1e6
    m["sim.engine.bare_us_per_dispatch"] = bare_us
    m["sim.engine.wrapped_us_per_dispatch"] = wrapped_us
    m["sim.engine.setup_self_s"] = self_s(S, "sim.engine")
    m["sim.network.sends"] = counter(E, "sim.network.sends")
    m["sim.network.self_s"] = self_s(E, "sim.network")
    m["sim.network.setup_self_s"] = self_s(S, "sim.network")
    for layer in ("dht.next_hop", "dht.is_responsible"):
        m[f"{layer}.calls"] = calls(E, layer)
        m[f"{layer}.self_s"] = self_s(E, layer)
    m["dht.next_hop.setup_self_s"] = self_s(S, "dht.next_hop")
    for suffix, phase in (("", E), ("setup_", S)):
        m[f"dht.lookup.{suffix}calls"] = counter(phase, "dht.lookup.started")
        m[f"dht.lookup.{suffix}hops_mean"] = mean(
            counter(phase, "dht.lookup.hops"), counter(phase, "dht.lookup.done")
        )
        m[f"dht.lookup.{suffix}self_s"] = self_s(phase, "dht.lookup")
    m["dht.maintenance.calls"] = counter(E, "dht.maintenance.calls")
    m["dht.maintenance.self_s"] = self_s(E, "dht.maintenance")
    m["core.node.publish.calls"] = calls(E, "core.node.publish")
    m["core.node.publish.self_s"] = self_s(E, "core.node.publish")
    for g in _HANDLE_GROUPS:
        m[f"core.node.handle.{g}.calls"] = calls(E, f"core.node.handle.{g}")
        m[f"core.node.handle.{g}.self_s"] = self_s(E, f"core.node.handle.{g}")
    m["core.node.handle.install.setup_self_s"] = self_s(S, "core.node.handle.install")
    m["core.node.timers.self_s"] = self_s(E, "core.node.timers")
    mp = "core.matching.match_point"
    m[f"{mp}.calls"] = calls(E, mp)
    m[f"{mp}.self_s"] = self_s(E, mp)
    m[f"{mp}.us_per_call"] = mean(m[f"{mp}.self_s"], m[f"{mp}.calls"]) * 1e6
    m[f"{mp}.boxes_per_call"] = mean(counter(E, f"{mp}.boxes"), m[f"{mp}.calls"])
    m[f"{mp}.hit_ratio"] = mean(counter(E, f"{mp}.hits"), m[f"{mp}.calls"])
    m["core.matching.put.setup_calls"] = calls(S, "core.matching.put")
    m["core.matching.put.setup_self_s"] = self_s(S, "core.matching.put")
    m["core.system.subscribe.setup_calls"] = calls(S, "core.system.subscribe")
    m["core.system.subscribe.setup_self_s"] = self_s(S, "core.system.subscribe")
    m["core.system.build.setup_self_s"] = self_s(S, "core.system.build")

    def share(prefix: str) -> float:
        acc = tracer.phases[E]
        return sum(a.self_s for k, a in acc.items() if k.startswith(prefix)) / span

    m["sim.engine.share"] = share("sim.engine")
    m["sim.network.share"] = share("sim.network")
    m["dht.share"] = share("dht.")
    m["core.node.share"] = share("core.node.")
    m["core.matching.share"] = share("core.matching.")
    m["runtime.gc.self_s"] = tracer.gc_s[E]
    m["runtime.gc.share"] = tracer.gc_s[E] / span
    m["runtime.gc.setup_self_s"] = tracer.gc_s[S]
    m["trace.phase_s"] = span
    m["trace.setup_phase_s"] = tracer.phase_span[S]
    m["trace.bookkeeping_share"] = tracer.bookkeeping[E] / span
    m["trace.overhead"] = traced.event_s / plain.event_s
    m["trace.setup_overhead"] = traced.setup_s / plain.setup_s
    m["trace.coverage_ratio"] = m["sim.engine.us_per_dispatch"] / bare_us
    m["trace.unwrapped_callbacks"] = sum(tracer.unwrapped.values())
    return {name: float(m[name]) for name in PER_LAYER}


def _write_details(result: dict, workload: str, seed: int, trace: bool) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    doc = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "problems": result["problems"],
        "metrics": result["metrics"],
        "delivery_digest": result["delivery_digest"],
        "outcome_digest": result["outcome_digest"],
        "verdicts": [r.verdict.as_dict() for r in result["reps"]],
        **result["details"],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if trace:
        result["tracer"].write_spans(OUT_DIR / f"{stem}-spans.jsonl")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's own tests",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} not found; run from a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.harness import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.scale)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.scale)
    _write_details(result, args.workload, args.seed, bool(args.trace))

    reps = result["reps"]
    attempted = sum(r.verdict.attempted for r in reps)
    failed = sum(r.verdict.failed for r in reps)
    details = result["details"]
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}")
    for i, r in enumerate(reps):
        v = r.verdict
        segments = " ".join(f"{x:.3f}" for x in r.segment_s)
        print(
            f"  rep {i}: setup {r.setup_s:.3f} s  segments {segments} s  "
            f"ops {v.attempted}  missing {v.missing}  duplicate {v.duplicate}  "
            f"spurious {v.spurious}  fifo {v.fifo_violations}"
        )
    print(f"  delivery digest {result['delivery_digest']}")
    print(f"  outcome digest  {result['outcome_digest']}")
    if "tail_percentile" in details:
        print(
            f"  latency tail is p{details['tail_percentile']:g} of "
            f"{details['deliveries']} deliveries ({details['tail_support']} beyond it)"
        )
    for problem in result["problems"]:
        print(f"  ERROR: {problem}")
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {result['units'][name]}")
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
