"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fuzz-jsmn --seed 1 \\
        --seconds 23 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with layer spans recorded on every
other round and prints the per-layer metrics instead (the spans are
written to ``.perfbench/traces/`` when the run ends).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.
The command exits 1 when an output check fails, and fails without a
result when the program under ``src/`` cannot be imported or run.

``--seconds 0`` is the smallest run: one round (two with ``--trace 1``)
and one set-up probe.

Host times are reported in reference seconds: each is scaled by the
host's speed, sampled next to it with ``harness.HostClock``.  The raw
host figures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
#: fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
#: reference-kernel samples taken right before and right after each round
#: and each set-up probe.
EDGE_SAMPLES = 3


@dataclass
class Round:
    """One measured round of a workload."""

    #: host seconds, less the time spent sampling the host's speed.
    seconds: float
    #: reference seconds per host second over the round (``HostClock``).
    scale: float
    #: every ``runtime.run`` call of the round (``harness.Execution``).
    execs: List
    #: the calls that did counted work (all of them, but for the service).
    counted: List
    exact: Dict
    traced: bool
    root: Optional[int]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_program(work: str) -> None:
    """Point the program at a private jit cache, then make it importable."""
    os.environ["REPRO_JIT_CACHE"] = os.path.join(work, "jit")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)


def probe_main(args) -> int:
    """In a fresh process: the cold path to the first fuzz execution."""
    use_program(args.work)
    from workloads import WORKLOADS

    WORKLOADS[args.workload].probe(args.seed, args.work)
    print(time.monotonic())
    return 0


def measure_setup(args, work: str, host) -> List[Tuple[float, float]]:
    """Process start to first execution, in fresh processes, cold cache.

    Returns (host seconds, reference seconds per host second) per probe.
    """
    probes = SETUP_PROBES if args.seconds > 0 else 1
    times = []
    for index in range(probes):
        probe_dir = os.path.join(work, f"probe-{index}")
        os.makedirs(probe_dir)
        window = time.perf_counter()
        host.sample(EDGE_SAMPLES)
        started = time.monotonic()
        # The probe runs on one core; this process samples the host's
        # speed on another while it waits.
        with host.sampling():
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--probe",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--work", probe_dir],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        seconds = float(done.stdout.split()[-1]) - started
        host.sample(EDGE_SAMPLES)
        times.append((seconds, host.scale(window, time.perf_counter())))
        shutil.rmtree(probe_dir)
    return times


def exec_totals(execs) -> Dict:
    """Simulated sums over a list of executions."""
    spec: Counter = Counter()
    totals = Counter()
    for execution in execs:
        result = execution.result
        totals["cycles"] += result.cycles
        totals["steps"] += result.steps
        totals["reports"] += len(result.reports)
        spec.update(result.spec_stats)
    return {"executions": len(execs), **totals,
            "spec_stats": dict(sorted(spec.items()))}


def round_totals(item: Round) -> Dict:
    """The round's counted work: exact, and the same in every round."""
    return item.exact.get("totals") or exec_totals(item.execs)


def run_rounds(workload, tracer, host, seconds: float, trace: bool):
    """Closed loop of measured rounds; alternate traced rounds if tracing.

    The number of rounds depends only on ``seconds`` and the workload's
    nominal round length, so every run does the same work whatever the
    host's speed.  A host so slow that the rounds take more than half as
    long again as planned ends the loop early.

    The host's speed is sampled right before and after each round, and
    evenly through untraced rounds; the time spent sampling inside a round
    is left out of the round's time.  Traced rounds are sampled at their
    edges only, so that no span times the sampling.
    """
    from repro.runtime.jitcache import shared_cache

    counted = getattr(workload, "counted", list)
    planned = max(2 if trace else 1,
                  round(seconds / workload.nominal_round_s))
    deadline = time.perf_counter() + 1.5 * planned * workload.nominal_round_s
    rounds: List[Round] = []
    jit_stats: Dict[str, int] = {}
    while True:
        tracer.tracing = trace and len(rounds) % 2 == 0
        first_exec = len(tracer.execs)
        window = time.perf_counter()
        host.sample(EDGE_SAMPLES)
        with tracer.span("bench.round") as root, (
                nullcontext() if tracer.tracing else host.sampling()):
            spent = host.spent
            round_started = time.perf_counter()
            exact = workload.round()
            elapsed = (time.perf_counter() - round_started
                       - (host.spent - spent))
        host.sample(EDGE_SAMPLES)
        execs = tracer.execs[first_exec:]
        rounds.append(Round(elapsed, host.scale(window, time.perf_counter()),
                            execs, counted(execs), exact, tracer.tracing,
                            root))
        tracer.tracing = False
        if len(rounds) == 1:
            jit_stats = dict(shared_cache().stats)
        if len(rounds) >= planned or (time.perf_counter() > deadline
                                      and len(rounds) >= (2 if trace else 1)):
            return rounds, jit_stats


def repeat_failures(rounds: List[Round]) -> List[str]:
    """Every round is the same work: its exact outcome must repeat."""
    first = (rounds[0].exact, round_totals(rounds[0]))
    return [f"round {index} did not repeat round 0 exactly"
            for index, item in enumerate(rounds[1:], start=1)
            if (item.exact, round_totals(item)) != first]


def host_figures(rounds, setup, host, scaled: bool) -> Dict:
    """The host-time end-to-end figures, in reference or in host seconds."""
    median = statistics.median
    totals = round_totals(rounds[0])
    durations = exec_durations(rounds, host, scaled)
    seconds = [r.seconds * (r.scale if scaled else 1.0) for r in rounds]
    return {
        "setup_s": median([s * (scale if scaled else 1.0)
                           for s, scale in setup]),
        "round_s": median(seconds),
        "exec_per_s": median([totals["executions"] / s for s in seconds]),
        "exec_p50_ms": median(durations) * 1e3,
        "exec_p90_ms": statistics.quantiles(
            durations, n=10, method="inclusive")[8] * 1e3,
    }


def exec_seconds(item: Round, execution, host, scaled: bool = True) -> float:
    """One ``runtime.run`` call's thread CPU time, less host samples.

    A timer sample can land inside an execution on the main thread; its
    CPU time is taken off.  The time is scaled by the host's speed around
    the execution (the samples up to one sampling interval either side),
    or by the round's when none was taken that close (traced rounds).
    """
    from harness import SAMPLE_EVERY_S

    cpu = execution.seconds
    if execution.main:
        cpu -= sum(host.between(execution.start, execution.end))
    if not scaled:
        return cpu
    return cpu * host.scale(execution.start - SAMPLE_EVERY_S,
                            execution.end + SAMPLE_EVERY_S, item.scale)


def exec_durations(rounds, host, scaled: bool = True) -> List[float]:
    """CPU time of every counted ``runtime.run`` call of the rounds."""
    return [exec_seconds(r, e, host, scaled)
            for r in rounds for e in r.counted]


def end_to_end(rounds, setup, host, peak_rss_mb, attempted, failed) -> Dict:
    totals = round_totals(rounds[0])
    return {
        **host_figures(rounds, setup, host, scaled=True),
        "sim_cycles_per_exec": totals["cycles"] / totals["executions"],
        "spec_edges": rounds[0].exact["spec_edges"],
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(workload, tracer, host, rounds, jit_stats,
              prepare_root) -> Dict:
    from harness import LAYERS, descendants, self_times

    median = statistics.median
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    selfs = self_times(tracer.spans)
    in_rounds = descendants(tracer.spans, [r.root for r in traced])
    layer_self = Counter()
    name_self = Counter()
    for span in in_rounds:
        layer_self[span.layer] += selfs[span.id]
        name_self[span.name] += selfs[span.id]
    total_self = sum(layer_self.values())

    def pct(seconds: float) -> float:
        return 100.0 * seconds / total_self

    def per_call(name: str) -> float:
        spans = [s.end - s.start for s in tracer.spans if s.name == name]
        return sum(spans) / len(spans)

    def per_round(name: str) -> float:
        return median([sum(selfs[s.id] for s in descendants(tracer.spans,
                                                            [r.root])
                           if s.name == name) for r in traced])

    # Engine set-up paid before the first measured round ends: the cold
    # compile of fuzz-jsmn's prepare, harden-cold's first cold round, the
    # service warm-up campaign.
    cold = descendants(tracer.spans, [prepare_root, traced[0].root])
    totals = round_totals(rounds[0])
    runs = totals["executions"]
    spec = totals["spec_stats"]
    exact = rounds[0].exact
    durations = exec_durations(rounds, host)
    performed = sum(len(r.execs) for r in rounds)
    steps = sum(exec_totals(r.counted)["steps"] for r in rounds)

    from repro.campaign.worker import compiled_binary, instrumented_binary

    target, variant = workload.primary
    growth = (instrumented_binary(target, "teapot", variant).text.size
              / compiled_binary(target, variant).text.size)
    metrics = {f"{layer}.self_pct": pct(layer_self[layer])
               for layer in LAYERS}
    metrics.update({
        "trace.overhead_pct": 100.0 * (
            median([r.seconds * r.scale for r in traced])
            / median([r.seconds * r.scale for r in plain]) - 1.0),
        "trace.thread_time_pct": 100.0 * total_self / sum(r.seconds
                                                          for r in traced),
        "runtime.wasted_exec_pct": 100.0 * (
            1.0 - runs * len(rounds) / performed),
        "runtime.exec_busy_s": median([
            sum(exec_seconds(r, e, host) for e in r.execs) for r in rounds]),
        "runtime.ns_per_step": 1e9 * sum(durations) / steps,
        "runtime.steps_per_exec": totals["steps"] / runs,
        "runtime.speculation.simulations_per_exec":
            spec.get("simulations_started", 0) / runs,
        "runtime.speculation.nested_per_exec":
            spec.get("nested_simulations", 0) / runs,
        "runtime.speculation.rollbacks_per_exec":
            spec.get("rollbacks", 0) / runs,
        "runtime.speculation.sim_instr_per_exec":
            spec.get("simulated_instructions", 0) / runs,
        "runtime.engine_setup_s": sum(s.end - s.start for s in cold
                                      if s.name == "runtime.setup"),
        "runtime.jit_misses": jit_stats["misses"],
        "runtime.jit_hits": jit_stats["memo_hits"] + jit_stats["disk_hits"],
        "specmodels.entered_btb_per_exec": spec.get("entered_btb", 0) / runs,
        "specmodels.entered_rsb_per_exec": spec.get("entered_rsb", 0) / runs,
        "specmodels.entered_stl_per_exec": spec.get("entered_stl", 0) / runs,
        "minic.compile_s": per_call("minic.compile"),
        "disasm.disassemble_s": per_call("disasm.disassemble"),
        "core.instrument_s": per_call("core.instrument"),
        "core.code_growth": growth,
        "rewriting.reassemble_s": per_call("rewriting.reassemble"),
        "hardening.patch_pct": pct(name_self["hardening.patch"]),
        "hardening.verify_pct": pct(name_self["hardening.verify"]),
        "hardening.measure_cycles_pct":
            pct(name_self["hardening.measure_cycles"]),
        "hardening.sites_patched": exact["sites_patched"],
        "sanitizers.raw_reports": totals["reports"],
        "sanitizers.dedup_ratio": (exact["unique_gadgets"] / totals["reports"]
                                   if totals["reports"] else 0.0),
        "coverage.normal_edges": exact["normal_edges"],
        "coverage.spec_edges": exact["spec_edges"],
        "fuzzing.self_s": per_round("fuzzing.run_chunk"),
        "fuzzing.corpus_size": exact["corpus_size"],
        "service.submit_pct": pct(name_self["service.submit"]),
        "service.jobs_failed": 0,
        "service.retries": 0,
        "service.lease_takeovers": 0,
        "service.queue_wait_pct": 0.0,
        "outcome.unique_gadgets": exact["unique_gadgets"],
        "outcome.residual_sites": exact["residual_sites"],
        "outcome.hardened_overhead": exact["hardened_overhead"],
        "host.ref_ms": host.median_s() * 1e3,
    })
    service_counts = getattr(workload, "service_counts", None)
    if service_counts is not None:
        metrics.update(service_counts())
    return metrics


def run(args, work: str) -> Dict:
    from harness import HostClock

    host = HostClock()
    setup = [] if args.trace else measure_setup(args, work, host)
    use_program(work)
    from harness import Tracer
    from workloads import WORKLOADS

    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    tracer.install(spans=bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, tracer, work)
    try:
        tracer.tracing = bool(args.trace)
        with tracer.span("bench.prepare") as prepare_root:
            workload.prepare()
        rounds, jit_stats = run_rounds(workload, tracer, host, args.seconds,
                                       bool(args.trace))
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked, failures = workload.checks(rounds[0])
        failures += repeat_failures(rounds)
        attempted = (sum(len(r.execs) + r.exact["jobs"] for r in rounds)
                     + checked + len(rounds) - 1)
        failed = sum(r.exact["failed_jobs"] for r in rounds) + len(failures)
        if args.trace:
            metrics = per_layer(workload, tracer, host, rounds, jit_stats,
                                prepare_root)
        else:
            metrics = end_to_end(rounds, setup, host, peak_rss_mb,
                                 attempted, failed)
            raw = host_figures(rounds, setup, host, scaled=False)
            print("host seconds (unscaled): "
                  + ", ".join(f"{k}={v:.4g}" for k, v in raw.items())
                  + f"; reference kernel median {host.median_s() * 1e3:.3f}"
                  " ms", file=sys.stderr)
    finally:
        workload.close()
        tracer.uninstall()
    if args.trace:
        traces = os.path.join(STATE_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.write(os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json"))
    for message in failures:
        print(message, file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def declared_metrics(trace: bool) -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe_main(args)
    declared = declared_metrics(bool(args.trace))
    work = os.path.join(STATE_DIR, f"{args.workload}-seed{args.seed}-"
                                   f"{os.getpid()}")
    os.makedirs(work)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = result["metrics"]
    if set(measured) != set(declared):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(measured) ^ set(declared))}")
    result["metrics"] = {name: {"value": measured[name], "unit": unit}
                         for name, unit in declared.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
