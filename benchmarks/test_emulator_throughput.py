"""Emulator engine throughput: the jit engine vs the legacy oracle.

The acceptance bars, with bit-identity proven by the differential suite
(``tests/runtime/test_differential.py``) and the speedups proven here:

- fuzzing loops: ``jit`` (``repro.runtime.jit``) runs ≥ 2× the
  executions/second of ``legacy`` on the Kocher samples, carrying over
  to a real target (jsmn, ≥ 1.5×);
- bare streams: ``jit`` runs dense perf-input streams of both workloads
  ≥ 4× faster than ``legacy`` (the ``jit_speedup_vs_legacy`` BENCH
  fields of the ``jit_throughput_*`` records).

Every registered engine is measured in the fuzzing loops — a newly
plugged-in engine shows up in the BENCH rows automatically; only the
jit carries floors.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import SCALE
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.plugins import engine_names, resolve_engine
from repro.targets import get_target
from repro.targets.injection import compile_vanilla


def _timed_chunk(fuzzer, iterations: int):
    """One timed fuzzing chunk; returns (exec/s, result digest)."""
    started = time.perf_counter()
    result = fuzzer.run_chunk(iterations)
    elapsed = time.perf_counter() - started
    digest = (
        result.total_cycles,
        result.total_steps,
        result.crashes,
        result.hangs,
        result.normal_coverage,
        result.speculative_coverage,
        result.reports.to_dicts(),
    )
    return iterations / elapsed, digest


def _compare_engines(target_name: str, iterations: int, seed: int = 7,
                     repetitions: int = 5):
    """Per-chunk speedup of every registered engine over legacy.

    All engines replay the exact same deterministic input sequence, chunk
    for chunk, and each chunk is timed across the engines back to back —
    so the paired rates see the same inputs and (nearly) the same machine
    conditions.  The reported speedup per engine is the *second-highest*
    paired ratio: robust both to a load spike sinking the measured half
    of a chunk and to one sinking the legacy half (which would inflate
    the maximum).
    """
    target = get_target(target_name)
    binary = TeapotRewriter(TeapotConfig()).instrument(compile_vanilla(target))
    engines = sorted(engine_names(), key=lambda name: name != "legacy")
    fuzzers = {}
    for engine in engines:
        runtime = TeapotRuntime(binary, config=TeapotConfig(engine=engine))
        fuzzers[engine] = Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
                                 seed=seed)
        fuzzers[engine].run_chunk(max(5, iterations // 10))  # warmup

    rates = {engine: [] for engine in engines}
    ratios = {engine: [] for engine in engines if engine != "legacy"}
    for _ in range(repetitions):
        digests = {}
        for engine in engines:
            rate, digests[engine] = _timed_chunk(fuzzers[engine], iterations)
            rates[engine].append(rate)
            if engine != "legacy":
                ratios[engine].append(rate / rates["legacy"][-1])
        for engine in engines:
            assert digests[engine] == digests["legacy"], (
                f"{target_name}: {engine} diverged from legacy — "
                f"engine results are wrong"
            )
    speedups = {}
    for engine, engine_ratios in ratios.items():
        engine_ratios.sort()
        speedups[engine] = (engine_ratios[-2] if len(engine_ratios) > 1
                            else engine_ratios[0])
    summary = " | ".join(
        f"{engine} {max(rates[engine]):8.1f} exec/s"
        + (f" ({speedups[engine]:.2f}x)" if engine in speedups else "")
        for engine in engines
    )
    print(f"\n{target_name}: {summary}")
    metrics = {"cycles_per_exec": round(digests["legacy"][0] / iterations, 1)}
    for engine in engines:
        metrics[f"{engine}_exec_per_sec"] = round(max(rates[engine]), 1)
    for engine, speedup in speedups.items():
        metrics[f"{engine}_speedup_vs_legacy"] = round(speedup, 2)
    return speedups, metrics


def _bare_throughput(target_name: str, size: int, runs: int,
                     repetitions: int = 7):
    """Architectural-execution throughput of jit vs legacy, noise-robust.

    Runs a dense perf-input stream straight through bare ``legacy`` and
    ``jit`` emulators (no fuzzing loop), in alternating-order chunks,
    and compares the *minimum* chunk time per engine — scheduling noise
    only ever adds time, so the min-of-chunks ratio is the stable
    estimator on a noisy host.
    """
    target = get_target(target_name)
    binary = target.compile()
    data = target.perf_input(size)
    emulators = {engine: resolve_engine(engine)[0](binary)
                 for engine in ("legacy", "jit")}
    digests = {}
    for engine, emulator in emulators.items():  # warmup + identity guard
        result = emulator.run(data)
        digests[engine] = (result.status, result.exit_status, result.steps,
                           result.cycles, result.arch_instructions)
    assert digests["jit"] == digests["legacy"], (
        f"{target_name}: jit diverged from legacy on the perf input"
    )
    best = {"legacy": None, "jit": None}
    for rep in range(repetitions):
        order = ("legacy", "jit") if rep % 2 == 0 else ("jit", "legacy")
        for engine in order:
            emulator = emulators[engine]
            started = time.perf_counter()
            for _ in range(runs):
                emulator.run(data)
            elapsed = time.perf_counter() - started
            if best[engine] is None or elapsed < best[engine]:
                best[engine] = elapsed
    speedup = best["legacy"] / best["jit"]
    steps = digests["legacy"][2]
    print(f"\n{target_name} bare: legacy {runs / best['legacy']:8.1f} "
          f"exec/s | jit {runs / best['jit']:8.1f} exec/s | "
          f"jit speedup {speedup:.2f}x ({steps} steps/exec)")
    return speedup, {
        "legacy_exec_per_sec": round(runs / best["legacy"], 1),
        "jit_exec_per_sec": round(runs / best["jit"], 1),
        "jit_speedup_vs_legacy": round(speedup, 2),
        "steps_per_exec": steps,
    }


@pytest.mark.paper
def test_kocher_fuzzing_loop_speedup(bench_record):
    """The jit engine fuzzes the Kocher samples ≥ 2× faster than legacy."""
    speedups, metrics = _compare_engines("gadgets", iterations=400 * SCALE)
    bench_record("emulator_throughput_gadgets", **metrics)
    assert speedups["jit"] >= 2.0, (
        f"jit engine only {speedups['jit']:.2f}x over legacy on the "
        f"Kocher-sample fuzzing loop (acceptance floor is 2.0x)"
    )


@pytest.mark.paper
def test_jsmn_fuzzing_loop_speedup(bench_record):
    """The speedup carries over to a real target (jsmn)."""
    speedups, metrics = _compare_engines("jsmn", iterations=8 * SCALE, seed=5,
                                         repetitions=2)
    bench_record("emulator_throughput_jsmn", **metrics)
    assert speedups["jit"] >= 1.5, (
        f"jit engine only {speedups['jit']:.2f}x over legacy on jsmn "
        f"(floor is 1.5x)"
    )


@pytest.mark.paper
def test_jit_bare_throughput_gadgets(bench_record):
    """The jit executes dense gadget streams ≥ 4× faster than legacy."""
    speedup, metrics = _bare_throughput("gadgets", size=1440,
                                        runs=12 * SCALE)
    bench_record("jit_throughput_gadgets", **metrics)
    assert speedup >= 4.0, (
        f"jit engine only {speedup:.2f}x over legacy on the gadget stream "
        f"(acceptance floor is 4.0x)"
    )


@pytest.mark.paper
def test_jit_bare_throughput_jsmn(bench_record):
    """The jit parses dense JSON documents ≥ 4× faster than legacy."""
    speedup, metrics = _bare_throughput("jsmn", size=160 * SCALE, runs=12)
    bench_record("jit_throughput_jsmn", **metrics)
    assert speedup >= 4.0, (
        f"jit engine only {speedup:.2f}x over legacy on jsmn documents "
        f"(acceptance floor is 4.0x)"
    )
