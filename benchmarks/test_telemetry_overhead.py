"""Telemetry cost: the disabled path is (nearly) free, the enabled path cheap.

Two guarantees are measured on the Kocher-sample fuzzing loop:

* **disabled**: with no telemetry installed, the only added work is one
  ``is not None`` check per execution.  Throughput must stay within 5 %
  of the recorded ``BENCH_emulator_throughput_gadgets`` baseline — the
  hard assertion runs when ``REPRO_BENCH_BASELINE_DIR`` points at
  baselines produced *on the same machine in the same session* (the CI
  ``telemetry-smoke`` job generates them minutes earlier); without the
  variable the comparison is recorded but advisory, since baselines from
  other hardware would make the 5 % bar meaningless.

* **enabled**: with a full registry attached (counters, gauges,
  histograms — no trace sink), results stay bit-identical and the
  recorded overhead ratio documents the live-progress cost.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import SCALE
from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.targets import get_target
from repro.targets.injection import compile_vanilla
from repro.telemetry import Telemetry
from repro.telemetry import context as telemetry_context

#: same-machine baseline directory; set by CI to enforce the 5 % bar.
BASELINE_DIR = os.environ.get("REPRO_BENCH_BASELINE_DIR")


def _timed_chunk(fuzzer, iterations: int):
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


def _build_fuzzer(binary, target, seed: int) -> Fuzzer:
    runtime = TeapotRuntime(binary, config=TeapotConfig())
    return Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds), seed=seed)


def _baseline_rate(name: str):
    """The recorded default-engine (jit) exec/s baseline, or None off-CI."""
    if not BASELINE_DIR:
        return None
    path = os.path.join(BASELINE_DIR, f"BENCH_{name}.json")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return float(json.load(handle)["jit_exec_per_sec"])
    except (OSError, KeyError, ValueError):
        return None


@pytest.mark.paper
def test_disabled_and_enabled_telemetry_cost(bench_record):
    target = get_target("gadgets")
    binary = TeapotRewriter(TeapotConfig()).instrument(compile_vanilla(target))
    iterations = 400 * SCALE
    seed = 7

    plain = _build_fuzzer(binary, target, seed)
    observed = _build_fuzzer(binary, target, seed)
    plain.run_chunk(max(5, iterations // 10))
    observed.run_chunk(max(5, iterations // 10))

    telemetry = Telemetry.create()
    ratios, plain_rates, observed_rates = [], [], []
    for _ in range(5):
        plain_rate, plain_digest = _timed_chunk(plain, iterations)
        with telemetry_context.session(telemetry):
            observed_rate, observed_digest = _timed_chunk(observed, iterations)
        assert observed_digest == plain_digest, (
            "telemetry changed execution results — it must be observation-only"
        )
        plain_rates.append(plain_rate)
        observed_rates.append(observed_rate)
        ratios.append(observed_rate / plain_rate)
    assert telemetry.registry.value("fuzz.executions") == 5 * iterations

    ratios.sort()
    enabled_ratio = ratios[-2]  # second-highest: robust to one load spike
    disabled_rate = max(plain_rates)
    print(f"\ntelemetry: disabled {disabled_rate:8.1f} exec/s | "
          f"enabled {max(observed_rates):8.1f} exec/s | "
          f"enabled/disabled {enabled_ratio:.3f}")

    metrics = {
        "disabled_exec_per_sec": round(disabled_rate, 1),
        "enabled_exec_per_sec": round(max(observed_rates), 1),
        "enabled_over_disabled": round(enabled_ratio, 3),
        "telemetry": {
            "version": telemetry.snapshot()["version"],
            "fuzz.executions": telemetry.registry.value("fuzz.executions"),
            "engine.executions": telemetry.registry.value("engine.executions"),
        },
    }

    baseline = _baseline_rate("emulator_throughput_gadgets")
    if baseline is not None:
        metrics["baseline_exec_per_sec"] = round(baseline, 1)
        metrics["disabled_over_baseline"] = round(disabled_rate / baseline, 3)
        assert disabled_rate >= 0.95 * baseline, (
            f"disabled-telemetry throughput {disabled_rate:.1f} exec/s fell "
            f"more than 5% below the same-machine baseline {baseline:.1f} "
            f"exec/s — the disabled fast path regressed"
        )
    bench_record("telemetry_overhead", **metrics)

    # The enabled path powers live progress; it must not halve throughput.
    assert enabled_ratio >= 0.5, (
        f"enabled telemetry costs {(1 - enabled_ratio) * 100:.0f}% of "
        f"throughput (bar: 50%)"
    )
