"""Reusable cross-engine differential harness.

Every execution engine (``legacy``, ``jit``) is only allowed to
change *how fast* executions run, never *what* they compute.  This module
is the shared enforcement tool: :func:`assert_engines_identical` runs one
target through every engine — across speculation-model variant sets and
nested-speculation policies — and asserts bit-identical behaviour
(status, exit status, steps, **cycle counts**, speculation statistics,
gadget reports and coverage maps).

It is imported by ``tests/runtime/test_differential.py`` but deliberately
kept test-framework-free so ad-hoc scripts, CI jobs and future engines
can reuse it::

    from differential import assert_engines_identical
    assert_engines_identical("gadgets", engines=("legacy", "jit"))
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.config import TeapotConfig
from repro.core.teapot import TeapotRewriter, TeapotRuntime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.plugins import engine_names, resolve_engine
from repro.runtime.speculation import (
    DisabledNestingPolicy,
    SpecFuzzNestingPolicy,
    SpecTaintNestingPolicy,
    TeapotNestingPolicy,
)
from repro.targets import get_target
from repro.targets.base import TargetProgram
from repro.targets.injection import compile_vanilla

#: Nesting-policy factories the harness understands, by name.  Fresh
#: instances are built per engine so per-branch counters never leak
#: between runs.
NESTING_POLICIES = {
    "disabled": DisabledNestingPolicy,
    "specfuzz": lambda: SpecFuzzNestingPolicy(ramp=4),
    "spectaint": lambda: SpecTaintNestingPolicy(max_visits=3),
    "teapot": TeapotNestingPolicy,
}

#: The speculation-model variant sets every engine must agree on: each
#: variant alone, and everything at once.
VARIANT_SETS: Tuple[Tuple[str, ...], ...] = (
    ("pht",), ("btb",), ("rsb",), ("stl",), ("pht", "btb", "rsb", "stl"),
)


def _resolve_target(target) -> TargetProgram:
    return target if isinstance(target, TargetProgram) else get_target(target)


def build_runtime(binary, engine: str, config: TeapotConfig,
                  policy_factory=None) -> TeapotRuntime:
    """A Teapot runtime on ``engine``, optionally with a custom nesting
    policy swapped in through :meth:`rebind_controller` (the supported
    way to re-policy an engine whose dispatch closes over the
    controller)."""
    runtime = TeapotRuntime(binary, config=config.with_engine(engine))
    if policy_factory is not None:
        _, controller_cls = resolve_engine(engine)
        controller = controller_cls(policy_factory(),
                                    rob_budget=config.rob_budget)
        runtime.controller = controller
        runtime.emulator.rebind_controller(controller)
    return runtime


def result_record(result) -> Dict:
    """An ExecutionResult as a comparable dictionary (reports serialized)."""
    record = dict(result.__dict__)
    record["reports"] = [report.to_dict() for report in result.reports]
    return record


def coverage_record(emulator) -> Tuple:
    return (
        emulator.coverage.normal.covered(),
        emulator.coverage.speculative.covered(),
    )


def campaign_record(result, fuzzer) -> Tuple:
    """Everything a fuzzing campaign computes, as one comparable tuple."""
    return (
        result.executions,
        result.total_cycles,
        result.total_steps,
        result.crashes,
        result.hangs,
        result.corpus_size,
        result.normal_coverage,
        result.speculative_coverage,
        result.spec_stats,
        result.reports.to_dicts(),
        fuzzer.corpus.to_dicts(),
    )


def default_inputs(target: TargetProgram) -> Sequence[bytes]:
    """Seeds plus a mid-sized perf input — in- and out-of-bounds shapes."""
    inputs = list(target.seeds)[:4]
    if target.perf_input_builder is not None:
        inputs.append(target.perf_input(48))
    return inputs


def assert_engines_identical(
    target,
    engines: Optional[Sequence[str]] = None,
    variants: Iterable[Sequence[str]] = (("pht",),),
    policies: Sequence[str] = ("teapot",),
    inputs: Optional[Sequence[bytes]] = None,
    baseline: str = "legacy",
) -> None:
    """Assert every engine reproduces ``baseline`` bit-for-bit.

    For each variant set and nesting policy, every input runs through a
    fresh Teapot runtime per engine; results (including cycles and spec
    stats) and final coverage maps must match the baseline engine
    exactly.

    ``target`` is a target name or :class:`TargetProgram`; ``engines``
    defaults to every registered engine; ``variants`` is an iterable of
    speculation-model variant *sets*; ``policies`` names entries of
    :data:`NESTING_POLICIES`.
    """
    target = _resolve_target(target)
    if engines is None:
        engines = engine_names()
    assert baseline in engines, f"baseline engine {baseline!r} not under test"
    run_inputs = list(inputs) if inputs is not None else default_inputs(target)
    for variant_set in variants:
        config = TeapotConfig(variants=tuple(variant_set))
        binary = TeapotRewriter(config).instrument(compile_vanilla(target))
        for policy_name in policies:
            factory = NESTING_POLICIES[policy_name]
            outcomes = {}
            for engine in engines:
                runtime = build_runtime(binary, engine, config, factory)
                records = [result_record(runtime.run(data))
                           for data in run_inputs]
                outcomes[engine] = (records,
                                    coverage_record(runtime.emulator))
            expected = outcomes[baseline]
            for engine, outcome in outcomes.items():
                for got, want, data in zip(outcome[0], expected[0],
                                           run_inputs):
                    assert got == want, (
                        f"{target.name}: {engine} diverged from {baseline} "
                        f"on input {data[:16].hex()} under "
                        f"variants={tuple(variant_set)} "
                        f"policy={policy_name}"
                    )
                assert outcome[1] == expected[1], (
                    f"{target.name}: {engine} coverage diverged from "
                    f"{baseline} under variants={tuple(variant_set)} "
                    f"policy={policy_name}"
                )


def assert_campaigns_identical(
    target,
    engines: Optional[Sequence[str]] = None,
    variants: Sequence[str] = ("pht",),
    policy: Optional[str] = None,
    iterations: int = 80,
    seed: int = 23,
    baseline: str = "legacy",
) -> None:
    """Assert full fuzzing campaigns are engine-invariant.

    Runs one deterministic campaign per engine through the Teapot runtime
    (coverage-guided loop, corpus evolution, report aggregation) and
    compares the complete campaign record.
    """
    target = _resolve_target(target)
    if engines is None:
        engines = engine_names()
    config = TeapotConfig(variants=tuple(variants))
    binary = TeapotRewriter(config).instrument(compile_vanilla(target))
    factory = NESTING_POLICIES[policy] if policy is not None else None
    campaigns = {}
    for engine in engines:
        runtime = build_runtime(binary, engine, config, factory)
        fuzzer = Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
                        seed=seed)
        campaigns[engine] = campaign_record(fuzzer.run_campaign(iterations),
                                            fuzzer)
    expected = campaigns[baseline]
    for engine, record in campaigns.items():
        assert record == expected, (
            f"{target.name}: campaign under {engine} diverged from "
            f"{baseline} (variants={tuple(variants)}, policy={policy})"
        )
