"""Hardening overhead: targeted mitigation vs fence-everything.

Not a paper figure, but the headline trade-off the paper's ranked report
output exists to enable: patching only the verified gadget sites must cost
strictly less run time than fencing every speculative window, while being
exactly as effective on the reported sites.  The benchmark runs the full
detect → patch → verify loop on the Kocher-sample driver and records the
per-strategy cycle accounts as a machine-readable ``BENCH_*.json``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SCALE
from repro.analysis.experiments import run_hardening_matrix


@pytest.mark.paper
def test_hardening_overhead_matrix(bench_record):
    (row,) = run_hardening_matrix(
        targets=("gadgets",),
        iterations=400 * SCALE,
        seed=1234,
    )
    print("\nHardening matrix (gadgets):")
    for strategy, result in row.results.items():
        print(f"  {strategy:10s} eliminated {len(result.eliminated)}/"
              f"{len(result.sites_before)}  overhead {result.overhead:.3f}x")

    bench_record(
        "hardening_overhead",
        engine="jit",
        cycles={strategy: result.hardened_cycles
                for strategy, result in row.results.items()},
        native_cycles=next(iter(row.results.values())).native_cycles,
        overhead={strategy: round(result.overhead, 4)
                  for strategy, result in row.results.items()},
        sites={strategy: len(result.sites_before)
               for strategy, result in row.results.items()},
    )

    baseline = row.results["fence-all"]
    assert baseline.all_eliminated
    for strategy in ("fence", "mask"):
        result = row.results[strategy]
        # Targeted hardening is exactly as effective on the reported sites…
        assert result.all_eliminated, (strategy, result.residual)
        # …at strictly lower run-time cost than fencing everything.
        assert result.hardened_cycles < baseline.hardened_cycles, strategy
