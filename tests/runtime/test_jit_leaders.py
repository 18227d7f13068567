"""Block discovery keeps the jit's dispatch loop on compiled code.

Every step the jit does not run inside a compiled block goes through the
per-instruction table ``_trace`` (a legacy-handler step, several times
the cost of a compiled instruction).  Two leader rules keep those steps
rare: a superblock capped at ``_MAX_BLOCK`` instructions is cut back to
its last interior leader, and under dynamic speculation models the
Shadow-Copy alias of every leader is a leader too.  These tests count
the ``_trace`` calls of real fuzzing chunks.
"""

from __future__ import annotations

import pytest

from repro.campaign.worker import build_runtime
from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget
from repro.targets import get_target

#: JSON documents shaped like jsmn's own seeds: object, array, nested
#: object, bare primitive.
JSON_DOCS = [
    b'{"kqz": "mwpra", "t": 418}',
    b'[7, 2, 9, {"c": true}, "hbe"]',
    b'{"vgsnlo": {"xaiq": [null, false, 3.6]}}',
    b"pqwnzkeoadhrtu",
]


def _count_steps(runtime):
    """Wrap every ``_trace`` entry with a counter; returns the counter."""
    trace = runtime.emulator._trace
    calls = [0]
    for addr, step in list(trace.items()):
        def counting(m, _step=step):
            calls[0] += 1
            return _step(m)
        trace[addr] = counting
    return calls


def test_jsmn_runs_entirely_in_compiled_blocks():
    """Capped superblocks end at a leader, so no jsmn execution leaves
    compiled code (without the rule: about 1,200 steps per execution)."""
    runtime = build_runtime("jsmn", "teapot", "vanilla", engine="jit")
    calls = _count_steps(runtime)
    result = Fuzzer(FuzzTarget(runtime), seeds=JSON_DOCS,
                    seed=0).run_chunk(4)
    assert result.total_steps > 100_000
    assert calls[0] == 0


@pytest.mark.parametrize("variant, steps_without_alias_leaders", [
    ("btb", 66_908),
    ("rsb", 91_685),
])
def test_shadow_alias_leaders_keep_wrong_paths_compiled(
        variant, steps_without_alias_leaders):
    """BTB/RSB wrong paths resume at Shadow-Copy aliases; making those
    leaders cuts the chunk's legacy steps at least fivefold."""
    target = get_target(f"gadgets-{variant}")
    runtime = build_runtime(target.name, "teapot", "vanilla", engine="jit",
                            spec_variant=variant)
    calls = _count_steps(runtime)
    Fuzzer(FuzzTarget(runtime), seeds=list(target.seeds),
           seed=0).run_chunk(200)
    assert 0 < calls[0] * 5 <= steps_without_alias_leaders
