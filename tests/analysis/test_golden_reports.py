"""Golden-report regression: Table 3/4 summaries are frozen bit-for-bit.

The checked-in ``golden/tables.json`` pins the exact detection summaries of
``run_table3``/``run_table4`` for a fixed seed at reduced scale.  The tests
assert that both emulator engines still reproduce the file exactly — any
diff means either a behaviour regression or a deliberate change that must
be acknowledged by regenerating the golden file:

    PYTHONPATH=src python tests/analysis/test_golden_reports.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.experiments import run_table3, run_table4

GOLDEN_PATH = Path(__file__).parent / "golden" / "tables.json"


def _golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _table3_rows(config, engine):
    rows = run_table3(
        programs=tuple(config["programs"]),
        fuzz_iterations=config["fuzz_iterations"],
        seed=config["seed"],
        engine=engine,
    )
    return [row.as_dict() for row in rows]


def _table4_rows(config, engine):
    rows = run_table4(
        programs=tuple(config["programs"]),
        fuzz_iterations=config["fuzz_iterations"],
        seed=config["seed"],
        engine=engine,
    )
    return [row.as_dict() for row in rows]


@pytest.mark.parametrize("engine", ["jit", "legacy"])
def test_table3_matches_golden(engine):
    golden = _golden()["table3"]
    assert _table3_rows(golden, engine) == golden["rows"]


@pytest.mark.parametrize("engine", ["jit", "legacy"])
def test_table4_matches_golden(engine):
    golden = _golden()["table4"]
    assert _table4_rows(golden, engine) == golden["rows"]


def _regenerate() -> None:
    golden = _golden()
    golden["table3"]["rows"] = _table3_rows(golden["table3"], "jit")
    golden["table4"]["rows"] = _table4_rows(golden["table4"], "jit")
    with GOLDEN_PATH.open("w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
