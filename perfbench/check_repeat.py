"""Exact-repeat test: the benchmark's exact figures must not depend on the run.

Runs every workload twice at the smallest size (``--seconds 0``), untraced
and traced, with the same seed, and checks that every exact end-to-end
metric and every per-layer counter (the ``count`` and ``ratio`` units) is
identical between the two runs.  Exits 1 on any difference.

    python3 perfbench/check_repeat.py [--seed N] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_UNITS = ("count", "ratio", "cycles")
#: Counters a known program defect makes vary, with the reason.  They are
#: reported, not compared.
KNOWN_VARIABLE = {
    ("service-matrix", "runtime.jit_hits"):
        "the job queue's claim race runs some jobs twice (each duplicate "
        "builds one more runtime); see README.md",
}


def run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n"
                         f"{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=["fuzz-jsmn", "harden-cold", "service-matrix"])
    args = parser.parse_args(argv)
    differences = 0
    for workload in args.workloads:
        for trace in (0, 1):
            first, second = (run(workload, args.seed, trace)
                             for _ in range(2))
            for name, metric in first["metrics"].items():
                if metric["unit"] not in EXACT_UNITS:
                    continue
                again = second["metrics"][name]["value"]
                if metric["value"] == again:
                    continue
                reason = KNOWN_VARIABLE.get((workload, name))
                if reason is None:
                    differences += 1
                    print(f"DIFFERS {workload} {name}: {metric['value']} "
                          f"!= {again}")
                else:
                    print(f"varies  {workload} {name}: {metric['value']} "
                          f"vs {again} ({reason})")
            print(f"checked {workload} --trace {trace}")
    print("exact figures repeat" if not differences
          else f"{differences} exact figures differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
