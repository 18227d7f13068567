"""The benchmark's three workloads.

Every workload is a closed loop driven by one client: the next round
starts only when the previous one has finished.  A round is a fixed
amount of work that repeats bit for bit, so the run's host-time metrics
are medians over identical rounds and its exact metrics must come out the
same in every round.  ``README.md`` in this directory says why each
workload was chosen and which layers it stresses.

Each workload class offers:

* ``probe(seed, work)`` — the cold path from an empty jit cache to the
  first fuzz execution; run in a fresh process to time ``setup_s``;
* ``prepare()`` — untimed in-process set-up before the measured rounds;
* ``round()`` — one measured round, returning its exact outcome record
  (``nominal_round_s`` is its length on a 2-core VM, which sets how many
  rounds a run of a given length makes);
* ``checks(first)`` — output checks against independent references, run
  outside the timed phase, returning how many checks ran and one message
  per failed check;
* ``close()`` — release what ``prepare`` started;
* optionally ``counted(execs)`` — the executions of a round that did
  counted work, when some did not (all of them otherwise).

The outcome record of a round carries the workload's exact outcome
metrics under fixed keys (``spec_edges``, ``normal_edges``,
``corpus_size``, ``unique_gadgets``, ``residual_sites``,
``hardened_overhead``, ``sites_patched``, ``jobs``, ``failed_jobs``) next
to whatever else must repeat exactly.  A workload whose executions are not
all counted work records its simulated totals under ``totals``; otherwise
they are summed from the round's ``runtime.run`` calls.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import replace
from typing import Dict, List, Tuple

#: executions per fuzz-jsmn round (about 4 s of jsmn on the jit engine).
FUZZ_EXECS_PER_ROUND = 24
#: the fuzzer's own RNG seed.  It is fixed so that the benchmark seed only
#: changes input *content*, never the mutation schedule (see json_corpus).
FUZZ_RNG_SEED = 0
#: executions replayed on the legacy engine by the fuzz-jsmn output check
#: (the legacy engine takes about 2 s for these two).
ORACLE_INPUTS = 2
#: detection-campaign executions per harden-cold round.  With jsmn's own
#: seeds ahead of the generated ones, 20 finds every planted gadget for
#: each of benchmark seeds 1-40; 8 misses ``parse_string`` for some.
HARDEN_ITERATIONS = 20
HARDEN_STRATEGIES = ("fence", "mask", "fence-all")
#: the registered copy of jsmn whose seed corpus includes the generated one.
GENERATED_TARGET = "jsmn-gen"
SERVICE_TARGETS = ("gadgets", "gadgets-btb", "gadgets-rsb", "gadgets-stl")
SERVICE_TOOLS = ("teapot", "specfuzz")
SERVICE_MODELS = ("pht", "btb", "rsb", "stl")
#: the service campaign's own seed.  It is fixed, so the service campaign
#: is the same for every benchmark seed (see ``service_spec``).
SERVICE_RNG_SEED = 0
SERVICE_WORKERS = 2
#: seconds a service campaign may take before the round is declared failed.
SERVICE_WAIT_S = 150.0

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_DIGITS = "0123456789"

_NO_OUTCOME = {"unique_gadgets": 0, "residual_sites": 0,
               "hardened_overhead": 0.0, "sites_patched": 0, "jobs": 0,
               "failed_jobs": 0}


def json_corpus(seed: int) -> List[bytes]:
    """Four JSON seed documents generated from ``seed``.

    The documents have the shapes of jsmn's own seeds (object, array,
    nested object, bare primitive) with fixed lengths; the seed picks only
    the letters of keys and strings and the digits of numbers.  jsmn takes
    the same path through every such document, so every seed costs the
    same work while no two seeds share an input.
    """
    rng = random.Random(seed)

    def word(length: int) -> str:
        return "".join(rng.choice(_LETTERS) for _ in range(length))

    def number(length: int) -> str:
        return rng.choice(_DIGITS[1:]) + "".join(
            rng.choice(_DIGITS) for _ in range(length - 1))

    docs = [
        '{"%s": "%s", "%s": %s}' % (word(3), word(5), word(1), number(3)),
        '[%s, %s, %s, {"%s": true}, "%s"]' % (
            number(1), number(1), number(1), word(1), word(3)),
        '{"%s": {"%s": [null, false, %s.%s]}}' % (
            word(6), word(4), number(1), number(1)),
        word(14),
    ]
    return [doc.encode("ascii") for doc in docs]


def _execution_record(result) -> tuple:
    """What the legacy oracle must reproduce of one execution."""
    return (result.status, result.cycles, result.steps,
            dict(sorted(result.spec_stats.items())),
            [report.to_dict() for report in result.reports])


class FuzzJsmn:
    """Steady-state fuzz loop: jsmn vanilla, Teapot, jit engine, PHT only."""

    name = "fuzz-jsmn"
    primary = ("jsmn", "vanilla")
    nominal_round_s = 3.7

    def __init__(self, seed: int, tracer, work: str) -> None:
        self.corpus = json_corpus(seed)

    @staticmethod
    def probe(seed: int, work: str) -> None:
        FuzzJsmn(seed, None, work).round(executions=1)

    def prepare(self) -> None:
        # Compiles jsmn and fills the in-process jit memo; every round
        # then builds its runtime warm, like a campaign's later jobs.
        self.round(executions=1)

    def round(self, executions: int = FUZZ_EXECS_PER_ROUND) -> Dict:
        from repro.campaign.worker import build_runtime
        from repro.fuzzing.fuzzer import Fuzzer, FuzzTarget

        runtime = build_runtime("jsmn", "teapot", "vanilla", engine="jit")
        fuzzer = Fuzzer(FuzzTarget(runtime), seeds=list(self.corpus),
                        seed=FUZZ_RNG_SEED)
        result = fuzzer.run_chunk(executions).to_dict()
        return dict(_NO_OUTCOME, spec_edges=result["speculative_coverage"],
                    normal_edges=result["normal_coverage"],
                    corpus_size=result["corpus_size"],
                    unique_gadgets=len(result["reports"]), campaign=result)

    def checks(self, first) -> Tuple[int, List[str]]:
        """Replay the round's first inputs on the legacy engine, the oracle."""
        from repro.campaign.worker import build_runtime

        oracle = build_runtime("jsmn", "teapot", "vanilla", engine="legacy")
        failures = []
        for index, data in enumerate(self.corpus[:ORACLE_INPUTS]):
            expected = _execution_record(oracle.run(data))
            if _execution_record(first.execs[index].result) != expected:
                failures.append(f"fuzz-jsmn: execution {index} differs from "
                                f"the legacy engine")
        return ORACLE_INPUTS, failures

    def close(self) -> None:
        pass


class HardenCold:
    """Detect, patch and verify every strategy from an empty jit cache."""

    name = "harden-cold"
    primary = (GENERATED_TARGET, "injected")
    nominal_round_s = 15.0

    def __init__(self, seed: int, tracer, work: str) -> None:
        from repro.api import register_target
        from repro.targets import get_target

        # Whether a planted gadget is found depends on the input bytes its
        # ``attack_input()`` reads, so jsmn's own seeds stay in front: the
        # generated documents vary the inputs without risking detection.
        jsmn = get_target("jsmn")
        register_target(replace(jsmn, name=GENERATED_TARGET,
                                seeds=list(jsmn.seeds) + json_corpus(seed)),
                        replace=True)
        self.work = work
        self.rounds = 0

    @staticmethod
    def probe(seed: int, work: str) -> None:
        import repro.api as api

        HardenCold(seed, None, work)
        api.pipeline(target=GENERATED_TARGET, variant="injected",
                     engine="jit").fuzz(1, scheduler="serial").run()

    def prepare(self) -> None:
        pass

    def round(self) -> Dict:
        import repro.api as api
        from repro.campaign.worker import clear_caches

        # Cold: a jit cache directory no run has seen, and no compiled
        # or instrumented binary memoised in this process.
        self.rounds += 1
        os.environ["REPRO_JIT_CACHE"] = os.path.join(
            self.work, f"jit-round-{self.rounds}")
        clear_caches()
        chain = api.pipeline(target=GENERATED_TARGET, variant="injected",
                             engine="jit").fuzz(HARDEN_ITERATIONS,
                                                scheduler="serial")
        for strategy in HARDEN_STRATEGIES:
            chain.harden(strategy).refuzz()
        run = chain.run()

        fuzz = run.stage("fuzz").payload
        hardened = [s.payload for s in run.stages if s.kind == "harden"]
        verified = [s.payload for s in run.stages if s.kind == "refuzz"]
        ratios = [h["hardened_cycles"] / h["native_cycles"] for h in hardened]
        return {
            "spec_edges": fuzz["speculative_coverage"],
            "normal_edges": fuzz["normal_coverage"],
            "corpus_size": fuzz["corpus_size"],
            "unique_gadgets": fuzz["unique_gadgets"],
            "residual_sites": sum(len(v["residual"]) for v in verified),
            "hardened_overhead": math.exp(
                sum(math.log(r) for r in ratios) / len(ratios)),
            "sites_patched": sum(h["sites"] for h in hardened),
            "jobs": 0,
            "failed_jobs": 0,
            "reports": fuzz["reports"],
            "stages": [[s.kind, s.label] for s in run.stages],
            "harden": hardened,
            "verify": [{key: v[key] for key in ("eliminated", "residual",
                                                "new_sites",
                                                "verify_executions")}
                       for v in verified],
        }

    def checks(self, first) -> Tuple[int, List[str]]:
        """Planted gadgets are ground truth; nothing may survive hardening."""
        from repro.campaign.worker import instrumented_binary
        from repro.sanitizers.reports import GadgetReport
        from repro.targets import get_target
        from repro.targets.injection import inject_gadgets

        planted = inject_gadgets(get_target(GENERATED_TARGET)).gadgets
        binary = instrumented_binary(GENERATED_TARGET, "teapot", "injected")
        hit = set()
        for record in first.exact["reports"]:
            symbol = binary.function_at(GadgetReport.from_dict(record).pc)
            if symbol is not None:
                hit.add(symbol.name.split("$", 1)[0])
        reachable = [g for g in planted if g.reachable]
        failures = [f"harden-cold: planted gadget {g.marker_id} in "
                    f"{g.function} was not detected"
                    for g in reachable if g.function not in hit]
        if first.exact["residual_sites"]:
            failures.append(f"harden-cold: {first.exact['residual_sites']} "
                            f"sites survived hardening")
        return len(reachable) + 1, failures

    def close(self) -> None:
        pass


def service_spec(**overrides):
    """The service-matrix campaign: 4 targets x 2 tools x 4 models.

    It does not depend on the benchmark seed.  With the campaign seed
    taken from it, the share of long executions moved with the seed, and
    ``exec_p90_ms``, which sits where that share changes, moved by 30%
    between seeds.  With the matrix order taken from it instead (every
    job's own seed comes from the campaign seed and the job's coordinates,
    so the jobs stay the same), the peak memory moved by 12%.
    """
    from repro.campaign.spec import CampaignSpec

    fields = dict(targets=SERVICE_TARGETS, tools=SERVICE_TOOLS,
                  spec_variants=SERVICE_MODELS, iterations=40,
                  rounds=2, shards=2, seed=SERVICE_RNG_SEED, engine="jit")
    fields.update(overrides)
    return CampaignSpec(**fields)


class ServiceMatrix:
    """Back-to-back campaigns through one in-process FuzzService."""

    name = "service-matrix"
    primary = ("gadgets", "vanilla")
    nominal_round_s = 7.5

    def __init__(self, seed: int, tracer, work: str) -> None:
        self.tracer = tracer
        self.root = os.path.join(work, "service")
        self.service = None
        self.reference = None

    @staticmethod
    def probe(seed: int, work: str) -> None:
        from repro.service.core import FuzzService

        service = FuzzService(os.path.join(work, "service"),
                              workers=SERVICE_WORKERS)
        try:
            campaign = service.submit(service_spec(
                targets=SERVICE_TARGETS[:1], tools=SERVICE_TOOLS[:1],
                spec_variants=SERVICE_MODELS[:1], iterations=1, rounds=1,
                shards=1))
            if service.wait(campaign, timeout=SERVICE_WAIT_S) is None:
                raise RuntimeError(service.status(campaign))
        finally:
            service.stop()

    def prepare(self) -> None:
        from repro.campaign.scheduler import run_campaign
        from repro.service.core import FuzzService

        spec = service_spec()
        self.jobs = sum(len(spec.jobs_for_round(index))
                        for index in range(spec.rounds))
        # The serial reference run doubles as the warm-up: it compiles
        # every (binary, model) pair the service campaigns then reuse.
        self.reference = run_campaign(spec, scheduler="serial").to_dict()
        self.service = FuzzService(self.root, workers=SERVICE_WORKERS).start()

    def round(self) -> Dict:
        with self.tracer.span("service.campaign") as span_id:
            self.tracer.adopt_parent = span_id
            try:
                campaign = self.service.submit(service_spec())
                summary = self.service.wait(campaign, timeout=SERVICE_WAIT_S)
            finally:
                self.tracer.adopt_parent = None
        if summary is None:
            raise RuntimeError(f"campaign did not complete: "
                               f"{self.service.status(campaign)['status']}")
        groups = summary.groups
        spec_stats: Dict[str, int] = {}
        for group in groups:
            for key, value in group.spec_stats.items():
                spec_stats[key] = spec_stats.get(key, 0) + value
        # Two workers can race for one job; the queue then discards the
        # second completion.  Those executions are timed, not counted.
        totals = {"executions": summary.total_executions(),
                  "cycles": sum(g.total_cycles for g in groups),
                  "steps": sum(g.total_steps for g in groups),
                  "reports": sum(g.raw_reports for g in groups),
                  "spec_stats": dict(sorted(spec_stats.items()))}
        return dict(
            _NO_OUTCOME,
            spec_edges=sum(g.speculative_coverage for g in groups),
            normal_edges=sum(g.normal_coverage for g in groups),
            corpus_size=sum(g.corpus_size for g in groups),
            unique_gadgets=summary.total_unique_gadgets(),
            jobs=self.jobs,
            failed_jobs=summary.total_failed_jobs(),
            totals=totals,
            summary=summary.to_dict())

    @staticmethod
    def counted(execs) -> List:
        """One run of every job: the executions of counted work.

        The job queue can run a job twice (see README.md); the two runs
        are the same executions, and the queue discards the second
        completion.  The execution clock tags each execution with the
        ``run_job`` call it ran under; the first run of each job seen in
        the round is kept.
        """
        first_run: Dict[object, int] = {}
        return [e for e in execs if e.job is None
                or first_run.setdefault(e.job[0], e.job[1]) == e.job[1]]

    def checks(self, first) -> Tuple[int, List[str]]:
        """A service campaign must equal the serial scheduler's."""
        if first.exact["summary"] != self.reference:
            return 1, ["service-matrix: campaign summary differs from the "
                       "serial scheduler's"]
        return 1, []

    def service_counts(self) -> Dict[str, float]:
        """Failure, retry and queue-wait figures from ``metrics_view``."""
        view = self.service.metrics_view()
        histograms = view.histograms
        wait = histograms.get("service.job.queue_wait_s", {}).get("sum", 0.0)
        run = histograms.get("service.job.exec_s", {}).get("sum", 0.0)
        return {
            "service.jobs_failed": view.gauges.get("service.queue.failed", 0),
            "service.retries": view.counters.get(
                "service.queue.job_retries", 0),
            "service.lease_takeovers": view.counters.get(
                "service.queue.lease_takeovers", 0),
            "service.queue_wait_pct": (100.0 * wait / (wait + run)
                                       if wait + run else 0.0),
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.stop()


WORKLOADS = {cls.name: cls for cls in (FuzzJsmn, HardenCold, ServiceMatrix)}
