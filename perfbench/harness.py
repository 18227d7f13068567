"""Measurement plumbing: an execution clock and layer spans, from outside.

:class:`Tracer` wraps public functions and methods of ``repro``'s layers
(the ``SPAN_TARGETS`` table) without touching the program's source.  Two
things are recorded:

* **executions** — every ``runtime.run`` call, with the CPU time of its
  thread, its :class:`~repro.runtime.emulator.ExecutionResult` and the
  campaign job run it belongs to.  This clock is on in every run; the
  end-to-end execution latencies and the exact simulated-cost metrics
  come from it.  Thread CPU time equals wall time within about 2% for a
  single thread, and leaves out the time a service worker waits for the
  interpreter lock its peer holds.
* **spans** — (id, name, start, end, parent, thread) around every wrapped
  call, only while :attr:`Tracer.tracing` is set.  They live in memory
  and are written out once, when the run ends.

:class:`HostClock` measures the host's own speed with a fixed reference
kernel timed next to the work, so that host times can be expressed in
reference seconds (see its docstring).

A span's parent is the innermost open span of the same thread.  Calls
made by threads that have no open span (the service's worker threads)
are parented to :attr:`Tracer.adopt_parent`, so a campaign's jobs nest
under the benchmark span that waits for them.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import signal
import statistics
import struct
import sys
import threading
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: (module, attribute path, span name).  The span name's first dotted
#: component is the layer the call belongs to; ``runtime.run`` targets also
#: feed the execution clock.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.minic.compiler", "compile_source", "minic.compile"),
    ("repro.disasm.disassembler", "disassemble", "disasm.disassemble"),
    ("repro.rewriting.reassemble", "reassemble", "rewriting.reassemble"),
    ("repro.core.teapot", "TeapotRewriter.instrument", "core.instrument"),
    ("repro.baselines.specfuzz", "SpecFuzzRewriter.instrument",
     "baselines.instrument"),
    ("repro.core.teapot", "TeapotRuntime.__init__", "runtime.setup"),
    ("repro.baselines.specfuzz", "SpecFuzzRuntime.__init__", "runtime.setup"),
    ("repro.core.teapot", "TeapotRuntime.run", "runtime.run"),
    ("repro.baselines.specfuzz", "SpecFuzzRuntime.run", "runtime.run"),
    ("repro.fuzzing.fuzzer", "Fuzzer.run_chunk", "fuzzing.run_chunk"),
    ("repro.campaign.scheduler", "run_campaign", "campaign.run"),
    ("repro.campaign.worker", "run_job", "campaign.job"),
    ("repro.campaign.worker", "build_runtime", "campaign.build_runtime"),
    ("repro.hardening.pipeline", "patch_binary", "hardening.patch"),
    ("repro.hardening.pipeline", "verify_patch", "hardening.verify"),
    ("repro.hardening.pipeline", "measure_cycles", "hardening.measure_cycles"),
    ("repro.api.pipeline", "Pipeline.run", "api.pipeline"),
    ("repro.service.core", "FuzzService.submit", "service.submit"),
)

#: spans that feed the execution clock: the executions themselves, and the
#: job runs that tag them.
CLOCK_SPANS = ("runtime.run", "campaign.job")

#: every layer a span name can map to, in report order.  ``bench`` is the
#: benchmark's own root span: its self time is the part of a measured round
#: that no wrapped call covers.
LAYERS = ("bench", "api", "service", "campaign", "fuzzing", "runtime",
          "hardening", "core", "baselines", "minic", "disasm", "rewriting")


#: emulated steps of one reference-kernel sample (8-13 ms on a 2-core VM).
REFERENCE_STEPS = 8000
#: pages of the reference kernel's memory: 4 MiB, more than the caches of
#: a small VM hold, like the program's own working set.
REFERENCE_PAGES = 1024
#: the CPU time of one reference-kernel sample on the reference host.  A
#: host time multiplied by ``REFERENCE_S / measured sample`` is in
#: reference seconds.  The value is a fixed constant (a typical sample on a
#: 2-core VM); only its being fixed matters.
REFERENCE_S = 0.011
#: host seconds between two samples taken by :meth:`HostClock.sampling`.
SAMPLE_EVERY_S = 0.2

_U4 = struct.Struct("<I")


class _Machine:
    __slots__ = ("regs", "pages", "pc", "flag")

    def __init__(self) -> None:
        self.regs = [0] * 16
        self.pages = {index: bytearray(4096)
                      for index in range(REFERENCE_PAGES)}
        self.pc = 0
        self.flag = 0


def _step(machine: _Machine, word: int) -> None:
    regs = machine.regs
    left = regs[word & 15]
    value = (left + regs[(word >> 4) & 15] + word) & 0xFFFFFFFF
    regs[(word >> 2) & 15] = value
    page = machine.pages[(value >> 12) % REFERENCE_PAGES]
    offset = value & 0xFFC
    _U4.pack_into(page, offset,
                  (_U4.unpack_from(page, offset)[0] ^ value) & 0xFFFFFFFF)
    machine.flag = 1 if value < left else 0
    machine.pc += 4


def reference_kernel(machine: _Machine,
                     steps: int = REFERENCE_STEPS) -> int:
    """A fixed, emulator-shaped loop that uses nothing from ``repro``.

    Register-file indexing, page-dictionary lookups, ``struct`` loads and
    stores into ``bytearray`` pages spread over 4 MiB, and a function call
    per step: the kinds of work the jit engine's generated code does, so
    the kernel slows down with the host the way the program does.
    """
    machine.regs = [0] * 16
    machine.pc = 0
    for index in range(steps):
        _step(machine, (index * 2654435761) & 0xFFFFFF)
    return machine.pc


class HostClock:
    """The host's speed, sampled with :func:`reference_kernel`.

    On a shared VM the same work takes up to 40% longer a few minutes
    later, and process CPU time moves with wall time, so raw host times of
    two runs are not comparable.  Within a run the host also flips between
    a fast and a slow state every second or so: samples a few tenths of a
    second apart read 7 or 13 ms.  The reference kernel slows down with the
    host.  In seven processes on a 2-core VM, the median jsmn execution
    took 113 to 172 ms, while its ratio to the kernel's time next to it
    stayed between 13.2 and 13.8.  (With the kernel's memory in 64 pages
    instead of 1024 the ratio moved by 11%: a kernel that fits in the
    caches speeds up more than the program when the host is fast.)  A sample
    times the kernel on the calling thread's CPU clock with the garbage
    collector off, so the program's heap is never scanned inside it.

    :meth:`sampling` takes a sample every ``SAMPLE_EVERY_S`` while the
    program runs, from a timer signal handled on the main thread, so the
    samples are spread evenly over time whatever the program is doing.
    :meth:`scale` turns host seconds measured between two instants into
    reference seconds: the mean of ``REFERENCE_S / sample`` over the
    samples taken in between, that is, the mean speed of the host relative
    to the reference host.  A mean, not a median, because the two states
    make the samples bimodal.  The kernel depends only on this file, so a
    change to the program moves reference seconds exactly as it moves host
    seconds.  A sample taken inside an execution on the main thread adds
    its CPU time to the execution's; :meth:`between` gives it back, so
    that it can be taken off.
    """

    def __init__(self) -> None:
        #: perf_counter when each sample ended, in order, and its CPU time.
        self.times: List[float] = []
        self.cpus: List[float] = []
        #: wall seconds spent sampling; measured intervals subtract it.
        self.spent = 0.0
        self._machine = _Machine()

    def sample(self, count: int = 1) -> None:
        began = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                started = time.thread_time()
                reference_kernel(self._machine)
                cpu = time.thread_time() - started
                self.times.append(time.perf_counter())
                self.cpus.append(cpu)
        finally:
            if enabled:
                gc.enable()
        self.spent += time.perf_counter() - began

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Sample every ``SAMPLE_EVERY_S`` host seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def between(self, start: float, end: float) -> List[float]:
        """CPU seconds of the samples that ended between the two instants."""
        return self.cpus[bisect_left(self.times, start):
                         bisect_right(self.times, end)]

    def scale(self, start: float, end: float,
              default: Optional[float] = None) -> float:
        """Reference seconds per host second between ``start`` and ``end``.

        ``default`` when no sample was taken in between.
        """
        inside = self.between(start, end)
        if not inside and default is not None:
            return default
        return statistics.fmean(REFERENCE_S / cpu for cpu in inside)

    def median_s(self) -> float:
        return statistics.median(self.cpus)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread")

    def __init__(self, span_id, name, start, end, parent, thread):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self, run_id: str) -> Dict[str, object]:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "thread": self.thread, "run_id": run_id}


class Execution(NamedTuple):
    """One ``runtime.run`` call."""

    #: CPU time of the calling thread.
    seconds: float
    result: object
    #: (JobSpec, run number) of the campaign job run that made the call,
    #: or None outside campaign jobs.
    job: Optional[Tuple[object, int]]
    #: perf_counter at the call's start and end.
    start: float
    end: float
    #: whether the call ran on the main thread, where host samples land.
    main: bool


class Tracer:
    """Execution clock plus optional layer spans around wrapped calls."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.execs: List[Execution] = []
        self.spans: List[Span] = []
        #: record spans only while set (the exec clock always runs).
        self.tracing = False
        #: parent of spans opened by threads with no open span of their own.
        self.adopt_parent: Optional[int] = None
        self._ids = itertools.count(1)
        self._job_runs = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------
    def install(self, spans: bool) -> None:
        """Wrap the ``CLOCK_SPANS`` targets, and every target if ``spans``.

        A missing target raises: the benchmark is pinned to these public
        names and must not silently measure less than it claims.
        """
        for module_name, path, span_name in SPAN_TARGETS:
            if spans or span_name in CLOCK_SPANS:
                self._wrap(module_name, path, span_name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, module_name: str, path: str, span_name: str) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._wrapper(original, span_name))
            return
        original = getattr(module, path)
        wrapper = self._wrapper(original, span_name)
        # ``from x import f`` copies the reference: rebind it everywhere.
        for name, loaded in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                    getattr(loaded, path, None) is original):
                self._patch(loaded, path, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper(self, original: Callable, span_name: str) -> Callable:
        tracer = self
        local = self._local
        clock = span_name == "runtime.run"
        job = span_name == "campaign.job"

        def call(args, kwargs):
            if job:
                outer = getattr(local, "job", None)
                local.job = (args[0], next(tracer._job_runs))
                try:
                    return original(*args, **kwargs)
                finally:
                    local.job = outer
            if not clock:
                return original(*args, **kwargs)
            began = time.perf_counter()
            started = time.thread_time()
            result = original(*args, **kwargs)
            tracer.execs.append(Execution(
                time.thread_time() - started, result,
                getattr(local, "job", None), began, time.perf_counter(),
                threading.current_thread() is threading.main_thread()))
            return result

        def wrapped(*args, **kwargs):
            if not tracer.tracing:
                return call(args, kwargs)
            with tracer.span(span_name):
                return call(args, kwargs)

        wrapped.__wrapped__ = original
        wrapped.__name__ = getattr(original, "__name__", span_name)
        wrapped.__doc__ = getattr(original, "__doc__", None)
        return wrapped

    # -- spans ---------------------------------------------------------------
    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def _open(self) -> Tuple[int, Optional[int], List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self.adopt_parent
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id,
                       "spans": [s.to_dict(self.run_id) for s in self.spans]},
                      handle)


class _SpanContext:
    """``with tracer.span(name) as span_id:`` — no-op while not tracing."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.id: Optional[int] = None

    def __enter__(self) -> Optional[int]:
        if not self.tracer.tracing:
            return None
        self.id, self.parent, self.stack = self.tracer._open()
        self.start = time.perf_counter()
        return self.id

    def __exit__(self, *exc) -> None:
        if self.id is None:
            return
        end = time.perf_counter()
        self.stack.pop()
        self.tracer.spans.append(Span(self.id, self.name, self.start, end,
                                      self.parent,
                                      threading.get_ident()))


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end))
                             for c in children.get(span.id, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def descendants(spans: List[Span], roots: List[int]) -> List[Span]:
    """The spans under (and including) the given root span ids."""
    children: Dict[int, List[Span]] = defaultdict(list)
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    found: List[Span] = []
    pending = [by_id[root] for root in roots if root in by_id]
    while pending:
        span = pending.pop()
        found.append(span)
        pending.extend(children.get(span.id, ()))
    return found
