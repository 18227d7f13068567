"""Worker fleet behavior: draining the queue, heartbeats, crash recovery."""

from __future__ import annotations

import threading
import time

from repro.campaign.spec import JobSpec
from repro.campaign.worker import WorkerResult
from repro.service.queue import JobQueue
from repro.service.worker import ServiceWorker, WorkerFleet
from repro.telemetry.export import wait_until


def _job(**overrides):
    params = dict(target="gadgets", tool="teapot", iterations=5, seed=1)
    params.update(overrides)
    return JobSpec(**params)


def _synthetic_result(lease):
    job = lease.job_spec()
    return WorkerResult(job_id=job.job_id, target=job.target, tool=job.tool,
                        variant=job.variant, shard=job.shard,
                        round_index=job.round_index, executions=job.iterations)


class _FakeWorker(ServiceWorker):
    """A worker that fabricates results instead of running the emulator."""

    def _execute(self, lease):
        return _synthetic_result(lease)


def test_fleet_drains_the_queue(tmp_path, monkeypatch):
    monkeypatch.setattr(ServiceWorker, "_execute", _FakeWorker._execute)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprints = [queue.submit("c1", _job(shard=i, shard_count=4))
                    for i in range(4)]
    fleet = WorkerFleet(queue, count=3, visibility_timeout=5.0)
    fleet.start()
    try:
        assert wait_until(lambda: queue.stats()["pending"] == 0, timeout=10)
        for fingerprint in fingerprints:
            record = queue.result(fingerprint)
            assert record["status"] == "completed"
            assert record["result"]["executions"] == 5
        # A worker bumps its count just after its completion lands.
        assert wait_until(lambda: fleet.counts()["completed"] == 4,
                          timeout=10)
        assert fleet.counts()["alive"] == 3
    finally:
        fleet.stop()
    assert fleet.counts()["alive"] == 0


def test_dead_workers_job_is_replayed_by_a_peer(tmp_path, monkeypatch):
    """A worker that goes silent loses its lease; a peer redoes the job."""
    died = threading.Event()

    def flaky_execute(self, lease):
        if self.worker_name == "w0" and not died.is_set():
            died.set()
            # Simulate a crash: stop heartbeating (drop the active lease)
            # and never produce a result for this claim.
            with self._lease_lock:
                self._active = None
            while not self.stop_event.is_set():
                time.sleep(0.01)
            raise RuntimeError("worker killed")
        return _synthetic_result(lease)

    monkeypatch.setattr(ServiceWorker, "_execute", flaky_execute)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprint = queue.submit("c1", _job())
    fleet = WorkerFleet(queue, count=2, visibility_timeout=0.2)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(fingerprint) is not None,
                          timeout=10)
        record = queue.result(fingerprint)
        assert record["status"] == "completed"
        assert record["result"]["executions"] == 5
        assert died.is_set()
    finally:
        fleet.stop()


def test_worker_level_crash_releases_the_job(tmp_path, monkeypatch):
    """An exception escaping _execute releases the lease via fail()."""
    crashes = []

    def crashing_execute(self, lease):
        if not crashes:
            crashes.append(1)
            raise MemoryError("fleet-level crash")
        return _synthetic_result(lease)

    monkeypatch.setattr(ServiceWorker, "_execute", crashing_execute)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprint = queue.submit("c1", _job())
    fleet = WorkerFleet(queue, count=1, visibility_timeout=5.0)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(fingerprint) is not None,
                          timeout=10)
        record = queue.result(fingerprint)
        assert record["status"] == "completed"
        assert crashes  # first attempt really did crash
    finally:
        fleet.stop()


def test_heartbeat_outlives_visibility_timeout(tmp_path, monkeypatch):
    """A slow-but-alive job keeps its lease across several timeouts."""
    takeovers = []

    def slow_execute(self, lease):
        if lease.attempt > 1:
            takeovers.append(lease.attempt)
        time.sleep(1.0)  # several times the 0.3s visibility timeout
        return _synthetic_result(lease)

    monkeypatch.setattr(ServiceWorker, "_execute", slow_execute)
    queue = JobQueue(str(tmp_path / "queue"))
    fingerprint = queue.submit("c1", _job())
    fleet = WorkerFleet(queue, count=2, visibility_timeout=0.3)
    fleet.start()
    try:
        assert wait_until(lambda: queue.result(fingerprint) is not None,
                          timeout=10)
        assert takeovers == []  # the heartbeat kept the lease alive
    finally:
        fleet.stop()
