"""Durable queue semantics: leases, visibility, idempotent completion."""

from __future__ import annotations

import json
import os
import time

from repro.campaign.spec import JobSpec
from repro.service.queue import JobQueue, job_fingerprint


def _job(**overrides):
    params = dict(target="gadgets", tool="teapot", iterations=5, seed=1)
    params.update(overrides)
    return JobSpec(**params)


def _queue(tmp_path, **kwargs):
    return JobQueue(str(tmp_path / "queue"), **kwargs)


def test_submit_is_idempotent(tmp_path):
    queue = _queue(tmp_path)
    first = queue.submit("c1", _job(), seeds=[b"ab", b"cd"])
    second = queue.submit("c1", _job(), seeds=[b"ab", b"cd"])
    assert first == second == job_fingerprint("c1", _job())
    assert queue.stats()["submitted"] == 1
    # A different campaign or job is a different record.
    assert queue.submit("c2", _job()) != first
    assert queue.submit("c1", _job(shard=1, shard_count=2)) != first
    assert queue.stats()["submitted"] == 3


def test_claim_execute_complete_round_trip(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job(), seeds=[b"\x01\x02"])
    lease = queue.claim("w0", visibility_timeout=30)
    assert lease is not None
    assert lease.attempt == 1
    assert lease.job_spec() == _job()
    assert lease.seeds() == [b"\x01\x02"]
    assert lease.campaign_id == "c1"
    # While leased, nobody else can claim it.
    assert queue.claim("w1", visibility_timeout=30) is None
    assert queue.complete(lease.fingerprint, lease.token,
                          {"job_id": "x", "executions": 5}) is True
    record = queue.result(lease.fingerprint)
    assert record["status"] == "completed"
    assert record["result"]["executions"] == 5
    assert queue.stats()["pending"] == 0
    # Done jobs are never re-offered.
    assert queue.claim("w1", visibility_timeout=30) is None


def test_completion_is_exactly_once(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job())
    lease = queue.claim("w0", visibility_timeout=30)
    assert queue.complete(lease.fingerprint, lease.token,
                          {"executions": 5}) is True
    # A late duplicate (stale worker waking up) is discarded.
    assert queue.complete(lease.fingerprint, lease.token,
                          {"executions": 99}) is False
    assert queue.result(lease.fingerprint)["result"]["executions"] == 5


def test_claim_skips_a_job_completed_after_listing(tmp_path):
    """A peer can complete a job (dropping its lease) between the pending
    listing and the lease acquisition; the late claimer must not win a
    fresh lease and run the job a second time."""
    queue = _queue(tmp_path)
    fingerprint = queue.submit("c1", _job())
    lease = queue.claim("w0", visibility_timeout=30)
    assert queue.complete(lease.fingerprint, lease.token,
                          {"executions": 5}) is True
    assert not os.path.exists(queue._lease_path(fingerprint))
    # The claimer that listed the job before the completion landed:
    assert queue._try_acquire(fingerprint, "w1", 30) is None
    assert not os.path.exists(queue._lease_path(fingerprint))
    assert queue.result(fingerprint)["result"]["executions"] == 5


def test_expired_lease_is_taken_over(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job())
    dead = queue.claim("w0", visibility_timeout=0.05)
    assert dead is not None
    time.sleep(0.1)
    takeover = queue.claim("w1", visibility_timeout=30)
    assert takeover is not None
    assert takeover.fingerprint == dead.fingerprint
    assert takeover.attempt == 2
    # The dead worker's credentials are void.
    assert queue.renew(dead.fingerprint, dead.token) is False
    # The new holder completes; the old result would have been identical
    # anyway (jobs are deterministic), but only one record lands.
    assert queue.complete(takeover.fingerprint, takeover.token,
                          {"executions": 5}) is True
    assert queue.complete(dead.fingerprint, dead.token,
                          {"executions": 5}) is False


def test_renew_keeps_a_lease_alive(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job())
    lease = queue.claim("w0", visibility_timeout=0.2)
    for _ in range(3):
        time.sleep(0.1)
        assert queue.renew(lease.fingerprint, lease.token,
                           visibility_timeout=0.2) is True
        # Renewed in time: nobody can steal it.
        assert queue.claim("w1", visibility_timeout=30) is None


def test_fail_requeues_with_cooldown(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job())
    lease = queue.claim("w0", visibility_timeout=30)
    assert queue.fail(lease.fingerprint, lease.token, "boom",
                      backoff_s=0.05) is True
    # Cooling down: not offered yet.
    assert queue.claim("w1", visibility_timeout=30) is None
    time.sleep(0.1)
    retry = queue.claim("w1", visibility_timeout=30)
    assert retry is not None
    assert retry.attempt == 2


def test_lease_attempts_are_bounded(tmp_path):
    queue = _queue(tmp_path, max_lease_attempts=2)
    queue.submit("c1", _job())
    for _ in range(2):
        lease = queue.claim("w0", visibility_timeout=0.01)
        assert lease is not None
        time.sleep(0.05)  # let it expire (simulated crash)
    # Third claim attempt exceeds the budget: terminal failure record.
    assert queue.claim("w0", visibility_timeout=0.01) is None
    record = queue.result(job_fingerprint("c1", _job()))
    assert record["status"] == "failed"
    assert "lease expired" in record["result"]["error"]
    assert record["result"]["job_id"] == _job().job_id


def test_cancel_marks_pending_jobs(tmp_path):
    queue = _queue(tmp_path)
    fp_done = queue.submit("c1", _job())
    queue.submit("c1", _job(shard=1, shard_count=2))
    queue.submit("other", _job(seed=9))
    lease = queue.claim("w0", visibility_timeout=30)
    queue.complete(lease.fingerprint, lease.token, {"executions": 1})
    assert queue.cancel("c1") == 1  # only the still-pending c1 job
    cancelled = queue.submit("c1", _job(shard=1, shard_count=2))
    assert queue.result(cancelled)["status"] == "cancelled"
    assert queue.result(fp_done)["status"] == "completed"
    assert queue.result(queue.submit("other", _job(seed=9))) is None


def test_queue_state_is_plain_json_on_disk(tmp_path):
    queue = _queue(tmp_path)
    fingerprint = queue.submit("c1", _job(), seeds=[b"hi"])
    path = os.path.join(queue.jobs_dir, fingerprint + ".json")
    with open(path) as handle:
        record = json.load(handle)
    assert record["kind"] == "repro.service/job"
    assert record["campaign_id"] == "c1"
    assert record["seeds"] == [b"hi".hex()]
    assert JobSpec.from_dict(record["job"]) == _job()


def test_queue_survives_a_restart(tmp_path):
    queue = _queue(tmp_path)
    queue.submit("c1", _job(), seeds=[b"x"])
    # A fresh instance over the same root sees the same work.
    reopened = _queue(tmp_path)
    lease = reopened.claim("w0", visibility_timeout=30)
    assert lease is not None
    assert lease.seeds() == [b"x"]
