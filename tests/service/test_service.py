"""The campaign daemon end to end: crash anywhere, resume everywhere.

The acceptance property from the ISSUE: SIGKILL the daemon at any WAL
fault site, restart it with a clean environment, and the finished
campaign's report is **byte-for-byte** the serial DPOR report — with
no shard charged twice in the WAL.  Plus the lifecycle contract:
SIGTERM drains to exit 0, SIGINT is a fast stop, a draining daemon
rejects submits retryably, and the supervisor restarts crashes without
re-arming one-shot fault plans.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.engine import EngineParams, run_scenario
from repro.engine.durable import read_records
from repro.engine.faults import CRASH_EXIT_CODE, FAULT_PLAN_ENV, Fault, \
    FaultPlan
from repro.engine.merge import report_from_json
from repro.engine.retry import RetryPolicy
from repro.service import (CampaignDaemon, RetryableServiceError,
                           ServiceClient, ServiceConfig, ServiceError,
                           supervise)
from repro.service.daemon import crash_loop_delay
from repro.service.store import JobStore, RUNNING

from ..engine._support import assert_reports_equal, hw_spec, vyukov_spec

JOIN_TIMEOUT = 90.0

#: Quick client retries: subprocess daemons answer fast or are dead.
FAST = RetryPolicy(attempts=4, base=0.05, cap=0.5)

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(
    repro.__file__)))


def _daemon_env(plan: FaultPlan = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop(FAULT_PLAN_ENV, None)
    if plan is not None:
        env[FAULT_PLAN_ENV] = plan.encode()
    return env


def _start_daemon(data_dir: str, plan: FaultPlan = None,
                  local_nodes: int = 2) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "service", "serve",
         "--data-dir", data_dir, "--crash-loop-window", "0",
         "--local-nodes", str(local_nodes)],
        env=_daemon_env(plan), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)


def _client_for(data_dir: str, daemon: subprocess.Popen,
                timeout: float = 30.0) -> ServiceClient:
    """Wait for *this* daemon's discovery file and build a client."""
    discovery = os.path.join(data_dir, "service.json")
    deadline = time.time() + timeout
    while time.time() < deadline:
        if daemon.poll() is not None:
            raise AssertionError(
                f"daemon died before serving (exit {daemon.returncode}):\n"
                f"{daemon.stdout.read()}")
        try:
            with open(discovery, encoding="utf-8") as fh:
                info = json.load(fh)
            if info.get("pid") == daemon.pid:
                return ServiceClient(info["host"], info["api_port"],
                                     policy=FAST)
        except (OSError, ValueError):
            pass
        time.sleep(0.1)
    raise AssertionError("daemon never wrote its discovery file")


def _reap(daemon: subprocess.Popen) -> int:
    if daemon.poll() is None:
        daemon.terminate()
        try:
            daemon.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    if daemon.stdout is not None:
        daemon.stdout.close()
    return daemon.returncode


def _hw_params() -> dict:
    return EngineParams(exhaustive=True, max_steps=400,
                        target_shards=4).wire_json()


def _hw_serial():
    return run_scenario(None, EngineParams(exhaustive=True, max_steps=400),
                        spec=hw_spec()).report


def _wait_done(client: ServiceClient, job_id: str) -> dict:
    deadline = time.time() + JOIN_TIMEOUT
    while time.time() < deadline:
        jobs = client.status(job_id)["jobs"]
        if jobs and jobs[0]["state"] in ("done", "failed", "cancelled"):
            return jobs[0]
        time.sleep(0.3)
    raise AssertionError(f"{job_id} never settled")


def _merge_counts(wal_path: str) -> dict:
    records, _diag = read_records(wal_path, quarantine=False)
    counts = {}
    for rec in records:
        if rec.get("rec") == "merge":
            key = (rec["job"], rec["shard"])
            counts[key] = counts.get(key, 0) + 1
    return counts


FAULT_SITES = [
    # After the submit WAL record, before the client's reply.
    Fault("service.post_submit", "crash"),
    # After a grant WAL record, before the lease hits the wire.
    Fault("service.grant", "crash", shard=1, attempt=1),
    # After every shard merged, before the job settles to DONE.
    Fault("service.pre_merge", "crash"),
]


class TestKillResume:
    @pytest.mark.parametrize("fault", FAULT_SITES,
                             ids=[f.site for f in FAULT_SITES])
    def test_crash_then_restart_matches_serial(self, tmp_path, fault):
        serial = _hw_serial()
        data_dir = str(tmp_path / "svc")
        victim = _start_daemon(data_dir, plan=FaultPlan((fault,)))
        try:
            client = _client_for(data_dir, victim)
            try:
                client.submit("kill-resume", hw_spec().to_json(),
                              _hw_params(), dedupe_key="kr")
            except ServiceError:
                # service.post_submit: the job is durable but the
                # daemon died before replying — exactly the case the
                # dedupe key exists for.
                assert fault.site == "service.post_submit"
            assert victim.wait(timeout=JOIN_TIMEOUT) == CRASH_EXIT_CODE
        finally:
            _reap(victim)
        # The WAL outlived the crash; the job is still in flight.
        store = JobStore(os.path.join(data_dir, "wal.jsonl"))
        jobs = store.jobs()
        assert len(jobs) == 1 and jobs[0].active
        job_id = jobs[0].job_id
        # A retried submit on a *fresh* daemon dedupes onto that job
        # instead of double-funding it, and the restart resumes it
        # with a clean environment (no fault plan).
        survivor = _start_daemon(data_dir)
        try:
            client = _client_for(data_dir, survivor)
            resp = client.submit("kill-resume", hw_spec().to_json(),
                                 _hw_params(), dedupe_key="kr")
            assert resp["job"] == job_id and not resp["created"]
            final = _wait_done(client, job_id)
            assert final["state"] == "done", final
            assert not final["summary"]["degraded"]
            # SIGTERM on the idle daemon: graceful drain, exit 0.
            survivor.send_signal(signal.SIGTERM)
            assert survivor.wait(timeout=30.0) == 0
        finally:
            _reap(survivor)
        report_path = os.path.join(data_dir, "jobs", job_id,
                                   "report.json")
        with open(report_path, encoding="utf-8") as fh:
            merged = report_from_json(json.load(fh))
        assert_reports_equal(merged, serial)
        # No shard was charged twice across the two incarnations.
        counts = _merge_counts(os.path.join(data_dir, "wal.jsonl"))
        assert counts == {(job_id, shard): 1 for shard in range(4)}
        # Grant tokens are unique and the restart granted above the
        # dead incarnation's floor (fencing carried across the crash).
        records, _ = read_records(os.path.join(data_dir, "wal.jsonl"),
                                  quarantine=False)
        tokens = [r["token"] for r in records if r.get("rec") == "grant"]
        assert len(tokens) == len(set(tokens))


class TestDrain:
    def test_sigterm_mid_run_drains_clean_and_resumes(self, tmp_path):
        serial = run_scenario(None, EngineParams(exhaustive=True),
                              spec=vyukov_spec()).report
        data_dir = str(tmp_path / "svc")
        params = EngineParams(exhaustive=True, target_shards=4).wire_json()
        first = _start_daemon(data_dir)
        try:
            client = _client_for(data_dir, first)
            job_id = client.submit("drain-me", vyukov_spec().to_json(),
                                   params, dedupe_key="dr")["job"]
            # Wait until the campaign is visibly mid-run (a lease was
            # granted), then ask for a graceful drain.
            deadline = time.time() + JOIN_TIMEOUT
            while time.time() < deadline:
                job = client.status(job_id)["jobs"][0]
                if job["grants"] >= 1 or job["state"] == "done":
                    break
                time.sleep(0.05)
            first.send_signal(signal.SIGTERM)
            # The drain contract: in-flight leases finish, exit is 0.
            assert first.wait(timeout=JOIN_TIMEOUT) == 0
        finally:
            _reap(first)
        # The restart finishes whatever the drain left checkpointed.
        second = _start_daemon(data_dir)
        try:
            client = _client_for(data_dir, second)
            final = _wait_done(client, job_id)
            assert final["state"] == "done", final
            second.send_signal(signal.SIGTERM)
            assert second.wait(timeout=30.0) == 0
        finally:
            _reap(second)
        report_path = os.path.join(data_dir, "jobs", job_id,
                                   "report.json")
        with open(report_path, encoding="utf-8") as fh:
            merged = report_from_json(json.load(fh))
        assert_reports_equal(merged, serial)
        counts = _merge_counts(os.path.join(data_dir, "wal.jsonl"))
        assert all(n == 1 for n in counts.values())

    def test_draining_daemon_rejects_submit_retryably(self, tmp_path):
        """The client-facing half of drain: a submit against a
        draining daemon is refused with a *retryable* error the client
        backs off on (to land on the replacement daemon)."""
        config = ServiceConfig(data_dir=str(tmp_path / "svc"),
                               crash_loop_window=0.0, local_nodes=0)
        daemon = CampaignDaemon(config, emit=lambda line: None)
        delays = []
        try:
            daemon.drain()
            policy = RetryPolicy(attempts=3, base=0.01, cap=0.05)
            client = ServiceClient("127.0.0.1", daemon.api_port,
                                   policy=policy, sleeper=delays.append)
            assert client.ping()["draining"]
            with pytest.raises(RetryableServiceError, match="draining"):
                client.submit("late", hw_spec().to_json(), _hw_params())
            # It retried its full budget with the shared backoff.
            assert delays == [policy.delay(a, key="api-submit")
                              for a in range(1, policy.attempts)]
            # Status and cancel still work while draining.
            assert client.status()["draining"]
            # And nothing was ever admitted to the WAL.
            assert daemon.store.jobs() == []
        finally:
            daemon._api.close()
            daemon._node_listener.close()


class TestSupervisor:
    def test_supervise_restarts_crashes_until_clean_exit(self, tmp_path):
        marker = tmp_path / "crashed-once"
        script = ("import os, sys\n"
                  f"p = {str(marker)!r}\n"
                  "if os.path.exists(p): sys.exit(0)\n"
                  "open(p, 'w').close(); sys.exit(86)\n")
        lines = []
        rc = supervise([sys.executable, "-c", script], max_restarts=3,
                       emit=lines.append)
        assert rc == 0
        assert any("restart 1/3" in line for line in lines)

    def test_supervise_gives_up_after_the_restart_budget(self, tmp_path):
        rc = supervise([sys.executable, "-c", "import sys; sys.exit(3)"],
                       max_restarts=2, emit=lambda line: None)
        assert rc == 3

    def test_supervise_disarms_the_fault_plan_on_restart(self, tmp_path):
        """A one-shot crash fault must fire in exactly one incarnation:
        the supervisor strips REPRO_FAULT_PLAN before restarting, else
        recovery could never win."""
        script = ("import os, sys\n"
                  f"sys.exit(86 if {FAULT_PLAN_ENV!r} in os.environ "
                  "else 0)\n")
        env = dict(os.environ)
        env[FAULT_PLAN_ENV] = FaultPlan(
            (Fault("service.grant", "crash"),)).encode()
        rc = supervise([sys.executable, "-c", script], max_restarts=1,
                       env=env, emit=lambda line: None)
        assert rc == 0
        # And with clearing disabled it keeps crashing until give-up.
        rc = supervise([sys.executable, "-c", script], max_restarts=1,
                       env=env, clear_fault_plan_on_restart=False,
                       emit=lambda line: None)
        assert rc == 86


class TestCrashLoopGuard:
    def test_first_two_starts_are_free(self, tmp_path):
        starts = str(tmp_path / "starts.log")
        assert crash_loop_delay(starts, 60.0, now=100.0) == 0.0
        assert crash_loop_delay(starts, 60.0, now=101.0) == 0.0

    def test_third_start_in_window_backs_off(self, tmp_path):
        starts = str(tmp_path / "starts.log")
        for now in (100.0, 101.0):
            crash_loop_delay(starts, 60.0, now=now)
        delay = crash_loop_delay(starts, 60.0, now=102.0)
        assert delay > 0.0
        # And the schedule escalates with further crashes.
        assert crash_loop_delay(starts, 60.0, now=103.0) > 0.0

    def test_old_starts_age_out_of_the_window(self, tmp_path):
        starts = str(tmp_path / "starts.log")
        for now in (100.0, 101.0, 102.0):
            crash_loop_delay(starts, 60.0, now=now)
        assert crash_loop_delay(starts, 60.0, now=500.0) == 0.0

    def test_zero_window_disables_the_guard(self, tmp_path):
        starts = str(tmp_path / "starts.log")
        for _ in range(5):
            assert crash_loop_delay(starts, 0.0) == 0.0
        assert not os.path.exists(starts)


class TestRunningState:
    def test_interrupted_job_replays_as_running(self, tmp_path):
        """Sanity for the resume ordering: a job mid-crash is RUNNING
        in the WAL and `next_runnable` picks it before fresh work."""
        wal = str(tmp_path / "wal.jsonl")
        store = JobStore(wal)
        job, _ = store.submit("a", hw_spec().to_json(), _hw_params(), "k")
        store.mark_running(job.job_id)
        replayed = JobStore(wal)
        assert replayed.job(job.job_id).state == RUNNING
        assert replayed.next_runnable().job_id == job.job_id


class TestAuditFindings:
    def test_lying_node_surfaces_as_a_findings_record(self, tmp_path):
        """End-to-end conviction through the service: a local node's
        result blob is corrupted before its CRC (framing-consistent),
        the job runs with every shard audited, and the divergence must
        land durably in the WAL and come back over the `findings` verb
        with the origin node named."""
        data_dir = str(tmp_path / "svc")
        plan = FaultPlan((Fault("pool.flip_result_byte", "corrupt",
                                shard=1, attempt=1),))
        daemon = _start_daemon(data_dir, plan=plan)
        try:
            client = _client_for(data_dir, daemon)
            params = _hw_params()
            params["audit_fraction"] = 1.0
            resp = client.submit(name="audited", spec_json=hw_spec().to_json(),
                                 params_json=params, dedupe_key="aud-1")
            job_id = resp["job"]
            job = _wait_done(client, job_id)
            assert job["state"] == "done"
            assert job["divergences"] == 1
            summary = job.get("summary") or {}
            assert summary.get("divergences") == 1
            found = client.findings(job_id)["findings"]
            assert len(found) == 1
            assert found[0]["job"] == job_id
            assert found[0]["shard"] == 1
            assert found[0]["node"]
            detail = (found[0].get("finding") or {}).get("detail", "")
            assert "result-divergence" in detail
            # Durable, not just in-memory: the WAL carries the record.
            records, _diag = read_records(
                os.path.join(data_dir, "wal.jsonl"), quarantine=False)
            assert any(r.get("rec") == "divergence" for r in records)
            # Unknown jobs are a clean error, not an empty list.
            with pytest.raises(ServiceError):
                client.findings("job-9999")
        finally:
            _reap(daemon)

    def test_findings_empty_on_a_clean_job(self, tmp_path):
        data_dir = str(tmp_path / "svc")
        daemon = _start_daemon(data_dir)
        try:
            client = _client_for(data_dir, daemon)
            resp = client.submit(name="clean", spec_json=hw_spec().to_json(),
                                 params_json=_hw_params(),
                                 dedupe_key="clean-1")
            job = _wait_done(client, resp["job"])
            assert job["state"] == "done"
            assert job["divergences"] == 0
            assert client.findings(resp["job"])["findings"] == []
        finally:
            _reap(daemon)
