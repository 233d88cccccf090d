"""Self-tests of the campaign benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest campaignbench -q

The known-answer test runs every workload at full size on the default
and the held-out workload seed, so the suite takes about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, DporCapped, RandomMatrix, Verdict,  # noqa
                       load_known_answers)


@pytest.fixture
def work(tmp_path):
    return str(tmp_path)


def _checks(workload, answers, n, tracer=None):
    rss = run.PeakRss(children=workload.transport != "serial")
    return [run.measure(workload, i, answers, rss, tracer) for i in range(n)]


def test_flipping_one_expectation_fails_every_check(work):
    answers = load_known_answers()
    workload = DporCapped(0, work)
    workload.cap = 30
    workload.setup()
    assert not any(s.failed for s in _checks(workload, answers, 3))

    flipped = copy.deepcopy(answers)
    flipped["dpor-capped"]["ms-queue/ra"]["LAT_hb"] = "FAIL"
    samples = _checks(workload, flipped, 3)
    error_rate = sum(s.failed for s in samples) / len(samples)
    assert error_rate == 1.0
    assert all(s.wrong for s in samples)


def test_serial_mismatch_is_a_failed_check_not_a_wrong_verdict():
    sample = run.Sample(traced=False, wall=1.0,
                        verdict=Verdict(unequal=["differs from serial"]))
    assert sample.failed and not sample.wrong


@pytest.mark.parametrize("workload_seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_known_answers_hold(name, workload_seed, work):
    """Default (0) and held-out (1) workload seeds, at full size."""
    workload = WORKLOADS[name](workload_seed, work)
    workload.setup()
    workload.reference()
    (sample,) = _checks(workload, load_known_answers(), 1)
    assert sample.error is None
    assert sample.verdict.wrong == []
    if name == "dist-exhaustive":
        assert sample.verdict.unequal == []


def test_matrix_seed_zero_is_the_e2_default():
    workload = RandomMatrix(0, ".")
    workload.setup()
    assert workload.workloads == ((2, 3, 0), (3, 3, 1), (3, 4, 2))


def test_tracing_keeps_reports_and_accounts_spans(work):
    from repro.engine.audit import report_fingerprint
    answers = load_known_answers()
    tracer = Tracer(os.path.join(work, "spans"))
    workload = DporCapped(0, work, tracer=tracer)
    workload.cap = 40
    workload.setup()
    plain = workload.check(0)
    (traced,) = _checks(workload, answers, 1, tracer)
    assert not tracer.installed
    assert report_fingerprint(workload.check(1)) == report_fingerprint(plain)
    trace = traced.trace
    assert trace.count("dpor.yields") == plain.executions
    assert trace.count("machine.replays") == \
        plain.executions + trace.count("dpor.cuts")
    assert trace.calls("spec.LAT_HB") == plain.complete
    (root,) = trace.spans("check")
    self_total = sum(v[2] for v in trace.agg.values())
    assert self_total == pytest.approx(root[7] - root[6], rel=1e-6)


def test_worker_spans_reach_the_parent(work):
    from workloads import PoolCapped
    tracer = Tracer(os.path.join(work, "spans"))
    workload = PoolCapped(0, work, tracer=tracer)
    workload.cap = 20
    workload.setup()
    workload.reference()
    (sample,) = _checks(workload, load_known_answers(), 1, tracer)
    shards = sample.trace.spans("engine.shard", "pool-worker")
    assert len(shards) == sample.trace.count("shard.count") > 1
    assert sample.trace.count("dpor.yields") == sample.executions


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(layers.METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "campaignbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "campaignbench/run.py", "--workload", "dpor-capped",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
