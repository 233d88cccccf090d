"""Campaign determinism, worker-count independence, corpus round trips."""

import json

from repro.engine.corpus import load_corpus, replay_entry
from repro.fuzz import FuzzParams, GrammarConfig, run_campaign

BROKEN = GrammarConfig(include_broken=True, only=("ms-queue-broken",))


def _params(**kw):
    base = dict(budget=150, seed=42, per_case=25, max_steps=4000,
                config=BROKEN, shrink_budget=80, max_shrinks=3)
    base.update(kw)
    return FuzzParams(**base)


def test_campaign_is_deterministic():
    a = run_campaign(_params())
    b = run_campaign(_params())
    assert a.to_json() == b.to_json()
    assert a.failures_found > 0  # positive control actually fires
    assert a.unexpected == 0  # ...and is attributed to the broken lib


def test_campaign_reproducible_across_worker_counts():
    """``--workers N`` must change wall-clock time only, never one byte
    of the result."""
    serial = run_campaign(_params(workers=1))
    parallel = run_campaign(_params(workers=2))
    assert serial.to_json() == parallel.to_json()


def test_campaign_persists_replayable_corpus(tmp_path):
    path = str(tmp_path / "fuzz.jsonl")
    report = run_campaign(_params(corpus_path=path))
    assert report.entries, "broken-only campaign must land entries"
    assert report.corpus_written == len(report.entries)
    entries = load_corpus(path)
    assert len(entries) == len(report.entries)
    for entry in entries:
        assert entry.spec.builder == "fuzz-case"
        out = replay_entry(entry)
        assert out.reproduced, f"{entry.scenario_name}: {out.detail}"


def test_campaign_corpus_cap(tmp_path):
    path = str(tmp_path / "fuzz.jsonl")
    report = run_campaign(_params(corpus_path=path, corpus_cap=1))
    assert len(report.entries) >= 1
    assert report.corpus_written == 1
    assert len(load_corpus(path)) == 1


def test_campaign_corpus_bytes_are_worker_independent(tmp_path):
    p1 = str(tmp_path / "serial.jsonl")
    p2 = str(tmp_path / "parallel.jsonl")
    run_campaign(_params(corpus_path=p1, workers=1))
    run_campaign(_params(corpus_path=p2, workers=2))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_campaign_report_json_is_serializable():
    report = run_campaign(_params(budget=60, max_shrinks=1))
    blob = json.dumps(report.to_json(), sort_keys=True)
    assert "seconds" not in json.loads(blob)  # timing never in the blob


def test_shrink_cap_is_honest():
    report = run_campaign(_params(budget=300, max_shrinks=1))
    if report.failures_found > 1:
        assert len(report.shrinks) == 1
        assert report.shrinks_skipped == report.failures_found - 1
