"""Merging and (de)serialization of per-shard partial reports.

The merge *operations* live on the report types themselves
(`StyleTally.merge`, `ScenarioReport.merge`); this module supplies the
engine-side plumbing around them:

* :func:`merge_reports` — fold per-shard partials **in shard order**,
  which is what makes capped example lists deterministic: the serial
  enumeration is the concatenation of the shards in that order, so the
  first ``EXAMPLE_CAP`` counterexamples of the merged report are the
  serial run's;
* :func:`report_to_json` / :func:`report_from_json` — the checkpoint
  wire format (styles keyed by `SpecStyle.name`, traces as pair
  lists).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from ..checking.runner import ScenarioReport, StyleTally
from ..core.spec_styles import SpecStyle


def merge_reports(scenario_name: str,
                  partials: Iterable[ScenarioReport],
                  exhaustive: bool) -> ScenarioReport:
    """Fold shard-ordered partial reports into one scenario report.

    The merged report shares the parts' trace lists; nothing mutates a
    trace.  With no parts at all, ``exhausted`` is the run's own
    ``exhaustive``.
    """
    merged = ScenarioReport(scenario=scenario_name, exhausted=True)
    empty = True
    for part in partials:
        merged.merge(part)
        empty = False
    if empty:
        merged.exhausted = exhaustive
    return merged


def _trace_to_json(trace) -> List[List[int]]:
    return [[int(a), int(c)] for a, c in trace]


def trace_from_json(data) -> List:
    """Decision traces round-trip as ``[[arity, chosen], ...]``."""
    return [(int(a), int(c)) for a, c in data]


def tally_to_json(tally: StyleTally) -> Dict[str, Any]:
    return {
        "checked": tally.checked,
        "failed": tally.failed,
        "examples": list(tally.examples),
        "failing_traces": [_trace_to_json(t) for t in tally.failing_traces],
    }


def tally_from_json(data: Dict[str, Any]) -> StyleTally:
    return StyleTally(
        checked=data["checked"], failed=data["failed"],
        examples=list(data["examples"]),
        failing_traces=[trace_from_json(t) for t in data["failing_traces"]])


def report_to_json(report: ScenarioReport) -> Dict[str, Any]:
    return {
        "scenario": report.scenario,
        "executions": report.executions,
        "complete": report.complete,
        "truncated": report.truncated,
        "raced": report.raced,
        "steps": report.steps,
        "seconds": report.seconds,
        "exhausted": report.exhausted,
        "budget_exhausted": report.budget_exhausted,
        "pruned_subtrees": report.pruned_subtrees,
        "styles": {style.name: tally_to_json(tally)
                   for style, tally in report.styles.items()},
        "outcome_failures": report.outcome_failures,
        "outcome_examples": list(report.outcome_examples),
        "outcome_traces": [_trace_to_json(t) for t in report.outcome_traces],
        "metrics": dict(report.metrics),
    }


def report_from_json(data: Dict[str, Any]) -> ScenarioReport:
    report = ScenarioReport(
        scenario=data["scenario"],
        executions=data["executions"],
        complete=data["complete"],
        truncated=data["truncated"],
        raced=data["raced"],
        steps=data["steps"],
        seconds=data["seconds"],
        exhausted=data["exhausted"],
        budget_exhausted=data.get("budget_exhausted", False),
        pruned_subtrees=data.get("pruned_subtrees", 0),
        outcome_failures=data["outcome_failures"],
        outcome_examples=list(data["outcome_examples"]),
        outcome_traces=[trace_from_json(t) for t in data["outcome_traces"]],
        metrics=dict(data.get("metrics", {})))
    report.styles = {SpecStyle[name]: tally_from_json(t)
                     for name, t in data["styles"].items()}
    return report
