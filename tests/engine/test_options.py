"""The option surface: `EngineParams` declares every engine option once.

`check_scenario` forwards its keyword options to `EngineParams`, and the
wire form a remote node or a submitted campaign receives rebuilds the
same params, so no option has a second declaration or a second default
to drift from.
"""

from __future__ import annotations

import dataclasses

from repro.checking import ScenarioReport, check_scenario
from repro.core import SpecStyle
from repro.engine import EngineParams, build_scenario
from repro.engine import pool
from repro.engine.telemetry import TelemetrySummary

from ._support import hw_spec

FIELDS = ("styles", "exhaustive", "runs", "seed", "max_steps",
          "max_executions", "workers", "target_shards", "checkpoint",
          "corpus", "corpus_cap", "progress", "max_retries",
          "shard_timeout", "shard_seconds", "run_seconds", "max_rss_mb",
          "dpor", "model", "hedge", "audit_fraction")

#: A value for every field that differs from its default.
NON_DEFAULT = dict(
    styles=(SpecStyle.LAT_HB_ABS, SpecStyle.LAT_HB), exhaustive=True,
    runs=7, seed=3, max_steps=999, max_executions=77, workers=2,
    target_shards=5, checkpoint="ck.jsonl", corpus="corpus.jsonl",
    corpus_cap=9, progress=True, max_retries=4, shard_timeout=None,
    shard_seconds=3.0, run_seconds=40.0, max_rss_mb=512.0, dpor=False,
    model="ra", hedge=True, audit_fraction=0.5)

#: The fields `EngineParams.wire_json` carries.
WIRE_FIELDS = ("styles", "exhaustive", "runs", "seed", "max_steps",
               "max_executions", "dpor", "model", "target_shards",
               "corpus_cap", "hedge", "audit_fraction")


def test_engine_params_fields():
    assert tuple(f.name for f in dataclasses.fields(EngineParams)) \
        == FIELDS
    defaults = EngineParams()
    for name in FIELDS:
        assert NON_DEFAULT[name] != getattr(defaults, name), name


def test_every_field_reaches_run_scenario(monkeypatch):
    seen = {}

    def run_scenario(scenario, params, spec=None):
        seen["params"], seen["spec"] = params, spec
        return pool.EngineResult(ScenarioReport(scenario=scenario.name),
                                 TelemetrySummary())

    monkeypatch.setattr(pool, "run_scenario", run_scenario)
    spec = hw_spec()
    check_scenario(build_scenario(spec), spec=spec, **NON_DEFAULT)
    assert seen["params"] == EngineParams(**NON_DEFAULT)
    assert seen["spec"] is spec


def test_wire_round_trip():
    params = EngineParams(**{name: NON_DEFAULT[name]
                             for name in WIRE_FIELDS})
    wire = params.wire_json()
    assert set(wire) == set(WIRE_FIELDS)
    assert wire["target_shards"] == 5
    assert EngineParams.from_wire(wire) == params


#: What `_dist_campaign` sets itself for ``serve`` and ``service submit``.
CAMPAIGN_FIELDS = ("styles", "exhaustive", "seed", "target_shards")


def parsed_args(monkeypatch, argv):
    """The namespace ``python -m repro <argv>`` hands its command."""
    from repro import __main__ as cli
    seen = {}

    def capture(args):
        seen["args"] = args
        return 0

    monkeypatch.setitem(cli.COMMANDS, argv[0], capture)
    assert cli.main(argv) == 0
    return seen["args"]


def test_unset_engine_flags_keep_the_engine_defaults(monkeypatch):
    from repro import __main__ as cli
    defaults = EngineParams()
    for command in ("mp", "spsc", "elim"):
        options = cli._engine_options(parsed_args(monkeypatch, [command]))
        assert EngineParams(**options) == defaults, command
    for argv in (["serve"], ["service", "submit"]):
        _spec, params = cli._dist_campaign(parsed_args(monkeypatch, argv))
        for f in dataclasses.fields(EngineParams):
            if f.name not in CAMPAIGN_FIELDS:
                assert getattr(params, f.name) == getattr(defaults, f.name), \
                    (argv, f.name)


def test_service_serve_keeps_the_engine_retry_budget(monkeypatch):
    import repro.service
    from repro import __main__ as cli
    seen = {}

    class Daemon:
        def __init__(self, config):
            seen["config"] = config

        def run(self):
            return 0

    monkeypatch.setattr(repro.service, "CampaignDaemon", Daemon)
    assert cli.main(["service", "serve"]) == 0
    assert seen["config"].max_retries == EngineParams().max_retries
    assert cli.main(["service", "serve", "--max-retries", "5"]) == 0
    assert seen["config"].max_retries == 5
