"""The counterexample corpus: every persisted entry replays its failure."""

import dataclasses

import pytest

from repro.core import SpecStyle
from repro.engine import (CorpusEntry, EngineParams, ScenarioSpec,
                          build_scenario, load_corpus, replay_entry,
                          run_scenario)


def run_with_corpus(spec, corpus_path, **param_overrides):
    kwargs = dict(styles=(), exhaustive=False, runs=60, seed=1,
                  max_steps=20_000, workers=1, target_shards=2,
                  corpus=str(corpus_path))
    kwargs.update(param_overrides)
    return run_scenario(build_scenario(spec), EngineParams(**kwargs),
                        spec=spec)


class TestStyleEntries:
    def test_style_violations_replay(self, tmp_path):
        """HW-queue fails LAT_hb^abs; every persisted trace must fail it
        again on replay in a fresh scenario rebuilt from the spec."""
        spec = ScenarioSpec("mixed-stress",
                            kwargs={"impl": "hw-queue/rlx", "threads": 3,
                                    "ops": 3, "seed": 2})
        corpus = tmp_path / "hw.corpus.jsonl"
        result = run_with_corpus(spec, corpus,
                                 styles=(SpecStyle.LAT_HB_ABS,),
                                 runs=200, seed=5)
        assert result.report.styles[SpecStyle.LAT_HB_ABS].failed > 0
        entries = load_corpus(str(corpus))
        assert entries and len(entries) == len(result.corpus_entries)
        assert all(e.kind == "style" for e in entries)
        assert all(e.style is SpecStyle.LAT_HB_ABS for e in entries)
        for entry in entries:
            out = replay_entry(entry)
            assert out.reproduced, out.detail


class TestOutcomeEntries:
    def test_outcome_failures_replay(self, tmp_path):
        """Fig. 1 MP without the flag: empty right-thread dequeues are
        persisted as outcome entries and replay to the same assertion."""
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        corpus = tmp_path / "mp.corpus.jsonl"
        result = run_with_corpus(spec, corpus, runs=40,
                                 max_steps=100_000)
        rep = result.report
        assert rep.outcome_failures > 0
        # Satellite: outcome traces are stored, index-aligned and capped
        # like style counterexamples.
        assert 0 < len(rep.outcome_traces) <= 3
        assert len(rep.outcome_traces) == len(rep.outcome_examples)
        entries = load_corpus(str(corpus))
        assert entries
        assert all(e.kind == "outcome" for e in entries)
        for entry in entries:
            out = replay_entry(entry)
            assert out.reproduced, out.detail

    def test_adhoc_entry_needs_explicit_scenario(self, tmp_path):
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        corpus = tmp_path / "mp.corpus.jsonl"
        result = run_with_corpus(spec, corpus, runs=40,
                                 max_steps=100_000)
        entry = dataclasses.replace(result.corpus_entries[0], spec=None)
        out = replay_entry(entry)
        assert not out.reproduced and "spec" in out.detail
        out = replay_entry(entry, scenario=build_scenario(spec))
        assert out.reproduced


class TestTolerantLoading:
    def test_torn_and_blank_lines_are_skipped_with_diagnostics(
            self, tmp_path):
        """A corpus with a line torn mid-write (kill -9 during append)
        used to crash ``load_corpus``; now the damage is skipped,
        quarantined, and counted."""
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        corpus = tmp_path / "mp.corpus.jsonl"
        run_with_corpus(spec, corpus, runs=40, max_steps=100_000)
        intact = len(load_corpus(str(corpus)))
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "outcome", "trace": [[3, 0\n')  # torn
            fh.write("\n")                                     # blank
            fh.write("}}garbage{{\n")                          # rot
        entries = load_corpus(str(corpus))
        assert len(entries) == intact
        assert entries.diagnostics.corrupt == 2
        assert entries.diagnostics.rejected_path == str(corpus) + ".rejected"
        for entry in entries:
            assert replay_entry(entry).reproduced

    def test_replay_cli_reports_skipped_lines(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        corpus = tmp_path / "mp.corpus.jsonl"
        run_with_corpus(spec, corpus, runs=40, max_steps=100_000)
        n = len(load_corpus(str(corpus)))
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "outcome", "tor\n')
        assert main(["replay", str(corpus)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 corrupt corpus line(s)" in captured.err
        assert f"{n}/{n} reproduced" in captured.out


class TestEntrySerialization:
    def test_json_roundtrip(self):
        entry = CorpusEntry(
            kind="style", trace=[(3, 1), (2, 0)], violation="boom",
            style=SpecStyle.LAT_HB_ABS, scenario_name="x",
            spec=ScenarioSpec("spsc", kwargs={"impl": "ms", "n": 2}),
            max_steps=123, model="tso")
        back = CorpusEntry.from_json(entry.to_json())
        assert back.kind == entry.kind
        assert back.trace == [(3, 1), (2, 0)]
        assert back.violation == entry.violation
        assert back.style is entry.style
        assert back.spec == entry.spec
        assert back.max_steps == 123
        assert back.model == "tso"

    def test_model_defaults_for_old_corpora(self):
        """Pre-model corpus lines have no "model" key: they deserialize
        as orc11 (what they were recorded under)."""
        entry = CorpusEntry(kind="outcome", trace=[(2, 1)], violation="v")
        js = entry.to_json()
        del js["model"]
        assert CorpusEntry.from_json(js).model == "orc11"


class TestModelMismatch:
    """A trace is only meaningful under the model that produced it:
    replay refuses cross-model mixups (docs/engine.md exit-code table)."""

    def test_replay_entry_refuses_wrong_model(self, tmp_path):
        from repro.engine import ModelMismatch
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        corpus = tmp_path / "mp.corpus.jsonl"
        run_with_corpus(spec, corpus, runs=40, max_steps=100_000)
        entries = load_corpus(str(corpus))
        assert entries
        assert all(e.model == "orc11" for e in entries)
        # Matching model (explicit or implicit) replays fine.
        assert replay_entry(entries[0]).reproduced
        assert replay_entry(entries[0], model="orc11").reproduced
        with pytest.raises(ModelMismatch) as exc:
            replay_entry(entries[0], model="tso")
        assert "'orc11'" in str(exc.value) and "'tso'" in str(exc.value)

    def test_replay_cli_exits_2_on_model_mismatch(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        corpus = tmp_path / "mp.corpus.jsonl"
        run_with_corpus(spec, corpus, runs=40, max_steps=100_000)
        assert main(["replay", str(corpus), "--model", "sc"]) == 2
        captured = capsys.readouterr()
        assert "refusing replay" in captured.err
        assert "'sc'" in captured.err
        # The matching model is not a mixup.
        assert main(["replay", str(corpus), "--model", "orc11"]) == 0
        capsys.readouterr()


class TestReplayCli:
    def test_replay_command_reproduces_corpus(self, tmp_path, capsys):
        from repro.__main__ import main
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        corpus = tmp_path / "mp.corpus.jsonl"
        run_with_corpus(spec, corpus, runs=40, max_steps=100_000)
        n = len(load_corpus(str(corpus)))

        assert main(["replay", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert f"{n}/{n} reproduced" in out
        assert "NOT reproduced" not in out

        assert main(["replay", str(corpus), "--entry", "0"]) == 0
        out = capsys.readouterr().out
        assert "1/1 reproduced" in out

    def test_replay_command_usage_errors(self, tmp_path, capsys):
        from repro.__main__ import main
        assert main(["replay"]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["replay", str(empty)]) == 2
        spec = ScenarioSpec("mp-queue",
                            kwargs={"impl": "ms", "use_flag": False})
        corpus = tmp_path / "mp.corpus.jsonl"
        run_with_corpus(spec, corpus, runs=40, max_steps=100_000)
        n = len(load_corpus(str(corpus)))
        assert main(["replay", str(corpus), "--entry", str(n)]) == 2
        capsys.readouterr()
