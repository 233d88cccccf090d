"""Shard planning: disjointness, coverage, and serial-order determinism."""

import pytest

from repro.core import SpecStyle
from repro.engine import (EngineParams, ScenarioSpec, Shard, build_scenario,
                          iter_shard, plan_exhaustive_shards,
                          plan_random_shards, plan_shards_ex)
from repro.engine.checkpoint import run_fingerprint
from repro.rmc import explore_all

from ._support import vyukov_spec

MAX_STEPS = 400


class TestRandomShards:
    def test_partition_of_seed_range(self):
        shards = plan_random_shards(runs=103, seed=7, target=8)
        assert len(shards) == 8
        assert sum(s.runs for s in shards) == 103
        # Contiguous: each chunk starts where the previous one ended.
        offset = 7
        for s in shards:
            assert s.kind == "seeds"
            assert s.seed == offset
            offset += s.runs
        assert offset == 7 + 103
        assert shards == sorted(shards, key=Shard.sort_key)

    def test_target_clamped_to_runs(self):
        shards = plan_random_shards(runs=3, seed=0, target=16)
        assert len(shards) == 3
        assert all(s.runs == 1 for s in shards)


class TestExhaustiveShards:
    def test_shards_are_disjoint_subtree_roots(self):
        scenario = build_scenario(vyukov_spec())
        shards, pruned = plan_exhaustive_shards(
            scenario.factory, target=8, max_steps=MAX_STEPS, dpor=False)
        assert len(shards) >= 8 and pruned == 0
        prefixes = [s.prefix for s in shards]
        assert prefixes == sorted(prefixes)
        # No prefix extends another: subtrees are pairwise disjoint.
        for i, p in enumerate(prefixes):
            for q in prefixes[i + 1:]:
                assert q[:len(p)] != p

    def test_shard_union_is_serial_dfs_enumeration(self):
        """Concatenating per-shard traces in sorted shard order yields
        exactly the serial explore_all enumeration — same executions,
        same order."""
        scenario = build_scenario(vyukov_spec())
        serial = [list(r.trace)
                  for r in explore_all(scenario.factory,
                                       max_steps=MAX_STEPS)]
        shards, _pruned = plan_exhaustive_shards(
            scenario.factory, target=8, max_steps=MAX_STEPS, dpor=False)
        sharded = []
        for shard in shards:
            sharded.extend(
                list(r.trace)
                for r in iter_shard(scenario.factory, shard, MAX_STEPS,
                                    max_executions=100_000))
        assert sharded == serial

    def test_target_one_is_whole_tree(self):
        """At target 1 the planner returns the root without probing,
        with DPOR on or off."""
        factory = build_scenario(vyukov_spec()).factory
        calls = []

        def counted():
            calls.append(1)
            return factory()
        for dpor in (True, False):
            gaps = []
            shards, pruned = plan_exhaustive_shards(
                counted, target=1, max_steps=MAX_STEPS, gaps=gaps, dpor=dpor)
            assert shards == [Shard(kind="prefix", prefix=())]
            assert (pruned, gaps) == (0, [0, 0])
        assert not calls

    def test_planning_is_deterministic(self):
        scenario = build_scenario(vyukov_spec())
        for dpor in (True, False):
            a = plan_exhaustive_shards(scenario.factory, 8, MAX_STEPS,
                                       dpor=dpor)
            b = plan_exhaustive_shards(scenario.factory, 8, MAX_STEPS,
                                       dpor=dpor)
            assert a == b


class TestPlanPins:
    """The planner's output is part of every checkpoint's identity:
    `run_fingerprint` hashes the shard list, so a changed plan orphans
    every checkpoint an earlier run wrote.  These digests were recorded
    before DPOR-on and DPOR-off planning shared one planner."""

    PINS = {
        ("treiber/rel-acq", 3, True): "88a1c41a0e9f9842",
        ("treiber/rel-acq", 3, False): "8361b9413b9dc3ea",
        ("vyukov-queue/rlx", 2, True): "a5568cb4b493f674",
        ("vyukov-queue/rlx", 2, False): "b64259611778ae7d",
    }

    @staticmethod
    def plan(impl, threads, dpor):
        spec = ScenarioSpec("mixed-stress", kwargs={
            "impl": impl, "threads": threads, "ops": 1, "seed": 0})
        scenario = build_scenario(spec)
        params = EngineParams(styles=(SpecStyle.LAT_HB,), exhaustive=True,
                              max_steps=400, target_shards=16, dpor=dpor)
        shards, gaps = plan_shards_ex(scenario, params)
        return (run_fingerprint(scenario.name, spec,
                                params.fingerprint_json(), shards),
                shards, gaps)

    @pytest.mark.parametrize("impl,threads,dpor", sorted(PINS))
    def test_run_fingerprint_pinned(self, impl, threads, dpor):
        digest, shards, gaps = self.plan(impl, threads, dpor)
        assert digest == self.PINS[impl, threads, dpor]
        assert len(gaps) == len(shards) + 1
        if not dpor:
            assert not any(gaps) and not any(s.sleep for s in shards)

    def test_treiber_planner_prunes_pinned(self):
        _digest, shards, gaps = self.plan("treiber/rel-acq", 3, True)
        assert len(shards) == 16
        assert sum(gaps) == 18
        assert [i for i, g in enumerate(gaps) if g] == [2, 6, 9, 12, 14]


class TestShardSerialization:
    def test_json_roundtrip(self):
        for shard in (Shard(kind="prefix", prefix=(0, 2, 1)),
                      Shard(kind="prefix"),
                      Shard(kind="seeds", seed=42, runs=13)):
            assert Shard.from_json(shard.to_json()) == shard
