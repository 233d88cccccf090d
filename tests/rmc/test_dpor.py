"""Sleep-set DPOR tests: footprints, independence, and the differential
equivalence suite (DPOR-on vs DPOR-off must agree on every observable
verdict while exploring fewer interleavings)."""

import random

import pytest

from repro.checking import check_scenario
from repro.core import SpecStyle
from repro.engine import (ScenarioSpec, Shard, build_scenario, iter_shard,
                          plan_exhaustive_shards)
from repro.rmc import (ACQ, NA, RLX, SC, Alloc, Cas, Decider, Fence,
                       Footprint, GhostCommit, Load, Machine, Program,
                       RandomDecider, SleepSetCut, SleepSetDecider, Store,
                       explore_all, explore_all_dpor, op_footprint)
from repro.rmc import dpor
from repro.rmc import machine as machine_mod
from repro.rmc.dpor import DporStats, _next_prefix, independent
from repro.rmc.litmus import CATALOGUE, na_publication, outcomes
from tests.conftest import assert_value_record
from tests.engine._support import assert_reports_equal, hw_spec, vyukov_spec


def writers_distinct(n):
    """n threads each storing to their own location: fully independent."""
    def setup(mem):
        return [mem.alloc(f"x{i}", 0) for i in range(n)]

    def writer(i):
        def body(env):
            yield Store(env[i], 1, RLX)
        return body
    return lambda: Program(setup, [writer(i) for i in range(n)])


def writers_same_loc(n):
    """n threads all storing to one location: fully dependent."""
    def setup(mem):
        return {"x": mem.alloc("x", 0)}

    def writer(env):
        yield Store(env["x"], 1, RLX)
    return lambda: Program(setup, [writer] * n)


class TestFootprint:
    def test_load_store(self):
        assert op_footprint(1, Load(5, ACQ)) == \
            Footprint(1, "read", 5, ACQ.value, False, False)
        assert op_footprint(0, Store(3, 7, SC)) == \
            Footprint(0, "write", 3, SC.value, True, False)

    def test_cas_is_rmw_and_sees_fail_path(self):
        fp = op_footprint(2, Cas(4, 0, 1, RLX))
        assert (fp.kind, fp.loc, fp.sc, fp.hooked) == ("rmw", 4, False, False)
        # An SC fail_mode or a failure hook must make the footprint
        # conservative even when the success path looks benign.
        assert op_footprint(2, Cas(4, 0, 1, RLX, fail_mode=SC)).sc
        assert op_footprint(2, Cas(4, 0, 1, RLX,
                                   commit_fail=lambda ctx: None)).hooked

    def test_fence_alloc_ghost(self):
        fence = op_footprint(1, Fence(SC))
        assert (fence.kind, fence.loc, fence.sc) == ("fence", None, True)
        assert op_footprint(0, Alloc([0])) == \
            Footprint(0, "alloc", None, "", False, True)
        assert op_footprint(0, GhostCommit(lambda ctx: None)).kind == "ghost"

    def test_sc_upgrade_applies_before_execution(self):
        """The ablation mutates op modes at execution time; the footprint
        must account for the upgrade ahead of the scheduling decision."""
        assert op_footprint(0, Load(1, RLX), sc_upgrade=True).sc
        assert op_footprint(0, Cas(1, 0, 1, RLX), sc_upgrade=True).sc
        # Non-atomics stay non-atomic under the upgrade.
        assert not op_footprint(0, Load(1, NA), sc_upgrade=True).sc

    #: One footprint of every kind, hooked and not, plain and seq-cst.
    EVERY_KIND = (
        Footprint(3, "rmw", 17, RLX.value, True, True),
        op_footprint(1, Load(5, ACQ)),
        op_footprint(0, Store(3, 7, SC, commit=lambda ctx: None)),
        op_footprint(2, Cas(4, 0, 1, RLX, commit_fail=lambda ctx: None)),
        op_footprint(1, Fence(SC)),
        op_footprint(0, Alloc([0])),
        op_footprint(0, GhostCommit(lambda ctx: None)),
        op_footprint(2, Load(9, NA), sc_upgrade=True),
    )

    def test_json_round_trip(self):
        for fp in self.EVERY_KIND:
            back = Footprint.from_json(fp.to_json())
            assert back == fp and hash(back) == hash(fp)
            assert type(back) is Footprint

    def test_immutable_value_record(self):
        for fp in self.EVERY_KIND:
            assert_value_record(fp, ("thread", "kind", "loc", "mode", "sc",
                                     "hooked"))


class TestIndependence:
    def test_same_thread_dependent(self):
        a = Footprint(1, "read", 5, RLX.value)
        b = Footprint(1, "write", 6, RLX.value)
        assert not independent(a, b)

    def test_location_rules(self):
        w0 = Footprint(0, "write", 5, RLX.value)
        w1 = Footprint(1, "write", 5, RLX.value)
        w1_other = Footprint(1, "write", 6, RLX.value)
        r1 = Footprint(1, "read", 5, RLX.value)
        r2 = Footprint(2, "read", 5, RLX.value)
        rmw1 = Footprint(1, "rmw", 5, RLX.value)
        assert not independent(w0, w1)          # same-loc write/write
        assert not independent(w0, r1)          # same-loc write/read
        assert not independent(w0, rmw1)        # same-loc write/rmw
        assert independent(w0, w1_other)        # different locations
        assert independent(r1, r2)              # same-loc read/read

    def test_sc_and_fence_rules(self):
        sc0 = Footprint(0, "write", 5, SC.value, sc=True)
        sc1 = Footprint(1, "read", 6, SC.value, sc=True)
        scfence = Footprint(1, "fence", None, SC.value, sc=True)
        fence = Footprint(1, "fence", None, ACQ.value)
        w0 = Footprint(0, "write", 5, RLX.value)
        assert not independent(sc0, sc1)        # both touch the SC view
        assert not independent(sc0, scfence)
        assert independent(w0, fence)           # plain fences are local
        assert independent(w0, scfence)         # only sc×sc is dependent

    def test_hooked_and_global_rules(self):
        h0 = Footprint(0, "write", 5, RLX.value, hooked=True)
        h1 = Footprint(1, "read", 6, RLX.value, hooked=True)
        w1 = Footprint(1, "write", 6, RLX.value)
        alloc = Footprint(1, "alloc", None, "", False, True)
        ghost = Footprint(1, "ghost", None, "", False, True)
        assert not independent(h0, h1)          # shared commit sequence
        assert independent(h0, w1)              # one hook, disjoint locs
        assert not independent(h0, alloc)       # alloc: global counters
        assert not independent(h0, ghost)       # arbitrary hook
        w0 = Footprint(0, "write", 5, RLX.value)
        assert not independent(w0, alloc)

    def test_symmetry(self):
        pool = [
            Footprint(0, "write", 5, RLX.value),
            Footprint(1, "read", 5, RLX.value),
            Footprint(1, "write", 6, RLX.value),
            Footprint(2, "rmw", 5, RLX.value),
            Footprint(2, "fence", None, SC.value, sc=True),
            Footprint(3, "write", 7, SC.value, sc=True),
            Footprint(3, "alloc", None, "", False, True),
            Footprint(0, "read", 6, RLX.value, hooked=True),
        ]
        for a in pool:
            for b in pool:
                assert independent(a, b) == independent(b, a), (a, b)


class TestSleepSets:
    def test_independent_writers_collapse_to_one(self):
        """3 fully-independent writers: 3! = 6 naive schedules, one
        representative under DPOR, all 5 siblings pruned."""
        factory = writers_distinct(3)
        naive = sum(1 for _ in explore_all(factory))
        stats = DporStats()
        reduced = sum(1 for _ in explore_all_dpor(factory, stats=stats))
        assert naive == 6
        assert reduced == 1
        assert stats.pruned_subtrees == 5

    def test_dependent_writers_not_pruned(self):
        """Same-location writes never commute: DPOR must not prune."""
        for n in (2, 3):
            factory = writers_same_loc(n)
            naive = sum(1 for _ in explore_all(factory))
            stats = DporStats()
            reduced = sum(1 for _ in explore_all_dpor(factory, stats=stats))
            assert reduced == naive
            assert stats.pruned_subtrees == 0

    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_never_more_executions_than_naive(self, name):
        factory = CATALOGUE[name]
        naive = sum(1 for _ in explore_all(factory))
        reduced = sum(1 for _ in explore_all_dpor(factory))
        assert reduced <= naive


class TestDifferentialLitmus:
    @pytest.mark.parametrize("name", sorted(CATALOGUE))
    def test_outcome_sets_equal(self, name):
        factory = CATALOGUE[name]
        assert outcomes(factory, dpor=True) == outcomes(factory, dpor=False)

    def test_race_verdict_preserved(self):
        """DPOR preserves *whether* a race exists (counts may differ)."""
        racy = na_publication(RLX, RLX)
        clean = na_publication()
        for factory, expect in ((racy, True), (clean, False)):
            naive = any(r.race is not None for r in explore_all(factory))
            dpor = any(r.race is not None
                       for r in explore_all_dpor(factory))
            assert naive == expect
            assert dpor == expect


def final_outcomes(factory, max_steps):
    """Distinct complete-execution return tuples, DPOR vs naive."""
    out = []
    for source in (explore_all_dpor(factory, max_steps=max_steps),
                   explore_all(factory, max_steps=max_steps)):
        out.append(frozenset(
            tuple(repr(r.returns[tid]) for tid in sorted(r.returns))
            for r in source if r.ok))
    return out


class TestDifferentialScenarios:
    """DPOR-on and DPOR-off must agree on every scenario-level verdict."""

    @pytest.mark.parametrize("spec_fn", [vyukov_spec, hw_spec])
    def test_final_outcome_sets_equal(self, spec_fn):
        factory = build_scenario(spec_fn()).factory
        reduced, naive = final_outcomes(factory, max_steps=400)
        assert reduced == naive

    @pytest.mark.parametrize("spec_fn", [vyukov_spec, hw_spec])
    def test_check_scenario_verdicts_equal(self, spec_fn):
        styles = (SpecStyle.LAT_HB, SpecStyle.LAT_HB_ABS)
        reports = {}
        for dpor in (True, False):
            reports[dpor] = check_scenario(
                build_scenario(spec_fn()), styles=styles, exhaustive=True,
                max_steps=400, dpor=dpor)
        on, off = reports[True], reports[False]
        assert on.exhausted and off.exhausted
        assert on.executions <= off.executions
        # Each pruned branch hides at least one naive execution, so the
        # effective tree size is a lower bound on the naive count.
        assert on.executions + on.pruned_subtrees <= off.executions
        if on.executions < off.executions:
            assert on.pruned_subtrees > 0
        assert off.pruned_subtrees == 0
        assert (on.raced > 0) == (off.raced > 0)
        assert (on.outcome_failures > 0) == (off.outcome_failures > 0)
        for style in styles:
            assert on.styles[style].ok == off.styles[style].ok, style


class TestDifferentialQuick:
    """The CI smoke slice: two litmus tests + one queue scenario."""

    @pytest.mark.parametrize("name", ["MP+rel+acq", "SB+rlx"])
    def test_litmus_outcomes(self, name):
        factory = CATALOGUE[name]
        assert outcomes(factory, dpor=True) == outcomes(factory, dpor=False)

    def test_queue_scenario_sharded_matches_serial(self):
        spec = hw_spec()
        styles = (SpecStyle.LAT_HB,)
        serial = check_scenario(build_scenario(spec), styles=styles,
                                exhaustive=True, max_steps=400)
        sharded = check_scenario(build_scenario(spec), styles=styles,
                                 exhaustive=True, max_steps=400,
                                 workers=4, spec=spec)
        assert serial.pruned_subtrees > 0  # DPOR was actually on
        assert_reports_equal(sharded, serial)
        naive = check_scenario(build_scenario(spec), styles=styles,
                               exhaustive=True, max_steps=400, dpor=False)
        assert serial.executions < naive.executions
        for style in styles:
            assert serial.styles[style].ok == naive.styles[style].ok


class TestShardDpor:
    def test_shard_json_round_trip_with_sleep(self):
        shard = Shard(kind="prefix", prefix=(1, 0, 2),
                      sleep=(Footprint(0, "write", 5, RLX.value),
                             Footprint(2, "read", 6, ACQ.value)))
        assert Shard.from_json(shard.to_json()) == shard
        # Naive shards keep the pre-DPOR wire format.
        assert "sleep" not in Shard(kind="prefix", prefix=(1,)).to_json()

    def test_sharded_union_is_the_serial_enumeration(self):
        """Shards in prefix order concatenate to exactly the serial DPOR
        run — execution for execution, prune for prune."""
        factory = build_scenario(vyukov_spec()).factory
        serial_stats = DporStats()
        serial = [tuple(r.trace) for r in
                  explore_all_dpor(factory, max_steps=400,
                                   stats=serial_stats)]
        shards, planner_pruned = plan_exhaustive_shards(
            factory, target=8, max_steps=400)
        assert len(shards) >= 8
        concat = []
        shard_pruned = 0
        for shard in shards:
            stats = DporStats()
            concat.extend(tuple(r.trace) for r in
                          iter_shard(factory, shard, 400, 100_000,
                                     dpor=True, stats=stats))
            shard_pruned += stats.pruned_subtrees
        assert concat == serial
        assert planner_pruned + shard_pruned == serial_stats.pruned_subtrees


class TestShardDporPerModel:
    """DPOR sharding must stay exact under every memory model: the model
    changes both the enumeration (strengthened modes widen or narrow read
    choices) and the independence relation (TSO atomic reads are
    SC-footprinted), so the planner/iterator pair is re-proven per model.
    """

    SHAPES = ["SB+rlx", "MP+rel+acq", "IRIW+acq"]

    @pytest.mark.parametrize("model", ["sc", "tso", "ra", "orc11"])
    @pytest.mark.parametrize("name", SHAPES)
    def test_sharded_outcomes_match_serial(self, model, name):
        factory = CATALOGUE[name]
        serial = [tuple(r.trace) for r in
                  explore_all_dpor(factory, max_steps=400, model=model)]
        shards, _pruned = plan_exhaustive_shards(
            factory, target=4, max_steps=400, model=model)
        concat = []
        for shard in shards:
            concat.extend(tuple(r.trace) for r in
                          iter_shard(factory, shard, 400, 100_000,
                                     dpor=True, model=model))
        assert concat == serial

    @pytest.mark.parametrize("model", ["sc", "tso", "ra", "orc11"])
    def test_dpor_outcome_set_matches_naive(self, model):
        """Per model, the sleep-set reduction must preserve the outcome
        set of the naive enumeration (the refactored independence check
        consumes model-strengthened footprints)."""
        for name in self.SHAPES:
            factory = CATALOGUE[name]
            assert outcomes(factory, dpor=True, model=model) == \
                outcomes(factory, dpor=False, model=model), (name, model)


# ----------------------------------------------------------------------
# Replay-prefix reuse and the per-thread footprint cache
# ----------------------------------------------------------------------

def msqueue_factory(seed):
    """mixed-stress ms-queue/ra, 3 threads x 2 ops: far too big to exhaust."""
    return build_scenario(ScenarioSpec(
        "mixed-stress", kwargs={"impl": "ms-queue/ra", "threads": 3,
                                "ops": 2, "seed": seed})).factory


def vyukov_t2xo2_factory():
    """mixed-stress vyukov-queue/rlx, 2 threads x 2 ops: 6422 executions."""
    return build_scenario(ScenarioSpec(
        "mixed-stress", kwargs={"impl": "vyukov-queue/rlx", "threads": 2,
                                "ops": 2, "seed": 0})).factory


def replay_record(decider):
    """What one replay leaves behind for backtracking and telemetry."""
    return (list(decider.trace), list(decider.footprints),
            list(decider.entry_sleeps), decider.pruned)


def reference_replays(factory, max_steps=2_000, max_executions=200_000,
                      prefix=(), sleep=(), sc_upgrade=False, model=None):
    """The replay loop without prefix reuse: a fresh `SleepSetDecider`
    per replay that computes every footprint and sleep set itself."""
    base = list(prefix)
    entry = {fp.thread: fp for fp in sleep}
    cur = list(base)
    stats = DporStats()
    replays = []
    executions = 0
    while executions < max_executions:
        decider = SleepSetDecider(cur, pin=len(base), entry_sleep=entry)
        try:
            factory().run(decider, max_steps=max_steps,
                          sc_upgrade=sc_upgrade, model=model)
            executions += 1
        except SleepSetCut:
            pass
        stats.pruned_subtrees += decider.pruned
        replays.append(replay_record(decider))
        nxt = _next_prefix(decider, len(base), stats)
        if nxt is None:
            break
        cur = nxt
    return replays, stats


def reusing_replays(monkeypatch, factory, max_steps=2_000,
                    max_executions=200_000, prefix=(), sleep=(),
                    sc_upgrade=False, model=None):
    """`explore_all_dpor`'s own replays, recorded decider by decider."""
    deciders = []

    class Recording(SleepSetDecider):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            deciders.append(self)

    stats = DporStats()
    with monkeypatch.context() as patch:
        patch.setattr(dpor, "SleepSetDecider", Recording)
        for _ in explore_all_dpor(factory, max_steps=max_steps,
                                  max_executions=max_executions,
                                  prefix=prefix, sleep=sleep, stats=stats,
                                  sc_upgrade=sc_upgrade, model=model):
            pass
    assert sum(1 for d in deciders if d.reused) == len(deciders) - 1
    return [replay_record(d) for d in deciders], stats


def assert_reuse_equivalent(monkeypatch, factory, **kwargs):
    want, want_stats = reference_replays(factory, **kwargs)
    got, got_stats = reusing_replays(monkeypatch, factory, **kwargs)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"replay {i} differs"
    assert got_stats == want_stats


class TestReplayPrefixReuse:
    """Reusing the previous replay's prefix records changes no replay:
    traces, footprints, entry sleep sets, pruned counts and `DporStats`
    all equal the loop that rebuilds them on every replay."""

    @pytest.mark.parametrize("model", ["sc", "tso", "ra", "orc11"])
    def test_litmus_catalogue_per_model(self, monkeypatch, model):
        for name in sorted(CATALOGUE):
            assert_reuse_equivalent(monkeypatch, CATALOGUE[name],
                                    model=model)

    def test_litmus_catalogue_sc_upgrade(self, monkeypatch):
        for name in sorted(CATALOGUE):
            assert_reuse_equivalent(monkeypatch, CATALOGUE[name],
                                    sc_upgrade=True)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_msqueue_capped(self, monkeypatch, seed):
        assert_reuse_equivalent(monkeypatch, msqueue_factory(seed),
                                max_steps=20_000, max_executions=500)

    def test_vyukov_exhausted(self, monkeypatch):
        assert_reuse_equivalent(monkeypatch, vyukov_t2xo2_factory(),
                                max_steps=20_000)

    def test_every_shard_root(self, monkeypatch):
        cases = [(vyukov_t2xo2_factory(), 8, None)]
        cases += [(CATALOGUE[name], 4, model)
                  for name in TestShardDporPerModel.SHAPES
                  for model in ("sc", "tso", "ra", "orc11")]
        roots = 0
        for factory, target, model in cases:
            shards, _pruned = plan_exhaustive_shards(
                factory, target=target, max_steps=20_000, model=model)
            for shard in shards:
                assert_reuse_equivalent(monkeypatch, factory,
                                        max_steps=20_000,
                                        prefix=shard.prefix,
                                        sleep=shard.sleep, model=model)
                roots += bool(shard.sleep)
        assert roots  # some roots start with threads already asleep


class FootprintAuditor(Decider):
    """Random choices; at every scheduling decision, fetches the
    machine's footprints and compares each with a fresh `op_footprint`."""

    wants_footprints = True

    def __init__(self, seed, sc_upgrade, model):
        super().__init__()
        self.rng = random.Random(seed)
        self.sc_upgrade = sc_upgrade
        self.model = model
        self.machine = None
        self.audited = 0

    def choose(self, n, footprints=None):
        if footprints is not None:
            threads = self.machine.threads
            enabled = [t.tid for t in threads if not t.finished]
            assert len(enabled) == n
            want = tuple(op_footprint(tid, threads[tid].pending,
                                      self.sc_upgrade, self.model)
                         for tid in enabled)
            assert footprints() == want
            self.audited += 1
        return super().choose(n)

    def _choose(self, n):
        return self.rng.randrange(n)


class TestFootprintCache:
    """The per-thread footprint cache never goes stale, and deciders that
    do not want footprints cost none."""

    @pytest.mark.parametrize("model,sc_upgrade",
                             [("orc11", False), ("tso", False),
                              ("orc11", True)])
    def test_cached_footprints_match_fresh(self, model, sc_upgrade):
        factories = [CATALOGUE[name] for name in sorted(CATALOGUE)]
        factories += [msqueue_factory(0), vyukov_t2xo2_factory()]
        audited = 0
        for factory in factories:
            for seed in range(20):
                decider = FootprintAuditor(seed, sc_upgrade, model)
                machine = Machine(factory(), decider, max_steps=20_000,
                                  sc_upgrade=sc_upgrade, model=model)
                decider.machine = machine
                machine.run()
                audited += decider.audited
        assert audited > 1_000

    def test_random_decider_computes_no_footprint(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return op_footprint(*args, **kwargs)

        monkeypatch.setattr(machine_mod, "op_footprint", counting)
        factory = msqueue_factory(0)
        for seed in range(5):
            factory().run(RandomDecider(seed), max_steps=20_000)
        assert calls == []
        # The patch point is live: a DPOR replay does compute footprints.
        next(explore_all_dpor(factory, max_steps=20_000))
        assert calls
