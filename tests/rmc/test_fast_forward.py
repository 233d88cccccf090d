"""The DPOR prefix fast-forward changes no execution.

`explore_all_dpor` fast-forwards each replay through the steps it
shares with the previous replay (`Machine._forward`): thread code and
commit hooks run again, while the memory-model effects come from the
previous replay's step records.  For every replay it yields, this suite
re-runs the replay's trace from scratch under a `FixedDecider` that
records every step itself, and compares the two runs' observables
(`execution_record`: every message's value, writer, clock and view, the
SC view, commit sequence, returns, race and graphs, plus each location's
read marks) and step records.

The shipped libraries' hooks plant their ghost before they read the
view, so they cannot tell the state at the hook from the state after
the step.  Two probe programs make the rest observable: hooks that
report everything they can see before planting a ghost, and a race that
only a fast-forwarded read's mark detects.
"""

from collections import Counter

import pytest

from repro.checking.matrix import default_implementations
from repro.engine import ScenarioSpec, build_scenario
from repro.engine.shard import plan_exhaustive_shards
from repro.rmc import dpor, explore_all_dpor
from repro.rmc import machine as machine_mod
from repro.rmc.litmus import CATALOGUE
from repro.rmc.modes import ACQ, ACQ_REL, NA, REL, RLX, SC
from repro.rmc.ops import Cas, Faa, Fence, Load, Store, Xchg
from repro.rmc.program import Program
from repro.rmc.scheduler import FixedDecider

from .test_machine_golden import execution_record, view_items

MODELS = ("sc", "tso", "ra", "orc11")


class ScratchDecider(FixedDecider):
    """Replays a trace from scratch, recording every step itself."""

    wants_records = True

    def __init__(self, trace):
        super().__init__(trace)
        self.records = []


def assert_forward_faithful(monkeypatch, factory, extract=None, tally=None,
                            max_steps=2_000, race_detection=True,
                            sc_upgrade=False, model=None, **explore):
    """Every replay ``explore_all_dpor`` yields equals a scratch replay
    of its trace; returns how many replays were compared.  ``tally``
    (a Counter) gets the ``steps`` the replays executed and how many of
    them were ``forwarded``."""
    deciders = []

    class Recording(dpor.SleepSetDecider):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            deciders.append(self)

    tally = Counter() if tally is None else tally
    forward = machine_mod.Machine._forward

    def counting(machine, records):
        tally["forwarded"] += len(records)
        return forward(machine, records)

    compared = 0
    with monkeypatch.context() as patch:
        patch.setattr(dpor, "SleepSetDecider", Recording)
        patch.setattr(machine_mod.Machine, "_forward", counting)
        for result in explore_all_dpor(
                factory, max_steps=max_steps, race_detection=race_detection,
                sc_upgrade=sc_upgrade, model=model, **explore):
            decider = deciders[-1]
            assert decider.trace is result.trace
            scratch = ScratchDecider(result.trace)
            fresh = factory().run(scratch, max_steps=max_steps,
                                  race_detection=race_detection,
                                  sc_upgrade=sc_upgrade, model=model)
            assert observables(result, extract) \
                == observables(fresh, extract), f"replay {compared}"
            assert decider.records == scratch.records, f"replay {compared}"
            compared += 1
    tally["steps"] += sum(len(d.records) for d in deciders)
    return compared


def observables(result, extract):
    """`execution_record` plus what only later races read: the marks."""
    marks = [[loc, sorted(cell.na_read_marks.items()),
              sorted(cell.at_read_marks.items()), cell.has_na_write]
             for loc, cell in sorted(result.memory.locations.items())]
    return execution_record(result, extract), marks


def hook_probe():
    """Hooks that return what they saw: the op's mode, the thread's
    views and clock and the SC view, before planting a ghost."""
    def observe(seen):
        def hook(ctx):
            th, memory = ctx.thread, ctx.machine.memory
            seen.append((ctx.op.mode.value, view_items(th.view),
                         view_items(th.rel_view), view_items(th.acq_cache),
                         th.clock, view_items(memory.sc_view)))
            ctx.add_ghost(memory.alloc_ghost("probe"))
        return hook

    def setup(mem):
        return {"x": mem.alloc("x"), "y": mem.alloc("y")}

    def first(env):
        seen = []
        yield Store(env["x"], 1, SC, commit=observe(seen))
        yield Load(env["y"], RLX, commit=observe(seen))
        yield Fence(REL)
        yield Faa(env["y"], 2, RLX, commit=observe(seen))
        return tuple(seen)

    def second(env):
        seen = []
        yield Store(env["y"], 1, RLX, commit=observe(seen))
        yield Cas(env["x"], 1, 5, ACQ_REL, commit=observe(seen),
                  commit_fail=observe(seen))
        yield Xchg(env["x"], 7, ACQ, commit=observe(seen))
        yield Load(env["x"], SC, commit=observe(seen))
        return tuple(seen)

    return Program(setup, [first, second], "hook-probe")


def mark_probe():
    """Write-after-read races: only the reads' marks detect them."""
    def setup(mem):
        return {"x": mem.alloc("x"), "y": mem.alloc("y")}

    def reader(env):
        yield Load(env["x"], NA)
        yield Load(env["y"], RLX)

    def writer(env):
        yield Store(env["y"], 1, NA)
        yield Store(env["x"], 1, NA)

    return Program(setup, [reader, writer], "mark-probe")


class TestProbes:
    @pytest.mark.parametrize("model", MODELS)
    def test_hooks_see_their_own_state(self, monkeypatch, model):
        assert assert_forward_faithful(monkeypatch, hook_probe, model=model)

    def test_hooks_see_the_sc_upgrade(self, monkeypatch):
        assert assert_forward_faithful(monkeypatch, hook_probe,
                                       sc_upgrade=True)

    def test_fast_forwarded_reads_keep_their_marks(self, monkeypatch):
        kinds = {r.race.kind for r in explore_all_dpor(mark_probe)}
        assert "na-write vs unsynchronized read" in kinds
        assert assert_forward_faithful(monkeypatch, mark_probe)


def mixed(impl, threads, ops, seed=0):
    return build_scenario(ScenarioSpec("mixed-stress", kwargs={
        "impl": impl, "threads": threads, "ops": ops, "seed": seed}))


class TestLitmus:
    @pytest.mark.parametrize("model", MODELS)
    def test_catalogue_per_model(self, monkeypatch, model):
        for name in sorted(CATALOGUE):
            assert assert_forward_faithful(monkeypatch, CATALOGUE[name],
                                           model=model)

    def test_catalogue_sc_upgrade(self, monkeypatch):
        for name in sorted(CATALOGUE):
            assert assert_forward_faithful(monkeypatch, CATALOGUE[name],
                                           sc_upgrade=True)

    def test_catalogue_race_detection_off(self, monkeypatch):
        for name in sorted(CATALOGUE):
            assert assert_forward_faithful(monkeypatch, CATALOGUE[name],
                                           race_detection=False)


#: Rows whose leftmost schedules spin until ``max_steps``.
SPINNING = ("locked-queue", "locked-stack")


class TestLibraries:
    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)],
                             ids=["t3xo2", "t2xo3"])
    def test_every_matrix_row(self, monkeypatch, shape):
        for row in default_implementations():
            scenario = mixed(row.name, *shape)
            max_steps = 300 if row.name in SPINNING else 20_000
            assert assert_forward_faithful(
                monkeypatch, scenario.factory, scenario.extract,
                max_steps=max_steps, max_executions=60)

    def test_broken_mutant_races(self, monkeypatch):
        # Scenario seed 2 reaches the mutant's race within a few replays.
        scenario = mixed("ms-queue/broken-rlx", 3, 2, seed=2)
        raced = []
        for result in explore_all_dpor(scenario.factory, max_steps=20_000,
                                       max_executions=100):
            raced.append(result.race is not None)
        assert 0 < sum(raced) < len(raced)
        assert assert_forward_faithful(monkeypatch, scenario.factory,
                                       scenario.extract, max_steps=20_000,
                                       max_executions=100)

    @pytest.mark.parametrize("builder,kwargs", [
        ("elim-only", {}),
        ("exchanger-pair", {}),
        ("wsdeque", {}),
        ("seqlock", {}),
        ("lock-counter", {"impl": "spin"}),
        ("lock-counter", {"impl": "ticket"}),
        ("lock-counter", {"impl": "peterson"}),
        ("spsc", {"impl": "ms", "n": 2}),
        ("spsc", {"impl": "hw", "n": 2}),
    ])
    def test_builder(self, monkeypatch, builder, kwargs):
        scenario = build_scenario(ScenarioSpec(builder, kwargs=kwargs))
        assert assert_forward_faithful(
            monkeypatch, scenario.factory, scenario.extract, max_steps=300,
            max_executions=60)

    def test_truncating_max_steps(self, monkeypatch):
        scenario = mixed("ms-queue/ra", 3, 2)
        truncated = [r.truncated for r in explore_all_dpor(
            scenario.factory, max_steps=35, max_executions=200)]
        assert 0 < sum(truncated) < len(truncated)
        assert assert_forward_faithful(monkeypatch, scenario.factory,
                                       scenario.extract, max_steps=35,
                                       max_executions=200)

    def test_shard_root(self, monkeypatch):
        scenario = mixed("vyukov-queue/rlx", 2, 2)
        shards, _pruned = plan_exhaustive_shards(
            scenario.factory, target=8, max_steps=20_000)
        shard = next(s for s in shards if s.sleep and s.prefix)
        assert assert_forward_faithful(
            monkeypatch, scenario.factory, scenario.extract,
            max_steps=20_000, max_executions=150, prefix=shard.prefix,
            sleep=shard.sleep)


def test_most_steps_are_fast_forwarded(monkeypatch):
    """Not vacuous: on the benchmark's ms-queue/ra t3xo2 campaign most
    steps skip the memory model."""
    tally = Counter()
    scenario = mixed("ms-queue/ra", 3, 2)
    assert assert_forward_faithful(monkeypatch, scenario.factory,
                                   scenario.extract, tally=tally,
                                   max_steps=20_000,
                                   max_executions=500) == 500
    assert tally["forwarded"] >= 0.7 * tally["steps"]
