"""Explorer tests: exhaustiveness, replay fidelity, statistics."""

import itertools

import pytest

from repro.checking import Scenario, check_scenario
from repro.rmc import (RLX, Load, Program, Store, explore_all, explore_random,
                       replay)


def counter_prog(n_threads):
    def setup(mem):
        return {"x": mem.alloc("x", 0)}

    def t(env):
        yield Store(env["x"], 1, RLX)
    return lambda: Program(setup, [t] * n_threads)


class TestExhaustive:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 6)])
    def test_interleaving_counts_write_only(self, n, expected):
        """n single-write threads have n! schedules (no read choices)."""
        count = sum(1 for _ in explore_all(counter_prog(n)))
        assert count == expected

    def test_read_choices_multiply_executions(self):
        def setup(mem):
            return {"x": mem.alloc("x", 0)}

        def w(env):
            yield Store(env["x"], 1, RLX)

        def r(env):
            return (yield Load(env["x"], RLX))
        # Schedules: 3 orders (w first / r first / interleaved is same as
        # one of those with 2 ops total: actually orders = C(2,1) = 2);
        # when w ran first the read has 2 visible messages.
        results = list(explore_all(lambda: Program(setup, [w, r])))
        reads = sorted(res.returns[1] for res in results)
        assert reads == [0, 0, 1]

    def test_every_execution_is_distinct_trace(self):
        traces = [tuple(r.trace) for r in explore_all(counter_prog(3))]
        assert len(traces) == len(set(traces))

    def test_max_executions_caps(self):
        count = sum(1 for _ in explore_all(counter_prog(3),
                                           max_executions=4))
        assert count == 4

    def test_truncated_subtrees_are_backtracked(self):
        def setup(mem):
            return {"x": mem.alloc("x", 0)}

        def spin(env):
            while (yield Load(env["x"], RLX)) == 0:
                pass

        def w(env):
            yield Store(env["x"], 1, RLX)
        results = list(explore_all(lambda: Program(setup, [spin, w]),
                                   max_steps=12, max_executions=5_000))
        assert any(r.truncated for r in results)
        assert any(r.ok for r in results)


class TestRandom:
    def test_seeded_reproducibility(self):
        a = [r.returns for r in explore_random(counter_prog(3), 20, seed=5)]
        b = [r.returns for r in explore_random(counter_prog(3), 20, seed=5)]
        assert a == b

    def test_run_count(self):
        assert sum(1 for _ in explore_random(counter_prog(2), 17)) == 17


class TestReplay:
    def test_replay_every_explored_trace(self):
        factory = counter_prog(2)
        for r in explore_all(factory):
            again = replay(factory, r.trace)
            assert again.returns == r.returns
            assert again.steps == r.steps

    def test_replay_random_execution_with_reads(self):
        def setup(mem):
            return {"x": mem.alloc("x", 0)}

        def w(env):
            yield Store(env["x"], 1, RLX)
            yield Store(env["x"], 2, RLX)

        def r(env):
            a = yield Load(env["x"], RLX)
            b = yield Load(env["x"], RLX)
            return (a, b)
        factory = lambda: Program(setup, [w, r])
        for res in explore_random(factory, 30, seed=3):
            assert replay(factory, res.trace).returns == res.returns


class TestOutcomeCheck:
    """A whole-execution property is checked by `check_scenario` with a
    `Scenario(outcome_check=...)`; every execution lands in its report."""

    @staticmethod
    def scenario(n_threads, outcome_check=None):
        return Scenario(name=f"counter{n_threads}",
                        factory=counter_prog(n_threads),
                        extract=lambda result: [],
                        outcome_check=outcome_check)

    def test_exhaustive_marks_exhausted(self):
        report = check_scenario(self.scenario(2), exhaustive=True)
        assert report.exhausted
        assert report.executions == 2
        assert report.complete == 2

    def test_violations_are_reported(self):
        def check(result):
            raise AssertionError("boom")
        report = check_scenario(self.scenario(1, check), exhaustive=True)
        assert report.outcome_failures == 1
        assert report.outcome_examples == ["boom"]
        assert report.outcome_traces == [[(1, 0)]]

    def test_random_mode(self):
        report = check_scenario(self.scenario(2), runs=25)
        assert report.executions == 25
        assert not report.exhausted

    def test_report_counts_steps(self):
        report = check_scenario(self.scenario(2), exhaustive=True)
        assert report.steps == 4  # 2 executions x 2 ops
