"""E9 — microbenchmarks and ablations of the framework itself.

Measures the knobs DESIGN.md calls out: machine step throughput, the cost
of race detection, the cost of event/ghost instrumentation, view-join
cost, exploration throughput, the sleep-set DPOR tree reduction, and
what the engine's robustness layers cost.  Most are true repeated-timing
benchmarks (pytest-benchmark statistics apply); the reduction and
overhead rows are single timed runs recorded — via ``bench_record`` —
into ``BENCH_micro.json`` at the repo root.  Engine and distributed
scaling are measured on real campaigns by ``campaignbench/`` (its
pool-capped and dist-exhaustive workloads).
"""

import os
import time

import pytest

from repro.checking import mixed_stress
from repro.libs import MSQueue, RELACQ, VyukovQueue
from repro.rmc import (ACQ, REL, RLX, DporStats, Load, Program,
                       RandomDecider, Store, View, explore_all,
                       explore_all_dpor)
from repro.rmc.litmus import CATALOGUE


def counter_program(ops=200):
    def setup(mem):
        return {"x": mem.alloc("x", 0), "f": mem.alloc("f", 0)}

    def producer(env):
        for i in range(ops):
            yield Store(env["x"], i, RLX)
            yield Store(env["f"], i, REL)

    def consumer(env):
        for _ in range(ops):
            yield Load(env["f"], ACQ)
            yield Load(env["x"], RLX)
    return Program(setup, [producer, consumer])


class TestMachineThroughput:
    def test_steps_with_race_detection(self, benchmark):
        def run():
            r = counter_program().run(RandomDecider(1))
            assert r.ok
            return r.steps
        steps = benchmark(run)
        assert steps == 800

    def test_steps_without_race_detection(self, benchmark):
        def run():
            r = counter_program().run(RandomDecider(1),
                                      race_detection=False)
            return r.steps
        assert benchmark(run) == 800


class TestInstrumentationCost:
    def test_queue_workload_with_events(self, benchmark):
        factory = mixed_stress(lambda m: MSQueue.setup(m, "q", RELACQ),
                               "queue", threads=2, ops_per_thread=4, seed=1)

        def run():
            r = factory().run(RandomDecider(2))
            assert r.ok
            return len(r.env["lib"].registry.events)
        events = benchmark(run)
        assert events > 0

    def test_graph_construction(self, benchmark):
        factory = mixed_stress(lambda m: MSQueue.setup(m, "q", RELACQ),
                               "queue", threads=3, ops_per_thread=4, seed=2)
        result = factory().run(RandomDecider(3))
        lib = result.env["lib"]
        g = benchmark(lib.graph)
        assert len(g.events) > 0


class TestViewOps:
    def test_join_disjoint(self, benchmark):
        a = View({i: i for i in range(1, 40)})
        b = View({i: i for i in range(40, 80)})
        benchmark(a.join, b)

    def test_join_subsumed(self, benchmark):
        a = View({i: i for i in range(1, 80)})
        b = View({i: i for i in range(1, 10)})
        out = benchmark(a.join, b)
        assert out is a

    def test_leq(self, benchmark):
        a = View({i: i for i in range(1, 60)})
        b = View({i: i + 1 for i in range(1, 60)})
        assert benchmark(a.leq, b)


class TestExplorationThroughput:
    def test_exhaustive_enumeration(self, benchmark):
        def setup(mem):
            return {"x": mem.alloc("x", 0)}

        def w(env):
            yield Store(env["x"], 1, RLX)
            yield Store(env["x"], 2, RLX)

        def r(env):
            yield Load(env["x"], RLX)
            yield Load(env["x"], RLX)

        def run():
            return sum(1 for _ in explore_all(
                lambda: Program(setup, [w, r])))
        count = benchmark(run)
        assert count > 10


class TestDporReduction:
    def test_tree_reduction(self, report, bench_record):
        """Naive vs sleep-set-DPOR execution counts on three
        representative scenarios, at equal final-outcome coverage.

        The independent-writer scenario is the paper-style best case
        (n! schedules collapse to one); the litmus and queue scenarios
        show the reduction on real workloads with genuine data
        nondeterminism mixed in.
        """
        def writers(n):
            def setup(mem):
                return [mem.alloc(f"x{i}", 0) for i in range(n)]

            def writer(i):
                def body(env):
                    yield Store(env[i], 1, RLX)
                return body
            return lambda: Program(setup, [writer(i) for i in range(n)])

        scenarios = [
            ("writers-3-independent", writers(3), 2_000),
            ("litmus:IRIW+acq", CATALOGUE["IRIW+acq"], 2_000),
            ("vyukov-queue[t2xo1]",
             mixed_stress(lambda m: VyukovQueue.setup(m, "q", capacity=16),
                          "queue", threads=2, ops_per_thread=1, seed=0),
             400),
        ]
        rows = []
        recorded = []
        for name, factory, max_steps in scenarios:
            def outcome_key(result):
                return tuple(repr(result.returns[t])
                             for t in sorted(result.returns))

            t0 = time.perf_counter()
            naive_out = set()
            naive = 0
            for r in explore_all(factory, max_steps=max_steps):
                naive += 1
                if r.ok:
                    naive_out.add(outcome_key(r))
            naive_s = time.perf_counter() - t0
            stats = DporStats()
            t0 = time.perf_counter()
            dpor_out = set()
            reduced = 0
            for r in explore_all_dpor(factory, max_steps=max_steps,
                                      stats=stats):
                reduced += 1
                if r.ok:
                    dpor_out.add(outcome_key(r))
            dpor_s = time.perf_counter() - t0
            assert dpor_out == naive_out  # equal outcome coverage
            assert reduced <= naive
            ratio = naive / reduced if reduced else float("inf")
            rows.append(
                f"{name:<24} naive {naive:>5} ({naive / max(naive_s, 1e-9):>9,.0f}/s)"  # noqa: E501
                f"  dpor {reduced:>5} ({reduced / max(dpor_s, 1e-9):>9,.0f}/s)"  # noqa: E501
                f"  pruned {stats.pruned_subtrees:>5}  {ratio:5.1f}x")
            recorded.append({
                "scenario": name,
                "naive_executions": naive,
                "dpor_executions": reduced,
                "pruned_subtrees": stats.pruned_subtrees,
                "reduction_factor": round(ratio, 3),
                "naive_exec_per_sec": round(naive / max(naive_s, 1e-9), 1),
                "dpor_exec_per_sec": round(reduced / max(dpor_s, 1e-9), 1),
            })
        # The acceptance bar: >= 2x fewer executions on at least one
        # 3-thread scenario (the independent writers give 6x).
        assert any(r["naive_executions"] >= 2 * r["dpor_executions"]
                   for r in recorded)
        bench_record("dpor-tree-reduction", scenarios=recorded)
        report("E9 DPOR tree reduction (naive vs sleep sets)",
               "\n".join(rows))


class TestModelMatrix:
    def test_litmus_throughput_per_model(self, report, bench_record):
        """Exec/s per memory model on the full litmus catalogue.

        The same catalogue is enumerated (sleep-set DPOR) under each of
        the four shipped models (docs/memory_model.md).  Strengthening
        cuts both ways: stronger modes narrow read choices (fewer
        executions) but couple more operations through global views
        (less DPOR pruning — under TSO every atomic read is
        SC-footprinted), so the row makes the trade measurable.
        """
        from repro.models import LATTICE

        rows = []
        recorded = {}
        execs = {}
        for model in LATTICE:
            t0 = time.perf_counter()
            count = 0
            for name in CATALOGUE:
                count += sum(1 for _ in explore_all_dpor(
                    CATALOGUE[name], max_steps=2_000, model=model))
            secs = time.perf_counter() - t0
            execs[model] = count
            recorded[model] = round(count / max(secs, 1e-9), 1)
            rows.append(f"{model:<6}: {count:>6} exec in {secs:6.2f}s = "
                        f"{recorded[model]:>9,.1f} exec/s")
        bench_record("model-matrix", scenarios=len(CATALOGUE),
                     executions=execs, exec_per_sec=recorded)
        report(f"E9 model matrix — litmus catalogue "
               f"({len(CATALOGUE)} scenarios x {len(LATTICE)} models)",
               "\n".join(rows))


class TestEngineOverhead:
    def test_hedge_audit_overhead(self, report, bench_record):
        """What arming hedging + a 10% audit costs a clean 2-worker run.

        The same exhaustive tree runs with both layers off and with
        ``hedge=True, audit_fraction=0.1``; on a healthy run the hedge
        deadline never fires, so the price is the estimator bookkeeping
        plus re-executing ~10% of shards in the driver — and the audits
        overlap the workers, so the wall-clock overhead must stay under
        10% (medians over alternated trials; merged counts must be
        identical and no divergence may be found).  Many small shards
        keep the one audit that *cannot* overlap — the last shard to
        complete — cheap even on a single core.
        """
        import statistics

        from repro.engine import (EngineParams, ScenarioSpec,
                                  build_scenario, run_scenario)

        spec = ScenarioSpec("mixed-stress",
                            kwargs={"impl": "ms-queue/ra", "threads": 3,
                                    "ops": 1, "seed": 0})
        scenario = build_scenario(spec)
        base = dict(styles=(), exhaustive=True, max_steps=400,
                    max_executions=100_000, workers=2, target_shards=32)
        plain_s, armed_s = [], []
        execs = set()
        for _ in range(5):
            plain = run_scenario(scenario, EngineParams(**base), spec=spec)
            armed = run_scenario(
                scenario, EngineParams(hedge=True, audit_fraction=0.1,
                                       **base), spec=spec)
            assert armed.report.executions == plain.report.executions
            assert armed.telemetry.audit_divergences == 0
            assert armed.telemetry.hedge_wins == 0  # nothing straggled
            execs.add(plain.report.executions)
            plain_s.append(plain.telemetry.wall_seconds)
            armed_s.append(armed.telemetry.wall_seconds)
        med_plain = statistics.median(plain_s)
        med_armed = statistics.median(armed_s)
        ratio = med_armed / max(med_plain, 1e-9)
        rate_plain = execs.pop() / max(med_plain, 1e-9)
        rate_armed = rate_plain * med_plain / max(med_armed, 1e-9)
        bench_record("hedge-overhead",
                     plain_s=round(med_plain, 3),
                     armed_s=round(med_armed, 3),
                     plain_exec_per_sec=round(rate_plain, 1),
                     armed_exec_per_sec=round(rate_armed, 1),
                     ratio=round(ratio, 3))
        report("E9 hedge+audit overhead (clean run, 2 workers, "
               "audit-fraction 0.1)",
               f"off : {med_plain:6.2f}s = {rate_plain:>8,.0f} exec/s\n"
               f"on  : {med_armed:6.2f}s = {rate_armed:>8,.0f} exec/s "
               f"(ratio {ratio:.3f})")
        assert ratio <= 1.10, \
            f"hedge+audit overhead {ratio:.3f} exceeds the 10% target"

    def test_fault_recovery_overhead(self, report):
        """What one injected worker crash costs a 2-worker run.

        The same exhaustive scenario runs clean and with a
        crash-on-first-attempt fault plan; the recovery machinery
        (lease requeue on the closed channel, a replacement node) shows
        up as the wall-clock delta, while the merged counts must be
        unaffected.
        """
        from repro.engine import (EngineParams, Fault, FaultPlan,
                                  ScenarioSpec, build_scenario,
                                  run_scenario)

        spec = ScenarioSpec("mixed-stress",
                            kwargs={"impl": "ms-queue/ra", "threads": 3,
                                    "ops": 1, "seed": 0})
        scenario = build_scenario(spec)
        params = EngineParams(styles=(), exhaustive=True, max_steps=400,
                              max_executions=100_000, workers=2,
                              shard_timeout=5.0)
        clean = run_scenario(scenario, params, spec=spec)
        plan = FaultPlan((Fault("worker.explore", "crash", shard=1,
                                attempt=1),))
        with plan:
            faulted = run_scenario(scenario, params, spec=spec)
        assert faulted.report.executions == clean.report.executions
        assert faulted.telemetry.retries >= 1
        overhead = (faulted.telemetry.wall_seconds
                    - clean.telemetry.wall_seconds)
        report("E9 fault-recovery overhead (1 worker crash, 2 workers)",
               f"clean   : {clean.telemetry.wall_seconds:6.2f}s\n"
               f"crashed : {faulted.telemetry.wall_seconds:6.2f}s "
               f"({faulted.telemetry.retries} retries)\n"
               f"overhead: {overhead:+6.2f}s")


class TestDurableIoOverhead:
    def test_vfs_append_overhead(self, report, bench_record, tmp_path):
        """What routing the hot append path through `repro.engine.vfs`
        costs over calling ``os`` directly.

        Two measurements, because fsync latency dominates and is noisy:
        interleaved paired batches give the end-to-end ratio (medians),
        and an fsync-stubbed pass isolates the indirection cost itself,
        which must stay under 5% of a real durable append.  The
        happy-path discipline this guards: no size probe before the
        write (an ``fstat`` there costs as much as a second fsync on
        some filesystems) — rollback reconstructs the pre-call length
        on the error path only.
        """
        import statistics

        from repro.engine import vfs

        rec = (b'{"v":1,"crc":"deadbeef","rec":"grant",'
               b'"job":"job-0001","shard":7,"token":13}\n')

        def direct_append(path, data):
            fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o644)
            try:
                done = 0
                while done < len(data):
                    done += os.write(fd, data[done:])
                os.fsync(fd)
            finally:
                os.close(fd)

        v = vfs.OsVFS()
        pa = str(tmp_path / "direct.jsonl")
        pb = str(tmp_path / "vfs.jsonl")
        n, trials = 150, 9
        direct_us, vfs_us, ratios = [], [], []
        for _ in range(trials):
            t0 = time.perf_counter()
            for _ in range(n):
                direct_append(pa, rec)
            t1 = time.perf_counter()
            for _ in range(n):
                v.append_blob(pb, rec, site="bench.append")
            t2 = time.perf_counter()
            direct_us.append((t1 - t0) / n * 1e6)
            vfs_us.append((t2 - t1) / n * 1e6)
            ratios.append((t2 - t1) / (t1 - t0))
        med_direct = statistics.median(direct_us)
        med_vfs = statistics.median(vfs_us)
        med_ratio = statistics.median(ratios)

        # With the barrier stubbed out, the remaining delta is exactly
        # what the vfs layer adds: the shim lookup, the wrapper frames,
        # the write-all loop bookkeeping.
        m, real_fsync = 2000, os.fsync
        try:
            os.fsync = lambda fd: None
            t0 = time.perf_counter()
            for _ in range(m):
                direct_append(pa, rec)
            t1 = time.perf_counter()
            for _ in range(m):
                v.append_blob(pb, rec, site="bench.append")
            t2 = time.perf_counter()
        finally:
            os.fsync = real_fsync
        indirection_us = ((t2 - t1) - (t1 - t0)) / m * 1e6

        bench_record("vfs-append-overhead",
                     direct_us=round(med_direct, 2),
                     vfs_us=round(med_vfs, 2),
                     ratio=round(med_ratio, 3),
                     indirection_us=round(indirection_us, 3))
        report("E9 vfs append overhead (hot durable path)",
               f"direct os.write+fsync : {med_direct:7.2f} us/append\n"
               f"vfs append_blob       : {med_vfs:7.2f} us/append "
               f"(median ratio {med_ratio:.3f})\n"
               f"indirection alone     : {indirection_us:+7.3f} us/append "
               f"(fsync stubbed)")
        # The 5% claim: the indirection's own cost vs a real durable
        # append.  The end-to-end ratio only gets a loose regression
        # guard — fsync jitter swamps a tight bound.
        assert indirection_us <= 0.05 * med_direct, \
            f"vfs indirection {indirection_us:.2f}us exceeds 5% of " \
            f"direct append ({med_direct:.2f}us)"
        assert med_ratio <= 1.25
