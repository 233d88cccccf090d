"""The chaos acceptance tests: convergence under injected faults.

The full matrix runs as ``python -m repro chaos`` (and as a CI smoke
job); here we run the acceptance cells directly — four workers, the
crash+hang+torn-write triple — and assert the merged report is
identical to the fault-free serial run with no child process leaked.
"""

import copy
import multiprocessing

import pytest

from repro.engine.audit import report_divergence
from repro.engine.chaos import (ChaosCase, baseline_report, build_cases,
                                run_case)
from repro.engine.faults import Fault, FaultPlan

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="chaos pool cells assume the fork start method")


class TestReportMismatches:
    def test_equal_reports_have_no_mismatches(self):
        base = baseline_report(exhaustive=True)
        assert report_divergence(base, base) is None

    def test_differences_are_reported(self):
        a = baseline_report(exhaustive=True)
        b = baseline_report(exhaustive=False)
        assert report_divergence(a, b)  # different modes differ

    def test_prune_accounting_drift_is_reported(self):
        """Every report field but ``seconds`` counts: a row whose DPOR
        prune accounting drifted must not pass."""
        base = baseline_report(exhaustive=True)
        drifted = copy.deepcopy(base)
        drifted.pruned_subtrees += 1
        drifted.seconds += 1.0
        assert report_divergence(base, drifted) == (
            f"report differs at $.pruned_subtrees: "
            f"{base.pruned_subtrees + 1} != {base.pruned_subtrees}")


class TestChaosMatrix:
    def test_matrix_covers_the_required_kinds(self):
        names = " ".join(c.name for c in build_cases(max_workers=4))
        for kind in ("crash", "hang", "raise", "corrupt-result",
                     "torn-write"):
            assert kind in names
        assert "w4" in names and "w1" in names
        assert "exhaustive" in names and "random" in names

    @needs_fork
    @pytest.mark.parametrize("exhaustive", [True, False],
                             ids=["exhaustive", "random"])
    def test_crash_hang_torn_converges_with_four_workers(self, exhaustive):
        """The acceptance triple: a crashed worker, a hung worker, and a
        torn checkpoint+corpus write in one four-worker run — followed by
        a resume — must reproduce the fault-free report exactly and leak
        no child process."""
        case = ChaosCase(
            name="acceptance/crash+hang+torn",
            plan=FaultPlan((Fault("worker.explore", "crash", shard=1,
                                  attempt=1),
                            Fault("worker.explore", "hang", shard=2,
                                  attempt=1),
                            Fault("checkpoint.append", "torn"),
                            Fault("corpus.append", "torn"))),
            workers=4, exhaustive=exhaustive, durable=True, resume=True)
        outcome = run_case(case, baseline_report(exhaustive))
        assert outcome.ok, outcome.mismatches

    @needs_fork
    def test_corrupt_result_is_retried_not_trusted(self):
        case = ChaosCase(
            name="acceptance/corrupt",
            plan=FaultPlan((Fault("worker.result", "corrupt", shard=0,
                                  attempt=1),)),
            workers=2, exhaustive=True)
        outcome = run_case(case, baseline_report(True))
        assert outcome.ok, outcome.mismatches
        assert "corrupt" in outcome.detail
