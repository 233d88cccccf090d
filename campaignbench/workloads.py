"""The benchmark's four campaign workloads.

Each workload has the same life cycle, driven by ``run.py``:

* ``setup()`` imports ``repro`` and builds the workload's scenarios from
  their registry specs — what every ``python -m repro`` invocation pays
  before its first check call (``setup_s`` times it in fresh
  interpreters through ``probe.py``);
* ``reference()`` computes, untimed, the serial report a sharded
  workload must equal;
* ``check(index)`` is the timed check call: it returns once the report
  (or the rendered matrix) is back;
* ``settle(result)`` reaps the processes the check started and removes
  its files, untimed except for ``cpu_s``;
* ``verify(result, answers)`` compares the result with the hand-written
  known answers and with the serial reference.

The workload seed (``--workload-seed``) selects the ``mixed-stress`` op
mix and the random explorer's base seed; seed 0 gives the E2 defaults.
Sizes are fixed here, per workload, so every run does the same work.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
KNOWN_ANSWERS = os.path.join(HERE, "known_answers.json")


def load_known_answers(path: str = KNOWN_ANSWERS) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Verdict:
    """What ``verify`` found: known-answer and serial-equality failures."""

    wrong: List[str] = field(default_factory=list)
    unequal: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.wrong and not self.unequal


class Workload:
    """Base class: one campaign shape, checked in a closed loop."""

    name = ""
    #: How shards travel: "serial" (none), "pool" or "dist".
    transport = "serial"

    def __init__(self, workload_seed: int, work_dir: str,
                 run_seed: int = 0, tracer=None):
        self.workload_seed = workload_seed
        self.work_dir = work_dir
        self.run_seed = run_seed
        self.tracer = tracer
        self.serial_fingerprint: Optional[str] = None
        self.serial_executions = 0

    def setup(self) -> None:
        raise NotImplementedError

    def scenarios(self) -> List[Any]:
        """Scenario objects built by ``setup`` (the tracer wraps them)."""
        return []

    def reference(self) -> None:
        """Untimed serial reference; only sharded workloads have one."""

    def check(self, index: int) -> Any:
        raise NotImplementedError

    def settle(self, result: Any) -> None:
        """Reap what ``check`` started (no-op for in-process checks)."""

    def verify(self, result: Any, answers: Dict[str, Any]) -> Verdict:
        raise NotImplementedError

    def executions(self, result: Any) -> int:
        return result.executions


class ScenarioWorkload(Workload):
    """An exhaustive campaign on one ``mixed-stress`` registry spec."""

    library = ""
    threads = 3
    ops = 2
    #: Spec styles checked, by their paper names.
    style_names: tuple = ()
    #: Execution cap; None keeps `check_scenario`'s default.
    cap: Optional[int] = None

    def setup(self) -> None:
        from repro.core.spec_styles import SpecStyle
        from repro.engine import ScenarioSpec, build_scenario
        self.styles = tuple(SpecStyle(name) for name in self.style_names)
        self.spec = ScenarioSpec("mixed-stress", kwargs={
            "impl": self.library, "threads": self.threads, "ops": self.ops,
            "seed": self.workload_seed})
        self.scenario = build_scenario(self.spec)

    def scenarios(self) -> List[Any]:
        return [self.scenario]

    def serial(self) -> Any:
        """The serial `check_scenario` run of this campaign."""
        from repro.checking.runner import check_scenario
        extra = {} if self.cap is None else {"max_executions": self.cap}
        return check_scenario(self.scenario, styles=self.styles,
                              exhaustive=True, **extra)

    def verify(self, result: Any, answers: Dict[str, Any]) -> Verdict:
        from repro.core.spec_styles import SpecStyle
        from repro.engine.audit import report_fingerprint
        want = answers[self.name]
        out = Verdict()
        for style_name, expected in want[self.library].items():
            tally = result.styles[SpecStyle(style_name)]
            got = "ok" if tally.failed == 0 else "FAIL"
            if got != expected:
                out.wrong.append(f"{style_name}: expected {expected}, got "
                                 f"{got} ({tally.failed}/{tally.checked})")
        if result.raced != want["races"]:
            out.wrong.append(f"races: expected {want['races']}, "
                             f"got {result.raced}")
        if "exhausted" in want and result.exhausted != want["exhausted"]:
            out.wrong.append(f"exhausted: expected {want['exhausted']}, "
                             f"got {result.exhausted}")
        if self.serial_fingerprint is not None \
                and report_fingerprint(result) != self.serial_fingerprint:
            out.unequal.append(
                f"sharded report differs from serial ({result.executions} "
                f"vs {self.serial_executions} executions)")
        return out


class ShardedWorkload(ScenarioWorkload):
    """A campaign whose report must equal the serial run's."""

    def reference(self) -> None:
        from repro.engine.audit import report_fingerprint
        serial = self.serial()
        self.serial_fingerprint = report_fingerprint(serial)
        self.serial_executions = serial.executions


class DporCapped(ScenarioWorkload):
    name = "dpor-capped"
    library = "ms-queue/ra"
    style_names = ("LAT_so^abs", "LAT_hb^abs", "LAT_hb", "LAT_hb^hist")
    cap = 500

    def check(self, index: int) -> Any:
        return self.serial()


class RandomMatrix(Workload):
    name = "random-matrix"
    #: run_matrix's three default stress shapes (threads, ops per thread).
    shapes = ((2, 3), (3, 3), (3, 4))
    runs = 30

    def setup(self) -> None:
        from repro.checking.matrix import default_implementations
        self.impls = default_implementations()
        # Each shape's seed picks its op mix and (times 977, plus 13) its
        # random schedules; workload seed 0 gives run_matrix's defaults.
        base = len(self.shapes) * self.workload_seed
        self.workloads = tuple((threads, ops, base + i) for i, (threads, ops)
                               in enumerate(self.shapes))

    def check(self, index: int) -> Any:
        from repro.checking.matrix import run_matrix
        report = run_matrix(workloads=self.workloads, runs=self.runs,
                            exhaustive_small=False)
        return report, report.render()

    def verify(self, result: Any, answers: Dict[str, Any]) -> Verdict:
        from repro.core.spec_styles import SpecStyle
        report, rendered = result
        out = Verdict()
        for row, styles in answers[self.name].items():
            if row not in report.rows or row not in rendered:
                out.wrong.append(f"{row}: missing from the matrix")
                continue
            for style_name, want in styles.items():
                cell = report.rows[row][SpecStyle(style_name)]
                got = cell.verdict.split()[0]
                if got != want:
                    out.wrong.append(f"{row} {style_name}: expected {want}, "
                                     f"got {cell.verdict}")
        return out

    def executions(self, result: Any) -> int:
        return len(self.impls) * len(self.workloads) * self.runs


class PoolCapped(ShardedWorkload):
    name = "pool-capped"
    transport = "pool"
    library = "treiber/rel-acq"
    style_names = ("LAT_hb", "LAT_hb^hist")
    cap = 100
    workers = 2

    def _checkpoint(self, index: int) -> str:
        return os.path.join(self.work_dir,
                            f"checkpoint-{self.run_seed}-{index}.jsonl")

    def check(self, index: int) -> Any:
        from repro.checking.runner import check_scenario
        sys.stdout.flush()  # forked workers must not re-flush our buffer
        return check_scenario(self.scenario, styles=self.styles,
                              exhaustive=True, max_executions=self.cap,
                              workers=self.workers,
                              checkpoint=self._checkpoint(index),
                              spec=self.spec)

    def settle(self, result: Any) -> None:
        for name in os.listdir(self.work_dir):
            if name.startswith("checkpoint-"):
                os.remove(os.path.join(self.work_dir, name))


def _node_process(tracer, host: str, port: int, node_id: str) -> None:
    from repro.engine.dist.node import run_node

    def quiet(_line: str) -> None:
        pass
    node = run_node if tracer is None else \
        functools.partial(tracer.node_main, run_node)
    sys.exit(node(host, port, node_id=node_id, emit=quiet))


class DistExhaustive(ShardedWorkload):
    name = "dist-exhaustive"
    transport = "dist"
    library = "vyukov-queue/rlx"
    threads = 2
    style_names = ("LAT_hb",)
    nodes = 2
    target_shards = 8
    join_seconds = 30.0

    def setup(self) -> None:
        from repro.engine.pool import EngineParams
        super().setup()
        # The `python -m repro serve` defaults.
        self.params = EngineParams(styles=self.styles, exhaustive=True,
                                   seed=self.workload_seed,
                                   target_shards=self.target_shards)
        self._procs: List[Any] = []

    def check(self, index: int) -> Any:
        from repro.engine.dist import DistParams
        from repro.engine.dist.coordinator import Coordinator
        coord = Coordinator(self.params, self.spec,
                            DistParams(host="127.0.0.1", port=0))
        # Forked, not spawned, so the nodes inherit the tracer's
        # wrappers; forked before `serve` starts the coordinator's
        # threads, and after a flush so no buffered output is repeated.
        sys.stdout.flush()
        sys.stderr.flush()
        ctx = multiprocessing.get_context("fork")
        self._procs = [
            ctx.Process(target=_node_process,
                        args=(self.tracer, coord.host, coord.port,
                              f"node{i}-{self.run_seed}-{index}"))
            for i in range(self.nodes)]
        for proc in self._procs:
            proc.start()
        return coord.serve().report

    def settle(self, result: Any) -> None:
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.join(self.join_seconds)
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join()


WORKLOADS = {cls.name: cls for cls in
             (DporCapped, RandomMatrix, PoolCapped, DistExhaustive)}
