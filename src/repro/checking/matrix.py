"""The spec-satisfaction matrix: implementations × spec styles (E2).

This regenerates the content of the paper's Figure 2 ladder and its §3
satisfiability claims as measured data: for each implementation and each
spec style, does every explored execution's event graph satisfy the
style's conditions?

Expected shape (the paper's claims):

* sequential reference — satisfies everything trivially (single thread),
  and is the only row where ``SEQ``'s strict-empty reading holds under
  concurrency-free workloads;
* locked / seq-cst Michael–Scott — satisfy ``LAT_hb^hist`` and below;
* release-acquire Michael–Scott — satisfies ``LAT_hb^abs`` (hence
  ``LAT_so^abs`` and ``LAT_hb``) and, on these workloads, ``LAT_hb^hist``;
* relaxed Herlihy–Wing and Vyukov MPMC — satisfy ``LAT_hb`` but **fail**
  the abstract-state styles (their commit points do not order FIFO);
* broken all-relaxed Michael–Scott — fails (races and/or lost
  synchronization): the checkers catch real weak-memory bugs;
* Treiber / elimination stack — satisfy stack ``LAT_hb``; Treiber also
  ``LAT_hb^hist`` via its head modification order.
"""

from __future__ import annotations

import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.spec_styles import SpecStyle
from ..libs import (BROKEN_RLX, ElimStack, HWQueue, LockedQueue, LockedStack,
                    MSQueue, RELACQ, SEQCST, SeqQueue, SeqStack, TreiberStack,
                    VyukovQueue)
from .clients import mixed_stress
from .runner import Scenario, ScenarioReport, check_scenario, single_library

QUEUE_STYLES = (SpecStyle.LAT_SO_ABS, SpecStyle.LAT_HB_ABS,
                SpecStyle.LAT_HB, SpecStyle.LAT_HB_HIST)
STACK_STYLES = (SpecStyle.LAT_SO_ABS, SpecStyle.LAT_HB_ABS,
                SpecStyle.LAT_HB, SpecStyle.LAT_HB_HIST)


@dataclass
class Implementation:
    """One row of the matrix."""

    name: str
    kind: str  # "queue" | "stack"
    build: Callable  # (mem) -> library object
    with_to: bool = False  # implementation exposes its own linearization
    single_threaded: bool = False  # sequential reference rows

    def scenario(self, threads: int, ops: int, seed: int) -> Scenario:
        factory = mixed_stress(
            self.build, self.kind,
            threads=1 if self.single_threaded else threads,
            ops_per_thread=ops, seed=seed)
        return Scenario(
            name=f"{self.name}[t{threads}xo{ops}#{seed}]",
            factory=factory,
            extract=single_library("lib", kind=self.kind,
                                   with_to=self.with_to),
        )


def default_implementations() -> List[Implementation]:
    return [
        Implementation("seq-queue", "queue",
                       lambda mem: SeqQueue.setup(mem, "q"),
                       single_threaded=True),
        Implementation("locked-queue", "queue",
                       lambda mem: LockedQueue.setup(mem, "q")),
        Implementation("ms-queue/sc", "queue",
                       lambda mem: MSQueue.setup(mem, "q", SEQCST)),
        Implementation("ms-queue/ra", "queue",
                       lambda mem: MSQueue.setup(mem, "q", RELACQ)),
        Implementation("hw-queue/rlx", "queue",
                       lambda mem: HWQueue.setup(mem, "q", capacity=32)),
        Implementation("vyukov-queue/rlx", "queue",
                       lambda mem: VyukovQueue.setup(mem, "q",
                                                     capacity=16)),
        Implementation("ms-queue/broken-rlx", "queue",
                       lambda mem: MSQueue.setup(mem, "q", BROKEN_RLX)),
        Implementation("seq-stack", "stack",
                       lambda mem: SeqStack.setup(mem, "s"),
                       single_threaded=True),
        Implementation("locked-stack", "stack",
                       lambda mem: LockedStack.setup(mem, "s")),
        Implementation("treiber/rel-acq", "stack",
                       lambda mem: TreiberStack.setup(mem, "s"),
                       with_to=True),
        Implementation("elim-stack", "stack",
                       lambda mem: ElimStack.setup(mem, "s", patience=2,
                                                   attempts=1)),
    ]


@dataclass
class MatrixCell:
    """Aggregated pass/fail of one implementation against one style."""

    checked: int = 0
    failed: int = 0
    raced: int = 0
    example: str = ""

    @property
    def verdict(self) -> str:
        if self.raced:
            return f"RACE x{self.raced}"
        if self.failed:
            return f"FAIL {self.failed}/{self.checked}"
        return f"ok {self.checked}"

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.raced == 0


@dataclass
class MatrixReport:
    rows: Dict[str, Dict[SpecStyle, MatrixCell]] = field(default_factory=dict)
    kinds: Dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        styles = QUEUE_STYLES
        header = ["implementation".ljust(22)] + [
            str(s).ljust(13) for s in styles]
        lines = ["  ".join(header), "-" * (24 + 15 * len(styles))]
        for name, cells in self.rows.items():
            row = [name.ljust(22)]
            for s in styles:
                cell = cells.get(s)
                row.append((cell.verdict if cell else "-").ljust(13))
            lines.append("  ".join(row))
        return "\n".join(lines)


#: Worker-side state for parallel matrix cells, installed by the pool
#: initializer (inherited by memory under the ``fork`` start method, so
#: the closure-laden Implementation rows never need pickling).
_MATRIX_WORKER: Dict = {}


def _init_matrix_worker(impls: List[Implementation], runs: int,
                        model: str = "orc11") -> None:
    _MATRIX_WORKER["impls"] = impls
    _MATRIX_WORKER["runs"] = runs
    _MATRIX_WORKER["model"] = model


def _run_matrix_cell(task: Tuple[int, int, int, int]) -> ScenarioReport:
    idx, threads, ops, seed = task
    impl = _MATRIX_WORKER["impls"][idx]
    styles = QUEUE_STYLES if impl.kind == "queue" else STACK_STYLES
    return check_scenario(impl.scenario(threads, ops, seed), styles=styles,
                          exhaustive=False, runs=_MATRIX_WORKER["runs"],
                          seed=seed * 977 + 13,
                          model=_MATRIX_WORKER.get("model", "orc11"))


def run_matrix(
    implementations: Optional[Sequence[Implementation]] = None,
    workloads: Sequence[Tuple[int, int, int]] = ((2, 3, 0), (3, 3, 1),
                                                 (3, 4, 2)),
    runs: int = 150,
    exhaustive_small: bool = True,
    workers: int = 1,
    progress: bool = False,
    dpor: bool = True,
    model: str = "orc11",
) -> MatrixReport:
    """Fill the matrix: random workloads + one exhaustive tiny workload.

    ``workers > 1`` parallelizes twice: the randomized workload cells fan
    out across a process pool (one task per implementation × workload),
    and each tiny exhaustive pass runs through the sharded engine
    (`repro.engine`) with the same worker count.  Cell reports merge in
    a fixed order, so the rendered matrix is identical to the serial one.

    ``dpor`` threads the sleep-set reduction switch (`repro.rmc.dpor`)
    into the exhaustive passes (default: on); the randomized cells
    ignore it.  ``model`` runs every cell under a memory model from
    `repro.models` — each implementation × model pair is a fresh
    workload cell (e.g. the broken all-relaxed queue passes under
    ``model="sc"``).
    """
    impls = list(implementations) if implementations is not None \
        else default_implementations()
    report = MatrixReport()
    tasks: List[Tuple[int, int, int, int]] = []
    for idx, impl in enumerate(impls):
        styles = QUEUE_STYLES if impl.kind == "queue" else STACK_STYLES
        report.rows[impl.name] = {s: MatrixCell() for s in styles}
        report.kinds[impl.name] = impl.kind
        tasks.extend((idx, threads, ops, seed)
                     for (threads, ops, seed) in workloads)

    cell_reports: Dict[Tuple[int, int, int, int], ScenarioReport] = {}
    _init_matrix_worker(impls, runs, model)
    # The cells keep their own pool: sharding each through the engine
    # measured 1.06-1.10 s against this pool's 0.77 s (33 cells x 150
    # runs, 2 workers on a 2-vCPU host; serial 1.47 s).
    if workers > 1 and len(tasks) > 1 \
            and "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 mp_context=ctx,
                                 initializer=_init_matrix_worker,
                                 initargs=(impls, runs, model)) as pool:
            futures = {pool.submit(_run_matrix_cell, t): t for t in tasks}
            for fut in as_completed(futures):
                task = futures[fut]
                try:
                    cell_reports[task] = fut.result()
                except Exception:  # noqa: BLE001 — recompute locally
                    cell_reports[task] = _run_matrix_cell(task)
                if progress:
                    name = impls[task[0]].name
                    print(f"[matrix] cell {len(cell_reports)}/{len(tasks)}"
                          f" done ({name} t{task[1]}xo{task[2]})",
                          file=sys.stderr, flush=True)
    else:
        for task in tasks:
            cell_reports[task] = _run_matrix_cell(task)

    for task in tasks:  # fixed merge order: serial-identical matrix
        _merge(report.rows[impls[task[0]].name], cell_reports[task])

    if exhaustive_small:
        for impl in impls:
            if impl.single_threaded:
                continue
            # Tiny exhaustive pass, sharded across the same worker count.
            # The step bound cuts spin-loop subtrees (lock acquisition,
            # exchanger waits) quickly; truncated executions are not
            # checked, which is sound for the safety conditions here.
            styles = QUEUE_STYLES if impl.kind == "queue" else STACK_STYLES
            scen = impl.scenario(2, 2, 0)
            rep = check_scenario(scen, styles=styles, exhaustive=True,
                                 max_executions=4_000, max_steps=400,
                                 workers=workers, progress=progress,
                                 dpor=dpor, model=model)
            _merge(report.rows[impl.name], rep)
    return report


def _merge(cells: Dict[SpecStyle, MatrixCell], rep: ScenarioReport) -> None:
    for style, tally in rep.styles.items():
        cell = cells[style]
        cell.checked += tally.checked
        cell.failed += tally.failed
        cell.raced += rep.raced
        if tally.examples and not cell.example:
            cell.example = tally.examples[0]
