#!/usr/bin/env python3
"""Campaign benchmark: time to verdict on four exploration workloads.

Run from the repository root::

    python3 campaignbench/run.py --workload dpor-capped --seed 0 \\
        --seconds 20 --trace 0

One client process checks one campaign at a time in a closed loop: the
next check call starts only after the previous report is back.  Every
report is compared with the hand-written known answers
(``known_answers.json``) and, for the sharded workloads, with an
untimed serial report of the same code.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``verdict_s``,
``cpu_s``, ``peak_rss_mb``, and ``error_rate`` as failed / attempted);
``--trace 1`` alternates untraced and traced checks and prints the
per-layer metrics of ``layers.py`` plus the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 5
#: Seconds between process-tree RSS samples while a check forks children.
RSS_INTERVAL = 0.05
MB = 1e6

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class PeakRss:
    """Peak resident memory of this process and its children in a check.

    The process's own high-water mark is reset through
    ``/proc/self/clear_refs`` before each check; when the check forks
    children, a sampler thread also sums the resident sets of the whole
    process tree every `RSS_INTERVAL` seconds.
    """

    def __init__(self, children: bool):
        self.children = children
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass  # no reset: the lifetime high-water mark stands in
        self.peak = 0
        if self.children:
            self._stop.clear()
            self._thread = threading.Thread(target=self._sample, daemon=True)
            self._thread.start()

    def stop(self) -> float:
        """End the window; returns the peak in MB."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        return max(self.peak, self._own_hwm()) / MB

    @staticmethod
    def _own_hwm() -> int:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        return 0

    def _rss(self, pid: int) -> int:
        with open(f"/proc/{pid}/statm", encoding="ascii") as fh:
            return int(fh.read().split()[1]) * self._page

    @staticmethod
    def _children(pid: int) -> List[int]:
        out: List[int] = []
        task_dir = f"/proc/{pid}/task"
        for tid in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{tid}/children",
                          encoding="ascii") as fh:
                    out.extend(int(c) for c in fh.read().split())
            except OSError:
                continue  # the thread ended after the listing
        return out

    def _sample(self) -> None:
        me = os.getpid()
        while not self._stop.wait(RSS_INTERVAL):
            total = self._rss(me)
            pending = self._children(me)
            while pending:
                pid = pending.pop()
                try:
                    total += self._rss(pid)
                    pending.extend(self._children(pid))
                except OSError:
                    continue  # the process ended after the listing
            self.peak = max(self.peak, total)


@dataclass
class Sample:
    """One check call, as measured and verified."""

    traced: bool
    wall: Optional[float] = None
    cpu: float = 0.0
    peak_mb: float = 0.0
    executions: int = 0
    verdict: Any = None
    error: Optional[str] = None
    trace: Any = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not self.verdict.ok

    @property
    def wrong(self) -> bool:
        return self.error is not None or bool(self.verdict.wrong)

    def reasons(self) -> List[str]:
        if self.error is not None:
            return [f"raised {self.error}"]
        return self.verdict.wrong + self.verdict.unequal


def measure(workload, index: int, answers, rss: PeakRss,
            tracer=None) -> Sample:
    """Time one check call, reap what it started, and verify it."""
    sample = Sample(traced=tracer is not None)
    result = None
    if tracer is not None:
        tracer.install(workload.scenarios())
        tracer.begin_check()
    cpu0 = cpu_seconds()
    rss.start()
    start = time.perf_counter()
    try:
        result = workload.check(index)
        sample.wall = time.perf_counter() - start
    except Exception as err:  # noqa: BLE001 — a raising check is a failure
        sample.error = f"{type(err).__name__}: {err}"
    finally:
        if tracer is not None:
            tracer.stop_root()
        workload.settle(result)
        sample.cpu = cpu_seconds() - cpu0
        sample.peak_mb = rss.stop()
        if tracer is not None:
            sample.trace = tracer.end_check()
            tracer.uninstall()
    if sample.error is None:
        try:
            sample.verdict = workload.verify(result, answers)
            sample.executions = workload.executions(result)
        except Exception as err:  # noqa: BLE001
            sample.error = f"{type(err).__name__}: {err}"
    return sample


def setup_seconds(workload: str, workload_seed: int) -> List[float]:
    """`SETUP_PROBES` fresh-interpreter set-up times (``probe.py``)."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload,
             str(workload_seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def tail(values: List[float]):
    """The highest percentile with at least ten samples beyond it, as
    ``(percentile, value)``; None unless it lies at or above the median."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def _metric(value: float, unit: str):
    return {"value": value, "unit": unit}


def report_end_to_end(samples: List[Sample], setups: List[float]) -> dict:
    timed = [s for s in samples if s.wall is not None]
    walls = [s.wall for s in timed]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "verdict_s": _metric(statistics.median(walls), "s"),
        "cpu_s": _metric(statistics.median(s.cpu for s in timed), "s"),
        "peak_rss_mb": _metric(statistics.median(s.peak_mb for s in timed),
                               "MB"),
    }
    pct = tail(walls)
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "verdict_s": (f"median; p{pct[0]:.0f} {pct[1]:.4f} s"
                      if pct else "median; too few samples for a "
                                  "percentile above it with 10 beyond")
                     + f"; {len(walls)} samples",
        "cpu_s": "median, this process and its children",
        "peak_rss_mb": "median of per-check process-tree peaks",
    }
    for key, unit in END_TO_END:
        print(f"  {key:<12} {metrics[key]['value']:>10.4f} {unit:<3}  "
              f"{notes[key]}")
    return metrics


def report_layers(workload, samples: List[Sample]) -> dict:
    import layers
    traced = [s for s in samples if s.traced and s.wall is not None]
    untraced = [s for s in samples if not s.traced and s.wall is not None]
    values = layers.compute(
        [s.trace for s in traced], workload.transport,
        executions=max(s.executions for s in untraced),
        serial_executions=workload.serial_executions,
        untraced_walls=[s.wall for s in untraced],
        traced_walls=[s.wall for s in traced])
    print(f"  traced checks {len(traced)}, untraced checks {len(untraced)}; "
          f"per check:")
    for key, unit in layers.METRICS:
        print(f"  {key:<26} {values[key]:>16.6f} {unit}")
    lost = sum(s.trace.lost_lines for s in traced)
    if lost:
        print(f"  {lost} child span lines were torn and dropped")
    return {key: _metric(values[key], unit) for key, unit in layers.METRICS}


def write_trace(path: str, samples: List[Sample]) -> None:
    """Write every traced check's spans out, one JSON line per check."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            if s.trace is None:
                continue
            t = s.trace
            fh.write(json.dumps({
                "check": t.check_id, "wall_s": s.wall,
                "agg": [[list(k), v] for k, v in t.agg.items()],
                "counts": t.counts, "records": t.records}) + "\n")


def run(args, work: str) -> int:
    sys.path.insert(0, SRC)
    from tracing import Tracer
    from workloads import WORKLOADS, load_known_answers

    answers = load_known_answers()
    setups = [] if args.trace else setup_seconds(args.workload,
                                                 args.workload_seed)
    tracer = Tracer(os.path.join(work, "spans")) if args.trace else None
    workload = WORKLOADS[args.workload](args.workload_seed, work,
                                        run_seed=args.seed, tracer=tracer)
    workload.setup()
    ref_start = time.perf_counter()
    workload.reference()
    ref_seconds = time.perf_counter() - ref_start
    rss = PeakRss(children=workload.transport != "serial")

    samples: List[Sample] = []
    start = time.perf_counter()
    while True:
        samples.append(measure(workload, len(samples), answers, rss))
        if tracer is not None:
            samples.append(measure(workload, len(samples), answers, rss,
                                   tracer))
        if time.perf_counter() - start >= args.seconds:
            break

    failed = [s for s in samples if s.failed]
    print(f"campaignbench {args.workload}: workload seed "
          f"{args.workload_seed}, run seed {args.seed}, closed loop of one "
          f"client for {args.seconds} s{', traced' if args.trace else ''}")
    executions = [s.executions for s in samples if s.verdict is not None]
    if executions:
        print(f"  executions per check: {executions[0]}")
    if workload.serial_fingerprint is not None:
        print(f"  serial reference (untimed): {workload.serial_executions} "
              f"executions in {ref_seconds:.3f} s")
    reasons = {}
    for s in failed:
        for reason in s.reasons():
            reasons[reason] = reasons.get(reason, 0) + 1
    for reason, times in reasons.items():
        print(f"  failed check x{times}: {reason}")
    returned = {s.traced for s in samples if s.wall is not None}
    if not {False, bool(args.trace)} <= returned:
        print("campaignbench: no check of a needed kind returned",
              file=sys.stderr)
        return 1
    print(f"  {'error_rate':<12} {len(failed) / len(samples):>10.4f} "
          f"{'1':<3}  {len(failed)} of {len(samples)} checks failed")
    if args.trace:
        metrics = report_layers(workload, samples)
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}"
                                  f".jsonl")
        write_trace(path, samples)
        print(f"  spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = report_end_to_end(samples, setups)
    print(json.dumps({"correct": not any(s.wrong for s in samples),
                      "attempted": len(samples), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    from workloads import WORKLOADS
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace),
             "--workload-seed", str(args.workload_seed)])
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: names this run's files and nodes; "
                             "it changes no workload input (README.md)")
    parser.add_argument("--seconds", type=int, default=25,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="mixed-stress op mix and random schedules; "
                             "0 is the default, 1 the held-out seed")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"campaignbench: {os.path.relpath(SRC, os.getcwd())}/repro "
              f"not found; run from a full checkout", file=sys.stderr)
        return 2
    work = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work)
    # Keep every temporary file (pool heartbeats included) in the
    # checkout.
    os.environ["TMPDIR"] = work
    tempfile.tempdir = None
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
