"""Out-of-program layer tracing for the campaign benchmark.

The tracer wraps the public functions of every layer of ``repro`` from
outside: module attributes and class methods are swapped for timing
wrappers on `Tracer.install` and restored on `Tracer.uninstall`, so
``src/`` is never edited.  Wrappers installed before a fork also run in
the forked pool workers and dist nodes.

Every span has a name (the layer), a parent (the enclosing span on the
same thread) and the id of the check it belongs to.  Fine-grained spans
(one per machine replay, footprint, model call, spec check) are folded
into per-``(name, parent)`` aggregates of calls, total and self time;
coarse spans (the check, shard planning, the pool's dispatch loop, the
dist coordinator, each shard, decode, merge, durable writes) are also
kept as records with start and end times.  Counts are taken at the same
boundaries.

A layer's self time is its span's duration minus the part covered by
child spans on the same thread.  Forked children write their buffers to
``spans-<pid>.jsonl`` after every shard, because the pool SIGKILLs its
workers and ``multiprocessing`` children exit without running atexit
hooks; the parent folds those files in when the check ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names kept as full records (one per call) rather than only as
#: aggregates; each is called at most a few dozen times per check.
RECORDED = frozenset({
    "check", "shard.plan", "pool.run", "pool.dispatch", "engine.shard",
    "engine.decode", "engine.merge", "durable", "dist.serve", "dist.node",
})

#: `repro.models.base.MemoryModel` methods the machine dispatches through.
MODEL_METHODS = (
    "read_mode", "write_mode", "rmw_mode", "fail_mode", "fence_mode",
    "pre_access", "post_access", "read_choices", "absorb_read",
    "absorb_rmw_read", "released_view", "fence", "footprint_sc",
)


class _Buffers:
    """One thread's span stack, aggregates, counts and records."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        # (name, parent name) -> [calls, total_ns, self_ns]
        self.agg: Dict[Tuple[str, Optional[str]], List[int]] = {}
        self.counts: Dict[str, int] = {}
        self.records: List[list] = []
        self.last_trace: List = []

    def clear(self) -> None:
        self.agg = {}
        self.counts = {}
        self.records = []
        self.last_trace = []


class _Local(threading.local):
    def __init__(self, tracer: "Tracer"):
        self.buf = _Buffers()
        with tracer._lock:
            tracer._registry.append(self.buf)


@dataclass
class CheckTrace:
    """Everything traced for one check, across all its processes."""

    check_id: int
    agg: Dict[Tuple[str, Optional[str]], List[int]] = field(
        default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: [span_id, parent_id, check_id, name, pid, role, start, end, self]
    records: List[list] = field(default_factory=list)
    lost_lines: int = 0

    def fold(self, agg, counts, records) -> None:
        for key, (calls, total, self_ns) in agg:
            slot = self.agg.setdefault(tuple(key), [0, 0, 0])
            slot[0] += calls
            slot[1] += total
            slot[2] += self_ns
        for key, val in counts.items():
            self.counts[key] = self.counts.get(key, 0) + val
        self.records.extend(records)

    def self_ns(self, name: str) -> int:
        return sum(v[2] for k, v in self.agg.items() if k[0] == name)

    def total_ns(self, name: str) -> int:
        return sum(v[1] for k, v in self.agg.items() if k[0] == name)

    def calls(self, name: str) -> int:
        return sum(v[0] for k, v in self.agg.items() if k[0] == name)

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)

    def spans(self, name: str, role: Optional[str] = None) -> List[list]:
        return [r for r in self.records
                if r[3] == name and (role is None or r[5] == role)]


class Tracer:
    """Installs layer wrappers and collects one `CheckTrace` per check."""

    def __init__(self, span_dir: str):
        self.span_dir = span_dir
        self.role = "main"
        self.main_pid = os.getpid()
        self.check_id = 0
        self.root_id: Optional[int] = None
        self._lock = threading.Lock()
        self._registry: List[_Buffers] = []
        self._local = _Local(self)
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self.installed = False
        os.makedirs(span_dir, exist_ok=True)
        os.register_at_fork(after_in_child=self._after_fork_child)

    # ------------------------------------------------------------------
    # Span bookkeeping (the hot path)
    # ------------------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return (os.getpid() << 32) | self._next_id

    def _enter(self, name: str, record: bool) -> Tuple[_Buffers, list]:
        buf = self._local.buf
        span_id = None
        if record:
            span_id = self._new_id()
        frame = [name, time.perf_counter_ns(), 0, span_id]
        buf.stack.append(frame)
        return buf, frame

    def _exit(self, buf: _Buffers, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = buf.stack
        stack.pop()
        dur = end - frame[1]
        parent = stack[-1] if stack else None
        key = (frame[0], parent[0] if parent is not None else None)
        slot = buf.agg.get(key)
        if slot is None:
            slot = buf.agg[key] = [0, 0, 0]
        slot[0] += 1
        slot[1] += dur
        slot[2] += dur - frame[2]
        if parent is not None:
            parent[2] += dur
        if frame[3] is not None:
            parent_id = self.root_id
            for anc in reversed(stack):
                if anc[3] is not None:
                    parent_id = anc[3]
                    break
            buf.records.append([frame[3], parent_id, self.check_id,
                                frame[0], os.getpid(), self.role,
                                frame[1], end, dur - frame[2]])

    def count(self, key: str, value: int = 1) -> None:
        counts = self._local.buf.counts
        counts[key] = counts.get(key, 0) + value

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call is a span called ``name``."""
        if name in RECORDED:
            enter, leave = self._enter, self._exit

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                buf, frame = enter(name, True)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(buf, frame)
            wrapper.__traced__ = fn
            return wrapper
        # The fine-grained path (models, footprints, ...): `_exit`
        # inlined, since it runs hundreds of times per execution.
        local = self._local
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def fast(*args, **kwargs):
            buf = local.buf
            stack = buf.stack
            frame = [name, perf(), 0, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                key = (name, stack[-1][0] if stack else None)
                slot = buf.agg.get(key)
                if slot is None:
                    slot = buf.agg[key] = [0, 0, 0]
                slot[0] += 1
                slot[1] += dur
                slot[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
        fast.__traced__ = fn
        return fast

    def gen_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a generator function: each ``next()`` is one span."""
        enter, leave, count = self._enter, self._exit, self.count
        yields = f"{name}.yields"

        def traced(gen):
            while True:
                buf, frame = enter(name, False)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(buf, frame)
                count(yields)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return traced(fn(*args, **kwargs))
        wrapper.__traced__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Checks and processes
    # ------------------------------------------------------------------

    def begin_check(self) -> int:
        self.check_id += 1
        for buf in self._registry:
            buf.clear()
        _buf, frame = self._enter("check", True)
        self.root_id = frame[3]
        self._root = frame
        return self.check_id

    def stop_root(self) -> None:
        """End the check's root span (the check call has returned)."""
        buf = self._local.buf
        if buf.stack and buf.stack[-1] is self._root:
            self._exit(buf, self._root)

    def end_check(self) -> CheckTrace:
        """Collect the check's spans once its processes are reaped."""
        self.stop_root()
        out = CheckTrace(self.check_id)
        with self._lock:
            bufs = list(self._registry)
        for tbuf in bufs:
            out.fold(tbuf.agg.items(), tbuf.counts, tbuf.records)
            tbuf.clear()
        self._collect_children(out)
        return out

    def _collect_children(self, out: CheckTrace) -> None:
        for fname in sorted(os.listdir(self.span_dir)):
            if not (fname.startswith("spans-") and fname.endswith(".jsonl")):
                continue
            path = os.path.join(self.span_dir, fname)
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            os.remove(path)
            for line in lines:
                try:
                    data = json.loads(line)
                except ValueError:
                    out.lost_lines += 1  # torn by a SIGKILL mid-write
                    continue
                if data["check"] != out.check_id:
                    continue
                out.fold(data["agg"], data["counts"], data["records"])

    def _after_fork_child(self) -> None:
        # Keep the forking thread's stack (it gives child spans their
        # parent link) but drop everything the parent already holds.
        buf = self._local.buf
        with_stack = buf.stack
        self._lock = threading.Lock()
        self._registry[:] = [buf]
        buf.clear()
        buf.stack = with_stack
        self.role = "pool-worker"

    def flush_child(self) -> None:
        """Append this child's buffers to its span file and clear them."""
        if os.getpid() == self.main_pid or not self.installed:
            return
        agg: Dict = {}
        counts: Dict[str, int] = {}
        records: List[list] = []
        for buf in list(self._registry):
            for key, val in buf.agg.items():
                slot = agg.setdefault(key, [0, 0, 0])
                for i in range(3):
                    slot[i] += val[i]
            for key, val in buf.counts.items():
                counts[key] = counts.get(key, 0) + val
            records.extend(buf.records)
            buf.clear()
        line = json.dumps({"check": self.check_id,
                           "agg": [[list(k), v] for k, v in agg.items()],
                           "counts": counts, "records": records})
        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, module: str, attr: str,
                        make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.attr`` at every ``repro`` binding of it."""
        orig = getattr(sys.modules[module], attr)
        wrapped = make(orig)
        for name, mod in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(mod, attr, None) is orig:
                self._set(mod, attr, wrapped)

    def _patch_method(self, cls: type, attr: str,
                      make: Callable[[Callable], Callable]) -> None:
        self._set(cls, attr, make(cls.__dict__[attr]))

    def install(self, scenarios=()) -> None:
        """Wrap every layer; ``scenarios`` were built before install."""
        # Import every layer so each binding exists before patching.
        from repro.checking import matrix, runner  # noqa: F401
        from repro.core import history, registry, spec_styles  # noqa: F401
        from repro.engine import audit, catalog, pool, shard, vfs  # noqa
        from repro.engine import telemetry
        from repro.engine.dist import coordinator, lease, node  # noqa: F401
        from repro.engine.dist import protocol
        from repro.models import base as models_base
        from repro.rmc import dpor, explore, machine, ops, program  # noqa

        span, gen_span = self.span, self.gen_span
        count = self.count

        # rmc.machine: one span per replay; steps, cuts and shared
        # replay prefixes are counted when the machine returns.
        self._patch_method(program.Program, "run",
                           lambda fn: span("machine", fn))
        cut = dpor.SleepSetCut
        sleep_decider = dpor.SleepSetDecider
        local = self._local

        def machine_run(fn):
            @functools.wraps(fn)
            def run(machine_self):
                try:
                    return fn(machine_self)
                except cut:
                    count("dpor.cuts")
                    raise
                finally:
                    count("machine.replays")
                    count("machine.steps", machine_self.steps)
                    decider = machine_self.decider
                    if hasattr(decider, "prefix"):
                        trace = decider.trace
                        buf = local.buf
                        last = buf.last_trace
                        shared = 0
                        for a, b in zip(trace, last):
                            if a != b:
                                break
                            shared += 1
                        count("explore.decisions", len(trace))
                        count("explore.shared", shared)
                        buf.last_trace = list(trace)
                        if isinstance(decider, sleep_decider):
                            count("dpor.replays")
            return run
        self._patch_method(machine.Machine, "run", machine_run)

        # rmc.ops footprints, rmc.dpor and rmc.explore.
        self._patch_function("repro.rmc.ops", "op_footprint",
                             lambda fn: span("footprint", fn))
        self._patch_method(dpor.SleepSetDecider, "choose",
                           lambda fn: span("dpor", fn))
        self._patch_function("repro.rmc.dpor", "_next_prefix",
                             lambda fn: span("dpor", fn))
        self._patch_function("repro.rmc.dpor", "explore_all_dpor",
                             lambda fn: gen_span("dpor", fn))
        for attr in ("explore_all", "explore_random"):
            self._patch_function("repro.rmc.explore", attr,
                                 lambda fn: gen_span("explore", fn))

        # models: every dispatch point of every registered model class.
        classes = [models_base.MemoryModel]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            for attr in MODEL_METHODS:
                if attr in cls.__dict__:
                    self._patch_method(cls, attr,
                                       lambda fn: span("models", fn))

        # core.registry commit hooks.
        for attr in ("commit", "prepare", "commit_prepared"):
            self._patch_method(registry.EventRegistry, attr,
                               lambda fn: span("commit", fn))

        # core spec checks: one span name per style.
        def check_style(fn):
            names = {}

            @functools.wraps(fn)
            def wrapper(graph, kind, style, *args, **kwargs):
                name = names.get(style)
                if name is None:
                    name = names[style] = f"spec.{style.name}"
                buf, frame = self._enter(name, False)
                try:
                    return fn(graph, kind, style, *args, **kwargs)
                finally:
                    self._exit(buf, frame)
            return wrapper
        self._patch_function("repro.core.spec_styles", "check_style",
                             check_style)
        self._patch_function("repro.core.spec_styles",
                             "check_linearizable_history",
                             lambda fn: span("spec.linearize", fn))

        # Scenario.extract is the graph-building step of every check.
        scenario_cls = runner.Scenario
        trace_scenario = self._trace_scenario

        def scenario_init(fn):
            @functools.wraps(fn)
            def init(scenario_self, *args, **kwargs):
                fn(scenario_self, *args, **kwargs)
                trace_scenario(scenario_self)
            return init
        self._patch_method(scenario_cls, "__init__", scenario_init)
        for scenario in scenarios:
            if getattr(scenario.extract, "__traced__", None) is None:
                self._set(scenario, "extract",
                          self.span("graph", scenario.extract))

        # engine.shard planning.
        def plan(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = local.buf.counts.get("machine.replays", 0)
                buf, frame = self._enter("shard.plan", True)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(buf, frame)
                count("shard.count", len(out[0]))
                count("shard.probes",
                      local.buf.counts.get("machine.replays", 0) - before)
                return out
            return wrapper
        self._patch_function("repro.engine.pool", "plan_shards_ex", plan)

        # engine.pool, engine.merge and the shard body shared by pool
        # workers, inline runs and dist nodes.
        self._patch_function("repro.engine.pool", "run_scenario",
                             lambda fn: span("pool.run", fn))
        self._patch_function("repro.engine.pool", "_run_pool",
                             lambda fn: span("pool.dispatch", fn))
        self._patch_function("repro.engine.pool", "finalize_run",
                             lambda fn: span("engine.merge", fn))
        flush = self.flush_child

        def explore_shard(fn):
            traced = span("engine.shard", fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                finally:
                    flush()
            return wrapper
        self._patch_function("repro.engine.pool", "_explore_shard",
                             explore_shard)

        def decode(fn):
            traced = span("engine.decode", fn)

            @functools.wraps(fn)
            def wrapper(shard_id, blob, crc):
                count("ipc.bytes", len(blob.encode("utf-8")))
                return traced(shard_id, blob, crc)
            return wrapper
        self._patch_function("repro.engine.pool", "_decode_result", decode)
        self._patch_method(telemetry.ProgressReporter, "on_retry",
                           lambda fn: self._counter("engine.retries", fn))

        # engine.vfs: every durable append and atomic replace.
        def durable(fn):
            traced = span("durable", fn)

            @functools.wraps(fn)
            def wrapper(vfs_self, path, data, site):
                count("durable.appends")
                count("durable.bytes", len(data))
                return traced(vfs_self, path, data, site)
            return wrapper
        self._patch_method(vfs.OsVFS, "append_blob", durable)
        self._patch_method(vfs.OsVFS, "atomic_write", durable)

        # engine.dist: coordinator, leases and the framed channel.
        self._patch_method(coordinator.Coordinator, "serve",
                           lambda fn: span("dist.serve", fn))
        self._patch_method(coordinator.Coordinator, "_on_result",
                           lambda fn: self._counter("dist.received", fn))
        self._patch_method(coordinator.Coordinator, "_complete",
                           lambda fn: self._counter("dist.merged", fn))

        def grant(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                lease_out = fn(*args, **kwargs)
                if lease_out is not None:
                    count("dist.grants")
                return lease_out
            return wrapper
        self._patch_method(lease.LeaseTable, "grant", grant)

        def encode(fn):
            @functools.wraps(fn)
            def wrapper(payload):
                line = fn(payload)
                count("dist.msgs")
                count("dist.bytes", len(line.encode("utf-8")) + 1)
                return line
            return wrapper
        # Only the channel's binding: durable records share encode_line.
        orig = protocol.encode_line
        self._set(protocol, "encode_line", encode(orig))
        self.installed = True

    def _counter(self, key: str, fn: Callable) -> Callable:
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(key)
            return fn(*args, **kwargs)
        return wrapper

    def _trace_scenario(self, scenario) -> None:
        extract = scenario.extract
        if getattr(extract, "__traced__", None) is None:
            scenario.extract = self.span("graph", extract)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self.installed = False

    def node_main(self, fn: Callable, *args, **kwargs):
        """Run a dist node body as one ``dist.node`` span and flush."""
        self.role = "dist-node"
        if not self.installed:
            return fn(*args, **kwargs)
        try:
            return self.span("dist.node", fn)(*args, **kwargs)
        finally:
            self.flush_child()
