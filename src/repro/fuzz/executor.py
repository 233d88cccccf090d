"""Compile a :class:`FuzzProgram` into a checkable :class:`Scenario`.

The executor is the bridge between the grammar and everything the
engine already knows how to do: a generated program becomes a
`repro.checking.runner.Scenario` (program factory + graph extractors +
outcome obligations) and is registered under the builder name
``fuzz-case``, which rebuilds a scenario from an explicit program JSON
(the form shrunk counterexamples take in the corpus), so fuzz cases are
replayable like any hand-written scenario.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..checking.runner import GraphCase, Scenario
from ..core.spec_styles import SpecStyle
from ..engine.registry import register_scenario
from ..libs import (BROKEN_RLX, ChaseLevDeque, ElimStack, Exchanger, HWQueue,
                    LockedQueue, LockedStack, MSQueue, RELACQ, SEQCST,
                    Seqlock, Spinlock, SpscRingQueue, TreiberStack,
                    VyukovQueue)
from ..rmc.machine import ExecutionResult
from ..rmc.modes import NA
from ..rmc.ops import Load, Store
from ..rmc.program import Program
from .grammar import FuzzProgram, LibInstance, SIGNATURES

_PROFILES = {"rel-acq": RELACQ, "sc": SEQCST, "broken-rlx": BROKEN_RLX}


def _build_lib(inst: LibInstance, mem, key: str):
    params = SIGNATURES[inst.sig].params
    if inst.sig in ("ms-queue", "ms-queue-broken"):
        return MSQueue.setup(mem, key, _PROFILES[inst.profile or "rel-acq"])
    if inst.sig == "hw-queue":
        return HWQueue.setup(mem, key, capacity=params["capacity"])
    if inst.sig == "vyukov-queue":
        return VyukovQueue.setup(mem, key, capacity=params["capacity"])
    if inst.sig == "locked-queue":
        return LockedQueue.setup(mem, key)
    if inst.sig == "spsc-ring":
        return SpscRingQueue.setup(mem, key, capacity=params["capacity"])
    if inst.sig == "treiber":
        return TreiberStack.setup(mem, key)
    if inst.sig == "locked-stack":
        return LockedStack.setup(mem, key)
    if inst.sig == "elim-stack":
        return ElimStack.setup(mem, key, patience=params["patience"],
                               attempts=params["attempts"])
    if inst.sig == "chase-lev":
        return ChaseLevDeque.setup(mem, key, capacity=params["capacity"])
    if inst.sig == "exchanger":
        return Exchanger.setup(mem, key)
    if inst.sig == "spinlock":
        return Spinlock.setup(mem, key)
    if inst.sig == "seqlock":
        return Seqlock.setup(mem, key, width=params["width"])
    raise KeyError(f"unknown fuzz signature {inst.sig!r}")


def _run_op(env: Dict[str, Any], inst: LibInstance, i: int, opname: str,
            val: Optional[int]):
    """One scripted operation as a generator; returns its observation."""
    lib = env[f"lib{i}"]
    sig = inst.sig
    if opname == "enq":
        if sig in ("vyukov-queue", "spsc-ring"):
            ok = yield from lib.try_enqueue(val)
            return ok
        yield from lib.enqueue(val)
        return val
    if opname == "deq":
        return (yield from lib.try_dequeue())
    if opname == "push":
        if sig == "elim-stack":
            return (yield from lib.try_push(val))
        yield from lib.push(val)
        return val
    if opname == "pop":
        return (yield from lib.try_pop())
    if opname == "take":
        return (yield from lib.take())
    if opname == "steal":
        return (yield from lib.steal())
    if opname == "exchange":
        params = SIGNATURES[sig].params
        return (yield from lib.exchange(val, patience=params["patience"],
                                        attempts=params["attempts"]))
    if opname == "lock-inc":
        ok = yield from lib.try_acquire()
        if not ok:
            return None
        ctr = env[f"ctr{i}"]
        v = yield Load(ctr, NA)
        yield Store(ctr, v + 1, NA)
        yield from lib.release()
        return v
    if opname == "write":
        width = SIGNATURES[sig].params["width"]
        yield from lib.write(tuple(val for _ in range(width)))
        return val
    if opname == "read":
        return (yield from lib.read(attempts=3))
    raise KeyError(f"unknown fuzz operation {opname!r} for {sig}")


def build_factory(fp: FuzzProgram) -> Callable[[], Program]:
    """The zero-argument program factory explorers re-run from scratch."""
    name = f"fuzz-{fp.digest()}"

    def factory() -> Program:
        def setup(mem):
            env: Dict[str, Any] = {}
            for i, inst in enumerate(fp.libs):
                env[f"lib{i}"] = _build_lib(inst, mem, f"l{i}")
                if inst.sig == "spinlock":
                    env[f"ctr{i}"] = mem.alloc(f"l{i}.ctr", 0)
            return env

        def make_thread(script):
            def thread(env):
                results: List[Tuple[int, str, Any]] = []
                for (i, opname, val) in script:
                    out = yield from _run_op(env, fp.libs[i], i, opname, val)
                    results.append((i, opname, out))
                return results
            return thread

        return Program(setup, [make_thread(s) for s in fp.threads], name)
    return factory


def program_styles(fp: FuzzProgram) -> Tuple[SpecStyle, ...]:
    """The union of the program's per-library spec obligations, in a
    fixed order (determinism: scenario reports and corpus entries must
    not depend on dict iteration)."""
    union = set()
    for inst in fp.libs:
        union.update(SIGNATURES[inst.sig].styles)
    return tuple(sorted(union, key=lambda s: s.name))


def make_extractor(fp: FuzzProgram):
    def extract(result: ExecutionResult) -> List[GraphCase]:
        cases: List[GraphCase] = []
        for i, inst in enumerate(fp.libs):
            sig = SIGNATURES[inst.sig]
            if sig.graph_kind is None:
                continue
            lib = result.env[f"lib{i}"]
            to = lib.linearization() if sig.with_to else None
            cases.append(GraphCase(kind=sig.graph_kind, graph=lib.graph(),
                                   to=to, label=f"lib{i}:{inst.sig}",
                                   styles=sig.styles))
            if inst.sig == "elim-stack":
                # The composed spec: the underlying exchanger's graph
                # carries its own (weaker) obligation, exactly as in
                # `repro.checking.runner.elim_stack_cases`.
                cases.append(GraphCase(
                    kind="exchanger", graph=lib.ex.graph(),
                    label=f"lib{i}:exchanger",
                    styles=(SpecStyle.LAT_HB,)))
        return cases
    return extract


def make_outcome_check(fp: FuzzProgram):
    """Outcome obligations for libraries whose spec is not graph-shaped:
    seqlock reads are never torn, lock-protected increments are mutually
    exclusive.  Returns ``None`` when the program has neither."""
    seqlocks = [i for i, inst in enumerate(fp.libs) if inst.sig == "seqlock"]
    locks = [i for i, inst in enumerate(fp.libs) if inst.sig == "spinlock"]
    if not seqlocks and not locks:
        return None

    def check(result: ExecutionResult) -> None:
        for i in seqlocks:
            sl = result.env[f"lib{i}"]
            written = set(sl.written.values())
            for ret in result.returns.values():
                for (li, op, out) in ret or ():
                    if li == i and op == "read" and out is not None:
                        assert tuple(out) in written, (
                            f"seqlock torn read: lib{i} returned {out!r}, "
                            f"never written (written={sorted(written)}, "
                            f"trace={result.trace})")
        for i in locks:
            seen = [out for ret in result.returns.values()
                    for (li, op, out) in ret or ()
                    if li == i and op == "lock-inc" and out is not None]
            assert sorted(seen) == list(range(len(seen))), (
                f"mutual-exclusion violation: lib{i} critical sections "
                f"observed counter values {sorted(seen)} "
                f"(trace={result.trace})")
    return check


def scenario_for(fp: FuzzProgram) -> Scenario:
    """The checkable scenario of one generated program."""
    return Scenario(
        name=f"fuzz[{fp.digest()}]",
        factory=build_factory(fp),
        extract=make_extractor(fp),
        outcome_check=make_outcome_check(fp))


@register_scenario("fuzz-case")
def fuzz_case_scenario(program: Dict) -> Scenario:
    """Rebuild a fuzz scenario from an explicit program description —
    the registered face of shrunk corpus counterexamples."""
    fp = FuzzProgram.from_json(program)
    fp.validate()
    return scenario_for(fp)
