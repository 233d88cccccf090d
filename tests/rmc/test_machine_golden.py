"""Golden pin of the machine: every observable of every execution, hashed.

The litmus tests compare outcome sets and `TestOrc11Identity` compares
the default model with an explicit ``orc11``; neither notices a rewrite
of the machine that changes a message view, a race-detector clock or a
commit index while keeping outcomes.  This test hashes, per input,
everything each `ExecutionResult` exposes and compares the digests with
``machine_golden.json``, which was recorded from the machine before its
step loop and records were last reworked.

The inputs cover every litmus test under every model and again with
``sc_upgrade``, and library runs under DPOR (a raced mutant, one with
race detection off and one truncated by ``max_steps``) and at random.
Per execution the digest covers the decision trace, returns, race,
steps and truncation; every location's history (value, writer, wclock,
non-atomic flag and the sorted items of the released view); the SC view
and commit sequence; and, for the library inputs, the extracted graphs
(events with their views, logviews and commit indices, ``so`` and the
given linearization).

Regenerate the file (only when a change to the machine's semantics is
intended) with::

    PYTHONPATH=src python -m tests.rmc.test_machine_golden > \\
        tests/rmc/machine_golden.json
"""

import hashlib
import json
import os

import pytest

from repro.engine import ScenarioSpec, build_scenario
from repro.libs.base import Payload
from repro.rmc import explore_all_dpor, explore_random
from repro.rmc.litmus import CATALOGUE

GOLDEN = os.path.join(os.path.dirname(__file__), "machine_golden.json")
MODELS = ("sc", "tso", "ra", "orc11")


def _mixed(impl, threads, ops, seed=0):
    return build_scenario(ScenarioSpec("mixed-stress", kwargs={
        "impl": impl, "threads": threads, "ops": ops, "seed": seed}))


#: Library inputs: (key, scenario builder, how its executions are made).
LIBRARY_INPUTS = (
    ("ms-queue/ra t3xo2 dpor cap 200",
     lambda: _mixed("ms-queue/ra", 3, 2),
     lambda f: explore_all_dpor(f, max_steps=20_000, max_executions=200)),
    ("vyukov-queue/rlx t2xo2 dpor cap 500",
     lambda: _mixed("vyukov-queue/rlx", 2, 2),
     lambda f: explore_all_dpor(f, max_steps=20_000, max_executions=500)),
    ("hw-queue/rlx t3xo3 random 20",
     lambda: _mixed("hw-queue/rlx", 3, 3),
     lambda f: explore_random(f, runs=20, seed=0, max_steps=20_000)),
    # Scenario seed 2 is a mix whose first 200 executions include 175
    # raced ones (seed 0's first 3000 have none).
    ("ms-queue/broken-rlx t3xo2 seed 2 dpor cap 200",
     lambda: _mixed("ms-queue/broken-rlx", 3, 2, seed=2),
     lambda f: explore_all_dpor(f, max_steps=20_000, max_executions=200)),
    ("ms-queue/ra t3xo2 dpor cap 200 no race detection",
     lambda: _mixed("ms-queue/ra", 3, 2),
     lambda f: explore_all_dpor(f, max_steps=20_000, max_executions=200,
                                race_detection=False)),
    # 82 of the 200 executions stop at max_steps.
    ("ms-queue/ra t3xo2 dpor cap 200 max_steps 35",
     lambda: _mixed("ms-queue/ra", 3, 2),
     lambda f: explore_all_dpor(f, max_steps=35, max_executions=200)),
)


def canon(value):
    """A stable text form of a value a program wrote or returned."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        inner = ",".join(canon(v) for v in value)
        return ("(%s)" if isinstance(value, tuple) else "[%s]") % inner
    if isinstance(value, dict):
        return "{%s}" % ",".join(f"{canon(k)}:{canon(v)}"
                                 for k, v in sorted(value.items()))
    if isinstance(value, Payload):
        return f"Payload({canon(value.val)},{canon(value.eid)})"
    text = repr(value)
    assert " at 0x" not in text, f"unstable repr {text}"
    return text


def view_items(view):
    return sorted(view.components())


def graph_record(case):
    graph = case.graph
    events = [[ev.eid, repr(ev.kind), view_items(ev.view),
               sorted(ev.logview), ev.thread, ev.commit_index]
              for _eid, ev in sorted(graph.events.items())]
    to = list(case.to) if case.to is not None else None
    return [case.kind, case.label, events, sorted(graph.so), to]


def execution_record(result, extract=None):
    memory = result.memory
    locations = []
    for loc, cell in sorted(memory.locations.items()):
        history = [[canon(m.val), m.ts, m.writer, m.wclock, m.is_na,
                    view_items(m.view)] for m in cell.history]
        locations.append([loc, cell.name, history])
    record = {
        "trace": [list(c) for c in result.trace],
        "returns": [[tid, canon(val)]
                    for tid, val in sorted(result.returns.items())],
        "race": None if result.race is None else str(result.race),
        "steps": result.steps,
        "truncated": result.truncated,
        "locations": locations,
        "sc_view": view_items(memory.sc_view),
        "commit_seq": memory.commit_seq,
    }
    if extract is not None and result.ok:
        record["graphs"] = [graph_record(case) for case in extract(result)]
    return record


def digest(results, extract=None):
    """(executions, sha256) over the records of ``results`` in order."""
    h = hashlib.sha256()
    n = 0
    for result in results:
        line = json.dumps(execution_record(result, extract),
                          sort_keys=True, separators=(",", ":"))
        h.update(line.encode("utf-8"))
        h.update(b"\n")
        n += 1
    return [n, h.hexdigest()]


def litmus_digest(name, model, sc_upgrade=False):
    return digest(explore_all_dpor(CATALOGUE[name], model=model,
                                   sc_upgrade=sc_upgrade))


def library_digest(key):
    for name, build, explore in LIBRARY_INPUTS:
        if name == key:
            scenario = build()
            return digest(explore(scenario.factory), scenario.extract)
    raise KeyError(key)


def all_digests():
    out = {}
    for name in sorted(CATALOGUE):
        for model in MODELS:
            out[f"litmus {name} {model}"] = litmus_digest(name, model)
        out[f"litmus {name} orc11 sc_upgrade"] = litmus_digest(
            name, "orc11", sc_upgrade=True)
    for key, _build, _explore in LIBRARY_INPUTS:
        out[key] = library_digest(key)
    return out


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class TestMachineGolden:
    def test_golden_covers_every_input(self):
        want = {f"litmus {name} {model}" for name in CATALOGUE
                for model in MODELS}
        want |= {f"litmus {name} orc11 sc_upgrade" for name in CATALOGUE}
        want |= {key for key, _b, _e in LIBRARY_INPUTS}
        assert set(load_golden()) == want
        assert len(CATALOGUE) == 14

    @pytest.mark.parametrize("model", MODELS)
    def test_litmus_catalogue(self, model):
        golden = load_golden()
        for name in sorted(CATALOGUE):
            key = f"litmus {name} {model}"
            assert litmus_digest(name, model) == golden[key], key

    def test_litmus_catalogue_sc_upgrade(self):
        golden = load_golden()
        for name in sorted(CATALOGUE):
            key = f"litmus {name} orc11 sc_upgrade"
            assert litmus_digest(name, "orc11", sc_upgrade=True) \
                == golden[key], key

    @pytest.mark.parametrize("key", [k for k, _b, _e in LIBRARY_INPUTS])
    def test_library(self, key):
        assert library_digest(key) == load_golden()[key]


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1, sort_keys=True))
