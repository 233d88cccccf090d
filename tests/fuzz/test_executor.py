"""The fuzz executor: generated programs become replayable scenarios."""

from repro.checking.runner import check_scenario
from repro.engine.registry import ScenarioSpec, build_scenario
from repro.fuzz import (GrammarConfig, exploration_oracle, generate_program,
                        program_styles, scenario_for)
from repro.fuzz.grammar import FuzzProgram, LibInstance


def test_clean_programs_check_clean():
    """Legal clients of non-broken signatures never violate their
    conservative obligations (a failure here is a real finding)."""
    for index in range(8):
        fp = generate_program(21, index)
        rep = check_scenario(scenario_for(fp), styles=program_styles(fp),
                             runs=25, seed=index, max_steps=6000)
        assert rep.ok, f"case {index} fuzz[{fp.digest()}]: {rep}"


def test_broken_program_fails():
    """The positive control: the all-relaxed MS queue under a
    multi-producer/multi-consumer client is caught."""
    fp = FuzzProgram(
        libs=(LibInstance("ms-queue-broken", "broken-rlx"),),
        threads=(((0, "enq", 101), (0, "deq", None)),
                 ((0, "enq", 102), (0, "deq", None))))
    fp.validate()
    check = exploration_oracle(runs=200, seed=5, max_steps=6000)
    failure = check(fp)
    assert failure is not None
    assert failure.kind in ("race", "style")


def test_fuzz_case_builder_round_trips():
    fp = generate_program(13, 2)
    spec = ScenarioSpec("fuzz-case", kwargs={"program": fp.to_json()})
    scenario = build_scenario(spec)
    assert scenario.name == f"fuzz[{fp.digest()}]"
    rep = check_scenario(scenario, styles=program_styles(fp), runs=10,
                         seed=0, max_steps=6000)
    assert rep.executions == 10


def test_every_signature_builds_and_runs():
    """Each signature alone, forced via ``only=``: setup and every
    op dispatch path is exercised."""
    for name in sorted(GrammarConfig(include_broken=True).pool()):
        cfg = GrammarConfig(include_broken=True, only=(name,))
        fp = generate_program(1, 0, cfg)
        assert all(inst.sig == name for inst in fp.libs)
        rep = check_scenario(scenario_for(fp), styles=program_styles(fp),
                             runs=6, seed=1, max_steps=6000)
        assert rep.executions == 6


def test_styles_come_from_signatures():
    cfg = GrammarConfig(only=("treiber",))
    fp = generate_program(1, 0, cfg)
    assert {s.name for s in program_styles(fp)} == {"LAT_HB",
                                                    "LAT_HB_HIST"}
