"""Catalog completeness: every library is reachable from the registry.

The scenario registry (and with it the CLI, the corpus, and the fuzzer)
is only as good as its coverage of `repro.libs`: a library with no
registered builder can never be explored, persisted, or replayed by
name.  ``LIB_COVERAGE`` in `repro.engine.catalog` is the explicit claim
of who covers what; these tests keep it honest in both directions.
"""

import inspect

import pytest

import repro.libs as libs
from repro.checking import check_scenario
from repro.engine.catalog import LIB_COVERAGE
from repro.engine.registry import (ScenarioSpec, build_scenario,
                                   registered_builders)
from repro.fuzz.grammar import SIGNATURES


def _library_classes():
    """Constructible library classes exported from ``repro.libs``."""
    out = {}
    for name in libs.__all__:
        obj = getattr(libs, name)
        if (inspect.isclass(obj) and obj is not libs.LibraryObject
                and hasattr(obj, "setup")):
            out[name] = obj
    return out


def test_every_library_has_a_registered_builder():
    missing = [name for name in _library_classes()
               if name not in LIB_COVERAGE]
    assert not missing, (
        f"libraries without a scenario builder: {missing} — register one "
        "and record it in repro.engine.catalog.LIB_COVERAGE")


def test_coverage_map_names_no_ghosts():
    classes = _library_classes()
    ghosts = [name for name in LIB_COVERAGE if name not in classes]
    assert not ghosts, f"LIB_COVERAGE names non-libraries: {ghosts}"


def test_every_claimed_builder_is_registered():
    registered = set(registered_builders())
    for lib, builders in LIB_COVERAGE.items():
        for builder in builders:
            assert builder in registered, (
                f"{lib} claims builder {builder!r}, which is not "
                "registered")


@pytest.mark.parametrize("builder", sorted(
    {b for builders in LIB_COVERAGE.values() for b in builders}))
def test_claimed_builders_build(builder):
    kwargs = {"impl": "ring"} if builder == "spsc" else {}
    scenario = build_scenario(ScenarioSpec(builder, kwargs=kwargs))
    assert scenario.name
    assert callable(scenario.factory)
    _assert_runs_clean(scenario)


@pytest.mark.parametrize("impl", ["spin", "ticket", "peterson"])
def test_lock_counter_variants_build(impl):
    scenario = build_scenario(
        ScenarioSpec("lock-counter", kwargs={"impl": impl}))
    assert impl in scenario.name
    _assert_runs_clean(scenario)


def _assert_runs_clean(scenario):
    """The built program runs: a few random executions complete and
    pass the scenario's checks and outcome obligations."""
    report = check_scenario(scenario, runs=3)
    assert report.executions == report.complete == 3
    assert report.ok, report.summary()


def test_fuzz_grammar_covers_the_concurrent_catalogue():
    """The fuzzer's signature table reaches every library the grammar
    can meaningfully drive (locks with per-thread identities — ticket,
    Peterson — are exercised via their dedicated builders instead)."""
    reachable = set()
    for sig in SIGNATURES.values():
        reachable.add(sig.name)
    expected = {"ms-queue", "ms-queue-broken", "hw-queue", "vyukov-queue",
                "locked-queue", "spsc-ring", "treiber", "locked-stack",
                "elim-stack", "chase-lev", "exchanger", "spinlock",
                "seqlock"}
    assert reachable == expected
