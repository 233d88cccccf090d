"""`repro.fuzz` — generative stateful scenario fuzzing with shrinking.

Turns the hand-written scenario catalogue into an unbounded workload
generator (the ROADMAP's "as many scenarios as you can imagine"):

* grammar (`repro.fuzz.grammar`): seeded random client programs over
  the library catalogue — thread counts, op mixes per library
  signature, access-mode profiles, cross-library compositions;
* executor (`repro.fuzz.executor`): compiles a generated program into a
  registered, replayable `repro.checking.runner.Scenario`
  (the ``fuzz-case`` builder);
* shrink (`repro.fuzz.shrink`): deterministic minimization of any
  violation to a smallest failing program, re-verified to still fail;
* campaign (`repro.fuzz.campaign`): the budgeted fuzz loop behind
  ``python -m repro fuzz``, with reproducible-by-seed parallelism and
  corpus persistence.

See ``docs/fuzzing.md``.
"""

from .campaign import (CampaignReport, CaseOutcome, FuzzParams,
                       case_explore_seed, run_campaign, run_case)
from .executor import (build_factory, fuzz_case_scenario, make_extractor,
                       make_outcome_check, program_styles, scenario_for)
from .grammar import (FuzzProgram, GrammarConfig, LibInstance, LibSig, OpSig,
                      SIGNATURES, derive_rng, generate_program)
from .shrink import (Failure, ShrinkStats, exploration_oracle, failure_of,
                     shrink)

__all__ = [
    "SIGNATURES",
    "FuzzProgram", "GrammarConfig", "LibInstance", "LibSig", "OpSig",
    "derive_rng", "generate_program",
    "build_factory", "scenario_for", "program_styles",
    "make_extractor", "make_outcome_check",
    "fuzz_case_scenario",
    "Failure", "ShrinkStats", "exploration_oracle", "failure_of", "shrink",
    "FuzzParams", "CampaignReport", "CaseOutcome",
    "case_explore_seed", "run_campaign", "run_case",
]
