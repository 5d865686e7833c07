"""Translation validation for compiled transfer functions.

Statically proves the plans :mod:`repro.compile` emits equivalent to
the reference IR semantics, rule by rule, over a fully symbolic
pre-state — walked by the same plan driver the engine and the concrete
simulator run.  Surfaces as the ``transval-symbolic`` lint pass; see
``docs/LINT.md``.
"""

from .core import (
    COUNTEREXAMPLE,
    PROVED,
    UNSUPPORTED,
    VALIDATOR_VERSION,
    Counterexample,
    RuleResult,
    seeded_mutation,
    verify_model,
    verify_rule,
)
from .obligations import TIERS, ComparisonError, Mismatch, compare_paths
from .state import MachineState, PreState

__all__ = [
    "COUNTEREXAMPLE",
    "PROVED",
    "UNSUPPORTED",
    "VALIDATOR_VERSION",
    "TIERS",
    "ComparisonError",
    "Counterexample",
    "MachineState",
    "Mismatch",
    "PreState",
    "RuleResult",
    "compare_paths",
    "seeded_mutation",
    "verify_model",
    "verify_rule",
]
