"""Exact simulation of directed sequences of monomial local quadratic transforms."""

from .checks import CheckResult, explain, list_checks, run_checks
from .errors import (
    AmbiguousDirection,
    BasisMismatch,
    CensusTooLarge,
    ConfigError,
    DirectionNotMinimal,
    EmptyGeneratorSet,
    IncompleteCoverage,
    IndexOutOfRange,
    NonPositiveValue,
    NotTerminated,
    QuadseqError,
    RatioUndefined,
    UnknownCheck,
)
from .forms import (
    MonomialForm,
    comparability_index,
    order_drop_report,
    power_bracketing_report,
    ratio_limit_report,
)
from .gallery import (
    PlanStep,
    Scenario,
    build_preset,
    list_presets,
    replay_states,
)
from .monomials import (
    MonomialIdeal,
    extend_ideal,
    monomial_value,
    rewrite_monomial,
    rewrite_word,
    transform_ideal,
)
from .sequence import ParameterFrame, SequenceState
from .values import RealBasis, ValueVector, value_cmp
from .videals import (
    enumerate_values,
    ideal_value,
    short_chain_report,
    tau_bound,
    value_ladder,
    videal_at,
    videal_chain,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousDirection",
    "BasisMismatch",
    "CensusTooLarge",
    "CheckResult",
    "ConfigError",
    "DirectionNotMinimal",
    "EmptyGeneratorSet",
    "IncompleteCoverage",
    "IndexOutOfRange",
    "MonomialForm",
    "MonomialIdeal",
    "NonPositiveValue",
    "NotTerminated",
    "ParameterFrame",
    "PlanStep",
    "QuadseqError",
    "RatioUndefined",
    "RealBasis",
    "Scenario",
    "SequenceState",
    "UnknownCheck",
    "ValueVector",
    "build_preset",
    "comparability_index",
    "enumerate_values",
    "explain",
    "extend_ideal",
    "ideal_value",
    "list_checks",
    "list_presets",
    "monomial_value",
    "order_drop_report",
    "power_bracketing_report",
    "ratio_limit_report",
    "replay_states",
    "rewrite_monomial",
    "rewrite_word",
    "run_checks",
    "short_chain_report",
    "tau_bound",
    "transform_ideal",
    "value_cmp",
    "value_ladder",
    "videal_at",
    "videal_chain",
]
