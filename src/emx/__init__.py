"""Monotone compression schemes and estimating-the-maximum learning.

The library builds compress-then-reconstruct learners from deterministic
order towers, chains them to arbitrary sample sizes, measures their
failure rate at each epsilon by exact-arithmetic Monte Carlo, reduces
scheme arity on sub-domains, and decides existence of bounded schemes on
small finite domains.
"""

from .analysis import (
    DescentError,
    DeskScaleError,
    ReductionWitness,
    SearchProblem,
    SearchResult,
    counting_refutes,
    descend,
    reconstruction_image,
    search_schemes,
    witness_to_text,
)
from .chains import (
    DEFAULT_CAP,
    CompressionTrace,
    ResourceLimitError,
    compress_chain,
    decompress_chain,
    trace_to_text,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_rational
from .core import (
    CountableDomain,
    Domain,
    FiniteDomain,
    FiniteSupportDistribution,
    draw_sample,
    expectation,
    naturals_domain,
)
from .evaluation import EmxLearner, EvalReport, TrialRecord, apply_learner, evaluate, evaluate_grid
from .schemes import (
    MonotoneScheme,
    SchemeError,
    SoundnessReport,
    enumeration_scheme,
    identity_eta_scheme,
    seeded_subsets,
    tower_scheme,
    verify_soundness,
)
from .seeds import split_seed
from .towers import ContextChain, OrderTower, enumerated_tower, finite_proxy_tower

__all__ = [
    "CompressionTrace",
    "ConfigError",
    "ContextChain",
    "CountableDomain",
    "DEFAULT_CAP",
    "DescentError",
    "DeskScaleError",
    "Domain",
    "EmxLearner",
    "EvalReport",
    "ExperimentConfig",
    "FiniteDomain",
    "FiniteSupportDistribution",
    "MonotoneScheme",
    "OrderTower",
    "ReductionWitness",
    "ResourceLimitError",
    "SchemeError",
    "SearchProblem",
    "SearchResult",
    "SoundnessReport",
    "TrialRecord",
    "apply_learner",
    "compress_chain",
    "counting_refutes",
    "decompress_chain",
    "descend",
    "draw_sample",
    "enumerated_tower",
    "enumeration_scheme",
    "evaluate",
    "evaluate_grid",
    "expectation",
    "finite_proxy_tower",
    "identity_eta_scheme",
    "load_config",
    "naturals_domain",
    "parse_rational",
    "reconstruction_image",
    "search_schemes",
    "seeded_subsets",
    "split_seed",
    "tower_scheme",
    "trace_to_text",
    "verify_soundness",
    "witness_to_text",
]
