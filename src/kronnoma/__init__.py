"""Design and simulation toolkit for Kronecker-factorized code-domain NOMA.

Builds overloaded binary pattern matrices as factor chains G = F (x) P^(x)r,
searches exhaustively for square inner factors with per-class combining
vectors maximizing the per-step SNR gains, detects all users with a batched
Kronecker mode-product combining kernel plus small exhaustive MAP sets
(operation counts checked against closed-form bounds on every run), and
evaluates closed-form per-resource-element sum rates against orthogonal and
single-shot baselines.
"""

from .combiner import (
    CapExceeded,
    CombinerDesign,
    CombinerInfeasible,
    CombiningContractError,
    EnumerationCapExceeded,
    ScoredDesign,
    find_combiners,
    run_algorithm1,
)
from .detector import (
    BPSK,
    QPSK,
    BatchDetection,
    Constellation,
    DetectionConfig,
    DetectionError,
    DetectionResult,
    DetectionTrace,
    FinalSet,
    HypothesisCapExceeded,
    OpCountBounds,
    OpBoundViolation,
    OpCounters,
    OpCountReport,
    RecursionRecord,
    SicPredecessorError,
    brute_force_map_oracle,
    coupled_sums,
    detect_batch,
    final_stage_costs,
    op_count_bounds,
    recursive_detect,
)
from .pattern import (
    DimensionOverflowError,
    FactorChain,
    PatternMatrix,
    build_chain,
    load_chain,
    pattern_groups,
)
from .rate import (
    path_gain_profile,
    sum_rate_oma,
    sum_rate_pdma,
    sum_rate_recursive,
    sum_rate_sic_reference,
)
from .simkit import (
    MonteCarloPoint,
    TrialRecord,
    run_monte_carlo,
    synthesize_rx,
    trial_rng,
)

__version__ = "0.1.0"

__all__ = [
    "BPSK",
    "QPSK",
    "BatchDetection",
    "CapExceeded",
    "CombinerDesign",
    "CombinerInfeasible",
    "CombiningContractError",
    "Constellation",
    "DetectionConfig",
    "DetectionError",
    "DetectionResult",
    "DetectionTrace",
    "DimensionOverflowError",
    "EnumerationCapExceeded",
    "FactorChain",
    "FinalSet",
    "HypothesisCapExceeded",
    "MonteCarloPoint",
    "OpCountBounds",
    "OpBoundViolation",
    "OpCounters",
    "OpCountReport",
    "PatternMatrix",
    "RecursionRecord",
    "ScoredDesign",
    "SicPredecessorError",
    "TrialRecord",
    "brute_force_map_oracle",
    "build_chain",
    "coupled_sums",
    "detect_batch",
    "final_stage_costs",
    "find_combiners",
    "load_chain",
    "op_count_bounds",
    "path_gain_profile",
    "pattern_groups",
    "recursive_detect",
    "run_algorithm1",
    "run_monte_carlo",
    "sum_rate_oma",
    "sum_rate_pdma",
    "sum_rate_recursive",
    "sum_rate_sic_reference",
    "synthesize_rx",
    "trial_rng",
]
