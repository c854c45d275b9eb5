"""keysec: exact calculators for key-uniformity security claims.

Finite-distribution arithmetic, maximal couplings, small-dimension
quantum detection, log-domain security bounds, one-time-pad attacks,
and a seedable RNG-uniformity experiment, with a CLI tying them
together.
"""

from .bits import BitString
from .bounds import (EfficiencyReport, FiniteKeyParams, LeakageProfile,
                     LogProb, NoSolutionError, RateSolution, binary_entropy,
                     default_rate_params, epsilon_for_security_rate,
                     extractable_key_length, leakage_profile,
                     markov_individual_bound, pipeline_efficiency,
                     required_epsilon, yuen_upper_bound)
from .coupling import (ContradictionReport, CopyChannelGap, Coupling,
                       contradiction_report, copy_vs_channel_gap,
                       independent_coupling_failure, maximal_coupling,
                       maximal_mismatch, min_mismatch_oracle,
                       mismatch_probability)
from .probdist import (ConditionalChannel, Distribution, JointDistribution,
                       conditional_guessing_probability, guessing_probability,
                       load_distribution, save_distribution,
                       statistical_distance)
from .quantum_detect import (DensityMatrix, Povm, helstrom_min_error,
                             load_matrix, measured_distance, overlap,
                             save_matrix, trace_distance_q)
from .attacks import (AttackReport, PaReport, ciphertext_only_attack,
                      identity_seed, kpa_next_bits, pa_effect_on_guessing,
                      toeplitz_hash)
from .rngtest import (BernoulliSource, MarkovSource, SampleSet, SourceModel,
                      UniformityReport, block_distribution,
                      empirical_distance, model_distance_to_uniform,
                      sample_blocks, uniformity_failure_report)

__version__ = "0.1.0"

__all__ = [
    "AttackReport", "BernoulliSource", "BitString", "ConditionalChannel",
    "ContradictionReport", "CopyChannelGap", "Coupling", "DensityMatrix",
    "Distribution", "EfficiencyReport", "FiniteKeyParams",
    "JointDistribution", "LeakageProfile", "LogProb", "MarkovSource",
    "NoSolutionError", "PaReport", "Povm", "RateSolution", "SampleSet",
    "SourceModel", "UniformityReport", "binary_entropy",
    "block_distribution", "ciphertext_only_attack",
    "conditional_guessing_probability", "contradiction_report",
    "copy_vs_channel_gap", "default_rate_params", "empirical_distance",
    "epsilon_for_security_rate", "extractable_key_length",
    "guessing_probability", "helstrom_min_error", "identity_seed",
    "independent_coupling_failure", "kpa_next_bits", "leakage_profile",
    "load_distribution", "load_matrix", "markov_individual_bound",
    "maximal_coupling", "maximal_mismatch", "measured_distance",
    "min_mismatch_oracle", "mismatch_probability",
    "model_distance_to_uniform", "overlap", "pa_effect_on_guessing",
    "pipeline_efficiency", "required_epsilon", "sample_blocks",
    "save_distribution", "save_matrix", "statistical_distance",
    "toeplitz_hash", "trace_distance_q", "uniformity_failure_report",
    "yuen_upper_bound",
]
