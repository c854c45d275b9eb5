"""keysec: exact calculators for key-uniformity security claims.

Finite-distribution arithmetic, maximal couplings, small-dimension
quantum detection, log-domain security bounds, one-time-pad attacks,
and a seedable RNG-uniformity experiment, with a CLI tying them
together.
"""

from types import ModuleType as _ModuleType

from .bits import BitString
from .bounds import (FiniteKeyParams, LeakageProfile, LogProb,
                     NoSolutionError, RateSolution, binary_entropy,
                     default_rate_params, epsilon_for_security_rate,
                     extractable_key_length, leakage_profile,
                     markov_individual_bound, pipeline_efficiency,
                     required_epsilon, yuen_upper_bound)
from .coupling import (ContradictionReport, CopyChannelGap, Coupling,
                       contradiction_report, copy_vs_channel_gap,
                       maximal_coupling, maximal_mismatch,
                       min_mismatch_oracle)
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
                      model_distance_to_uniform, sample_blocks,
                      uniformity_failure_report)

__version__ = "0.1.0"

# every public, non-module name bound above (tests/test_package.py)
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
