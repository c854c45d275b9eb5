"""The package's export list matches what it binds."""

import re
import types
from pathlib import Path

import keysec

# the public API, one name a line, so that adding or removing a name is a
# reviewed change to this list
PUBLIC_API = [
    "AttackReport",
    "BernoulliSource",
    "BitString",
    "ConditionalChannel",
    "ContradictionReport",
    "CopyChannelGap",
    "Coupling",
    "DensityMatrix",
    "Distribution",
    "EfficiencyReport",
    "FiniteKeyParams",
    "JointDistribution",
    "LeakageProfile",
    "LogProb",
    "MarkovSource",
    "NoSolutionError",
    "PaReport",
    "Povm",
    "RateSolution",
    "SampleSet",
    "SourceModel",
    "UniformityReport",
    "binary_entropy",
    "block_distribution",
    "ciphertext_only_attack",
    "conditional_guessing_probability",
    "contradiction_report",
    "copy_vs_channel_gap",
    "default_rate_params",
    "empirical_distance",
    "epsilon_for_security_rate",
    "extractable_key_length",
    "guessing_probability",
    "helstrom_min_error",
    "identity_seed",
    "independent_coupling_failure",
    "kpa_next_bits",
    "leakage_profile",
    "load_distribution",
    "load_matrix",
    "markov_individual_bound",
    "maximal_coupling",
    "maximal_mismatch",
    "measured_distance",
    "min_mismatch_oracle",
    "model_distance_to_uniform",
    "overlap",
    "pa_effect_on_guessing",
    "pipeline_efficiency",
    "required_epsilon",
    "sample_blocks",
    "save_distribution",
    "save_matrix",
    "statistical_distance",
    "toeplitz_hash",
    "trace_distance_q",
    "uniformity_failure_report",
    "yuen_upper_bound",
]


def test_public_api_is_pinned():
    assert keysec.__all__ == PUBLIC_API


def test_all_lists_each_public_name_once():
    assert len(keysec.__all__) == len(set(keysec.__all__))
    bound = {name for name, value in vars(keysec).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(keysec.__all__) == bound


def test_version_matches_the_project_metadata():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                         re.MULTILINE)
    assert keysec.__version__ == declared.group(1)


def test_only_probdist_reads_a_laws_storage():
    # README design notes: only probdist reads how a spike law is laid out,
    # or the summaries a dense law keeps
    layout = re.compile(r"\._(spike|dense|memo)\b")
    readers = [path.name for path in Path(keysec.__file__).parent.glob("*.py")
               if path.name != "probdist.py"
               and layout.search(path.read_text())]
    assert readers == []
