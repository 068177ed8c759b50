"""Intricacy functionals (neural complexity and generalizations) of finite
systems of discrete random variables: exact entropy machinery, coefficient
systems from mixing measures, ideal-profile bounds, random approximate
maximizers, and desk-scale convergence/threshold experiments.
"""
from .coefficients import (CoefficientTable, DnLaw, MixingMeasure,
                           coefficient_table, dn_law, est_measure,
                           p_symmetric_measure, parse_family,
                           uniform_measure, validate_coefficients)
from .construction import (ConstructionSpec, expected_subset_entropy,
                           entropy_envelope, m_from_target, realized_profile,
                           sample_sparse_system)
from .experiments import (CensusReport, ExperimentRecord, convergence_sweep,
                          maximizer_search, profile_convergence,
                          simultaneity_check, threshold_census)
from .laws import (CapExceededError, EntropyProfile, LawValidationError,
                   SystemLaw, all_subset_entropies, conditional_entropy,
                   diagonal_law, entropy, entropy_profile_exact,
                   entropy_profile_sampled, full_mask, indices_to_mask,
                   marginal, mask_to_indices, mutual_information,
                   permute_coordinates, point_mass, product_law,
                   relabel_symbols, subset_entropies, subset_entropy,
                   uniform_law)
from .profiles import (DeficitReport, deficit_report, g_functional, ic_limit,
                       ic_n, ideal_profile, intricacy_defn,
                       intricacy_from_profile, profile_norm)
from .rng import SplitMix64

__version__ = "0.1.0"
