"""Anti-ferromagnetic Potts tree recursion: maps, oracles, certification.

The package follows the recursion for conditional color distributions on
regular trees in log-ratio coordinates, provides exact partition-function
oracles to validate it, and certifies forward invariance of a family of
permutation-symmetric polytopes under two recursion steps — the mechanism
that drives the conditional root distribution to uniform inside the
uniqueness regime ``w > 1 - q/(d+1)``.
"""

from .errors import BudgetError, CertificationError, DomainError, ParseError
from .params import INFINITY, ModelParams, validate_log_ratio
from .symmetry import all_permutations, apply_permutation
from .maps import (degree_rescaling, diagonal_contraction,
                   diagonal_contraction_finite, log_ratio_map,
                   log_ratio_map_jacobian, log_ratio_map_preimage,
                   pattern_image, two_step_map, two_step_sum_limit)
from .trees import (BoundaryCondition, BoundaryFile, TreeSpec,
                    read_boundary_file, write_boundary_file)
from .oracle import (brute_force_Z, conditional_root_distribution,
                     dp_log_Z, enumerate_log_ratio_sets, recursion_root_log_ratios,
                     root_log_ratios, root_summary)
from .polytope import (convexity_probe, convexity_witness_search, level,
                       polytope_vertices, sample_face, sample_fundamental)
from .certify import (contraction_sequence, convergence_experiment,
                      diagonal_minimality_check, two_step_level)
from .gradients import (comparator_exponents, comparator_gap, constant_exponent_point,
                        gradient_identity_sweep, positivity_sweep,
                        rescaled_gap, rescaled_gap_line, two_step_sum_gradient)
from .reporting import (CertificationReport, parse_grid, spawn_rng,
                        write_csv_atomic)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CertificationError", "DomainError", "ParseError",
    "INFINITY", "ModelParams", "validate_log_ratio",
    "all_permutations", "apply_permutation",
    "degree_rescaling", "diagonal_contraction", "diagonal_contraction_finite",
    "log_ratio_map", "log_ratio_map_jacobian", "log_ratio_map_preimage",
    "pattern_image", "two_step_map", "two_step_sum_limit",
    "BoundaryCondition", "BoundaryFile", "TreeSpec", "read_boundary_file",
    "write_boundary_file",
    "brute_force_Z", "conditional_root_distribution", "dp_log_Z",
    "enumerate_log_ratio_sets", "recursion_root_log_ratios", "root_log_ratios",
    "root_summary",
    "convexity_probe", "convexity_witness_search", "level", "polytope_vertices",
    "sample_face", "sample_fundamental",
    "contraction_sequence", "convergence_experiment",
    "diagonal_minimality_check", "two_step_level",
    "comparator_exponents", "comparator_gap",
    "constant_exponent_point", "gradient_identity_sweep", "positivity_sweep",
    "rescaled_gap", "rescaled_gap_line", "two_step_sum_gradient",
    "CertificationReport", "parse_grid", "spawn_rng", "write_csv_atomic",
]
