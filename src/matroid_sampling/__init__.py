"""Independence probabilities of i.i.d. samples on matroid ground sets.

Given a matroid M and K i.i.d. draws from a distribution p on the ground
set, the library evaluates the probability that the draws are distinct and
form an independent set, maximizes it over the simplex, and specializes to
full-row-rank probabilities of random matrices over prime fields via
projective geometry matroids, where the optimum and its quadratic
stability are available in exact closed form.
"""

from .fields import (FieldMatrix, PrimeField, canonical_point, nonzero_vectors,
                     projective_points, rank_over_fp)
from .genpoly import (ConcavityReport, Distribution, IndepSetIndex, concavity_probe,
                      enumerate_independent_ksets, eval_F, eval_f, eval_h,
                      gaps_from_uniform, gradient_f, hessian_f)
from .matroids import (ExplicitSpec, LinearSpec, Matroid, MatroidSpec,
                       ParallelClassesSpec, ProjectiveSpec, UniformSpec,
                       axiom_spot_check, build_matroid, spec_from_json, spec_to_json)
from .montecarlo import McEstimate, estimate_F, sample_kset
from .optimize import AscentConfig, AscentResult, maximize_F, optimality_gap
from .projective import (PGParams, StabilityScanReport, VectorDistribution,
                         b2_count, b2_explicit, gaussian_bracket,
                         hessian_coefficient, k2_gap, pushforward,
                         stability_ratio, stability_scan, uniform_optimum)
from .symmetry import (Permutation, apply_to_distribution, check_invariance,
                       is_transitive, orbit_average, orbits,
                       pgl_point_permutation)

__version__ = "0.1.0"

__all__ = [
    "AscentConfig", "AscentResult", "ConcavityReport", "Distribution",
    "ExplicitSpec", "FieldMatrix", "IndepSetIndex", "LinearSpec", "Matroid",
    "MatroidSpec", "McEstimate", "PGParams", "ParallelClassesSpec", "Permutation",
    "PrimeField", "ProjectiveSpec", "StabilityScanReport", "UniformSpec",
    "VectorDistribution", "apply_to_distribution", "axiom_spot_check", "b2_count",
    "b2_explicit", "build_matroid", "canonical_point", "check_invariance",
    "concavity_probe", "enumerate_independent_ksets", "estimate_F", "eval_F",
    "eval_f", "eval_h", "gaps_from_uniform", "gaussian_bracket", "gradient_f",
    "hessian_coefficient", "hessian_f", "is_transitive", "k2_gap", "maximize_F",
    "nonzero_vectors", "optimality_gap", "orbit_average", "orbits",
    "pgl_point_permutation", "projective_points", "pushforward", "rank_over_fp",
    "sample_kset", "spec_from_json", "spec_to_json", "stability_ratio",
    "stability_scan", "uniform_optimum",
]
