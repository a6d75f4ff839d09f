"""Conformal weight toolkit.

Evaluates the universal conformal weight h = |phi'|^2 for six planar
domains, integrates weight powers with refinement-based convergence
verdicts, transfers Sobolev norms and Dirichlet problems between a domain
and the unit disc, and estimates the associated embedding constants.
"""
from .errors import (BranchCutViolation, ConfweightError, ExponentOutOfRange,
                     GridTooCoarse, GridTooLarge, IntegrandNotFinite, InvalidExponents,
                     IterationDivergence, KpqDivergent, PointOutsideDomain, RhsNotFinite,
                     SolutionNotFinite)
from .exponents import (DEFAULT_ALPHA0, ConstantEstimate, ExponentBounds, exponent_bounds,
                        poincare_constant_disc, q_from_ps)
from .fields import (CompositionRecord, PolarGrid, TestBump,
                     composition_inequality_check, make_bump_family)
from .maps import (ConformalMap, DomainFamily, MoebiusAutomorphism,
                   boundary_image_check, boundary_samples, round_trip_check,
                   sample_interior)
from .poisson import DiscSolution, RhsSpec, solve_dirichlet, weak_residual
from .quadrature import (CHECK_SPEC, DiscGridSpec, QuadResult, Verdict,
                         brennan_direct, brennan_scan, classify, disc_nodes, integrate_disc,
                         inverse_brennan, kpq_norm, pull_back, ring_nodes)
from .util import DEFAULT_SEED, default_seed, pairwise_sum
from .verify import J0_FIRST_ZERO, quoted_formula_report, run_verify

__version__ = "1.0.0"

__all__ = [
    "BranchCutViolation", "CHECK_SPEC", "CompositionRecord", "ConformalMap",
    "ConfweightError", "ConstantEstimate", "DEFAULT_ALPHA0", "DEFAULT_SEED",
    "DiscGridSpec", "DiscSolution", "DomainFamily",
    "ExponentBounds", "ExponentOutOfRange", "GridTooCoarse",
    "GridTooLarge", "IntegrandNotFinite", "InvalidExponents", "IterationDivergence",
    "J0_FIRST_ZERO", "KpqDivergent", "MoebiusAutomorphism", "PointOutsideDomain",
    "PolarGrid", "QuadResult", "RhsNotFinite", "RhsSpec", "SolutionNotFinite",
    "TestBump", "Verdict", "boundary_image_check", "boundary_samples", "brennan_direct",
    "brennan_scan", "classify", "composition_inequality_check", "default_seed", "disc_nodes",
    "exponent_bounds", "integrate_disc", "inverse_brennan", "kpq_norm",
    "make_bump_family", "pairwise_sum", "poincare_constant_disc", "pull_back",
    "q_from_ps", "quoted_formula_report", "ring_nodes", "round_trip_check", "run_verify",
    "sample_interior", "solve_dirichlet", "weak_residual",
]
