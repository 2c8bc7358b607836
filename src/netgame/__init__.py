"""Network games under degree-biased neighbor sampling.

Agents observe their network neighbors, estimate the population degree
distribution from that biased sample (naively or with a degree-corrected
maximum-likelihood rule), and play a game of strategic complements.  The
package solves the resulting type-indexed equilibrium system, provides the
large-sample closed forms and the full-information benchmark, validates
everything against configuration-model Monte Carlo, and ships curvature and
precision diagnostics plus a CLI for reproducible data sweeps.

``import netgame`` loads no submodule: each name below is imported from its
home module the first time it is used, so a caller pays only for the modules
it reaches.
"""

import importlib

# Each exported name, by the module that defines it.
_EXPORTS = {
    "analysis": (
        "ConvexityReport",
        "PrecisionSweepResult",
        "SigmaRow",
        "convexity_check",
        "lattice_values",
        "mle_high_share",
        "naive_curve",
        "naive_convexity_rhs",
        "population_precision_sweep",
        "precision_sweep",
        "sigma_sweep",
        "sophisticated_curve",
        "sophisticated_sufficient",
    ),
    "behavior": (
        "best_response",
        "utility",
    ),
    "equilibrium": (
        "EquilibriumSolution",
        "average_expectation",
        "benchmark_expectation",
        "infinite_naive",
        "infinite_sophisticated",
        "solve_direct",
        "solve_iterative",
        "type_probabilities",
    ),
    "estimators": (
        "NAIVE",
        "RULES",
        "SOPHISTICATED",
        "bias_surface",
        "debias_shares",
        "observed_high_share",
        "sophisticated_mle",
    ),
    "netsim": (
        "MonteCarloReport",
        "NeighborShareSummary",
        "SampledNetwork",
        "class_counts",
        "degree_assortativity",
        "empirical_neighbor_shares",
        "generate",
        "monte_carlo_estimator_check",
        "sampling_error_scaling",
        "write_edgelist",
        "write_metadata",
    ),
    "population": (
        "ConvergenceError",
        "DegreeModel",
        "GameParams",
        "ModelError",
        "StabilityError",
        "biased_neighbor_share",
        "degree_ratios",
        "feasible_observed_shares",
    ),
    "typespace": (
        "AgentType",
        "ExpectationMatrix",
        "build_pi",
        "enumerate_types",
        "multinomial_pmf",
        "pi_csv_rows",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import ``name`` from its home module and keep it here for the next lookup."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
