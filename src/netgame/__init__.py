"""Network games under degree-biased neighbor sampling.

Agents observe their network neighbors, estimate the population degree
distribution from that biased sample (naively or with a degree-corrected
maximum-likelihood rule), and play a game of strategic complements.  The
package solves the resulting type-indexed equilibrium system, provides the
large-sample closed forms and the full-information benchmark, validates
everything against configuration-model Monte Carlo, and ships curvature and
precision diagnostics plus a CLI for reproducible data sweeps.
"""

from .analysis import (
    ConvexityReport,
    PrecisionSweepResult,
    SigmaRow,
    convexity_check,
    lattice_values,
    mle_high_share,
    naive_curve,
    naive_convexity_rhs,
    population_precision_sweep,
    precision_sweep,
    sigma_sweep,
    sophisticated_curve,
    sophisticated_sufficient,
)
from .behavior import (
    best_response,
    utility,
)
from .equilibrium import (
    ConvergenceError,
    EquilibriumSolution,
    average_expectation,
    benchmark_expectation,
    infinite_naive,
    infinite_sophisticated,
    solve_direct,
    solve_iterative,
    type_probabilities,
)
from .estimators import (
    NAIVE,
    RULES,
    SOPHISTICATED,
    bias_surface,
    debias_shares,
    observed_high_share,
    sophisticated_mle,
)
from .netsim import (
    MonteCarloReport,
    NeighborShareSummary,
    SampledNetwork,
    class_counts,
    degree_assortativity,
    empirical_neighbor_shares,
    generate,
    monte_carlo_estimator_check,
    sampling_error_scaling,
    write_edgelist,
    write_metadata,
)
from .population import (
    DegreeModel,
    GameParams,
    ModelError,
    ObservedShares,
    StabilityError,
    biased_neighbor_share,
    degree_ratios,
    feasible_observed_shares,
)
from .typespace import (
    AgentType,
    ExpectationMatrix,
    believed_rule_share,
    build_pi,
    enumerate_types,
    multinomial_pmf,
    pi_csv_rows,
)

__version__ = "0.1.0"
