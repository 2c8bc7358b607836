"""Equilibrium expectations: dense solve, fixed-point iteration, closed forms.

The finite system stacks one equation per agent type,

    xi = (E[theta]/c) * 1  +  (alpha/c) * Pi D xi,

whose unique solution exists whenever alpha * d_K/d_1 < c (the map is then a
contraction).  The large-sample limit collapses to one expectation per rule,
for which closed forms are provided, along with the full-information
benchmark that has no sampling bias at all.
"""

from dataclasses import dataclass

import numpy as np

from .estimators import NAIVE, SOPHISTICATED
from .population import (
    DegreeModel,
    GameParams,
    ModelError,
    StabilityError,
    biased_neighbor_share,
    degree_ratios,
)
from .typespace import ExpectationMatrix, multinomial_pmf, type_columns

RESIDUAL_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """A solve failed to reach tolerance; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class EquilibriumSolution:
    """Per-type equilibrium expectations of others' actions."""

    xi: np.ndarray
    system: ExpectationMatrix
    method: str
    residual: float
    iterations: int = 0

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (self.system.L,):
            raise ModelError("solution length must match the type count")
        xi.setflags(write=False)
        object.__setattr__(self, "xi", xi)

    def value(self, rule, degree, counts) -> float:
        return float(self.xi[self.system.index(rule, degree, counts)])


def _fixed_point_residual(system, params, xi) -> float:
    a_c = float(params.alpha) / float(params.cost)
    t_c = float(params.mean_preference) / float(params.cost)
    rhs = t_c + a_c * (system.pi @ (system.d_diag * xi))
    return float(np.max(np.abs(xi - rhs)))


def solve_direct(system: ExpectationMatrix, params: GameParams,
                 residual_tol: float = RESIDUAL_TOL) -> EquilibriumSolution:
    """Solve the type system by a dense LU factorization.

    The residual of the fixed-point equation is checked after the solve and
    anything above ``residual_tol`` raises rather than returning silently
    degraded expectations.
    """
    a_c = float(params.alpha) / float(params.cost)
    # I - (alpha/c) Pi D with a single L x L temporary
    m = system.pi * (-a_c * system.d_diag)
    m.flat[::system.L + 1] += 1.0
    b = np.full(system.L, float(params.mean_preference) / float(params.cost))
    try:
        xi = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(
            "singular type system; stability requires alpha * d_K/d_1 < cost"
        ) from exc
    res = _fixed_point_residual(system, params, xi)
    if not res <= residual_tol:  # also catches NaN
        raise ConvergenceError(
            f"direct solve residual {res:.3e} exceeds {residual_tol:.1e}", res
        )
    return EquilibriumSolution(xi, system, "direct", res)


def solve_iterative(system: ExpectationMatrix, params: GameParams,
                    tol: float = 1e-12, max_iter: int = 10**6) -> EquilibriumSolution:
    """Best-response iteration from the no-complementarity starting point.

    Each sweep applies xi <- (E[theta]/c)*1 + (alpha/c)*Pi D xi.  Starting
    from (E[theta]/c)*1 the iterates rise monotonically to the fixed point,
    converging geometrically with ratio at most (alpha/c)*d_K/d_1.
    """
    if tol <= 0:
        raise ModelError("tolerance must be positive")
    a_c = float(params.alpha) / float(params.cost)
    t_c = float(params.mean_preference) / float(params.cost)
    scaled = system.pi * system.d_diag
    xi = np.full(system.L, t_c)
    for it in range(1, max_iter + 1):
        nxt = t_c + a_c * (scaled @ xi)
        diff = float(np.max(np.abs(nxt - xi)))
        xi = nxt
        if diff < tol:
            res = _fixed_point_residual(system, params, xi)
            return EquilibriumSolution(xi, system, "iterative", res, iterations=it)
    raise ConvergenceError(
        f"no convergence within {max_iter} sweeps (last step {diff:.3e})", diff
    )


def infinite_naive(model: DegreeModel, params: GameParams):
    """Large-sample naive expectation: E[theta] / (c - alpha * E[rho^2]/E[rho]).

    Naive agents weight degree ratios by the biased neighbor shares, which
    inflates the perceived mean ratio from E[rho] to E[rho^2]/E[rho]; with two
    degree classes this equals E[theta] / (c - alpha*(1 + eps*u)) at the
    observed high share u.  Independent of the sophistication share.
    """
    _, e1, e2 = degree_ratios(model)
    denom = params.cost - params.alpha * e2 / e1
    if denom <= 0:
        raise StabilityError("naive expectations diverge: cost too low for alpha")
    return params.mean_preference / denom


def infinite_sophisticated(model: DegreeModel, params: GameParams):
    """Large-sample sophisticated expectation at sophistication share sigma.

    Sophisticated agents recover the true shares, yet best-respond to the
    naive block weighted 1 - sigma:

        (E[theta] + (1-sigma) * alpha * E[rho] * x_n) / (c - sigma * alpha * E[rho]).

    At sigma = 1 this equals the full-information benchmark; it decreases
    in sigma, nonlinearly, and never exceeds the naive expectation.
    """
    _, e1, _ = degree_ratios(model)
    x_n = infinite_naive(model, params)
    denom = params.cost - params.sigma * params.alpha * e1
    if denom <= 0:
        raise StabilityError("sophisticated expectations diverge: cost too low")
    return (params.mean_preference
            + (1 - params.sigma) * params.alpha * e1 * x_n) / denom


def benchmark_expectation(model: DegreeModel, params: GameParams):
    """Full-information expectation E[theta] / (c - alpha * E[rho]).

    What everyone would expect if the degree distribution were known outright;
    free of both sampling bias and sampling uncertainty.
    """
    _, e1, _ = degree_ratios(model)
    denom = params.cost - params.alpha * e1
    if denom <= 0:
        raise StabilityError("benchmark expectations diverge: cost too low")
    return params.mean_preference / denom


def type_probabilities(model: DegreeModel, types, sigma=None) -> np.ndarray:
    """True occurrence probability of each type.

    Class share times the multinomial chance of the observed neighbor counts
    under the biased sampling law; multiplied by the rule share when ``sigma``
    is given, otherwise conditional on the rule (each rule block sums to one).
    ``types`` is a sequence of agent types or an :class:`ExpectationMatrix`,
    whose per-type columns are then reused instead of read again.
    """
    if isinstance(types, ExpectationMatrix):
        counts, degrees, sophisticated = types.columns
    else:
        counts, degrees, sophisticated = type_columns(types)
    support = np.array(model.degrees)
    cls = np.minimum(np.searchsorted(support, degrees), len(support) - 1)
    if (support[cls] != degrees).any():
        raise ModelError("every type's degree must lie in the model's support")
    tilde = [float(v) for v in biased_neighbor_share(model)]
    shares = np.array([float(s) for s in model.shares])
    w = shares[cls] * multinomial_pmf(counts, [tilde])[0]
    if sigma is not None:
        w *= np.where(sophisticated, float(sigma), 1.0 - float(sigma))
    return w


def average_expectation(solution: EquilibriumSolution, model: DegreeModel,
                        rule=None, sigma=None) -> float:
    """Population-weighted average of the per-type expectations.

    With ``rule`` given the average runs over that rule's types under the true
    sampling weights; otherwise the rule blocks are mixed by ``sigma``.
    """
    system = solution.system
    if rule is None:
        if sigma is None:
            raise ModelError("need a sophistication share to mix the rule blocks")
        w = type_probabilities(model, system, sigma=sigma)
    else:
        if rule not in (NAIVE, SOPHISTICATED):
            raise ModelError(f"unknown updating rule {rule!r}")
        w = type_probabilities(model, system)
        w *= system.columns[2] == (rule == SOPHISTICATED)
    return float(w @ solution.xi)
