"""Actions and payoffs induced by equilibrium expectations.

Utility is linear-quadratic: theta*x plus a complementarity term in which own
action, own degree and the expected action of others multiply, minus c*x^2/2.
The best response is therefore linear in the held expectation, and inflated
expectations translate one-for-one into inflated actions.
"""

from .equilibrium import EquilibriumSolution, type_probabilities
from .population import DegreeModel, GameParams, degree_ratios


def best_response(theta, degree, expectation, model: DegreeModel, params: GameParams):
    """Optimal action theta/c + (alpha/d_1) * degree * expectation / c."""
    a = params.alpha / model.degrees[0]
    return theta / params.cost + a * degree * expectation / params.cost


def utility(action, theta, degree, expectation, model: DegreeModel, params: GameParams):
    """Payoff theta*x + (alpha/d_1)*x*degree*expectation - c*x^2/2.

    Evaluated at the expectation that actually prevails, it scores an action
    chosen under a wrong one; that never beats the best response there.
    """
    a = params.alpha / model.degrees[0]
    return (theta * action
            + a * action * degree * expectation
            - params.cost * action * action / 2)


def population_average_action(model: DegreeModel, params: GameParams,
                              expectation_or_solution):
    """Average best response across the population at theta = E[theta].

    A scalar input means every agent holds that expectation, so the average is
    E[theta]/c + (alpha/c) * E[rho] * expectation; at the full-information
    benchmark this reproduces the benchmark expectation itself.  For a solved
    finite system the per-type best responses are weighted by the true type
    probabilities (rule blocks mixed by the sophistication share).
    """
    if isinstance(expectation_or_solution, EquilibriumSolution):
        sol = expectation_or_solution
        w = type_probabilities(model, sol.system, sigma=params.sigma)
        actions = best_response(params.mean_preference, sol.system.columns[1], sol.xi,
                                model, params)
        return float(w @ actions)
    expectation = expectation_or_solution
    _, e1, _ = degree_ratios(model)
    return (params.mean_preference / params.cost
            + params.alpha * e1 * expectation / params.cost)
