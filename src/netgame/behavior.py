"""Actions and payoffs induced by equilibrium expectations.

Utility is linear-quadratic: theta*x plus a complementarity term in which own
action, own degree and the expected action of others multiply, minus c*x^2/2.
The best response is therefore linear in the held expectation, and inflated
expectations translate one-for-one into inflated actions.
"""

from .population import DegreeModel, GameParams


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
