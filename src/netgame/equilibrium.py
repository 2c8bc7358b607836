"""Equilibrium expectations: block solve, fixed-point iteration, closed forms.

The finite system stacks one equation per agent type,

    xi = (E[theta]/c) * 1  +  (alpha/c) * Pi D xi,

whose unique solution exists whenever alpha * d_K/d_1 < c (the map is then a
contraction).  Naive types believe everyone is naive, so the system is block
lower-triangular in the rule and is solved naive block first, from the
sigma-free table with sigma as an argument: one naive solve serves every
sigma.  The large-sample limit collapses to one expectation per rule, for
which closed forms are provided, along with the full-information benchmark
that has no sampling bias at all.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .estimators import NAIVE, SOPHISTICATED
from .population import (
    ConvergenceError,
    DegreeModel,
    GameParams,
    ModelError,
    StabilityError,
    biased_neighbor_share,
    degree_ratios,
)
from .typespace import ExpectationMatrix, multinomial_pmf

BACKWARD_TOL = 1e-12
ITERATIVE_TOL = 1e-12
MAX_SWEEPS = 10**6
SCRATCH_BYTES = 1 << 18  # the most of the table a block solve copies at once
_SINGULAR = "singular type system; stability requires alpha * d_K/d_1 < cost"


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


def _best_response(system, sigma, a_c, t_c, xi) -> np.ndarray:
    """t + (alpha/c) Pi D xi at ``sigma`` for the L types' ``xi``, one value per
    (rule, distinct share) in a (2, U) array: observers with equal shares read
    one row, so each rule takes K mat-vecs of ``pmf``'s degree columns."""
    naive, sophisticated = system.rho * xi.reshape(2, -1)
    # D xi as each rule's observers weigh the targets' rules: naive ones see only naive
    believed = (naive, float(1 - sigma) * naive + float(sigma) * sophisticated)
    products = [[system.pmf[:, c] @ x[c] for c in system.blocks] for x in believed]
    return t_c + a_c * (system.beliefs * np.swapaxes(products, 1, 2)).sum(axis=2)


def _per_type(system, values) -> np.ndarray:
    """The L per-type values of a (2, U) array of per-(rule, share) values."""
    return values[:, system.share_row].ravel()


def contraction_margin(system, params) -> float:
    """1 - (alpha/c) * d_K/d_1 as the solvers round it: how far ``system`` at
    ``params`` lies inside the stability edge."""
    return 1 - float(params.alpha) / float(params.cost) * float(system.rho[-1])


def _rates(system, params) -> tuple:
    """alpha/c and E[theta]/c, once ``params`` is checked to carry the system's
    sigma and to keep it stable.  Every solve decides stability here, by two
    tests: alpha * d_K < cost * d_1 exactly, on integer ratios, and
    (alpha/c) * d_K/d_1 < 1 as the solvers round it; either alone passes a
    system that no solver can solve."""
    if params.sigma != system.sigma:
        raise ModelError(f"params.sigma = {params.sigma} but the system was built with "
                         f"sigma = {system.sigma}")
    (a, b), (c, d) = ((x.numerator, x.denominator) if isinstance(x, numbers.Rational)
                      else x.as_integer_ratio() for x in (params.alpha, params.cost))
    a_c = float(params.alpha) / float(params.cost)
    d_1, d_K = system.model.degrees[0], system.model.degrees[-1]
    if a * d * d_K >= c * b * d_1 or a_c * (d_K / d_1) >= 1:
        raise StabilityError(_SINGULAR)
    return a_c, float(params.mean_preference) / float(params.cost)


def _fixed_point_residual(system, sigma, a_c, t_c, xi) -> float:
    return float(np.max(np.abs(xi - _per_type(system, _best_response(system, sigma, a_c,
                                                                     t_c, xi)))))


def _solve_block(system, weights, a_c, b) -> np.ndarray:
    """Solve (I - a_c Pi_bb D) y = b on the U distinct shares of one rule block,
    whose row u is ``pmf[u]`` times ``weights[u]`` per target degree.  Equal
    shares hold equal xi, so each observation's column adds into its share's
    column.  The block is formed transposed, a column per row, from zeros: each
    degree in turn adds pieces of at most ``SCRATCH_BYTES`` of its table columns
    into the rows of their shares.  One degree's lattice holds each share at
    most once, so no row is named twice in one add."""
    # m[v, u]: share v's coefficient in share u's row.  Filled, not calloc'd: a
    # fresh zero page faults twice under an add, once to read and once to write
    m = np.full((len(b), len(b)), 0.0)
    scaled = weights * (-a_c * system.rho[[cols.start for cols in system.blocks]])
    step = max(1, SCRATCH_BYTES // (8 * system.U))
    for k, cols in enumerate(system.blocks):
        for i in range(cols.start, cols.stop, step):
            piece = slice(i, min(i + step, cols.stop))
            m[system.share_row[piece]] += system.pmf[:, piece].T * scaled[:, k]
    m.flat[::len(b) + 1] += 1.0
    try:
        return np.linalg.solve(m.T, b)
    except np.linalg.LinAlgError as exc:
        raise StabilityError(_SINGULAR) from exc


def solve_direct(system: ExpectationMatrix, params: GameParams) -> EquilibriumSolution:
    """Solve the type system block by block over the rules.

    Naive observers put no mass on sophisticated types, so I - (alpha/c) Pi D
    is block lower-triangular in the rule and forward substitution is exact:
    dense LU solves the naive block on its own, then the sophisticated block,
    weighed by sigma, with (alpha/c) (1 - sigma) Pi_sn D_n xi_n added to its
    right-hand side.  Types with equal rule and observed shares have equal
    rows, so each block is solved with one unknown per distinct share, formed
    from the table one at a time, and every type gets its share's value, bit
    for bit.  A normwise backward error of the L-type system above
    ``BACKWARD_TOL`` raises rather than returning silently degraded
    expectations, and so does a ``params.sigma`` other than the system's.
    """
    (xi, res), = _solve_sigmas(system, params, [system.sigma])
    return EquilibriumSolution(xi, system, "direct", res)


def _solve_sigmas(system, params, sigmas):
    """Yield :func:`solve_direct`'s xi and residual at each of ``sigmas`` in turn,
    on ``system``'s table with ``params``' scalars.  Naive observers see no
    sigma, so one naive solve serves every sigma, and so does the naive term
    of the sophisticated right-hand side, which scales with 1 - sigma; each
    sigma then solves its sophisticated block and passes the gate of
    :func:`_gated_residual`."""
    a_c, t_c = _rates(system, params)
    naive = _solve_block(system, system.beliefs[0], a_c, np.full(system.U, t_c))
    # (alpha/c) Pi_sn D_n xi_n per unit of 1 - sigma
    cross = _best_response(system, 0.0, a_c, 0.0, _per_type(system, np.stack([naive, naive])))[1]
    shares = np.empty((2, system.U))
    shares[0] = naive
    for sigma in sigmas:
        b = t_c + float(1 - sigma) * cross
        shares[1] = _solve_block(system, float(sigma) * system.beliefs[1], a_c, b)
        xi = _per_type(system, shares)
        yield xi, _gated_residual(system, sigma, a_c, t_c, xi)


def _gated_residual(system, sigma, a_c, t_c, xi) -> float:
    """The residual ||b - M xi|| of the L-type system M = I - (alpha/c) Pi D and
    b = E[theta]/c in the infinity norm, or ``ConvergenceError`` when the
    normwise backward error ||b - M xi|| / (||M|| ||xi|| + ||b||)
    (Rigal-Gaches; Higham 2002, Thm 7.1) passes ``BACKWARD_TOL``.  Below the
    stability edge M's diagonal is non-negative, so row p of |M| sums to
    1 + (alpha/c) ((Pi D 1)_p - 2 pi_pp rho_p).  (Pi D 1)_p is one
    :func:`_best_response` of a ones vector, which no sigma changes; pi_pp rho_p
    is the table at p's own column, times p's belief in its own degree class
    and rule."""
    res = _fixed_point_residual(system, sigma, a_c, t_c, xi)
    rows, own = system.share_row, np.searchsorted(system.model.degrees, system.degrees)
    mass = _best_response(system, 0.0, 1.0, 0.0, np.ones(system.L))[:, rows]
    diagonal = system.beliefs[:, rows, own] * (system.pmf[rows, np.arange(len(rows))] * system.rho)
    # pi_pp: a sophisticated observer's believed share of its own rule is sigma
    norms = 1.0 + a_c * (mass - 2 * np.array([[1.0], [float(sigma)]]) * diagonal)
    scale = float(np.max(norms)) * float(np.max(np.abs(xi))) + abs(t_c)
    if not res <= BACKWARD_TOL * scale:  # also catches NaN
        raise ConvergenceError(f"direct solve backward error {res / scale:.3e} exceeds "
                               f"{BACKWARD_TOL:.1e} (residual {res:.3e})", res)
    return res


def solve_iterative(system: ExpectationMatrix, params: GameParams) -> EquilibriumSolution:
    """Best-response iteration from the no-complementarity starting point.

    Each sweep applies xi <- (E[theta]/c)*1 + (alpha/c)*Pi D xi, one row per
    (rule, distinct share) and then one value per type.  Starting
    from (E[theta]/c)*1 the iterates rise monotonically to the fixed point,
    converging geometrically with ratio at most (alpha/c)*d_K/d_1.  A system
    on or beyond the stability boundary raises ``StabilityError`` before the
    first sweep, as :func:`solve_direct` does.  It stops at the first step below
    ``ITERATIVE_TOL`` and gives up after ``MAX_SWEEPS`` sweeps; the error
    states the margin and the sweeps it needs, about ln(1/tol)/margin.
    A ``params.sigma`` other than the system's raises ``ModelError``.
    """
    a_c, t_c = _rates(system, params)
    xi = np.full(system.L, t_c)
    for it in range(1, MAX_SWEEPS + 1):
        nxt = _per_type(system, _best_response(system, system.sigma, a_c, t_c, xi))
        diff = float(np.max(np.abs(nxt - xi)))
        xi = nxt
        if diff < ITERATIVE_TOL:
            res = _fixed_point_residual(system, system.sigma, a_c, t_c, xi)
            return EquilibriumSolution(xi, system, "iterative", res, iterations=it)
    margin = contraction_margin(system, params)
    needed = math.log(1 / ITERATIVE_TOL) / margin
    raise ConvergenceError(
        f"no convergence within {MAX_SWEEPS} sweeps (last step {diff:.3e}): the "
        f"contraction margin 1 - (alpha/c)*d_K/d_1 is {margin:.3g}, so the iteration "
        f"needs about ln({1 / ITERATIVE_TOL:g})/margin = {needed:.3g} sweeps; "
        "solve_direct handles such systems", diff
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


def _type_weights(system, shares, law) -> np.ndarray:
    """(m, L/2) true occurrence probabilities of ``system``'s observations, which
    both rules share: row i is each observation's class share in row i of the
    (m, K) true ``shares`` times the multinomial chance of its counts under row i
    of the (m, K) biased sampling ``law`` (:func:`~netgame.population.sampling_law`),
    all from one :func:`multinomial_pmf` call."""
    weights = multinomial_pmf(system.counts, law)
    for k, cols in enumerate(system.blocks):
        weights[:, cols] *= shares[:, k, None]
    return weights


def type_probabilities(model: DegreeModel, system: ExpectationMatrix) -> np.ndarray:
    """True occurrence probability of each type of ``system``, conditional on
    the rule (each rule block sums to one): class share times the multinomial
    chance of the observed neighbor counts under the biased sampling law.
    ``model`` must have the system's degrees, else ``ModelError``.
    """
    if model.degrees != system.model.degrees:
        raise ModelError(f"the model's degrees {model.degrees} differ from the type "
                         f"system's {system.model.degrees}")
    shares = np.array([[float(s) for s in model.shares]])
    law = [[float(v) for v in biased_neighbor_share(model)]]
    return np.tile(_type_weights(system, shares, law)[0], 2)


def _rule_averages(weights, xi, sigma) -> list:
    """Naive, sophisticated and sigma-mixed averages of a solution's ``xi`` per
    row of the (m, L/2) ``weights``, as (naive, sophisticated, mixed) tuples.

    Each row's two rule values are one mat-vec of xi's halves by that row, so
    they hold the same bits whatever the other rows: a single matrix product
    over every row sums in another order and moves the last bits.
    """
    halves = xi.reshape(2, -1)
    rules = [(halves @ w).tolist() for w in weights]
    return [(n, s, (1 - float(sigma)) * n + float(sigma) * s) for n, s in rules]


def average_expectation(solution: EquilibriumSolution, model: DegreeModel,
                        rule=None, sigma=None) -> float:
    """Population-weighted average of the per-type expectations.

    With ``rule`` given the average runs over that rule's types under the true
    sampling weights of :func:`type_probabilities`; otherwise the rule blocks
    are mixed by ``sigma``.  A given ``sigma`` must be finite and in [0, 1],
    as ``GameParams`` checks it, even where a rule is given.
    """
    if rule not in (None, NAIVE, SOPHISTICATED):
        raise ModelError(f"unknown updating rule {rule!r}")
    if rule is None and sigma is None:
        raise ModelError("need a sophistication share to mix the rule blocks")
    if sigma is not None:
        GameParams.check(0, 0, 1, sigma)  # the other scalars pass, so only sigma is checked
    weights = type_probabilities(model, solution.system)[np.newaxis, :solution.system.L // 2]
    # with a rule given, the mixed average is not read and sigma may be unset
    averages = _rule_averages(weights, solution.xi, 0.0 if sigma is None else sigma)[0]
    return averages[(NAIVE, SOPHISTICATED, None).index(rule)]
