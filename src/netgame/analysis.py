"""Curvature, precision, and sophistication diagnostics for the two-class game.

Everything here works on the large-sample closed forms for two degree classes
parameterized by the excess ratio eps = d_2/d_1 - 1.  The checks are
numerical by design: second central differences against the analytic
convexity condition, and sweeps over the lowest degree (finite systems
against the closed forms) and over the sophistication share.

The evaluators take raw scalars rather than validated parameter objects so
that configurations violating the global stability condition can still be
examined; grid points whose stencil leaves the locally stable region are
flagged and excluded from sign assertions instead of asserted blindly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    _rule_averages,
    _solve_sigmas,
    _type_weights,
    benchmark_expectation,
    infinite_naive,
    infinite_sophisticated,
    solve_direct,
)
from .estimators import NAIVE, RULES, SOPHISTICATED, observed_high_share
from .population import (
    DegreeModel,
    GameParams,
    ModelError,
    _positive_integer,
    check_budget,
    check_shares,
    sampling_law,
)
from .typespace import build_pi, check_fits

DIFF_STEP = 1e-4
BAND_FACTOR = 10.0
# the interior points 0.01, ..., 0.99 where the curves are checked
CHECK_GRID = np.linspace(0.0, 1.0, 101)[1:-1]
CHECK_GRID.setflags(write=False)


# ---------------------------------------------------------------------------
# Large-sample curves indexed by the true high share or the observed share.
# ---------------------------------------------------------------------------

def mle_high_share(u, eps):
    """True high share recovered from an observed high share ``u``."""
    return u / ((1 + eps) - eps * u)


def _naive_denominator(u, eps, alpha, cost):
    return cost - alpha * (1 + eps * u)


def _believed_ratio(u, eps):
    """The mean degree ratio a sophisticated observer of high share u believes in."""
    return 1 + eps * mle_high_share(u, eps)


def naive_value_at_observed(u, eps, alpha, cost, etheta):
    """Naive expectation at observed high share u: E[theta]/(c - a(1+eps*u))."""
    denom = _naive_denominator(u, eps, alpha, cost)
    if np.any(denom <= 0):
        raise ModelError("naive expectation undefined: locally unstable")
    return etheta / denom


def sophisticated_value_at_observed(u, eps, alpha, cost, sigma, etheta):
    """Sophisticated expectation at observed high share u.

    The observer's corrected share pins its believed mean degree ratio;
    naive peers are believed to observe the same u in the large-sample limit.
    """
    believed = _believed_ratio(u, eps)
    x_n = naive_value_at_observed(u, eps, alpha, cost, etheta)
    denom = cost - sigma * alpha * believed
    if np.any(denom <= 0):
        raise ModelError("sophisticated expectation undefined: locally unstable")
    return (etheta + (1 - sigma) * alpha * believed * x_n) / denom


def naive_curve(delta2, eps, alpha, cost, etheta):
    """Naive expectation as a function of the true high share."""
    return naive_value_at_observed(observed_high_share(delta2, eps),
                                   eps, alpha, cost, etheta)


def sophisticated_curve(delta2, eps, alpha, cost, sigma, etheta):
    """Sophisticated expectation as a function of the true high share."""
    return sophisticated_value_at_observed(observed_high_share(delta2, eps),
                                           eps, alpha, cost, sigma, etheta)


def naive_convexity_rhs(delta2, eps):
    """Threshold for c/a below which the naive curve is convex:
    (1 + eps*u(delta2)) + (1+eps)/(1+eps*delta2)."""
    return (1 + eps * observed_high_share(delta2, eps)
            + (1 + eps) / (1 + eps * delta2))


def sophisticated_sufficient(delta2, eps, alpha, cost, sigma):
    """Sufficient condition for the sophisticated curve to be convex:
    c < 2a(1 + eps*delta2) sigma^2 (given the naive curve is convex),
    elementwise when ``delta2`` is an array."""
    return cost < 2 * alpha * (1 + eps * delta2) * sigma**2


# ---------------------------------------------------------------------------
# Convexity report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexityReport:
    """Second differences of both rules' curves against the analytic condition.

    Per grid point: ``naive_second``/``soph_second`` are central second
    differences divided by h^2 (NaN where the stencil leaves the locally
    stable region, ``naive_stable``/``soph_stable`` False there);
    ``naive_convex_predicted`` is the condition c/a < rhs, False within the
    band of condition equality.  ``naive_checked`` marks the stable points
    outside that band, and none when alpha * eps == 0; ``ok`` says the
    measured sign of the naive curvature matches the prediction at every
    checked point.
    """

    grid: np.ndarray
    naive_second: np.ndarray
    soph_second: np.ndarray
    naive_convex_predicted: np.ndarray
    naive_stable: np.ndarray
    soph_stable: np.ndarray
    soph_sufficient: np.ndarray
    naive_checked: np.ndarray
    ok: bool


def convexity_check(eps, alpha, cost, sigma=1.0, etheta=1.0) -> ConvexityReport:
    """Compare measured curvature of the large-sample curves with the
    analytic condition at each point of ``CHECK_GRID``.

    Second differences use the step ``DIFF_STEP``; points within
    ``BAND_FACTOR * DIFF_STEP`` of condition equality are inconclusive.
    The naive curve is convex exactly where c/a < (1 + eps*u) +
    (1+eps)/(1+eps*delta2); with alpha*eps == 0 both curves are flat and the
    sign test is vacuous, so no point is checked.  Raises ``ModelError``
    unless eps is finite and non-negative and the other scalars pass
    ``GameParams.check``.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ModelError(f"excess ratio must be finite and non-negative, got {eps}")
    GameParams.check(etheta, alpha, cost, sigma)
    grid, h = CHECK_GRID, DIFF_STEP
    stencil = np.stack([grid - h, grid, grid + h])
    # a point is checked only where its whole stencil is locally stable
    naive_stable = (cost - alpha * (1 + eps * observed_high_share(stencil, eps))
                    > 0).all(axis=0)
    soph_stable = naive_stable & (cost - sigma * alpha * (1 + eps * stencil) > 0).all(axis=0)
    naive_second = np.full(len(grid), np.nan)
    soph_second = np.full(len(grid), np.nan)
    f = naive_curve(stencil[:, naive_stable], eps, alpha, cost, etheta)
    naive_second[naive_stable] = (f[0] - 2 * f[1] + f[2]) / h**2
    f = sophisticated_curve(stencil[:, soph_stable], eps, alpha, cost, sigma, etheta)
    soph_second[soph_stable] = (f[0] - 2 * f[1] + f[2]) / h**2
    rhs = naive_convexity_rhs(grid, eps)
    ratio = cost / alpha if alpha > 0 else math.inf
    inconclusive = np.abs(ratio - rhs) <= BAND_FACTOR * h
    predicted = (ratio < rhs) & ~inconclusive
    checked = naive_stable & ~inconclusive & (alpha * eps != 0)
    agree = (naive_second > 0) == predicted
    return ConvexityReport(
        grid=grid, naive_second=naive_second, soph_second=soph_second,
        naive_convex_predicted=predicted,
        naive_stable=naive_stable, soph_stable=soph_stable,
        soph_sufficient=sophisticated_sufficient(grid, eps, alpha, cost, sigma),
        naive_checked=checked, ok=bool(agree[checked].all()),
    )


# ---------------------------------------------------------------------------
# Precision sweep: finite systems against the large-sample curves
# ---------------------------------------------------------------------------

def lattice_values(solution, rule, degree) -> np.ndarray:
    """Expectations of one (rule, degree) block of a two-class system, at
    j = 0, ..., degree high-degree neighbors.

    A read-only view of the rule's half of xi, sliced at the degree's block;
    raises ``ModelError`` when the system has no such block.
    """
    degrees = solution.system.model.degrees
    if len(degrees) != 2 or degree not in degrees or rule not in RULES:
        raise ModelError(f"no ({rule}, {degree}) block in a two-class system of degrees {degrees}")
    block = solution.system.blocks[degrees.index(degree)]
    return solution.xi.reshape(2, -1)[RULES.index(rule), block]


@dataclass(frozen=True)
class PrecisionRow:
    d1: int
    rule: str
    class_index: int
    share: float
    offset: float
    value: float
    closed_form: float


@dataclass(frozen=True)
class PrecisionSweepResult:
    """Finite per-type expectations at matched observed shares, by lowest degree."""

    d1_list: tuple
    rows: tuple
    convexity: ConvexityReport

    def values(self, rule, class_index, share):
        """(d1, value) pairs at one matched share, ordered as d1_list."""
        if rule not in RULES:
            raise ModelError(f"unknown rule {rule!r}; have {list(RULES)}")
        self._check_class_index(class_index)
        out = []
        for d1 in self.d1_list:
            for r in self.rows:
                if (r.d1 == d1 and r.rule == rule and r.class_index == class_index
                        and abs(r.share - share) < 1e-12):
                    out.append((d1, r.value))
        return out

    def matched_shares(self, class_index) -> list:
        self._check_class_index(class_index)
        return sorted({r.share for r in self.rows if r.class_index == class_index})

    @staticmethod
    def _check_class_index(class_index) -> None:
        # every sweep model has two degree classes
        if class_index not in (0, 1):
            raise ModelError(f"class index must be 0 or 1, got {class_index!r}")


def _check_excess_ratio(eps) -> None:
    if not math.isfinite(eps):
        raise ModelError(f"excess ratio must be finite, got {eps}")
    if eps <= 0:
        raise ModelError(f"excess ratio eps = d_2/d_1 - 1 must be positive, got {eps}")


def _two_class_model(d1, eps) -> DegreeModel:
    _check_excess_ratio(eps)
    if not _positive_integer(d1):
        raise ModelError(f"lowest degree must be a positive integer, got {d1!r}")
    d2 = int(d1) * (1 + eps)
    if abs(d2 - round(d2)) > 1e-9:
        raise ModelError(f"d1 = {d1} with eps = {eps} gives a non-integer top degree")
    # The interaction matrix does not depend on the true shares, so any valid
    # share vector works here.
    model = DegreeModel((int(d1), int(round(d2))), (0.5, 0.5))
    check_fits(model)  # a study makes every model before it solves any
    return model


def precision_sweep(eps, alpha, cost, sigma, etheta, d1_list) -> PrecisionSweepResult:
    """Solve the finite system for each lowest degree (at a fixed degree ratio)
    and tabulate per-rule expectations at matched interior observed shares.

    ``d1_list`` holds at least two distinct positive integers.  Matched shares
    are the interior lattice points of the coarsest system in each degree
    class; finer systems are read at their nearest lattice point (exact when
    the degrees double, with the offset recorded).  Where the large-sample
    curves are convex the matched values decrease toward the closed form as
    precision rises.
    """
    models = sorted((_two_class_model(d1, eps) for d1 in d1_list), key=lambda m: m.degrees)
    d1s = [model.degrees[0] for model in models]
    if len(d1s) < 2 or len(set(d1s)) < len(d1s):
        raise ModelError("need at least two distinct lowest degrees to compare precision, "
                         f"got {d1s}")
    coarsest = models[0].degrees
    convexity = convexity_check(eps, alpha, cost, sigma=sigma, etheta=etheta)
    rows = []
    for model in models:
        params = GameParams(etheta, alpha, cost, sigma, model)
        solution = solve_direct(build_pi(model, params), params)
        for k, degree in enumerate(model.degrees):
            # plain division keeps equal rationals bit-identical across degrees
            shares = np.arange(1, coarsest[k]) / coarsest[k]
            lattice = np.arange(degree + 1) / degree
            nearest = np.abs(lattice - shares[:, None]).argmin(axis=1)
            closed = {NAIVE: naive_value_at_observed(shares, eps, alpha, cost, etheta),
                      SOPHISTICATED: sophisticated_value_at_observed(
                          shares, eps, alpha, cost, sigma, etheta)}
            for rule in (NAIVE, SOPHISTICATED):
                vals = lattice_values(solution, rule, degree)
                rows.extend(PrecisionRow(
                    d1=model.degrees[0], rule=rule, class_index=k, share=float(share),
                    offset=float(lattice[j] - share), value=float(vals[j]),
                    closed_form=float(value),
                ) for share, j, value in zip(shares, nearest, closed[rule]))
    return PrecisionSweepResult(d1_list=tuple(d1s), rows=tuple(rows), convexity=convexity)


def population_precision_sweep(eps, alpha, cost, etheta, sigmas, d1_list, grid) -> list:
    """Population-average expectations by sophistication share, lowest degree
    and true high share, next to their large-sample limit.

    ``d1_list`` holds distinct positive integer lowest degrees and may hold
    ``math.inf`` once for the closed forms; any other entry, or a repeated
    one, is a ``ModelError``.
    ``grid`` holds true high shares delta2 inside (0, 1).  For
    each sigma and delta2, every finite d1 in the given order adds a naive, a
    sophisticated and a sigma-mixed ("all") average of its solved system
    under the true shares (1 - delta2, delta2), equal to what
    :func:`netgame.equilibrium.average_expectation` returns; then ``inf``
    adds the three closed-form values, or one "unstable" row where they are
    undefined.  Returns rows (sigma, d1, delta2, rule, value, flag).  Every
    sigma is checked with the other scalars as ``GameParams`` checks them, and
    every delta2 as a ``DegreeModel`` checks its shares, even where only ``inf``
    is asked for; no sigma or an empty grid is an error.

    A d1's table, naive block and type weights depend on neither sigma nor the
    solution, so each takes one build, one naive solve and one kernel call for
    every sigma and the grid.  A d1 whose table, or whose (grid, L/2) type
    weights, cannot fit ``MEMORY_BUDGET`` is refused before any is built.
    """
    _check_excess_ratio(eps)
    if not len(sigmas):
        raise ModelError("need at least one sophistication share")
    for sigma in sigmas:
        GameParams.check(etheta, alpha, cost, sigma)
    models = [_two_class_model(d1, eps) for d1 in d1_list if d1 != math.inf]
    d1s = [model.degrees[0] for model in models]
    if len(set(d1s)) < len(d1s) or len(d1_list) - len(d1s) > 1:
        raise ModelError(f"lowest degrees must be distinct, got {list(d1_list)}")
    grid = [float(x) for x in grid]
    if not grid:
        raise ModelError("grid has no true high share delta2 inside (0, 1)")
    for x in grid:  # each delta2's shares are checked as a DegreeModel checks them
        check_shares((1 - x, x))
    for model in models:  # the (grid, L/2) type weights of each, before any is built
        half = sum(d + 1 for d in model.degrees)
        check_budget(8 * len(grid) * half, f"{len(grid)} true high shares at d1 = "
                                           f"{model.degrees[0]}: the type weights")
    points = np.array(grid)
    true_shares = (1 - points, points)
    shares = np.column_stack(true_shares)
    values = {}
    for model in models:
        params = GameParams(etheta, alpha, cost, sigmas[0], model)
        system = build_pi(model, params)
        law = np.column_stack(sampling_law(model.degrees, true_shares))
        weights = _type_weights(system, shares, law)
        for sigma, (xi, _) in zip(sigmas, _solve_sigmas(system, params, sigmas)):
            values[sigma, model.degrees[0]] = _rule_averages(weights, xi, sigma)
    if len(d1s) < len(d1_list):
        d1s.append("inf")
        for sigma in sigmas:
            values[sigma, "inf"] = _limit_values(points, eps, alpha, cost, sigma, etheta)
    rows = []
    for sigma in sigmas:
        for i, delta2 in enumerate(grid):
            for d1 in d1s:
                value = values[sigma, d1][i]
                if value is None:
                    rows.append((sigma, d1, delta2, "all", "", "unstable"))
                    continue
                rows.append((sigma, d1, delta2, NAIVE, value[0], ""))
                rows.append((sigma, d1, delta2, SOPHISTICATED, value[1], ""))
                rows.append((sigma, d1, delta2, "all", value[2], ""))
    return rows


def _limit_values(points, eps, alpha, cost, sigma, etheta) -> list:
    """The closed forms' (naive, sophisticated, mixed) values at each true high
    share of the array ``points``, or None where either curve is undefined:
    exactly where its scalar evaluation raises.  Each curve is one array call
    over the defined points, so every value has the bits of a scalar call."""
    u = observed_high_share(points, eps)
    defined = ((_naive_denominator(u, eps, alpha, cost) > 0)
               & (cost - sigma * alpha * _believed_ratio(u, eps) > 0))
    naive = naive_curve(points[defined], eps, alpha, cost, etheta)
    sophisticated = sophisticated_curve(points[defined], eps, alpha, cost, sigma, etheta)
    values = iter(zip(naive.tolist(), sophisticated.tolist(),
                      ((1 - sigma) * naive + sigma * sophisticated).tolist()))
    return [next(values) if ok else None for ok in defined.tolist()]


# ---------------------------------------------------------------------------
# Sophistication sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaRow:
    sigma: float
    naive: float
    sophisticated: float
    benchmark: float


def sigma_sweep(model: DegreeModel, alpha, cost, etheta, sigmas) -> list:
    """Large-sample expectations per sophistication share.

    The naive value is flat, the sophisticated one decreases toward the
    benchmark and meets it exactly at sigma = 1.
    """
    rows = []
    for s in sigmas:
        params = GameParams(etheta, alpha, cost, s, model)
        rows.append(SigmaRow(
            sigma=float(s),
            naive=float(infinite_naive(model, params)),
            sophisticated=float(infinite_sophisticated(model, params)),
            benchmark=float(benchmark_expectation(model, params)),
        ))
    return rows
