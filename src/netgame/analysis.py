"""Curvature, precision, and sophistication diagnostics for the two-class game.

Everything here works on the large-sample closed forms for two degree classes
parameterized by the excess ratio eps = d_2/d_1 - 1.  The checks are
numerical by design: second central differences against the analytic
convexity condition, piecewise-linear/Bernstein machinery for the
lower-precision comparison, and sweeps over the lowest degree and the
sophistication share.

The evaluators take raw scalars rather than validated parameter objects so
that configurations violating the global stability condition can still be
examined; grid points whose stencil leaves the locally stable region are
flagged and excluded from sign assertions instead of asserted blindly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    benchmark_expectation,
    infinite_naive,
    infinite_sophisticated,
    solve_direct,
)
from .estimators import NAIVE, SOPHISTICATED, observed_high_share
from .population import DegreeModel, GameParams, ModelError
from .typespace import build_pi, multinomial_pmf

DIFF_STEP = 1e-4
BAND_FACTOR = 10.0


# ---------------------------------------------------------------------------
# Large-sample curves indexed by the true high share or the observed share.
# ---------------------------------------------------------------------------

def mle_high_share(u, eps):
    """True high share recovered from an observed high share ``u``."""
    return u / ((1 + eps) - eps * u)


def naive_value_at_observed(u, eps, alpha, cost, etheta):
    """Naive expectation at observed high share u: E[theta]/(c - a(1+eps*u))."""
    denom = cost - alpha * (1 + eps * u)
    if denom <= 0:
        raise ModelError("naive expectation undefined: locally unstable")
    return etheta / denom


def sophisticated_value_at_observed(u, eps, alpha, cost, sigma, etheta):
    """Sophisticated expectation at observed high share u.

    The observer's corrected share pins its believed mean degree ratio;
    naive peers are believed to observe the same u in the large-sample limit.
    """
    believed = 1 + eps * mle_high_share(u, eps)
    x_n = naive_value_at_observed(u, eps, alpha, cost, etheta)
    denom = cost - sigma * alpha * believed
    if denom <= 0:
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


def benchmark_curve(delta2, eps, alpha, cost, etheta):
    """Full-information expectation E[theta]/(c - a(1 + eps*delta2))."""
    denom = cost - alpha * (1 + eps * delta2)
    if denom <= 0:
        raise ModelError("benchmark expectation undefined: locally unstable")
    return etheta / denom


def observed_share_d1(delta2, eps):
    """d/d(delta2) of the observed high share: (1+eps)/(1+eps*delta2)^2."""
    return (1 + eps) / (1 + eps * delta2) ** 2


def observed_share_d2(delta2, eps):
    """Second derivative of the observed high share."""
    return -2 * eps * (1 + eps) / (1 + eps * delta2) ** 3


def naive_convexity_rhs(delta2, eps):
    """Threshold for c/a below which the naive curve is convex:
    (1 + eps*u(delta2)) + (1+eps)/(1+eps*delta2)."""
    return (1 + eps * observed_high_share(delta2, eps)
            + (1 + eps) / (1 + eps * delta2))


def sophisticated_sufficient(delta2, eps, alpha, cost, sigma) -> bool:
    """Sufficient condition for the sophisticated curve to be convex:
    c < 2a(1 + eps*delta2) sigma^2 (given the naive curve is convex)."""
    return cost < 2 * alpha * (1 + eps * delta2) * sigma**2


# ---------------------------------------------------------------------------
# Convexity and monotonicity reports
# ---------------------------------------------------------------------------

def _stable_naive(x, eps, alpha, cost):
    return cost - alpha * (1 + eps * observed_high_share(x, eps)) > 0


def _stable_soph(x, eps, alpha, cost, sigma):
    return (_stable_naive(x, eps, alpha, cost)
            and cost - sigma * alpha * (1 + eps * x) > 0)


@dataclass(frozen=True)
class ConvexityReport:
    """Second differences of both rules' curves against the analytic condition.

    Per grid point: ``naive_second``/``soph_second`` are central second
    differences divided by h^2; ``naive_convex_predicted`` is the condition
    c/a < rhs; points within ``band`` of condition equality are inconclusive
    and points whose stencil leaves the locally stable region are excluded.
    ``naive_agree`` holds only for points that were actually checked.
    """

    eps: float
    alpha: float
    cost: float
    sigma: float
    etheta: float
    h: float
    band: float
    grid: np.ndarray
    naive_second: np.ndarray
    soph_second: np.ndarray
    naive_rhs: np.ndarray
    naive_convex_predicted: np.ndarray
    naive_stable: np.ndarray
    soph_stable: np.ndarray
    inconclusive: np.ndarray
    degenerate: bool
    soph_sufficient: np.ndarray

    @property
    def naive_checked(self) -> np.ndarray:
        if self.degenerate:
            return np.zeros(len(self.grid), dtype=bool)
        return self.naive_stable & ~self.inconclusive

    @property
    def naive_agree(self) -> np.ndarray:
        measured = self.naive_second > 0
        return (measured == self.naive_convex_predicted) | ~self.naive_checked

    @property
    def ok(self) -> bool:
        return bool(self.naive_agree.all())


def convexity_check(eps, alpha, cost, sigma=1.0, etheta=1.0, grid=None,
                    h=DIFF_STEP, band_factor=BAND_FACTOR) -> ConvexityReport:
    """Compare measured curvature of the large-sample curves with the
    analytic condition, point by point.

    The naive curve is convex exactly where c/a < (1 + eps*u) +
    (1+eps)/(1+eps*delta2); with alpha*eps == 0 both curves are flat and the
    sign test is vacuous (reported as degenerate).
    """
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)[1:-1]
    grid = np.asarray(grid, dtype=float)
    if (grid <= 0).any() or (grid >= 1).any():
        raise ModelError("curvature grid must be strictly interior to (0, 1)")
    if h <= 0 or 2 * h >= float(grid.min()):
        raise ModelError("step too large for the grid")
    band = band_factor * h
    npts = len(grid)
    naive_second = np.full(npts, np.nan)
    soph_second = np.full(npts, np.nan)
    naive_stable = np.zeros(npts, dtype=bool)
    soph_stable = np.zeros(npts, dtype=bool)
    rhs = np.array([float(naive_convexity_rhs(x, eps)) for x in grid])
    degenerate = alpha * eps == 0
    for i, x in enumerate(grid):
        stencil = (x - h, x, x + h)
        if all(_stable_naive(s, eps, alpha, cost) for s in stencil):
            naive_stable[i] = True
            f = [naive_curve(s, eps, alpha, cost, etheta) for s in stencil]
            naive_second[i] = (f[0] - 2 * f[1] + f[2]) / h**2
        if all(_stable_soph(s, eps, alpha, cost, sigma) for s in stencil):
            soph_stable[i] = True
            f = [sophisticated_curve(s, eps, alpha, cost, sigma, etheta)
                 for s in stencil]
            soph_second[i] = (f[0] - 2 * f[1] + f[2]) / h**2
    ratio = cost / alpha if alpha > 0 else math.inf
    inconclusive = np.abs(ratio - rhs) <= band
    sufficient = np.array([
        sophisticated_sufficient(x, eps, alpha, cost, sigma) for x in grid
    ])
    return ConvexityReport(
        eps=float(eps), alpha=float(alpha), cost=float(cost), sigma=float(sigma),
        etheta=float(etheta), h=float(h), band=float(band), grid=grid,
        naive_second=naive_second, soph_second=soph_second, naive_rhs=rhs,
        naive_convex_predicted=(ratio < rhs) & ~inconclusive,
        naive_stable=naive_stable, soph_stable=soph_stable,
        inconclusive=inconclusive, degenerate=degenerate,
        soph_sufficient=sufficient,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """First differences of both rules' curves over an interior grid."""

    grid: np.ndarray
    naive_first: np.ndarray
    soph_first: np.ndarray
    stable: np.ndarray
    flat: bool

    @property
    def increasing(self) -> bool:
        ok = self.stable[:-1] & self.stable[1:]
        return bool((self.naive_first[ok] > 0).all()
                    and (self.soph_first[ok] > 0).all())


def monotonicity_check(eps, alpha, cost, sigma=1.0, etheta=1.0,
                       grid=None) -> MonotonicityReport:
    """First differences of both curves; flags the flat alpha*eps == 0 case
    (the boundary of monotone) instead of calling it increasing."""
    if grid is None:
        grid = np.linspace(0.0, 1.0, 101)[1:-1]
    grid = np.asarray(grid, dtype=float)
    stable = np.array([_stable_soph(x, eps, alpha, cost, sigma) for x in grid])
    naive_vals = np.array([
        naive_curve(x, eps, alpha, cost, etheta) if stable[i] else np.nan
        for i, x in enumerate(grid)
    ])
    soph_vals = np.array([
        sophisticated_curve(x, eps, alpha, cost, sigma, etheta)
        if stable[i] else np.nan for i, x in enumerate(grid)
    ])
    return MonotonicityReport(
        grid=grid,
        naive_first=np.diff(naive_vals),
        soph_first=np.diff(soph_vals),
        stable=stable,
        flat=alpha * eps == 0,
    )


# ---------------------------------------------------------------------------
# Piecewise-linear interpolation and the Bernstein operator
# ---------------------------------------------------------------------------

def piecewise_linear(values):
    """Piecewise-linear interpolant of ``values`` on {0, 1/d, ..., 1}."""
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ModelError("need at least two lattice values")
    knots = np.linspace(0.0, 1.0, len(values))

    def s(x):
        return float(np.interp(x, knots, values))

    return s


def bernstein(func, degree: int):
    """Degree-``degree`` Bernstein operator applied to a function on [0, 1]:
    B_d(f)(x) = sum_k C(d,k) x^k (1-x)^(d-k) f(k/d).

    Reproduces linear functions exactly and, for convex f, B_d(f) >= B_{md}(f)
    pointwise on (0, 1) for every integer m >= 1 (lower degree lies higher).
    Each weight is :func:`multinomial_pmf` of the two-class lattice at
    (1 - x, x), so x must lie in [0, 1].
    """
    if degree < 1:
        raise ModelError("Bernstein degree must be at least 1")
    fvals = np.array([float(func(k / degree)) for k in range(degree + 1)])
    # the same (low, high) lattice as a two-class row of the expectation matrix
    counts = [(degree - k, k) for k in range(degree + 1)]

    def b(x):
        return float(multinomial_pmf(counts, [(1 - x, x)])[0] @ fvals)

    return b


def bernstein_interpolate(values, degree: int):
    """Interpolate lattice values and return (S, B_degree(S)).

    ``values`` live on {0, 1/degree, ..., 1}; S is their piecewise-linear
    interpolant and the operator evaluates S back at the same lattice, so
    B agrees with the plain Bernstein sum of the lattice values.
    """
    if len(values) != degree + 1:
        raise ModelError("need degree + 1 lattice values")
    s = piecewise_linear(values)
    return s, bernstein(s, degree)


# ---------------------------------------------------------------------------
# Precision sweep: finite systems against the large-sample curves
# ---------------------------------------------------------------------------

def lattice_values(solution, rule, degree) -> np.ndarray:
    """Expectations of one (rule, degree) block ordered by observed high share."""
    types = solution.system.types
    picked = [(t.observed.counts[-1], solution.xi[q])
              for q, t in enumerate(types)
              if t.rule == rule and t.degree == degree]
    if not picked:
        raise ModelError(f"no types with rule {rule!r} and degree {degree}")
    picked.sort()
    return np.array([v for _, v in picked])


@dataclass(frozen=True)
class PrecisionRow:
    d1: int
    rule: str
    class_index: int
    degree: int
    share: float
    offset: float
    value: float
    closed_form: float


@dataclass(frozen=True)
class PrecisionSweepResult:
    """Finite per-type expectations at matched observed shares, by lowest degree."""

    eps: float
    alpha: float
    cost: float
    sigma: float
    etheta: float
    d1_list: tuple
    rows: tuple
    convexity: ConvexityReport

    def values(self, rule, class_index, share):
        """(d1, value) pairs at one matched share, ordered as d1_list."""
        out = []
        for d1 in self.d1_list:
            for r in self.rows:
                if (r.d1 == d1 and r.rule == rule and r.class_index == class_index
                        and abs(r.share - share) < 1e-12):
                    out.append((d1, r.value))
        return out

    def gap(self, d1) -> float:
        """Infinity-norm distance to the closed form over this d1's rows."""
        gaps = [abs(r.value - r.closed_form) for r in self.rows if r.d1 == d1]
        return max(gaps)

    def matched_shares(self, class_index) -> list:
        return sorted({r.share for r in self.rows if r.class_index == class_index})


def _two_class_model(d1: int, eps) -> DegreeModel:
    d2 = d1 * (1 + eps)
    if abs(d2 - round(d2)) > 1e-9:
        raise ModelError(f"d1 = {d1} with eps = {eps} gives a non-integer top degree")
    # The interaction matrix does not depend on the true shares, so any valid
    # share vector works here.
    return DegreeModel((d1, int(round(d2))), (0.5, 0.5))


def precision_sweep(eps, alpha, cost, sigma, etheta, d1_list) -> PrecisionSweepResult:
    """Solve the finite system for each lowest degree (at a fixed degree ratio)
    and tabulate per-rule expectations at matched interior observed shares.

    Matched shares are the interior lattice points of the coarsest system in
    each degree class; finer systems are read at their nearest lattice point
    (exact when the degrees double, with the offset recorded).  Where the
    large-sample curves are convex the matched values decrease toward the
    closed form as precision rises.
    """
    d1_list = sorted(int(d) for d in d1_list)
    if len(d1_list) < 2:
        raise ModelError("need at least two lowest degrees to compare precision")
    convexity = convexity_check(eps, alpha, cost, sigma=sigma, etheta=etheta)
    base = _two_class_model(d1_list[0], eps)
    targets = {
        k: [i / base.degrees[k] for i in range(1, base.degrees[k])]
        for k in range(2)
    }
    rows = []
    for d1 in d1_list:
        model = _two_class_model(d1, eps)
        params = GameParams(etheta, alpha, cost, sigma, model)
        solution = solve_direct(build_pi(model, params), params)
        for k, degree in enumerate(model.degrees):
            # plain division keeps equal rationals bit-identical across degrees
            lattice = np.arange(degree + 1) / degree
            for rule in (NAIVE, SOPHISTICATED):
                vals = lattice_values(solution, rule, degree)
                for share in targets[k]:
                    j = int(np.argmin(np.abs(lattice - share)))
                    if rule == NAIVE:
                        closed = naive_value_at_observed(share, eps, alpha,
                                                         cost, etheta)
                    else:
                        closed = sophisticated_value_at_observed(
                            share, eps, alpha, cost, sigma, etheta)
                    rows.append(PrecisionRow(
                        d1=d1, rule=rule, class_index=k, degree=degree,
                        share=float(share), offset=float(lattice[j] - share),
                        value=float(vals[j]), closed_form=float(closed),
                    ))
    return PrecisionSweepResult(
        eps=float(eps), alpha=float(alpha), cost=float(cost), sigma=float(sigma),
        etheta=float(etheta), d1_list=tuple(d1_list), rows=tuple(rows),
        convexity=convexity,
    )


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
