"""Degree populations, biased neighbor sampling, and the neighbor-count lattice.

Agents live on a large random network in which the chance of meeting someone
as a neighbor is proportional to that person's degree.  This module holds the
population primitives everything else builds on: the degree support with its
true shares, the game parameters, and the finite lattice of neighbor-count
vectors an agent with a given degree can possibly observe (its observed
shares are the counts over its degree).

Values may be floats or :class:`fractions.Fraction`; every operation here is
plain arithmetic, so exact inputs give exact outputs.
"""

import functools
import math
import numbers
import operator
from dataclasses import InitVar, dataclass

SHARE_TOL = 1e-12
MEMORY_BUDGET = 2 << 30  # bytes of the large arrays one call may hold at once


def ordered_sum(values):
    """``values`` added one at a time from the left, starting at 0.

    So ``sum`` adds before Python 3.12; from 3.12 it adds floats with
    compensation, which moves a result's last bits.  Ints and fractions add
    exactly either way.  Numpy arrays add elementwise, each entry in the same
    order as a scalar sum.
    """
    return functools.reduce(operator.add, values, 0)


def _positive_integer(x) -> bool:
    """True for a whole number >= 1; False for NaN, infinities and non-numbers."""
    try:
        return x == int(x) and int(x) >= 1
    except (TypeError, ValueError, OverflowError):
        return False


class ModelError(ValueError):
    """A model, parameter set, or observation violates its invariants."""


class StabilityError(ModelError):
    """Complementarities too strong relative to costs: no stable equilibrium."""


class ConvergenceError(RuntimeError):
    """A solve failed to reach tolerance; carries the last residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def check_budget(need: int, what: str) -> None:
    """Raise ``ModelError`` when ``need`` bytes of ``what`` pass ``MEMORY_BUDGET``;
    called where an array's size is known, before it or anything it needs is made."""
    if need > MEMORY_BUDGET:
        raise ModelError(f"{what} need {need} bytes ({need / 2**30:.3g} GiB), over the "
                         f"budget of {MEMORY_BUDGET} bytes")


@dataclass(frozen=True)
class DegreeModel:
    """Degree support ``d_1 < ... < d_K`` with the true population shares."""

    degrees: tuple
    shares: tuple

    def __post_init__(self):
        degrees = []
        for d in self.degrees:
            if not _positive_integer(d):
                raise ModelError(f"degrees must be positive integers, got {d!r}")
            degrees.append(int(d))
        object.__setattr__(self, "degrees", tuple(degrees))
        object.__setattr__(self, "shares", tuple(self.shares))
        if len(self.degrees) < 2:
            raise ModelError("need at least two degree classes")
        if len(self.shares) != len(self.degrees):
            raise ModelError("degrees and shares must have equal length")
        if any(a >= b for a, b in zip(self.degrees, self.degrees[1:])):
            raise ModelError("degrees must be distinct and strictly increasing")
        check_shares(self.shares)

    @property
    def K(self) -> int:
        return len(self.degrees)

    @property
    def exact(self) -> bool:
        # a share inside (0, 1) that is Rational is a fraction, never an int
        return any(isinstance(s, numbers.Rational) for s in self.shares)

    @property
    def rho(self) -> tuple:
        """Degree ratios d_k / d_1, a scale-free measure of degree spread."""
        d1 = self.degrees[0]
        if self.exact:
            from fractions import Fraction

            return tuple(Fraction(d, d1) for d in self.degrees)
        return tuple(d / d1 for d in self.degrees)


@dataclass(frozen=True)
class GameParams:
    """Preference mean, complementarity level, action cost, sophistication share.

    The complementarity level ``alpha`` is normalized by the lowest degree (the
    per-link weight is ``alpha / d_1``), which keeps the game comparable when
    every degree is scaled up.  Construction is rejected when ``alpha * d_K/d_1``
    exceeds ``cost`` for the model these parameters are meant for; strictly
    below is what guarantees a unique solution of the finite type system, and
    sitting exactly on the boundary still leaves every large-sample closed form
    finite (their denominators involve share-weighted moments, which stay
    strictly below the top ratio) while finite solves fail loudly.
    """

    mean_preference: "float | Fraction"
    alpha: "float | Fraction"
    cost: "float | Fraction"
    sigma: "float | Fraction"
    model: InitVar[DegreeModel]

    def __post_init__(self, model):
        self.check(self.mean_preference, self.alpha, self.cost, self.sigma)
        rho_max = model.rho[-1]
        if self.alpha * rho_max > self.cost:
            raise StabilityError(
                "stability requires alpha * d_K/d_1 <= cost; got "
                f"alpha={self.alpha}, d_K/d_1={rho_max}, cost={self.cost}"
            )

    @staticmethod
    def check(mean_preference, alpha, cost, sigma) -> None:
        """Raise ``ModelError`` unless the scalars pass every check that needs no model.

        Each must be finite, E[theta] >= 0, alpha >= 0, cost > 0 and sigma in [0, 1].
        """
        values = {"mean_preference": mean_preference, "alpha": alpha, "cost": cost,
                  "sigma": sigma}
        for name, value in values.items():
            if not math.isfinite(float(value)):
                raise ModelError(f"{name} must be finite, got {value!r}")
        if mean_preference < 0:
            raise ModelError("mean preference must be non-negative")
        if alpha < 0:
            raise ModelError("complementarity level must be non-negative")
        if cost <= 0:
            raise ModelError("action cost must be positive")
        if not 0 <= sigma <= 1:
            raise ModelError("sophistication share must lie in [0, 1]")


def check_shares(shares) -> None:
    """Raise ``ModelError`` unless every share lies inside (0, 1) and they sum
    to 1 within ``SHARE_TOL``: the checks a :class:`DegreeModel` makes."""
    for s in shares:
        if not 0 < s < 1:
            raise ModelError(f"shares must lie strictly inside (0, 1), got {s!r}")
    if abs(ordered_sum(shares) - 1) > SHARE_TOL:
        raise ModelError("shares must sum to 1")


def biased_neighbor_share(model: DegreeModel) -> tuple:
    """Chance that a random neighbor belongs to each degree class.

    Weighting the true shares by degree is what tilts neighbor samples toward
    the well connected (the friendship paradox): class k turns up with
    probability d_k * s_k / sum(d * s) rather than s_k, so classes above the
    mean degree are over-represented.
    """
    return sampling_law(model.degrees, model.shares)


def sampling_law(degrees, shares) -> tuple:
    """:func:`biased_neighbor_share` of the true ``shares`` on ``degrees``.
    ``shares`` may also be K numpy columns of many share vectors: K columns
    come back, each entry with the bits of a scalar call."""
    weights = [d * s for d, s in zip(degrees, shares)]
    total = ordered_sum(weights)
    return tuple(w / total for w in weights)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for head in _compositions(total - last, parts - 1):
            yield head + (last,)


def feasible_observed_shares(d_i: int, K: int) -> list:
    """Every neighbor-count vector an agent with ``d_i`` neighbors can observe.

    These are the compositions of d_i into K classes, so the cardinality is
    C(d_i + K - 1, K - 1); dividing one by d_i gives its observed shares.
    Ordered by the count of the highest class, ties broken by the next class
    down, and so on.
    """
    if d_i < 1:
        raise ModelError("sample size must be at least 1")
    if K < 2:
        raise ModelError("need at least two degree classes")
    return list(_compositions(int(d_i), int(K)))


def degree_ratios(model: DegreeModel) -> tuple:
    """Degree ratios with their first two moments under the true shares.

    The ratio of the moments E[rho^2]/E[rho] is the mean degree ratio of a
    random *neighbor*; it exceeds E[rho] whenever the degrees vary at all.
    """
    rho = model.rho
    e1 = ordered_sum(s * r for s, r in zip(model.shares, rho))
    e2 = ordered_sum(s * r * r for s, r in zip(model.shares, rho))
    return rho, e1, e2
