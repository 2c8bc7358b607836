"""Naive and bias-correcting estimators of the degree distribution.

A random neighbor over-represents high-degree classes, so observed neighbor
shares are a biased sample of the population shares.  The naive rule reports
the observed shares as-is; the sophisticated rule divides each observed share
by its degree and renormalizes, which inverts the sampling bias exactly and
maximizes the multinomial likelihood of the observed neighbor counts.
"""

import math

from .population import ModelError, ordered_sum

NAIVE = "naive"
SOPHISTICATED = "sophisticated"
RULES = (NAIVE, SOPHISTICATED)


def debias_shares(values, degrees) -> tuple:
    """Divide shares by their degree and renormalize (the bias-inverting map).

    Applied to the biased neighbor shares this returns the true population
    shares exactly; classes with zero observed mass stay at zero.  The
    weights are added left to right (:func:`~netgame.population.ordered_sum`),
    so a float result has the same bits on every Python version.  ``values``
    may also be K numpy columns, one per class, of many share vectors: each
    vector is then debiased bit for bit as alone, and K columns come back.
    """
    if len(values) != len(degrees):
        raise ModelError("shares and degrees must have equal length")
    weights = [v / d for v, d in zip(values, degrees)]
    total = ordered_sum(weights)
    nonzero = total.all() if hasattr(total, "all") else total != 0
    if not nonzero:
        raise ModelError("cannot debias an all-zero share vector")
    return tuple(w / total for w in weights)


def sophisticated_mle(shares, degrees) -> tuple:
    """Degree-debiased maximum-likelihood estimate of the population shares
    from one agent's observed neighbor ``shares``, or from many agents' as
    numpy columns (see :func:`debias_shares`)."""
    return debias_shares(shares, degrees)


def observed_high_share(delta2, epsilon):
    """Share of high-degree neighbors observed when the true share is ``delta2``.

    Two-degree-class shorthand for :func:`netgame.population.biased_neighbor_share`
    with excess ratio ``epsilon`` = d_2/d_1 - 1.
    """
    return (1 + epsilon) * delta2 / (1 + epsilon * delta2)


def bias_surface(epsilon, grid=None) -> list:
    """Naive-minus-sophisticated estimate of the high share across true shares.

    With two degree classes the sophisticated estimate recovers the true share
    exactly while the naive one reports the biased neighbor share, so the gap
    is ``observed_high_share(x, epsilon) - x``: zero at both endpoints, a
    single interior maximum, and pointwise increasing in the excess ratio.
    Returns (true share, gap) pairs over a 1001-point grid by default.
    """
    if not math.isfinite(epsilon):
        raise ModelError(f"excess ratio must be finite, got {epsilon}")
    if epsilon < 0:
        raise ModelError("excess ratio must be non-negative")
    if grid is None:
        from fractions import Fraction

        grid = [Fraction(i, 1000) if isinstance(epsilon, Fraction) else i / 1000
                for i in range(1001)]
    return [(x, observed_high_share(x, epsilon) - x) for x in grid]
