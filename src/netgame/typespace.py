"""Agent-type enumeration and the interaction-expectation table.

A type is (updating rule, degree, neighbor counts): how many of the agent's
``degree`` neighbors, drawn under degree-biased sampling, fall in each degree
class; its observed shares are those counts over the degree.  The model's
degree support fixes all L = 2 * sum_k C(d_k + K - 1, K - 1) types, a naive
block and then a sophisticated block over the same L/2 observations.  An
observer's chance of meeting a target type is its believed share of the
target's degree, times the multinomial chance of the target's neighbor counts
under the observer's observed shares, times its believed share of the
target's rule (naive observers think everyone is naive).  A row depends on
the observer's rule and observed shares alone, not on its degree, so the
middle factor, which depends on neither rule nor sigma, is one U x (L/2)
table per model: a row per distinct observed share and a column per
observation.  Each row of the L x L matrix of these chances is formed from it
on demand.  A type system is its model and sigma; :class:`ExpectationMatrix`
builds its tables from them.
"""
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import RULES, sophisticated_mle
from .population import (
    DegreeModel,
    GameParams,
    ModelError,
    check_budget,
    feasible_observed_shares,
)


@dataclass(frozen=True)
class AgentType:
    """One (rule, degree, neighbor counts) combination."""

    rule: str
    degree: int
    counts: tuple

    def __post_init__(self):
        if self.rule not in RULES:
            raise ModelError(f"unknown updating rule {self.rule!r}")
        counts = tuple(self.counts)
        object.__setattr__(self, "counts", counts)
        if not (self.degree >= 1 and min(counts, default=-1) >= 0
                and sum(counts) == self.degree):
            raise ModelError(f"neighbor counts must be non-negative and sum to a degree >= 1, "
                             f"got {counts} for degree {self.degree!r}")

    @property
    def shares(self) -> tuple:
        """Observed shares: each class's neighbor count over the degree."""
        return tuple(c / self.degree for c in self.counts)

    @property
    def label(self) -> str:
        return type_labels((self.degree,), (self.shares,))[RULES.index(self.rule)]


def type_labels(degrees, shares) -> list:
    """Labels such as ``s:d4:0.75/0.25``: a rule's initial, the degree, then each
    observed share with ``:g``.  Given each observation's degree and shares,
    the naive block's labels and then the sophisticated block's; each
    observation's text is formatted once for both."""
    tails = [f"d{d}:" + "/".join(f"{v:g}" for v in row) for d, row in zip(degrees, shares)]
    return [f"{rule[0]}:{tail}" for rule in RULES for tail in tails]


def enumerate_types(model: DegreeModel) -> list:
    """All agent types: naive block first, then ascending degree, then the
    lattice order of the neighbor counts (highest class ascending)."""
    lattices = [(d, feasible_observed_shares(d, model.K)) for d in model.degrees]
    return [AgentType(rule, d, counts)
            for rule in RULES for d, lattice in lattices for counts in lattice]


def multinomial_pmf(counts, probs) -> np.ndarray:
    """Multinomial probabilities of every count vector under every cell-probability row.

    ``counts`` is an (n, K) array of non-negative integer count vectors and
    ``probs`` an (m, K) array of cell probabilities; entry [i, j] of the
    (m, n) result is the chance of drawing ``counts[j]`` with ``probs[i]``.
    Each probability is evaluated in log space from a log-factorial table, so
    large totals do not overflow; the relative error grows with the total, to
    about 3e-13 at 200 draws and 2e-12 at 1100.  A zero count on a zero cell
    contributes a factor of one (0 * log 0 = 0); a positive count on a zero
    cell makes the chance 0.  Column j depends on ``counts[j]`` alone, so its
    bits do not depend on which other count vectors share the call.
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.ndim != 2 or probs.ndim != 2 or counts.shape[1] != probs.shape[1]:
        raise ModelError("counts and probabilities must be (n, K) and (m, K) arrays")
    if not (np.isfinite(counts).all() and (counts >= 0).all()
            and (counts == np.floor(counts)).all()):
        raise ModelError("counts must be non-negative integers")
    if not (np.isfinite(probs).all() and (probs >= 0).all()):
        raise ModelError("cell probabilities must be finite and non-negative")
    whole = counts.astype(np.int64)
    totals = whole.sum(axis=1)
    log_fact = np.array([math.lgamma(t + 1) for t in range(int(totals.max(initial=0)) + 1)])
    zero = probs == 0
    log_p = np.log(probs, out=np.zeros_like(probs), where=~zero)
    out = np.einsum("ik,jk->ij", log_p, counts)  # the only (m, n) array
    out += log_fact[totals] - log_fact[whole].sum(axis=1)
    for k in np.flatnonzero(zero.any(axis=0)):
        out[np.ix_(zero[:, k], whole[:, k] > 0)] = -np.inf
    return np.exp(out, out=out)


def _lattice(degrees) -> tuple:
    """Neighbor counts (L/2, K) and degree (L/2,) of every observation in the
    order of :func:`enumerate_types`, with one slice per degree."""
    lattices = [feasible_observed_shares(d, len(degrees)) for d in degrees]
    counts = np.array([c for lattice in lattices for c in lattice], dtype=np.int64)
    edges = [0, *itertools.accumulate(map(len, lattices))]
    return (counts, np.repeat(np.array(degrees, dtype=np.int64), np.diff(edges)),
            tuple(slice(a, b) for a, b in zip(edges, edges[1:])))


def _share_rows(counts) -> tuple:
    """Each observation's distinct-share number, counted in order of first
    appearance, and each share's first observation.  Two observations have
    equal shares just when their counts, each divided by the gcd of its own
    (which divides the degree), are equal: integers are compared, never
    floats."""
    keys = list(map(tuple, (counts // np.gcd.reduce(counts, axis=1)[:, None]).tolist()))
    # key -> its first observation: zipped in reverse, the first is written last
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    firsts = np.sort(np.fromiter(first.values(), np.intp, len(first)))
    number = np.empty(len(keys), np.intp)
    number[firsts] = np.arange(len(firsts))
    return number[np.fromiter(map(first.__getitem__, keys), np.intp, len(keys))], firsts


def distinct_share_count(degrees) -> int:
    """U, the number of distinct observed shares over the lattices of ``degrees``,
    with none enumerated.  Degree d's shares are the points of the simplex with
    denominators dividing d, so the lattices of a degree set S share exactly
    the C(gcd(S) + K - 1, K - 1) shares of gcd(S)'s, and by inclusion-exclusion
    U = sum over non-empty S of (-1)^(|S|+1) C(gcd(S) + K - 1, K - 1).  The
    subsets are summed by their gcd, one degree at a time, so the work grows
    with the number of divisors, not with 2^K."""
    K = len(degrees)
    signs = {}  # gcd(S) -> the sum of (-1)^(|S|+1) over the subsets S so far
    for d in degrees:
        for g, sign in list(signs.items()):  # each S gains S + {d}, of opposite sign
            h = math.gcd(g, d)
            signs[h] = signs.get(h, 0) - sign
        signs[d] = signs.get(d, 0) + 1
    return sum(sign * math.comb(g + K - 1, K - 1) for g, sign in signs.items())


def check_fits(model: DegreeModel) -> None:
    """Raise ``ModelError`` when the model's U x (L/2) table, the one U^2 rule
    block a solve forms from it and the Fortran copy of it LAPACK makes would
    pass ``MEMORY_BUDGET``; L = 2 * sum_k C(d_k + K - 1, K - 1) and U
    (:func:`distinct_share_count`) come from the degrees, so no type is
    enumerated."""
    half = sum(math.comb(d + model.K - 1, model.K - 1) for d in model.degrees)
    U = distinct_share_count(model.degrees)
    check_budget(8 * U * (half + 2 * U), f"L = {2 * half} types over U = {U} distinct shares: "
                                         "the U x (L/2) table, a U^2 solve block and "
                                         "LAPACK's copy of it")


@dataclass(frozen=True)
class ExpectationMatrix:
    """The type system of ``model`` at sophistication share ``sigma``: a naive and
    then a sophisticated block over the observations its degree support fixes,
    as :func:`enumerate_types` lists them.

    Both are checked before anything is built: a bad sigma, or a model whose
    table and solve would pass ``MEMORY_BUDGET`` bytes (:func:`check_fits`),
    raises ``ModelError`` before any observation is enumerated.  Derived and
    read-only: each observation's ``counts`` (L/2, K), ``degrees`` (L/2,)
    and ``rho`` (degree over d_1), with ``blocks``, each degree's slice of them,
    and ``share_row`` (L/2,), the row of its observed shares among the U
    distinct ones, numbered in order of first appearance.  Per distinct share:
    ``beliefs[r, u, k]``, the share of degree class k a ``RULES[r]`` observer of
    share u believes in (naive observers believe their observed shares,
    sophisticated ones :func:`sophisticated_mle` of them, formed for every share
    in one call); and ``pmf[u, q]``, the chance of observation q's counts with
    share u as cell probabilities, from one :func:`multinomial_pmf` call that
    both rules read.  Observers with equal shares thus read one row.  The rule
    is an axis: type q is observation q mod L/2 under ``RULES[q // (L/2)]``.
    Nothing else is cached for a solve: it forms its blocks, and its gate's
    norm, from these arrays.  Systems compare and hash by model and sigma.
    """

    model: DegreeModel
    sigma: float
    pmf: np.ndarray = field(init=False, repr=False, compare=False)
    beliefs: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)
    rho: np.ndarray = field(init=False, repr=False, compare=False)
    share_row: np.ndarray = field(init=False, repr=False, compare=False)
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.model, DegreeModel):
            raise ModelError(f"a type system is built on a DegreeModel, got {self.model!r}")
        GameParams.check(0, 0, 1, self.sigma)  # the other scalars pass
        check_fits(self.model)
        counts, degrees, blocks = _lattice(self.model.degrees)
        share_row, first = _share_rows(counts)
        # a correctly rounded division gives equal shares equal bits
        observed = counts[first] / degrees[first, None]
        sophisticated = np.stack(sophisticated_mle(observed.T, self.model.degrees), axis=1)
        beliefs = np.stack([observed, sophisticated])
        arrays = {"pmf": multinomial_pmf(counts, observed), "beliefs": beliefs,
                  "counts": counts, "degrees": degrees, "rho": degrees / degrees[0],
                  "share_row": share_row}
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "blocks", blocks)

    @property
    def L(self) -> int:
        return 2 * len(self.degrees)

    @property
    def U(self) -> int:
        """The number of distinct observed shares: one unknown per rule each."""
        return len(self.pmf)

    @property
    def observations(self) -> tuple:
        """Degree and observed shares of each of the L/2 observations, as a list
        of ints and a list of float lists, in the row order of either rule block."""
        return self.degrees.tolist(), self.beliefs[0, self.share_row].tolist()

    @functools.cached_property
    def types(self) -> tuple:
        """Each row's :class:`AgentType`, made when first read."""
        return tuple(enumerate_types(self.model))

    @property
    def pi(self) -> np.ndarray:
        """``pi[p, q]``, observer type p's chance of meeting type q: every
        :meth:`pi_row` assembled afresh on each read, once its L^2 * 8 bytes pass
        the ``MEMORY_BUDGET`` check.  A dense oracle; no solve or dump reads it."""
        L = self.L
        check_budget(8 * L * L, f"the L^2 = {L * L} entries of pi")
        pi = np.empty((L, L))
        for p in range(L):
            pi[p] = self.pi_row(p)
        return pi

    def pi_row(self, p) -> np.ndarray:
        """Row p of ``pi``, formed from the table row of observer p's shares: each
        target block's ``pmf`` columns times (believed rule share x believed degree
        share)."""
        half = self.L // 2
        r, o = divmod(p, half)
        u = self.share_row[o]
        row = np.empty((2, half))
        # [observer rule][target rule]: naive observers think everyone is naive
        for r_j, w_rule in enumerate(((1, 0), (1 - self.sigma, self.sigma))[r]):
            weights = float(w_rule) * self.beliefs[r, u]
            for k, cols in enumerate(self.blocks):
                np.multiply(weights[k], self.pmf[u, cols], out=row[r_j, cols])
        return row.ravel()

    @functools.cached_property
    def _index(self) -> dict:
        rows = zip(self.degrees.tolist(), map(tuple, self.counts.tolist()))
        return {(rule, d, c): q for q, (rule, (d, c)) in enumerate(itertools.product(RULES, rows))}

    def index(self, rule, degree, counts) -> int:
        """Row/column index of the type with the given neighbor counts.  Keys
        compare by value, so 2.0 finds degree 2, but 2.5 finds no type."""
        try:
            return self._index[(rule, degree, tuple(counts))]
        except (KeyError, TypeError):
            raise ModelError(f"no type ({rule}, {degree}, {counts})") from None

    def row(self, rule, degree, counts) -> np.ndarray:
        return self.pi_row(self.index(rule, degree, counts))


def build_pi(model: DegreeModel, params: GameParams) -> ExpectationMatrix:
    """Build a finite population's type system at ``params.sigma``."""
    return ExpectationMatrix(model, params.sigma)


def pi_csv_rows(system: ExpectationMatrix):
    """Header, then one labeled row of floats per observer type, each formed and
    yielded one at a time for debug dumps."""
    labels = type_labels(*system.observations)
    yield ["observer", *labels]
    for p, label in enumerate(labels):
        yield [label, *system.pi_row(p).tolist()]
