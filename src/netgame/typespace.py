"""Agent-type enumeration and the interaction-expectation table.

A type is (updating rule, degree, neighbor counts): how many of the agent's
``degree`` neighbors, drawn under degree-biased sampling, fall in each degree
class; its observed shares are those counts over the degree.  The model's
degree support fixes all L = 2 * sum_k C(d_k + K - 1, K - 1) types, a naive
block and then a sophisticated block over the same L/2 observations.  An
observer's chance of meeting a target type is its believed share of the
target's degree, times the multinomial chance of the target's neighbor counts
under the observer's observed shares, times its believed share of the
target's rule (naive observers think everyone is naive).  The middle factor
depends on neither rule nor sigma: it is one (L/2) x (L/2) table per model,
and each row of the L x L matrix of these chances is formed from it on demand.
A type system is its model and sigma; :class:`ExpectationMatrix` builds its
tables from them.
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


def multinomial_pmf(counts, probs, *, out=None) -> np.ndarray:
    """Multinomial probabilities of every count vector under every cell-probability row.

    ``counts`` is an (n, K) array of non-negative integer count vectors and
    ``probs`` an (m, K) array of cell probabilities; entry [i, j] of the
    (m, n) result, written into ``out`` if given, is the chance of drawing
    ``counts[j]`` with ``probs[i]``.  Each probability is evaluated in log
    space from a log-factorial table, so large totals do not overflow; the
    relative error grows with the total, to about 3e-13 at 200 draws and
    2e-12 at 1100.  A zero count on a zero cell contributes a factor of one
    (0 * log 0 = 0); a positive count on a zero cell makes the chance 0.
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
    out = np.einsum("ik,jk->ij", log_p, counts, out=out)  # the only (m, n) array
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


def check_fits(model: DegreeModel) -> None:
    """Raise ``ModelError`` when the model's (L/2)^2 table, the one rule block a
    solve forms from it and the Fortran copy of it LAPACK makes would pass
    ``MEMORY_BUDGET``; L = 2 * sum_k C(d_k + K - 1, K - 1) comes from the
    degrees, so no type is enumerated."""
    L = 2 * sum(math.comb(d + model.K - 1, model.K - 1) for d in model.degrees)
    check_budget(3 * 8 * (L // 2) ** 2, f"L = {L} types: the (L/2)^2 table, a solve block "
                                        "and LAPACK's copy of it")


@dataclass(frozen=True)
class ExpectationMatrix:
    """The type system of ``model`` at sophistication share ``sigma``: a naive and
    then a sophisticated block over the observations its degree support fixes,
    as :func:`enumerate_types` lists them.

    Both are checked before anything is built: a bad sigma, or a model whose
    table and solve would pass ``MEMORY_BUDGET`` bytes (:func:`check_fits`),
    raises ``ModelError`` before any observation is enumerated.  Derived and
    read-only: ``beliefs[r, p, k]``, the share of degree class k a ``RULES[r]``
    observer with observation p believes in (naive observers believe their
    observed shares, sophisticated ones :func:`sophisticated_mle` of them, formed
    for every observation in one call); ``pmf[p, q]``, the chance of observation
    q's counts with p's shares as cell probabilities, written one target degree
    at a time by :func:`multinomial_pmf` over the L/2 distinct observations both
    rules read; and each observation's ``counts`` (L/2, K), ``degrees`` (L/2,)
    and ``rho`` (degree over d_1), with ``blocks``, each degree's slice of them.
    The rule is an axis: type q is observation q mod L/2 under
    ``RULES[q // (L/2)]``.  Systems compare and hash by model and sigma.
    """

    model: DegreeModel
    sigma: float
    pmf: np.ndarray = field(init=False, repr=False, compare=False)
    beliefs: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    degrees: np.ndarray = field(init=False, repr=False, compare=False)
    rho: np.ndarray = field(init=False, repr=False, compare=False)
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.model, DegreeModel):
            raise ModelError(f"a type system is built on a DegreeModel, got {self.model!r}")
        GameParams.check(0, 0, 1, self.sigma)  # the other scalars pass
        check_fits(self.model)
        counts, degrees, blocks = _lattice(self.model.degrees)
        observed = counts / degrees[:, None]
        sophisticated = np.stack(sophisticated_mle(observed.T, self.model.degrees), axis=1)
        beliefs = np.stack([observed, sophisticated])
        pmf = np.empty((len(degrees),) * 2)
        for cols in blocks:
            multinomial_pmf(counts[cols], observed, out=pmf[:, cols])
        arrays = {"pmf": pmf, "beliefs": beliefs, "counts": counts, "degrees": degrees,
                  "rho": degrees / degrees[0]}
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "blocks", blocks)

    @property
    def L(self) -> int:
        return 2 * len(self.degrees)

    @property
    def observations(self) -> tuple:
        """Degree and observed shares of each of the L/2 observations, as a list
        of ints and a list of float lists, in the row order of either rule block."""
        return self.degrees.tolist(), self.beliefs[0].tolist()

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
        """Row p of ``pi``, formed from row p's observation in the table: each target
        block's ``pmf`` columns times (believed rule share x believed degree share)."""
        half = self.L // 2
        r, o = divmod(p, half)
        rows = slice(o, o + 1)
        row = np.empty((2, 1, half))
        # [observer rule][target rule]: naive observers think everyone is naive
        for r_j, w_rule in enumerate(((1, 0), (1 - self.sigma, self.sigma))[r]):
            self.weighted_table(float(w_rule) * self.beliefs[r, rows], row[r_j], rows)
        return row.ravel()

    def weighted_table(self, weights, out, rows=slice(None)) -> np.ndarray:
        """Write ``pmf[rows]`` into ``out``, each row's degree-k columns times its
        ``weights[:, k]``."""
        for k, cols in enumerate(self.blocks):
            np.multiply(weights[:, k, None], self.pmf[rows, cols], out=out[:, cols])
        return out

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
