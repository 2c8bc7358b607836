"""Agent-type enumeration and the interaction-expectation matrix.

A type is (updating rule, degree, observed neighbor shares) and there are
L = 2 * sum_k C(d_k + K - 1, K - 1) of them.  For each observer type, one
matrix row holds the probabilities the observer assigns to interacting with
every other type: degrees are weighted by the observer's estimated population
shares, the target's own neighbor draws by a multinomial driven by the
observer's observed shares, and rules by the sophistication share the
observer believes in (sophisticated observers know the true mix, naive
observers think everyone is naive).
"""

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .estimators import NAIVE, RULES, SOPHISTICATED, sophisticated_mle
from .population import (
    DegreeModel,
    GameParams,
    ModelError,
    ObservedShares,
    feasible_observed_shares,
)

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class AgentType:
    """One (rule, degree, observed shares) combination."""

    rule: str
    degree: int
    observed: ObservedShares

    def __post_init__(self):
        if self.rule not in RULES:
            raise ModelError(f"unknown updating rule {self.rule!r}")
        if self.observed.sample_size != self.degree:
            raise ModelError("observed shares must come from a sample of own degree")

    @property
    def label(self) -> str:
        shares = "/".join(f"{float(v):g}" for v in self.observed.values)
        return f"{self.rule[0]}:d{self.degree}:{shares}"


def enumerate_types(model: DegreeModel) -> list:
    """All agent types: naive block first, then ascending degree, then the
    lattice order of the observed shares (highest class ascending)."""
    lattices = [(d, feasible_observed_shares(d, model.K)) for d in model.degrees]
    return [AgentType(rule, d, obs)
            for rule in RULES for d, lattice in lattices for obs in lattice]


def believed_rule_share(observer_rule, target_rule, sigma):
    """Probability the observer assigns to the target using each rule.

    Sophisticated observers spread mass (sigma, 1 - sigma) over sophisticated
    and naive targets; naive observers put everything on naive.
    """
    if not 0 <= sigma <= 1:
        raise ModelError("sophistication share must lie in [0, 1]")
    if observer_rule not in RULES or target_rule not in RULES:
        raise ModelError("unknown updating rule")
    if observer_rule == SOPHISTICATED:
        return sigma if target_rule == SOPHISTICATED else 1 - sigma
    return 0 if target_rule == SOPHISTICATED else 1


def multinomial_pmf(counts, probs) -> np.ndarray:
    """Multinomial probabilities of every count vector under every cell-probability row.

    ``counts`` is an (n, K) array of non-negative integer count vectors and
    ``probs`` an (m, K) array of cell probabilities; entry [i, j] of the
    (m, n) result is the chance of drawing ``counts[j]`` with ``probs[i]``.
    Each probability is evaluated in log space from a log-factorial table,
    so large totals do not overflow; the relative error grows with the
    total, to about 3e-13 at 200 draws and 2e-12 at 1100.  A zero count on
    a zero cell contributes a factor of one (0 * log 0 = 0); a positive
    count on a zero cell makes the probability exactly 0.
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


def type_columns(types) -> tuple:
    """Per-type arrays read once from a type list: neighbor counts (L, K),
    degrees (L,) and a mask (L,) of the sophisticated types."""
    counts = np.array([t.observed.counts for t in types], dtype=np.int64)
    degrees = np.array([t.degree for t in types], dtype=np.int64)
    sophisticated = np.array([t.rule == SOPHISTICATED for t in types], dtype=bool)
    for column in (counts, degrees, sophisticated):
        column.setflags(write=False)
    return counts, degrees, sophisticated


@dataclass(frozen=True)
class ExpectationMatrix:
    """Interaction expectations ``pi`` plus the degree-ratio diagonal.

    ``pi[p, q]`` is the probability observer type p assigns to interacting
    with target type q; ``d_diag[q]`` is the target's degree ratio d_j/d_1,
    derived from the types.  ``columns`` holds the per-type arrays of
    :func:`type_columns`.  Rows sum to one, all entries are non-negative, and
    naive rows put zero mass on sophisticated columns.
    """

    types: tuple
    pi: np.ndarray
    d_diag: np.ndarray = field(init=False)
    # build_pi passes the columns it already read, so the types are read once
    _columns: InitVar[tuple | None] = None

    def __post_init__(self, _columns):
        pi = np.asarray(self.pi, dtype=float)
        L = len(self.types)
        if L == 0:
            raise ModelError("a type system needs at least one type")
        if pi.shape != (L, L):
            raise ModelError("matrix shape must match the type count")
        # a NaN or infinite entry makes the sum non-finite; no L x L mask needed
        if not np.isfinite(pi.sum()):
            raise ModelError("interaction expectations must be finite")
        if (pi < 0).any():
            raise ModelError("interaction expectations must be non-negative")
        sums = pi.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            raise ModelError("every row of the expectation matrix must sum to 1")
        counts, degrees, sophisticated = _columns or type_columns(self.types)
        if sophisticated.any() and pi[np.ix_(~sophisticated, sophisticated)].any():
            raise ModelError("naive observers cannot place mass on sophisticated types")
        d_diag = degrees / degrees.min()
        pi.setflags(write=False)
        d_diag.setflags(write=False)
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "d_diag", d_diag)
        object.__setattr__(self, "columns", (counts, degrees, sophisticated))
        index = {(t.rule, t.degree, c): q
                 for q, (t, c) in enumerate(zip(self.types, map(tuple, counts.tolist())))}
        object.__setattr__(self, "_index", index)

    @property
    def L(self) -> int:
        return len(self.types)

    def index(self, rule, degree, counts) -> int:
        """Row/column index of the type with the given neighbor counts."""
        try:
            return self._index[(rule, int(degree), tuple(int(c) for c in counts))]
        except KeyError:
            raise ModelError(f"no type ({rule}, {degree}, {counts})") from None

    def row(self, rule, degree, counts) -> np.ndarray:
        return self.pi[self.index(rule, degree, counts)]


def build_pi(model: DegreeModel, params: GameParams) -> ExpectationMatrix:
    """Build the L x L interaction-expectation matrix for a finite population.

    The entry for observer p and target (rule r_j, degree d_j, counts k) is
    the multinomial chance of k over d_j draws with the observer's observed
    shares as cell probabilities, times the observer's believed population
    share of degree d_j, times the believed rule share.  Both rules read the
    same observations, so one :func:`multinomial_pmf` call per target degree
    over the L/2 distinct ones fills that degree's columns in all four blocks.
    """
    types = enumerate_types(model)
    counts, degrees, sophisticated = type_columns(types)
    half = len(types) // 2  # the sophisticated block repeats the naive block's order
    observed = counts[:half] / degrees[:half, None]
    deg_shares = {NAIVE: observed, SOPHISTICATED: np.array(
        [sophisticated_mle(t.observed, model.degrees) for t in types[half:]], dtype=float)}
    pi = np.empty((len(types), len(types)))
    for k, d_j in enumerate(model.degrees):
        cols = np.flatnonzero(degrees[:half] == d_j)
        pmf = multinomial_pmf(counts[cols], observed)
        for r, rule in enumerate(RULES):
            for r_j, rule_j in enumerate(RULES):
                w_rule = float(believed_rule_share(rule, rule_j, params.sigma))
                start = r_j * half + cols[0]
                np.multiply((w_rule * deg_shares[rule][:, k])[:, None], pmf,
                            out=pi[r * half:(r + 1) * half, start:start + len(cols)])
    return ExpectationMatrix(tuple(types), pi, _columns=(counts, degrees, sophisticated))


def pi_csv_rows(system: ExpectationMatrix) -> list:
    """Header plus one labeled row per observer type, for debug dumps."""
    header = ["observer"] + [t.label for t in system.types]
    rows = [header]
    for p, t in enumerate(system.types):
        rows.append([t.label] + [repr(float(v)) for v in system.pi[p]])
    return rows
