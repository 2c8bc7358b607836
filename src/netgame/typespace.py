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
from dataclasses import dataclass

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
    out = []
    for rule in RULES:
        for d in model.degrees:
            for obs in feasible_observed_shares(d, model.K):
                out.append(AgentType(rule, d, obs))
    return out


def believed_degree_share(rule, observed: ObservedShares, target_degree, degrees):
    """Population share the observer assigns to agents of ``target_degree``.

    A sophisticated observer uses its bias-corrected estimate; a naive one
    reads the observed share directly.  Sums to one over the degree support.
    """
    try:
        j = list(degrees).index(target_degree)
    except ValueError:
        raise ModelError(f"degree {target_degree!r} not in the support") from None
    if rule == SOPHISTICATED:
        return sophisticated_mle(observed, degrees).values[j]
    return observed.values[j]


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


def _multinomial_coeff(counts) -> int:
    coeff, rem = 1, sum(counts)
    for c in counts:
        coeff *= math.comb(rem, c)
        rem -= c
    return coeff


def draw_probability(counts, probs) -> float:
    """Multinomial probability of drawing ``counts`` with cell ``probs``."""
    p = float(_multinomial_coeff(counts))
    for c, q in zip(counts, probs):
        p *= float(q) ** c
    return p


@dataclass(frozen=True)
class ExpectationMatrix:
    """Interaction expectations ``pi`` plus the degree-ratio diagonal.

    ``pi[p, q]`` is the probability observer type p assigns to interacting
    with target type q; ``d_diag[q]`` is the target's degree ratio d_j/d_1.
    Rows sum to one, all entries are non-negative, and naive rows put zero
    mass on sophisticated columns.
    """

    types: tuple
    pi: np.ndarray
    d_diag: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        d_diag = np.asarray(self.d_diag, dtype=float)
        L = len(self.types)
        if pi.shape != (L, L) or d_diag.shape != (L,):
            raise ModelError("matrix shapes must match the type count")
        # a NaN or infinite entry makes the sum non-finite; no L x L mask needed
        if not (np.isfinite(pi.sum()) and np.isfinite(d_diag).all()):
            raise ModelError("interaction expectations and degree ratios must be finite")
        if (pi < 0).any():
            raise ModelError("interaction expectations must be non-negative")
        sums = pi.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
            raise ModelError("every row of the expectation matrix must sum to 1")
        soph_cols = [q for q, t in enumerate(self.types) if t.rule == SOPHISTICATED]
        naive_rows = [p for p, t in enumerate(self.types) if t.rule == NAIVE]
        if soph_cols and naive_rows and pi[np.ix_(naive_rows, soph_cols)].any():
            raise ModelError("naive observers cannot place mass on sophisticated types")
        pi.setflags(write=False)
        d_diag.setflags(write=False)
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "d_diag", d_diag)
        index = {(t.rule, t.degree, t.observed.counts): q
                 for q, t in enumerate(self.types)}
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
    share of degree d_j, times the believed rule share.
    """
    types = enumerate_types(model)
    d1 = model.degrees[0]
    L = len(types)
    lattices = {
        d: [obs.counts for obs in feasible_observed_shares(d, model.K)]
        for d in model.degrees
    }
    pi = np.empty((L, L))
    for p, obs_type in enumerate(types):
        u = [float(v) for v in obs_type.observed.values]
        if obs_type.rule == SOPHISTICATED:
            deg_shares = sophisticated_mle(obs_type.observed, model.degrees).values
        else:
            deg_shares = obs_type.observed.values
        row = []
        for rule_j in RULES:
            w_rule = float(believed_rule_share(obs_type.rule, rule_j, params.sigma))
            for k, d_j in enumerate(model.degrees):
                base = w_rule * float(deg_shares[k])
                for counts in lattices[d_j]:
                    row.append(base * draw_probability(counts, u))
        pi[p] = row
    d_diag = np.array([t.degree / d1 for t in types])
    return ExpectationMatrix(tuple(types), pi, d_diag)


def pi_csv_rows(system: ExpectationMatrix) -> list:
    """Header plus one labeled row per observer type, for debug dumps."""
    header = ["observer"] + [t.label for t in system.types]
    rows = [header]
    for p, t in enumerate(system.types):
        rows.append([t.label] + [repr(float(v)) for v in system.pi[p]])
    return rows
