"""Finite configuration-model networks as a Monte-Carlo oracle.

Stub matching keeps self-loops and multi-edges by default (the classic
construction, and the fast path for large n); ``simple=True`` re-draws
offending stub pairs a bounded number of times, occasionally dissolving a few
accepted edges to escape dead ends, which is plenty at desk scale.  Node
counts per class come from largest-remainder rounding with ties going to the
lower degree class; if the resulting stub total is odd, one stub is removed
from the last node of the highest-degree class (that node's realized degree
drops by one, and the network records the adjustment).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimators import debias_shares
from .population import DegreeModel, ModelError, ObservedShares, biased_neighbor_share


@dataclass(frozen=True)
class SampledNetwork:
    """One realization: class assignment, per-node degrees, and the edge list."""

    model: DegreeModel
    node_class: np.ndarray
    node_degree: np.ndarray
    edges: np.ndarray
    seed: object
    simple: bool
    parity_adjusted: bool

    def __post_init__(self):
        for name in ("node_class", "node_degree", "edges"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.node_class)

    @property
    def m(self) -> int:
        return len(self.edges)


def class_counts(model: DegreeModel, n: int) -> list:
    """Largest-remainder rounding of n * shares, ties to the lower class."""
    quotas = [n * float(s) for s in model.shares]
    counts = [math.floor(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    short = n - sum(counts)
    for k in sorted(range(model.K), key=lambda k: (-remainders[k], k))[:short]:
        counts[k] += 1
    return counts


def generate(model: DegreeModel, n: int, seed, simple: bool = False,
             max_rounds: int = 200) -> SampledNetwork:
    """Draw a configuration-model network with the model's degree mix.

    Stubs (one per unit of degree) are shuffled and paired consecutively.
    In simple mode, pairs forming self-loops or duplicate edges are pooled
    and re-drawn for up to ``max_rounds`` rounds.
    """
    if n < 2:
        raise ModelError("need at least two nodes")
    counts = class_counts(model, n)
    if simple and model.degrees[-1] >= n:
        raise ModelError("simple mode needs the top degree below the node count")
    node_class = np.repeat(np.arange(model.K), counts)
    node_degree = np.asarray(model.degrees)[node_class].copy()

    parity_adjusted = False
    if int(node_degree.sum()) % 2 != 0:
        victims = np.flatnonzero(node_class == model.K - 1)
        if len(victims) == 0 or node_degree[victims[-1]] < 2:
            raise ModelError("odd stub total and no node can spare a stub")
        node_degree[victims[-1]] -= 1
        parity_adjusted = True

    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), node_degree)
    if not simple:
        edges = rng.permutation(stubs).reshape(-1, 2)
        return SampledNetwork(model, node_class, node_degree, edges,
                              seed, simple, parity_adjusted)

    accepted: list = []
    seen: set = set()
    pool = stubs
    for _ in range(max_rounds):
        pool = rng.permutation(pool)
        rejected: list = []
        for u, v in pool.reshape(-1, 2):
            key = (u, v) if u <= v else (v, u)
            if u == v or key in seen:
                rejected.append(u)
                rejected.append(v)
            else:
                seen.add(key)
                accepted.append(key)
        if not rejected:
            edges = np.array(accepted, dtype=np.int64)
            return SampledNetwork(model, node_class, node_degree, edges,
                                  seed, simple, parity_adjusted)
        # Dead ends (e.g. two stubs of the same node left) need fresh material:
        # dissolve a few accepted edges back into the pool before retrying.
        n_back = min(len(accepted), max(1, len(rejected) // 2))
        for _ in range(n_back):
            idx = int(rng.integers(len(accepted)))
            u, v = accepted.pop(idx)
            seen.discard((u, v))
            rejected.append(u)
            rejected.append(v)
        pool = np.array(rejected, dtype=np.int64)
    raise ModelError(f"no simple realization found within {max_rounds} rounds")


@dataclass(frozen=True)
class NeighborShareSummary:
    """Per-node neighbor class counts and shares, plus the population average."""

    model: DegreeModel
    counts: np.ndarray
    shares: np.ndarray
    average: np.ndarray

    def observed(self, node: int) -> ObservedShares:
        return ObservedShares.from_counts(tuple(int(c) for c in self.counts[node]))


def empirical_neighbor_shares(net: SampledNetwork) -> NeighborShareSummary:
    """Class shares among each node's neighbors and their population average.

    Multi-edges count with multiplicity and a self-loop contributes the node's
    own class twice, so the per-node counts always total the realized degree.
    The average converges to the degree-biased sampling law as n grows.
    """
    n, K = net.n, net.model.K
    cls = net.node_class
    u, v = net.edges[:, 0], net.edges[:, 1]
    flat = np.bincount(u * K + cls[v], minlength=n * K)
    flat += np.bincount(v * K + cls[u], minlength=n * K)
    counts = flat.reshape(n, K)
    deg = counts.sum(axis=1)
    if (deg == 0).any():
        raise ModelError("isolated node encountered; degree support starts at 1")
    shares = counts / deg[:, None]
    return NeighborShareSummary(net.model, counts, shares, shares.mean(axis=0))


def degree_assortativity(net: SampledNetwork) -> float:
    """Pearson correlation of degrees across edge endpoints (both directions).

    Configuration-model realizations hover near zero; returns 0.0 for regular
    graphs, where no sorting is measurable.
    """
    du = net.node_degree[net.edges[:, 0]].astype(float)
    dv = net.node_degree[net.edges[:, 1]].astype(float)
    x = np.concatenate([du, dv])
    y = np.concatenate([dv, du])
    if np.ptp(x) == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


@dataclass(frozen=True)
class MonteCarloReport:
    """Trial-level estimator behavior on sampled networks."""

    model: DegreeModel
    n: int
    trials: int
    seed: int
    naive_estimates: np.ndarray        # (trials, K) rule applied to the average shares
    sophisticated_estimates: np.ndarray
    node_estimate_sd: dict             # (rule, degree) -> SD of per-node top-class estimates
    assortativity: np.ndarray
    predicted_naive: tuple
    predicted_sophisticated: tuple
    first_network: SampledNetwork      # trial 0's draw, kept for export

    @property
    def naive_mean(self) -> np.ndarray:
        return self.naive_estimates.mean(axis=0)

    @property
    def sophisticated_mean(self) -> np.ndarray:
        return self.sophisticated_estimates.mean(axis=0)


def monte_carlo_estimator_check(model: DegreeModel, n: int, trials: int = 20,
                                seed: int = 0, simple: bool = False) -> MonteCarloReport:
    """Generate independent networks and watch both rules recover the shares.

    The headline per-trial estimates apply each rule to the trial's
    population-average neighbor shares (their large-sample input): the naive
    rule should land on the biased shares, the sophisticated one on the true
    shares.  Dispersion of per-node estimates is reported by observing degree,
    which is where sample size shows up -- higher degree, tighter estimates.
    """
    if n < 2:
        raise ModelError("need at least two nodes")
    if trials < 1:
        raise ModelError("need at least one trial")
    K = model.K
    degrees = [float(d) for d in model.degrees]
    naive_out = np.empty((trials, K))
    soph_out = np.empty((trials, K))
    assort = np.empty(trials)
    sd_acc = {(rule, d): [] for rule in ("naive", "sophisticated")
              for d in model.degrees}
    for t in range(trials):
        net = generate(model, n, seed=[seed, t], simple=simple)
        summary = empirical_neighbor_shares(net)
        naive_out[t] = summary.average
        soph_out[t] = debias_shares(tuple(summary.average), degrees)
        assort[t] = degree_assortativity(net)
        weighted = summary.shares / np.asarray(degrees)
        soph_nodes = weighted[:, -1] / weighted.sum(axis=1)
        for k, d in enumerate(model.degrees):
            mask = net.node_class == k
            if not mask.any():
                continue
            sd_acc[("naive", d)].append(float(summary.shares[mask, -1].std()))
            sd_acc[("sophisticated", d)].append(float(soph_nodes[mask].std()))
        if t == 0:
            first = net
        # release this trial's arrays before the next draw allocates its own
        del net, summary, weighted, soph_nodes, mask
    node_sd = {key: float(np.mean(vals)) for key, vals in sd_acc.items() if vals}
    return MonteCarloReport(
        model=model, n=n, trials=trials, seed=seed,
        naive_estimates=naive_out,
        sophisticated_estimates=soph_out,
        node_estimate_sd=node_sd,
        assortativity=assort,
        predicted_naive=tuple(float(v) for v in biased_neighbor_share(model)),
        predicted_sophisticated=tuple(float(s) for s in model.shares),
        first_network=first,
    )


def sampling_error_scaling(model: DegreeModel, ns, trials_per_n, seed: int = 0):
    """Mean deviation of the average neighbor shares from the sampling law,
    per network size, with the fitted log-log slope (about -1/2).

    Returns (ns, mean absolute deviations, slope).
    """
    tilde = np.array([float(v) for v in biased_neighbor_share(model)])
    devs = []
    for i, n in enumerate(ns):
        trials = trials_per_n[i] if not np.isscalar(trials_per_n) else trials_per_n
        acc = []
        for t in range(trials):
            net = generate(model, int(n), seed=[seed, i, t])
            summary = empirical_neighbor_shares(net)
            acc.append(float(np.max(np.abs(summary.average - tilde))))
        devs.append(float(np.mean(acc)))
    slope = float(np.polyfit(np.log10(ns), np.log10(devs), 1)[0])
    return list(ns), devs, slope


def write_edgelist(net: SampledNetwork, path) -> None:
    """One ``u v`` pair per line, 0-indexed, sorted ascending."""
    lo = np.minimum(net.edges[:, 0], net.edges[:, 1])
    hi = np.maximum(net.edges[:, 0], net.edges[:, 1])
    order = np.lexsort((hi, lo))
    with open(path, "w", newline="\n") as fh:
        for i in order:
            fh.write(f"{lo[i]} {hi[i]}\n")


def write_metadata(net: SampledNetwork, path) -> None:
    """JSON sidecar recording what was sampled and how."""
    meta = {
        "n": int(net.n),
        "degrees": [int(d) for d in net.model.degrees],
        "shares": [float(s) for s in net.model.shares],
        "seed": net.seed if isinstance(net.seed, int) else list(net.seed),
        "mode": "simple" if net.simple else "multigraph",
        "parity_adjusted": bool(net.parity_adjusted),
        "edges": int(net.m),
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
