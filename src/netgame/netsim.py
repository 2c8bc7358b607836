"""Finite configuration-model networks as a Monte-Carlo oracle.

Stub matching keeps self-loops and multi-edges by default (the classic
construction, and the fast path for large n); ``simple=True`` re-draws
offending stub pairs a bounded number of times, occasionally dissolving a few
accepted edges to escape dead ends.  Each simple-mode round judges all of its
pairs at once with array operations; the dissolve step draws its edges one at
a time.  Node counts per class come from largest-remainder rounding with ties
going to the lower degree class; if the resulting stub total is odd, one stub
is removed from the last node of the highest-degree class (that node's
realized degree drops by one, and the network records the adjustment).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .estimators import debias_shares
from .population import DegreeModel, ModelError, biased_neighbor_share

MAX_ROUNDS = 200  # re-draw rounds of simple mode before giving up
WRITE_ROWS = 1 << 14  # edge-list lines formatted per write; bounds the Python ints held


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


def _check_graphical(node_degree: np.ndarray) -> None:
    """Raise ``ModelError`` unless some simple graph has these node degrees.

    Erdos-Gallai: with the degrees d_1 >= ... >= d_n, every k needs
    sum_{i<=k} d_i <= k(k-1) + sum_{i>k} min(d_i, k).  Past the top degree
    the left side is at most k(k-1), so only k = 1 .. d_1 are tested.
    """
    n = len(node_degree)
    per_value = np.bincount(node_degree)
    top = len(per_value) - 1
    prefix = np.concatenate(([0], np.cumsum(np.repeat(np.arange(top, -1, -1),
                                                      per_value[::-1]))))
    k = np.arange(1, top + 1)
    at_least = n - np.cumsum(per_value)[:-1]  # nodes of degree >= k
    # past position k, a node of degree >= k adds k, any other its degree
    split = np.maximum(k, at_least)
    lhs = prefix[k]
    rhs = k * (k - 1) + k * (split - k) + prefix[-1] - prefix[split]
    bad = np.flatnonzero(lhs > rhs)
    if len(bad):
        i = bad[0]
        raise ModelError(f"no simple realization exists: Erdos-Gallai fails at "
                         f"k = {k[i]} ({lhs[i]} > {rhs[i]})")


def generate(model: DegreeModel, n: int, seed, simple: bool = False) -> SampledNetwork:
    """Draw a configuration-model network with the model's degree mix.

    Stubs (one per unit of degree) are shuffled and paired consecutively.
    Simple mode first rejects, before drawing anything, a degree sequence
    that no simple graph has (Erdos-Gallai).  Then pairs forming self-loops
    or duplicate edges are pooled and re-drawn for up to ``MAX_ROUNDS``
    rounds.  A round rejects, as array
    operations over its pairs, every self-loop, every edge accepted in an
    earlier round and every repeat of an edge first drawn earlier in the
    round; the rejected stubs return to the pool in pool order, followed by
    the stubs of a few accepted edges dissolved one at a time.  Edges come
    out as ``(lo, hi)`` in acceptance order.
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

    if simple:
        _check_graphical(node_degree)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), node_degree)
    if not simple:
        edges = rng.permutation(stubs).reshape(-1, 2)
        return SampledNetwork(model, node_class, node_degree, edges,
                              seed, simple, parity_adjusted)

    accepted = np.empty(0, dtype=np.int64)  # edge keys lo * n + hi, in acceptance order
    known = accepted                          # the same keys, sorted
    pool = stubs
    for _ in range(MAX_ROUNDS):
        pool = rng.permutation(pool)
        u, v = pool[0::2], pool[1::2]
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        # A pair is kept when it is no self-loop, its edge was not accepted in
        # an earlier round, and no earlier pair of this round has the same key.
        # Ties are broken by the smallest pair index of each run of equal keys,
        # since a stable argsort of int64 keys is several times slower.
        order = np.argsort(keys)
        ranked = keys[order]
        runs = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        first = np.zeros(len(keys), dtype=bool)
        first[np.minimum.reduceat(order, runs)] = True
        # -1 past the end of ``known`` matches no key, so positions beyond the
        # largest accepted key read as "not accepted".
        earlier = np.append(known, -1)[np.searchsorted(known, keys)] == keys
        keep = (u != v) & first & ~earlier
        fresh = keys[keep]
        accepted = np.concatenate((accepted, fresh))
        known = np.sort(np.concatenate((known, fresh)))
        rejected = pool.reshape(-1, 2)[~keep].ravel()
        if not len(rejected):
            edges = np.column_stack((accepted // n, accepted % n))
            return SampledNetwork(model, node_class, node_degree, edges,
                                  seed, simple, parity_adjusted)
        # Dead ends (e.g. two stubs of the same node left) need fresh material:
        # dissolve a few accepted edges back into the pool before retrying.
        n_back = min(len(accepted), max(1, len(rejected) // 2))
        back = np.empty(n_back, dtype=np.int64)
        for i in range(n_back):
            idx = int(rng.integers(len(accepted)))
            back[i] = accepted[idx]
            accepted = np.delete(accepted, idx)
        known = np.delete(known, np.searchsorted(known, back))
        pool = np.concatenate((rejected, np.column_stack((back // n, back % n)).ravel()))
    raise ModelError(f"no simple realization found within {MAX_ROUNDS} rounds")


@dataclass(frozen=True)
class NeighborShareSummary:
    """Per-node neighbor class counts and shares, plus the population average."""

    counts: np.ndarray
    shares: np.ndarray
    average: np.ndarray


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
    return NeighborShareSummary(counts, shares, shares.mean(axis=0))


def degree_assortativity(net: SampledNetwork) -> float:
    """Pearson correlation of degrees across edge endpoints (both directions).

    Computed from the symmetric table of edge-end pairs of realized degrees,
    not classes: a parity-adjusted node counts at degree d_K - 1.
    Configuration-model realizations hover near zero; returns 0.0 when only
    one degree value occurs, where no sorting is measurable.
    """
    values, index = np.unique(net.node_degree, return_inverse=True)
    D = len(values)
    if D == 1:
        return 0.0
    pairs = np.bincount(index[net.edges[:, 0]] * D + index[net.edges[:, 1]],
                        minlength=D * D).reshape(D, D)
    table = pairs + pairs.T
    ends = table.sum(axis=1)
    dev = values - ends @ values / ends.sum()
    return float(dev @ table @ dev / (ends @ dev**2))


@dataclass(frozen=True)
class MonteCarloReport:
    """Trial-level estimator behavior on sampled networks."""

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
    if seed < 0:
        raise ModelError(f"seed must be non-negative, got {seed}")
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

    ``trials_per_n`` gives the trial count for each entry of ``ns``.
    Returns (ns, mean absolute deviations, slope).
    """
    tilde = np.array([float(v) for v in biased_neighbor_share(model)])
    devs = []
    for i, (n, trials) in enumerate(zip(ns, trials_per_n, strict=True)):
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
    pairs = np.column_stack((lo[order], hi[order]))
    with open(path, "w", newline="\n") as fh:
        for start in range(0, len(pairs), WRITE_ROWS):
            rows = pairs[start:start + WRITE_ROWS]
            fh.write(("%d %d\n" * len(rows)) % tuple(rows.ravel().tolist()))


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
