"""Finite configuration-model networks as a Monte-Carlo oracle.

Stub matching keeps self-loops and multi-edges by default (the classic
construction, and the fast path for large n); ``simple=True`` re-draws
offending stub pairs a bounded number of times, occasionally dissolving a few
accepted edges to escape dead ends.  Each simple-mode round judges all of its
pairs at once with array operations and merges the keys it accepts into the
sorted keys of earlier rounds; the dissolve step draws its edges one at a
time.  Node counts per class come from largest-remainder rounding with ties
going to the lower degree class; if the resulting stub total is odd, one stub
is removed from the last node of the highest-degree class (that node's
realized degree drops by one, and the network records the adjustment).

The unshuffled draw (nodes class by class, each node's stubs paired in node
order) depends only on the model and n, so ``monte_carlo_estimator_check``
and ``sampling_error_scaling`` lay it out once per call (per size) and shuffle
multigraph trials from it into one reused stub buffer.  The check's trial 0,
kept for export, is drawn by ``generate`` into an array of its own.
"""

import json
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .estimators import debias_shares
from .population import DegreeModel, ModelError, biased_neighbor_share

MAX_ROUNDS = 200  # re-draw rounds of simple mode before giving up
WRITE_ROWS = 1 << 14  # edge-list lines formatted per write; bounds the byte buffer per write
MAX_NODES = math.isqrt(np.iinfo(np.int64).max)  # edge keys lo * n + hi stay within int64


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
        # the edge keys lo * n + hi and the per-node counts assume node ids
        if self.m and not (self.edges.min() >= 0 and self.edges.max() < self.n):
            raise ModelError(f"edge endpoints must be node ids 0 .. {self.n - 1}")

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


def _integer(value, what: str) -> int:
    """``value`` as a Python int, or ``ModelError`` naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ModelError(f"{what} must be an integer, got {value!r}") from None


def _node_count(n) -> int:
    """``n`` as a Python int within the range ``generate`` can draw, or ``ModelError``."""
    n = _integer(n, "node count")
    if n < 2:
        raise ModelError("need at least two nodes")
    if n > MAX_NODES:
        raise ModelError(f"need at most {MAX_NODES} nodes, got {n}")
    return n


def _seed(seed):
    """``seed`` as a non-negative Python int, or a sequence of them as a list of ints."""
    try:
        value = operator.index(seed)
    except TypeError:
        try:
            value = [operator.index(word) for word in seed]
        except TypeError:
            raise ModelError(f"seed must be a non-negative integer or a sequence of them, "
                             f"got {seed!r}") from None
    words = value if isinstance(value, list) else [value]
    if any(word < 0 for word in words):
        raise ModelError(f"seed must be non-negative, got {seed}")
    return value


def _trial_count(trials) -> int:
    """``trials`` as a positive Python int, or ``ModelError``."""
    trials = _integer(trials, "trial count")
    if trials < 1:
        raise ModelError("need at least one trial")
    return trials


def _trial_seed(seed, *words) -> list:
    """The seed of one trial: ``seed``'s words (as ``_seed`` returns them), then ``words``."""
    return [*seed, *words] if isinstance(seed, list) else [seed, *words]


def _layout(model: DegreeModel, n: int) -> SampledNetwork:
    """The unshuffled multigraph on ``n`` nodes (already checked by ``_node_count``).

    Nodes are laid out class by class, and each node's stubs are paired in
    node order; the network's seed is None.
    """
    node_class = np.repeat(np.arange(model.K), class_counts(model, n))
    node_degree = np.asarray(model.degrees)[node_class].copy()
    parity_adjusted = False
    if int(node_degree.sum()) % 2 != 0:
        victims = np.flatnonzero(node_class == model.K - 1)
        if len(victims) == 0 or node_degree[victims[-1]] < 2:
            raise ModelError("odd stub total and no node can spare a stub")
        node_degree[victims[-1]] -= 1
        parity_adjusted = True
    edges = np.repeat(np.arange(n), node_degree).reshape(-1, 2)
    return SampledNetwork(model, node_class, node_degree, edges, None, False, parity_adjusted)


def draw_multigraph(layout: SampledNetwork, seed, out: np.ndarray) -> SampledNetwork:
    """Shuffle the layout's stubs into ``out`` and pair them consecutively.

    ``out`` is an int64 array with one entry per stub (``2 * layout.m``); the
    network's edges are a view of it, so they last only until ``out`` is
    drawn into again.  Copying and shuffling in place draws the same
    permutation as ``rng.permutation`` of the stubs without allocating one.
    """
    out[:] = layout.edges.ravel()
    np.random.default_rng(seed).shuffle(out)
    return replace(layout, edges=out.reshape(-1, 2), seed=seed)


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

    ``n`` must be an integer and ``seed`` a non-negative integer or a sequence
    of them; the network records the seed as a Python int or list of ints.
    The network owns its edges: a multigraph is drawn into a fresh array.
    """
    n = _node_count(n)
    seed = _seed(seed)
    if simple and model.degrees[-1] >= n:
        raise ModelError("simple mode needs the top degree below the node count")
    layout = _layout(model, n)
    if not simple:
        return draw_multigraph(layout, seed, np.empty(2 * layout.m, dtype=np.int64))

    _check_graphical(layout.node_degree)
    rng = np.random.default_rng(seed)
    accepted = np.empty(0, dtype=np.int64)  # edge keys lo * n + hi, in acceptance order
    known = accepted                          # the same keys, sorted
    pool = layout.edges.ravel()
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
        fresh = ranked[keep[order]]  # sorted, and disjoint from ``known``
        del order, ranked, runs, first, earlier
        known = (np.insert(known, np.searchsorted(known, fresh), fresh) if len(known)
                 else fresh)
        accepted = np.concatenate((accepted, keys[keep]))
        rejected = pool.reshape(-1, 2)[~keep].ravel()
        if not len(rejected):
            edges = np.column_stack((accepted // n, accepted % n))
            return replace(layout, edges=edges, seed=seed, simple=True)
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
    deg = counts[:, 0].copy()
    for k in range(1, K):
        deg += counts[:, k]
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
    per_value = np.bincount(net.node_degree)
    values = np.flatnonzero(per_value)
    index = (np.cumsum(per_value > 0) - 1)[net.node_degree]
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

    Trial t draws from the seed ``[seed, t]`` (``[*seed, t]`` for a sequence).
    Trial 0 and every simple trial call ``generate``; trial 0 is kept as
    ``first_network``.  The other multigraph trials are drawn with
    ``draw_multigraph`` from one layout into one reused stub buffer.
    """
    n = _node_count(n)
    trials = _trial_count(trials)
    seed = _seed(seed)
    K = model.K
    degrees = [float(d) for d in model.degrees]
    naive_out = np.empty((trials, K))
    soph_out = np.empty((trials, K))
    assort = np.empty(trials)
    sd_acc = {(rule, d): [] for rule in ("naive", "sophisticated")
              for d in model.degrees}
    bounds = np.cumsum([0] + class_counts(model, n))  # ``_layout`` lays classes out in order
    if not simple and trials > 1:
        layout = _layout(model, n)
        buf = np.empty(2 * layout.m, dtype=np.int64)
    for t in range(trials):
        # trial 0 keeps its own layout on purpose: drawn from the shared one, each
        # later trial at n = 1e5 took ~2,500 more page faults in a fresh process
        if t == 0 or simple:
            net = generate(model, n, seed=_trial_seed(seed, t), simple=simple)
        else:
            net = draw_multigraph(layout, _trial_seed(seed, t), buf)
        summary = empirical_neighbor_shares(net)
        naive_out[t] = summary.average
        soph_out[t] = debias_shares(tuple(summary.average), degrees)
        assort[t] = degree_assortativity(net)
        weighted = summary.shares / np.asarray(degrees)
        soph_nodes = weighted[:, -1] / weighted.sum(axis=1)
        for k, d in enumerate(model.degrees):
            lo, hi = bounds[k], bounds[k + 1]
            if lo == hi:
                continue
            sd_acc[("naive", d)].append(float(summary.shares[lo:hi, -1].std()))
            sd_acc[("sophisticated", d)].append(float(soph_nodes[lo:hi].std()))
        if t == 0:
            first = net
        # release this trial's arrays before the next trial allocates its own
        del net, summary, weighted, soph_nodes
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

    ``trials_per_n`` gives the trial count for each entry of ``ns``; trial t
    of size i draws multigraphs from the seed ``[seed, i, t]``, each size's
    trials into one reused stub buffer.  Needs at least two distinct sizes.
    Returns (ns, mean absolute deviations, slope).
    """
    ns = [_node_count(n) for n in ns]
    trials_per_n = [_trial_count(trials) for trials in trials_per_n]
    if len(ns) != len(trials_per_n):
        raise ModelError(f"need one trial count per network size, got {len(trials_per_n)} "
                         f"for {len(ns)} sizes")
    if len(set(ns)) < 2:
        raise ModelError("need at least two distinct network sizes to fit a slope")
    seed = _seed(seed)
    tilde = np.array([float(v) for v in biased_neighbor_share(model)])
    devs = []
    for i, (n, trials) in enumerate(zip(ns, trials_per_n)):
        layout = _layout(model, n)
        buf = np.empty(2 * layout.m, dtype=np.int64)
        acc = []
        for t in range(trials):
            net = draw_multigraph(layout, _trial_seed(seed, i, t), buf)
            summary = empirical_neighbor_shares(net)
            acc.append(float(np.max(np.abs(summary.average - tilde))))
        devs.append(float(np.mean(acc)))
    slope = float(np.polyfit(np.log10(ns), np.log10(devs), 1)[0])
    return ns, devs, slope


def write_edgelist(net: SampledNetwork, path) -> None:
    """One ``u v`` pair per line, 0-indexed, sorted ascending."""
    n = net.n
    u, v = net.edges[:, 0], net.edges[:, 1]
    # one sort of the keys lo * n + hi; equal keys are identical lines
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    width = len(str(n - 1))
    with open(path, "wb") as fh:
        for start in range(0, len(keys), WRITE_ROWS):
            pairs = np.stack(np.divmod(keys[start:start + WRITE_ROWS], n), axis=1)
            fh.write(_edge_lines(pairs, width))


def _edge_lines(pairs: np.ndarray, width: int) -> bytes:
    """The bytes of ``"%d %d\\n"`` for each row of ``pairs``, all ids below 10**width.

    A (rows, 2, width + 1) byte table holds each id right-aligned with its
    leading zeros as NUL, then a space or a newline; dropping every NUL leaves
    the lines.
    """
    table = np.empty((len(pairs), 2, width + 1), dtype=np.uint8)
    table[:, :, width] = (ord(" "), ord("\n"))
    rest = pairs.astype(np.uint32)  # ids < MAX_NODES < 2**32; uint32 divides fastest
    for col in range(width - 1, -1, -1):
        quot = rest // 10
        glyph = (rest - quot * 10).astype(np.uint8) + ord("0")
        if col < width - 1:
            glyph *= rest > 0  # no digits left: a leading zero
        table[:, :, col] = glyph
        rest = quot
    return table.tobytes().replace(b"\0", b"")


def write_metadata(net: SampledNetwork, path) -> None:
    """JSON sidecar recording what was sampled and how."""
    meta = {
        "n": int(net.n),
        "degrees": [int(d) for d in net.model.degrees],
        "shares": [float(s) for s in net.model.shares],
        "seed": net.seed,
        "mode": "simple" if net.simple else "multigraph",
        "parity_adjusted": bool(net.parity_adjusted),
        "edges": int(net.m),
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
