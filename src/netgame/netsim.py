"""Finite configuration-model networks as a Monte-Carlo oracle.

Stub matching keeps self-loops and multi-edges by default (the classic
construction, and the fast path for large n); ``simple=True`` re-draws
offending stub pairs in rounds judged with array operations, dissolving a few
accepted edges to escape dead ends.  Node counts per class come from
largest-remainder rounding with ties going to the lower degree class; if the
stub total is odd, the last node of the highest-degree class loses one stub
(the network records the adjustment).

``monte_carlo_estimator_check`` splits its trials over the calling thread,
which takes the even ones, and one more thread, which takes the odd ones.
Each thread draws a trial and summarizes it before it draws its next.  A
multigraph trial is shuffled from the unshuffled draw (nodes class by class,
each node's stubs paired in node order), laid out once per run: trial 0,
kept for export, into edges of its own, a later one into its thread's one
stub buffer.  A simple trial is a ``generate`` call.  Each trial's seed fixes
its network, so the output bytes do not depend on which thread draws it or
when.  A thread summarizes its trials in work arrays of its own.  A trial's
summary counts one neighbor count table, from keys formed in the thread's
stub buffer: the shares divide it by the degrees, and the assortativity takes
four exact integer moments from it.  Every float sum of the shares keeps the
order of the numpy reduction it replaces, so the results keep their bits.
``sampling_error_scaling`` reads only the average shares of the same trials.
"""

import json
import math
import operator
import threading
from bisect import bisect_right, insort
from dataclasses import dataclass, replace

import numpy as np

from .estimators import debias_shares
from .population import DegreeModel, ModelError, biased_neighbor_share, check_budget

MAX_ROUNDS = 200  # re-draw rounds of simple mode before giving up
WRITE_ROWS = 1 << 14  # edge-list lines formatted per write; bounds the byte buffer per write
LOOKUP_ROWS = 1 << 16  # a simple round's pairs per repeated-key lookup; bounds its sort copies
MAX_NODES = math.isqrt(np.iinfo(np.int64).max)  # edge keys lo * n + hi stay within int64
# int64 arrays of one entry per stub, and of one per node, that a draw holds at its
# peak: the layout's stubs and the shuffled stubs, with the layout's two node arrays
# and one more while the degrees are laid out; or in simple mode, where the pool
# takes over the layout's stubs, round 1's pool and keys, and the accepted keys,
# sorted and in order, one of them twice while a dissolve copies it, with the
# layout's node arrays (under tracemalloc at n = 1e4 and 1e5, at most 0.94 of the
# charge at one to five stubs per node, and 0.86 at sixty)
DRAW_ARRAYS = {False: (2, 3), True: (4, 2)}


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
        # the edge keys lo * n + hi and the per-node counts assume node ids; one
        # reduction checks both ends, as a negative id reads as 2**63 or more unsigned
        if self.m and not self.edges.view(np.uint64).max() < self.n:
            raise ModelError(f"edge endpoints must be node ids 0 .. {self.n - 1}")
        if len(self.node_degree) != self.n:
            raise ModelError(f"need one degree per node, got {len(self.node_degree)} for {self.n}")
        if self.n and not (self.node_class.min() >= 0 and self.node_class.max() < self.model.K):
            raise ModelError(f"node classes must be 0 .. {self.model.K - 1}")

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


def _check_stub_budget(model: DegreeModel, n: int, arrays: int, node_arrays: int = 0) -> None:
    """Raise ``ModelError`` when ``arrays`` int64 arrays of the stubs ``n`` nodes
    draw, and ``node_arrays`` of one int64 per node, would pass ``MEMORY_BUDGET``
    bytes; the count is known before any is drawn."""
    stubs = sum(count * d for count, d in zip(class_counts(model, n), model.degrees))
    what = f"{stubs} stubs at n = {n}: {arrays} int64 stub arrays"
    if node_arrays:
        what += f" and {node_arrays} int64 node arrays"
    check_budget(8 * (stubs * arrays + n * node_arrays), what)


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
    """The unshuffled multigraph on ``n`` nodes (checked by ``_node_count``): nodes
    class by class, each node's stubs paired in node order, and no seed."""
    node_class = np.repeat(np.arange(model.K), class_counts(model, n))
    node_degree = np.asarray(model.degrees)[node_class].copy()
    parity_adjusted = False
    if int(node_degree.sum()) % 2 != 0:
        victims = np.flatnonzero(node_class == model.K - 1)
        if len(victims) == 0 or node_degree[victims[-1]] < 2:
            raise ModelError("odd stub total and no node can spare a stub")
        node_degree[victims[-1]] -= 1
        parity_adjusted = True
    stubs = np.repeat(np.arange(n), node_degree)  # each node id once per stub, in order
    return SampledNetwork(model, node_class, node_degree, stubs.reshape(-1, 2), None, False,
                          parity_adjusted)


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
    rounds.  A round rejects, as array operations over its pairs, every
    self-loop, every edge accepted in an earlier round and every repeat of an
    edge first drawn earlier in the round, with one sort of its edge keys.
    The rejected stubs return to the pool in pool order, followed by the
    stubs of a few accepted edges, each picked by one draw and all dissolved
    in one pass.  Edges come out as ``(lo, hi)`` in acceptance order.

    ``n`` must be an integer and ``seed`` a non-negative integer or a sequence
    of them; the network records the seed as a Python int or list of ints.
    The network owns its edges: a multigraph is drawn into a fresh array.
    A network whose int64 arrays (``DRAW_ARRAYS``: two of the stubs and three
    of the nodes, or in simple mode four and two) would pass
    ``population.MEMORY_BUDGET`` bytes raises ``ModelError`` before any is
    allocated.
    """
    n = _node_count(n)
    seed = _seed(seed)
    if simple and model.degrees[-1] >= n:
        raise ModelError("simple mode needs the top degree below the node count")
    _check_stub_budget(model, n, *DRAW_ARRAYS[simple])
    layout = _layout(model, n)
    if not simple:
        return draw_multigraph(layout, seed, np.empty(2 * layout.m, dtype=np.int64))

    _check_graphical(layout.node_degree)
    rng = np.random.default_rng(seed)
    accepted = np.empty(0, dtype=np.int64)  # edge keys lo * n + hi, in acceptance order
    known = accepted                          # the same keys, sorted
    pool = layout.edges.ravel()
    layout = replace(layout, edges=np.empty((0, 2), dtype=np.int64))  # the pool holds the stubs
    for _ in range(MAX_ROUNDS):
        pool = rng.permutation(pool)
        u, v = pool[0::2], pool[1::2]
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        # A pair is kept when it is no self-loop, its edge was not accepted in
        # an earlier round, and no earlier pair of this round has the same key.
        dropped = u == v  # the pairs whose key no pair of the round may keep
        if len(known):  # round 1 has accepted nothing to look up
            # -1 past the end of ``known`` matches no key, so positions beyond
            # the largest accepted key read as "not accepted".
            dropped |= np.append(known, -1)[np.searchsorted(known, keys)] == keys
        keep = ~dropped
        # One sort lays the keys out in runs of equal keys.  Keys drawn twice
        # or more are usually a handful, so only the pairs carrying them are
        # ordered, by a stable argsort, to keep the lowest pair of each.
        ranked = np.sort(keys)
        head = np.empty(len(ranked), dtype=bool)  # the first slot of each run
        head[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        repeated = ranked[~head]
        if len(repeated):
            # looked up a block of pairs at a time: over a long ``repeated``,
            # np.isin sorts copies of every key it is given, which over a whole
            # dense round came to three stub arrays, past the draw's charge
            twins = np.concatenate([np.flatnonzero(np.isin(keys[s:s + LOOKUP_ROWS], repeated)) + s
                                    for s in range(0, len(keys), LOOKUP_ROWS)])
            twins = twins[np.argsort(keys[twins], kind="stable")]
            keep[twins[1:][keys[twins[1:]] == keys[twins[:-1]]]] = False
        # the keys kept are the first slots of the runs, save those of dropped
        # keys: sorted, and disjoint from ``known``
        head[np.searchsorted(ranked, keys[dropped])] = False
        fresh = ranked[head]
        del ranked, head
        known = (np.insert(known, np.searchsorted(known, fresh), fresh) if len(known)
                 else fresh)
        accepted = np.concatenate((accepted, keys[keep])) if len(accepted) else keys[keep]
        rejected = pool.reshape(-1, 2)[~keep].ravel()
        if not len(rejected):
            edges = np.empty((len(accepted), 2), dtype=np.int64)
            np.divmod(accepted, n, out=(edges[:, 0], edges[:, 1]))
            return replace(layout, edges=edges, seed=seed, simple=True)
        # Dead ends (e.g. two stubs of the same node left) need fresh material:
        # dissolve a few accepted edges back into the pool before retrying.
        # Draw i picks among the edges the i draws before it left, so it is
        # shifted past the positions they took to its position in ``accepted``.
        n_back = min(len(accepted), max(1, len(rejected) // 2))
        picks, taken = [], []  # the positions in draw order, and sorted
        for i in range(n_back):
            pos = draw = int(rng.integers(len(accepted) - i))
            # the untaken position with ``draw`` untaken positions before it: the
            # least fixed point of pos = draw + (positions taken up to pos)
            while (shifted := draw + bisect_right(taken, pos)) != pos:
                pos = shifted
            insort(taken, pos)
            picks.append(pos)
        back = accepted[picks]
        accepted = np.delete(accepted, picks)
        known = np.delete(known, np.searchsorted(known, back))
        pool = np.concatenate((rejected, np.column_stack((back // n, back % n)).ravel()))
    raise ModelError(f"no simple realization found within {MAX_ROUNDS} rounds")


@dataclass(frozen=True)
class NeighborShareSummary:
    """Per-node neighbor class counts and shares, plus the population average."""

    counts: np.ndarray
    shares: np.ndarray
    average: np.ndarray


class _Work:
    """Arrays one thread's per-trial passes write into, sized for networks shaped like
    ``net``; each pass overwrites what the one before left.  ``stubs`` is that thread's
    draw buffer, where the neighbor count keys of network ``counted`` are formed: a
    network drawn into it loses its edges to them, so nothing reads its edges after
    its summary.  ``table`` is that network's neighbor count table, which the shares
    and the assortativity both read."""

    def __init__(self, net: SampledNetwork):
        self.stubs = np.empty(2 * net.m, dtype=np.int64)
        self.shares = np.empty((net.model.K, net.n))  # class-major: one class per row
        # one float per node; as int64, the degrees counted; as bool, one class's nodes
        self.node = np.empty(net.n)
        self.table = self.counted = None


def _neighbor_table(net: SampledNetwork, work: _Work) -> np.ndarray:
    """The (n, K) table of each node's neighbors by class, counted once per network.

    Stub p's partner is stub p ^ 1, so the node-major key ``node(stub p) * K +
    class(stub p ^ 1)`` counts one neighbor of that class for stub p's node; one
    bincount of the keys is the table, whose row sums must be the recorded
    degrees.  The classes are gathered in the narrowest unsigned type and each
    pair's two swapped in place by reversing the pair's bytes, then each
    class's own.  The keys are formed in ``work.stubs``: in place when the
    network was drawn there, else from a copy of its edges.
    """
    if work.counted is not net:
        work.table = work.counted = None  # free the last table before counting the next
        K, n = net.model.K, net.n
        stubs = net.edges.ravel()
        partner = net.node_class.astype(np.min_scalar_type(K - 1))[stubs]
        partner.view(f"u{2 * partner.itemsize}").byteswap(inplace=True)
        partner.byteswap(inplace=True)  # nothing to do on one byte
        keys = np.multiply(stubs, K, out=work.stubs)
        keys += partner
        del partner
        table = np.bincount(keys, minlength=K * n).reshape(n, K)
        # columns added one at a time: a row sum over the short class axis is slow
        degree = work.node.view(np.int64)
        np.copyto(degree, table[:, 0])
        for column in table.T[1:]:
            degree += column
        if not np.array_equal(degree, net.node_degree):
            raise ModelError("recorded node degrees differ from the edges' endpoint counts")
        work.table, work.counted = table, net
    return work.table


def empirical_neighbor_shares(net: SampledNetwork, *, work: _Work = None) -> NeighborShareSummary:
    """Class shares among each node's neighbors and their population average.

    Multi-edges count with multiplicity and a self-loop contributes the node's
    own class twice, so the per-node counts always total the realized degree.
    The average converges to the degree-biased sampling law as n grows.

    ``counts`` is the neighbor count table, which ``degree_assortativity``
    reads too (counted once given the same ``work``).  Shares divide it by
    ``net.node_degree``, its row sums, into ``work.shares`` when ``work`` is
    given, lasting until the next pass over the same work arrays.  Each
    average is a sequential ``cumsum`` along a class, the order
    ``shares.mean(axis=0)`` adds in, so its bits are kept.
    """
    if net.node_degree.min() == 0:
        raise ModelError("isolated node encountered; degree support starts at 1")
    work = work or _Work(net)
    table = _neighbor_table(net, work)
    np.divide(table.T, net.node_degree, out=work.shares)
    sums = np.array([np.cumsum(row, out=work.node)[-1] for row in work.shares])
    return NeighborShareSummary(table, work.shares.T, sums / net.n)


def degree_assortativity(net: SampledNetwork, *, work: _Work = None) -> float:
    """Pearson correlation of degrees across edge endpoints (both directions).

    Over the 2m edge ends, with M = sum d_i, S1 = sum d_i^2, S2 = sum d_i^3
    and S11 = sum over ends of d_u * d_v, r = (M S11 - S1^2) / (M S2 - S1^2),
    one correctly rounded division of exact integers.  Configuration-model
    realizations hover near zero; returns 0.0 when only one degree value
    occurs, where no sorting is measurable.  S1 is one integer dot of the
    degrees; M, S2 and S11 are integer sums of the neighbor count table (see
    ``empirical_neighbor_shares``), so every node must sit at its class
    degree, save a parity-adjusted last node at one less; node order is free.
    Raises ``ModelError`` otherwise.
    """
    work = work or _Work(net)
    degrees, K = net.model.degrees, net.model.K
    table = _neighbor_table(net, work)
    # ends[k] = sum of d_i over class-k nodes, so sum_k d_k^j ends[k] = sum_i c_i^j d_i
    # with c_i node i's class degree: the moment of d^(j+1) save at a parity node
    ends = [int(np.add.reduce(column)) for column in table.T]
    M, C1, S2 = (sum(d**j * e for d, e in zip(degrees, ends)) for j in range(3))
    # each int64 dot is at most sum d_i^2 <= (2m)^2, below 2**63 while 2m < 3e9 stubs
    S1 = int(net.node_degree @ net.node_degree)
    # sum_i (d_i - c_i)^2 = S1 - 2 sum_i c_i d_i + sum_k n_k d_k^2 with n_k the class
    # sizes, counted through a bool view of the work arrays; a parity node at
    # c_p - 1 adds 2 (d_p - c_p) + 1 to it, so the sum is 0 just when all are on rule
    flags = work.node.view(bool)[:net.n]
    sizes = [np.count_nonzero(np.equal(net.node_class, k, out=flags)) for k in range(K - 1)]
    sizes.append(net.n - sum(sizes))
    off = S1 - 2 * C1 + sum(n_k * d * d for n_k, d in zip(sizes, degrees))
    S11 = sum(d * int(net.node_degree @ column) for d, column in zip(degrees, table.T))
    if net.parity_adjusted:
        p = net.n - 1
        d = degrees[net.node_class[p]] - 1
        off += 2 * (int(net.node_degree[p]) - d) - 1
        S2 -= (2 * d + 1) * d
        # S11 took p at its class degree d + 1, once too often per end facing p
        # times that end's degree: the degree at the far end of one of p's stubs.
        # p's stubs carry the keys p * K and up, and a key's node is the key // K
        keys = work.stubs
        far = keys[np.flatnonzero(keys >= p * K) ^ 1] // K
        S11 -= int(net.node_degree[far].sum())
    if off:
        raise ModelError("degree assortativity needs every node at its class degree")
    den = M * S2 - S1 * S1
    return (M * S11 - S1 * S1) / den if den else 0.0


def _run_trials(model: DegreeModel, n: int, trials: int, seed, simple: bool, summarize):
    """Draw and summarize every trial, and return trial 0's network.

    Trial t draws from ``_trial_seed(seed, t)``, so no network depends on which
    thread draws it or when.  The calling thread takes the even trials and, in
    a run of two or more, one ``threading.Thread`` the odd ones.  Each thread
    draws a trial, calls ``summarize(t, net, work)`` with work arrays of its
    own, and only then draws its next.  A multigraph trial is shuffled by
    ``draw_multigraph`` from one layout: trial 0, kept for export, into edges
    of its own, a later one into its thread's ``work.stubs``, where its summary
    then counts.  A simple trial is a ``generate`` call.  A failure on either
    thread stops the other before its next trial; the thread is joined on
    every exit, and its error raised.
    """
    if simple:
        # Two simple draws, and trial 0's network beside them; or, once drawn,
        # trials 0 and 1 with each thread's work arrays and count table.
        _check_stub_budget(model, n, 2 * DRAW_ARRAYS[True][0] + 1, 4 * model.K + 6)
    else:
        # The layout, trial 0's edges and each thread's draw buffer, and one more
        # for the threads' partner classes; and per node the layout's two node
        # arrays, which trial 0 shares, each thread's work arrays and count table,
        # and four for temporaries (at most 0.93 of this under tracemalloc at
        # n = 1e4 and 1e5, K = 2, 3 and 6; at n = 1e4 and one or two stubs per
        # node the peak passes it less two node arrays).
        _check_stub_budget(model, n, 5, 4 * model.K + 8)
    layout = None if simple else _layout(model, n)

    def take(first):
        """Draw and summarize trials ``first``, ``first + 2``, ... in turn, and
        return trial 0's network if it is one of them."""
        kept = work = None
        for t in range(first, trials, 2):
            if stop.is_set():
                break
            if simple:
                net = generate(model, n, seed=_trial_seed(seed, t), simple=True)
                work = work or _Work(net)
            else:
                work = work or _Work(layout)
                # trial 0 is kept for export, so it is drawn into edges of its own
                out = np.empty_like(work.stubs) if t == 0 else work.stubs
                net = draw_multigraph(layout, _trial_seed(seed, t), out)
            summarize(t, net, work)
            if t == 0:
                kept = net
            # free what the next draw does not need: the trial's network and count
            # table, and beside a simple draw, which holds many arrays, the work arrays
            net = work.counted = work.table = None
            if simple:
                work = None
        return kept

    def take_odd():
        try:
            take(1)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    errors, stop = [], threading.Event()
    worker = threading.Thread(target=take_odd) if trials > 1 else None
    if worker:
        worker.start()
    try:
        first = take(0)
    except BaseException:
        stop.set()
        raise
    finally:
        if worker:
            worker.join()
    if errors:
        raise errors[0]
    return first


def _std(x: np.ndarray, deviations: np.ndarray) -> float:
    """``x.std()`` of a 1-D float array, with the deviations written into ``deviations``:
    the float operations of numpy's ``_var`` in its order (sum, divide, subtract,
    square, sum, divide), then the square root."""
    mean = np.add.reduce(x, keepdims=True)
    mean /= len(x)
    np.subtract(x, mean, out=deviations)
    np.square(deviations, out=deviations)
    return math.sqrt(np.add.reduce(deviations) / len(x))


def _add_node_sds(out: np.ndarray, model: DegreeModel, bounds, shares: np.ndarray,
                  scratch: np.ndarray) -> None:
    """Write one trial's per-class SDs of the per-node top-class estimates into
    ``out[rule, k]``, rule 0 naive and 1 sophisticated.

    The naive estimate is a node's top-class share.  The sophisticated one,
    (s_K / d_K) / sum_k (s_k / d_k), then overwrites it in ``shares`` (n, K,
    fastest with each class contiguous, as ``_Work.shares`` holds them), with
    the sum in ``scratch`` (one float per node).  Nodes of class k are
    ``bounds[k]`` to ``bounds[k + 1]``; an empty class leaves its entries as
    they were.
    """
    rows = shares.T
    for rule in range(2):
        if rule:
            np.divide(rows, np.array(model.degrees, dtype=float)[:, None], out=rows)
            # class adds, in the order a row sum over the short class axis adds
            np.copyto(scratch, rows[0])
            for row in rows[1:]:
                scratch += row
            np.divide(rows[-1], scratch, out=rows[-1])
        for k in range(model.K):
            lo, hi = bounds[k], bounds[k + 1]
            if lo < hi:
                out[rule, k] = _std(rows[-1][lo:hi], scratch[:hi - lo])


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

    Trial t draws from the seed ``[seed, t]`` (``[*seed, t]`` for a sequence);
    trial 0 is kept as ``first_network``.  Two threads take alternate trials,
    each drawing and summarizing in arrays of its own (see ``_run_trials``),
    so a multigraph trial allocates only its neighbor count table and partner
    classes.  A run whose stub and node arrays would pass
    ``population.MEMORY_BUDGET`` bytes raises ``ModelError`` before anything is drawn.
    """
    n, trials, seed = _node_count(n), _trial_count(trials), _seed(seed)
    check_budget(8 * trials * (4 * model.K + 1), f"{trials} trials: the per-trial results")
    degrees = [float(d) for d in model.degrees]
    naive_out, soph_out = np.empty((trials, model.K)), np.empty((trials, model.K))
    assort = np.empty(trials)
    sds = np.empty((2, model.K, trials))  # (rule, class, trial); one row per mean
    bounds = np.cumsum([0] + class_counts(model, n))  # ``_layout`` lays classes out in order

    def summarize(t, net, work):
        summary = empirical_neighbor_shares(net, work=work)
        naive_out[t] = summary.average
        soph_out[t] = debias_shares(tuple(summary.average), degrees)
        assort[t] = degree_assortativity(net, work=work)
        _add_node_sds(sds[:, :, t], model, bounds, summary.shares, work.node)

    first = _run_trials(model, n, trials, seed, simple, summarize)
    node_sd = {(rule, d): float(np.mean(sds[r, k]))
               for r, rule in enumerate(("naive", "sophisticated"))
               for k, d in enumerate(model.degrees) if bounds[k] < bounds[k + 1]}
    return MonteCarloReport(
        naive_estimates=naive_out, sophisticated_estimates=soph_out, node_estimate_sd=node_sd,
        assortativity=assort, first_network=first,
        predicted_naive=tuple(float(v) for v in biased_neighbor_share(model)),
        predicted_sophisticated=tuple(float(s) for s in model.shares))


def sampling_error_scaling(model: DegreeModel, ns, trials_per_n, seed: int = 0):
    """Mean deviation of the average neighbor shares from the sampling law,
    per network size, with the fitted log-log slope (about -1/2).

    ``trials_per_n`` gives the trial count for each entry of ``ns``; size i
    reads the average shares of the multigraph trials that
    :func:`monte_carlo_estimator_check` would draw seeded ``[seed, i]`` (trial
    t from ``[seed, i, t]``).  Needs at least two distinct sizes.  Returns
    (ns, mean absolute deviations, slope).
    """
    ns = [_node_count(n) for n in ns]
    trials_per_n = [_trial_count(trials) for trials in trials_per_n]
    if len(ns) != len(trials_per_n):
        raise ModelError(f"need one trial count per network size, got {len(trials_per_n)} "
                         f"for {len(ns)} sizes")
    if len(set(ns)) < 2:
        raise ModelError("need at least two distinct network sizes to fit a slope")
    seed = _seed(seed)
    check_budget(8 * max(trials_per_n) * model.K, f"{max(trials_per_n)} trials: the "
                                                  "per-trial average shares")
    tilde = np.array([float(v) for v in biased_neighbor_share(model)])
    devs = []
    for i, (n, trials) in enumerate(zip(ns, trials_per_n)):
        averages = np.empty((trials, model.K))

        def summarize(t, net, work):
            averages[t] = empirical_neighbor_shares(net, work=work).average
        _run_trials(model, n, trials, _trial_seed(seed, i), False, summarize)
        devs.append(float(np.mean(np.max(np.abs(averages - tilde), axis=1))))
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
