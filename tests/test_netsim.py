import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import netgame
from netgame import (
    NAIVE,
    AgentType,
    DegreeModel,
    GameParams,
    debias_shares,
    ModelError,
    SampledNetwork,
    average_expectation,
    biased_neighbor_share,
    build_pi,
    class_counts,
    degree_assortativity,
    empirical_neighbor_shares,
    generate,
    monte_carlo_estimator_check,
    sampling_error_scaling,
    solve_direct,
    type_probabilities,
    write_edgelist,
    write_metadata,
)
from netgame import netsim, population
from netgame.netsim import MAX_NODES, MAX_ROUNDS, WRITE_ROWS, _check_graphical

EXAMPLE = DegreeModel((4, 6), (0.6, 0.4))
K3 = DegreeModel((1, 2, 3), (0.5, 0.3, 0.2))  # odd stub total at n = 1001
# at n = 1001 the parity-adjusted node's degree 4 stands alone
APART = DegreeModel((1, 2, 5), (0.5, 0.3, 0.2))
# at n = 99 the middle class is empty and the last node is parity-adjusted
HOLLOW = DegreeModel((2, 3, 5), (0.499, 0.002, 0.499))


def _sequential_simple_reference(stubs, rng):
    """Simple-mode stub matching one pair at a time, as ``generate`` once did.

    Returns the accepted ``(lo, hi)`` edges in acceptance order and the number
    of rounds drawn; every round after the first follows a dissolve step.
    """
    accepted: list = []
    seen: set = set()
    pool = stubs
    for rounds in range(1, MAX_ROUNDS + 1):
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
            return np.array(accepted, dtype=np.int64), rounds
        n_back = min(len(accepted), max(1, len(rejected) // 2))
        for _ in range(n_back):
            idx = int(rng.integers(len(accepted)))
            u, v = accepted.pop(idx)
            seen.discard((u, v))
            rejected.append(u)
            rejected.append(v)
        pool = np.array(rejected, dtype=np.int64)
    raise ModelError(f"no simple realization found within {MAX_ROUNDS} rounds")


class _RoundRecorder(np.random.Generator):
    """``default_rng(seed)`` that keeps what simple mode draws: each round's
    shuffled pool, and the count of edges dissolved after it (one
    ``integers`` call each)."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.pools, self.dissolved = [], []

    def permutation(self, x, axis=0):
        self.pools.append(super().permutation(x, axis))
        self.dissolved.append(0)
        return self.pools[-1]

    def integers(self, *args, **kwargs):
        self.dissolved[-1] += 1
        return super().integers(*args, **kwargs)


def _check_rounds(degrees, n, seed):
    """Draw a simple network of ``degrees`` in equal shares and check it against
    ``_sequential_simple_reference``: the same edges, or the same failure, after
    the same rounds and the same draws.  Returns the draw's ``_RoundRecorder``,
    or None for a degree sequence with no simple graph, where nothing is drawn."""
    model = DegreeModel(tuple(degrees), (Fraction(1, len(degrees)),) * len(degrees))
    made = []

    def recording_rng(seed):
        made.append(_RoundRecorder(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recording_rng)
        try:
            edges = generate(model, n, seed=seed, simple=True).edges
        except ModelError:
            edges = None
    if not made:
        return None
    rng = np.random.default_rng(seed)
    try:
        expected, rounds = _sequential_simple_reference(
            np.repeat(np.arange(n), netsim._layout(model, n).node_degree), rng)
    except ModelError:
        expected, rounds = None, MAX_ROUNDS
    assert len(made[0].pools) == rounds
    assert made[0].bit_generator.state == rng.bit_generator.state
    if expected is None:
        assert edges is None
    else:
        assert edges.shape == expected.shape and np.array_equal(edges, expected)
    return made[0]


def _reference_edgelist(net):
    """``write_edgelist``'s bytes from a lexsort and ``%`` formatting of Python ints."""
    lo = np.minimum(net.edges[:, 0], net.edges[:, 1])
    hi = np.maximum(net.edges[:, 0], net.edges[:, 1])
    order = np.lexsort((hi, lo))
    pairs = np.column_stack((lo[order], hi[order]))
    return (("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist())).encode()


def _reference_shares(net):
    """Per-node neighbor shares with the degree from ``counts.sum(axis=1)``."""
    n, K = net.n, net.model.K
    u, v = net.edges[:, 0], net.edges[:, 1]
    flat = np.bincount(u * K + net.node_class[v], minlength=n * K)
    flat += np.bincount(v * K + net.node_class[u], minlength=n * K)
    counts = flat.reshape(n, K)
    shares = counts / counts.sum(axis=1)[:, None]
    return counts, shares, shares.mean(axis=0)


def _reference_assortativity(net):
    """Degree assortativity as the exact rational Pearson correlation over every
    edge end, from the edge list in Python ints, correctly rounded to a float."""
    du = net.node_degree[net.edges[:, 0]].tolist()
    dv = net.node_degree[net.edges[:, 1]].tolist()
    x, y = du + dv, dv + du
    ends, total = len(x), sum(x)
    var = ends * sum(a * a for a in x) - total * total
    if var == 0:
        return 0.0
    return float(Fraction(ends * sum(a * b for a, b in zip(x, y)) - total * total, var))


def _reference_report(model, n, trials, seed, simple):
    """Monte-Carlo results from one ``generate`` call per trial.

    Returns the per-class SDs of per-node estimates over boolean class masks,
    trial-averaged, then the per-trial naive and sophisticated estimates and
    assortativities.
    """
    degrees = np.asarray([float(d) for d in model.degrees])
    acc = {(rule, d): [] for rule in ("naive", "sophisticated") for d in model.degrees}
    naive, soph, assort = [], [], []
    for t in range(trials):
        net = generate(model, n, seed=[seed, t], simple=simple)
        _, shares, average = _reference_shares(net)
        naive.append(average)
        soph.append(debias_shares(tuple(average), list(degrees)))
        assort.append(_reference_assortativity(net))
        weighted = shares / degrees
        soph_nodes = weighted[:, -1] / weighted.sum(axis=1)
        for k, d in enumerate(model.degrees):
            mask = net.node_class == k
            if mask.any():
                acc[("naive", d)].append(float(shares[mask, -1].std()))
                acc[("sophisticated", d)].append(float(soph_nodes[mask].std()))
    node_sd = {key: float(np.mean(vals)) for key, vals in acc.items() if vals}
    return node_sd, np.array(naive), np.array(soph), np.array(assort)


def _hand_built(n, edges):
    """A network with ``n`` nodes and the given edges; only the writer reads it."""
    return SampledNetwork(EXAMPLE, np.zeros(n), np.zeros(n), np.asarray(edges), 0,
                          False, False)


class TestClassCounts:
    def test_example_miniature(self):
        assert class_counts(EXAMPLE, 10) == [6, 4]

    def test_largest_remainder(self):
        m = DegreeModel((1, 2, 3), (0.5, 0.3, 0.2))
        assert sum(class_counts(m, 7)) == 7

    def test_tie_goes_to_lower_class(self):
        m = DegreeModel((1, 2), (0.5, 0.5))
        assert class_counts(m, 3) == [2, 1]


class TestGenerate:
    def test_miniature_network(self):
        net = generate(EXAMPLE, 10, seed=1, simple=True)
        assert list(np.bincount(net.node_class)) == [6, 4]
        realized = np.bincount(net.edges.ravel(), minlength=10)
        assert (realized == net.node_degree).all()
        u, v = net.edges[:, 0], net.edges[:, 1]
        assert (u != v).all()
        assert len({(a, b) for a, b in zip(np.minimum(u, v), np.maximum(u, v))}) \
            == net.m

    def test_two_node_single_edge(self):
        m = DegreeModel((1, 2), (0.9, 0.1))
        net = generate(m, 2, seed=0)
        assert net.m == 1
        assert sorted(net.edges[0]) == [0, 1]

    def test_histogram_matches_assignment(self):
        net = generate(EXAMPLE, 500, seed=3)
        realized = np.bincount(net.edges.ravel(), minlength=net.n)
        assert (realized == net.node_degree).all()

    def test_parity_adjustment(self):
        m = DegreeModel((1, 2), (0.34, 0.66))
        net = generate(m, 3, seed=0)  # counts (1, 2): 5 stubs, one dropped
        assert net.parity_adjusted
        assert int(net.node_degree.sum()) % 2 == 0
        assert net.node_degree[-1] == 1

    def test_layout_is_the_unshuffled_draw(self):
        layout = netsim._layout(K3, 1001)
        assert layout.seed is None and not layout.simple and layout.parity_adjusted
        stubs = np.repeat(np.arange(1001), layout.node_degree)
        assert np.array_equal(layout.edges.ravel(), stubs)
        net = netsim.draw_multigraph(layout, [5], np.empty(len(stubs), dtype=np.int64))
        assert np.array_equal(layout.edges.ravel(), stubs)  # the draw left it alone
        assert net.seed == [5] and net.parity_adjusted
        assert np.array_equal(net.edges, generate(K3, 1001, seed=[5]).edges)

    def test_simple_mode_needs_room(self):
        with pytest.raises(ModelError):
            generate(DegreeModel((4, 6), (0.5, 0.5)), 5, seed=0, simple=True)

    def test_seed_reproducibility(self):
        a = generate(EXAMPLE, 200, seed=9)
        b = generate(EXAMPLE, 200, seed=9)
        assert np.array_equal(a.edges, b.edges)

    def test_simple_seed_reproducibility(self):
        a = generate(EXAMPLE, 200, seed=9, simple=True)
        b = generate(EXAMPLE, 200, seed=9, simple=True)
        assert np.array_equal(a.edges, b.edges)
        assert not np.array_equal(
            a.edges, generate(EXAMPLE, 200, seed=10, simple=True).edges)

    def test_simple_mode_gives_up(self):
        # graphical (seeds 0, 2 and 3 find a realization), but seed 1 runs out
        with pytest.raises(ModelError, match=f"^no simple realization found "
                                             f"within {MAX_ROUNDS} rounds$"):
            generate(DegreeModel((5, 9), (0.5, 0.5)), 13, seed=1, simple=True)

    def test_non_graphical_sequence_fails_at_once(self, monkeypatch):
        # degree sequence 3, 3, 1, 1: the two 3s need 6 edge ends, k(k-1) +
        # min(1, 2) + min(1, 2) = 4 can take them
        monkeypatch.setattr(np.random, "default_rng", None)  # no round is drawn
        with pytest.raises(ModelError, match=r"^no simple realization exists: "
                                             r"Erdos-Gallai fails at k = 2 \(6 > 4\)$"):
            generate(DegreeModel((1, 3), (0.5, 0.5)), 4, seed=0, simple=True)

    def test_graphicality_matches_the_textbook_test(self):
        def first_failure(seq):
            d = sorted(seq, reverse=True)
            for k in range(1, len(d) + 1):
                lhs, rhs = sum(d[:k]), k * (k - 1) + sum(min(x, k) for x in d[k:])
                if lhs > rhs:
                    return f"k = {k} ({lhs} > {rhs})"
            return None

        for n in range(2, 8):
            for seq in itertools.combinations_with_replacement(range(1, n), n):
                if sum(seq) % 2:
                    continue
                expected = first_failure(seq)
                try:
                    _check_graphical(np.array(seq))
                    got = None
                except ModelError as exc:
                    got = str(exc).split("fails at ")[1]
                assert got == expected, seq


class TestInputNormalization:
    def test_numpy_integers_are_recorded_as_python_ints(self, tmp_path):
        net = generate(EXAMPLE, np.int64(100), seed=np.int64(3))
        write_metadata(net, tmp_path / "meta.json")
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["seed"] == 3 and meta["n"] == 100
        assert np.array_equal(net.edges, generate(EXAMPLE, 100, seed=3).edges)

    def test_seed_sequence_is_recorded_as_a_list(self, tmp_path):
        net = generate(EXAMPLE, 100, seed=(np.int64(3), 1))
        write_metadata(net, tmp_path / "meta.json")
        assert json.loads((tmp_path / "meta.json").read_text())["seed"] == [3, 1]
        assert np.array_equal(net.edges, generate(EXAMPLE, 100, seed=[3, 1]).edges)

    @pytest.mark.parametrize("seed", [None, 1.5, -1, [1, -2], [1.0], "7"])
    def test_unusable_seed_is_rejected(self, seed):
        with pytest.raises(ModelError, match="seed"):
            generate(EXAMPLE, 100, seed)

    @pytest.mark.parametrize("n", [100.0, "100", None])
    def test_non_integer_node_count_is_rejected(self, n):
        with pytest.raises(ModelError, match="node count"):
            generate(EXAMPLE, n, 1)

    def test_node_count_past_the_edge_key_range_is_rejected(self):
        # lo * n + hi must fit int64; the check comes before any array is sized by n
        with pytest.raises(ModelError, match=f"at most {MAX_NODES} nodes"):
            generate(EXAMPLE, MAX_NODES + 1, 1)

    def test_monte_carlo_rejects_a_fractional_seed(self):
        with pytest.raises(ModelError, match="seed"):
            monte_carlo_estimator_check(EXAMPLE, 50, trials=1, seed=1.5)

    @pytest.mark.parametrize("trials", [2.5, None, "3"])
    def test_monte_carlo_rejects_a_non_integer_trial_count(self, trials):
        with pytest.raises(ModelError, match="trial count must be an integer"):
            monte_carlo_estimator_check(EXAMPLE, 50, trials=trials)

    def test_monte_carlo_trial_seeds_extend_a_seed_sequence(self):
        report = monte_carlo_estimator_check(EXAMPLE, 2000, trials=3, seed=[1, 2])
        assert report.first_network.seed == [1, 2, 0]
        for t in range(3):
            net = generate(EXAMPLE, 2000, seed=[1, 2, t])
            assert np.array_equal(report.naive_estimates[t],
                                  empirical_neighbor_shares(net).average)
            assert report.assortativity[t] == degree_assortativity(net)


class TestSimpleOracle:
    """Simple mode matches the pair-at-a-time reference edge for edge."""

    @pytest.mark.parametrize("degrees, shares, n, seed, rounds", [
        ((4, 6), (0.6, 0.4), 10, 0, 5),
        ((4, 6), (0.6, 0.4), 10, 3, 25),
        ((4, 6), (0.6, 0.4), 13, 0, 12),
        ((4, 6), (0.6, 0.4), 200, 1, 2),
        ((1, 2, 3), (0.5, 0.3, 0.2), 10, 0, 1),
        ((1, 2, 3), (0.5, 0.3, 0.2), 13, 0, 3),
        ((1, 3), (0.5, 0.5), 30, 3, 9),
        ((3, 10), (0.5, 0.5), 30, 2, 26),
        ((5, 9), (0.5, 0.5), 13, 0, 153),
        ((2, 5, 9), (0.5, 0.3, 0.2), 12, 1, 155),
        ((8, 11), (0.5, 0.5), 30, 0, 6),
    ])
    def test_matches_sequential_reference(self, degrees, shares, n, seed, rounds):
        net = generate(DegreeModel(degrees, shares), n, seed=seed, simple=True)
        stubs = np.repeat(np.arange(n), net.node_degree)
        edges, drawn = _sequential_simple_reference(stubs, np.random.default_rng(seed))
        assert drawn == rounds
        assert net.edges.shape == edges.shape
        assert np.array_equal(net.edges, edges)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=2, max_size=3, unique=True).map(sorted),
           st.integers(9, 20), st.integers(0, 2**32 - 1))
    def test_small_dense_models_match_round_for_round(self, degrees, n, seed):
        assume(_check_rounds(degrees, n, seed) is not None)

    @pytest.mark.parametrize("degrees, n, seed, most, dissolved", [
        ((3, 5), 19, 19, 4, [5, 1, 0]),
        ((4, 7), 13, 0, 3, [9, 6, 4, 2, 0]),
    ])
    def test_repeats_and_wide_dissolves_match_round_for_round(self, degrees, n, seed, most,
                                                              dissolved):
        # round 1 draws one edge ``most`` times, and the dissolves pick several
        # edges each, so a pick must skip the positions the picks before it took
        drawn = _check_rounds(degrees, n, seed)
        pairs = drawn.pools[0].reshape(-1, 2)
        edges = Counter(map(tuple, np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1).tolist()))
        assert max(edges.values()) == most
        assert drawn.dissolved == dissolved

    def test_pinned_example_network(self):
        net = generate(EXAMPLE, 100000, seed=[1, 0], simple=True)
        digest = hashlib.sha256(np.ascontiguousarray(net.edges, dtype="<i8").tobytes())
        assert digest.hexdigest() == \
            "e800ef4075513dacc82872e93e0dce92ce1edea93dd156fa375ee77ba1c6d136"


class TestEmpiricalShares:
    def test_average_matches_sampling_law(self):
        net = generate(EXAMPLE, 100000, seed=2)
        avg = empirical_neighbor_shares(net).average
        assert avg[1] == pytest.approx(0.5, abs=0.01)

    def test_low_degree_pair(self):
        m = DegreeModel((1, 2), (0.5, 0.5))
        net = generate(m, 100000, seed=4)
        avg = empirical_neighbor_shares(net).average
        assert avg[1] == pytest.approx(2 / 3, abs=0.01)

    def test_near_regular_network(self):
        m = DegreeModel((2, 4), (1 - 1e-9, 1e-9))
        net = generate(m, 1000, seed=5)
        avg = empirical_neighbor_shares(net).average
        assert avg[0] == 1.0 and avg[1] == 0.0

    def test_per_node_counts_total_degree(self):
        net = generate(EXAMPLE, 300, seed=6)
        summary = empirical_neighbor_shares(net)
        assert (summary.counts.sum(axis=1) == net.node_degree).all()
        # the first node's counts are one observation of its own degree
        AgentType(NAIVE, int(net.node_degree[0]), tuple(int(c) for c in summary.counts[0]))

    @pytest.mark.parametrize("simple", [False, True])
    def test_matches_row_sum_reference_bit_for_bit(self, simple):
        net = generate(K3, 1001, seed=[11, 0], simple=simple)
        summary = empirical_neighbor_shares(net)
        counts, shares, average = _reference_shares(net)
        assert np.array_equal(summary.counts, counts)
        assert np.array_equal(summary.shares, shares)
        assert np.array_equal(summary.average, average)


class TestAssortativity:
    def test_near_zero_at_scale(self):
        net = generate(EXAMPLE, 100000, seed=7)
        assert abs(degree_assortativity(net)) < 0.02

    def test_regular_graph_degenerate(self):
        m = DegreeModel((2, 4), (1 - 1e-9, 1e-9))
        net = generate(m, 500, seed=8)
        assert degree_assortativity(net) == 0.0

    @pytest.mark.parametrize("degrees", [(1, 2, 3), (1, 2, 5)])
    def test_parity_adjusted_matches_corrcoef(self, degrees):
        # the adjusted node's degree d_K - 1 joins a class degree or stands alone
        net = generate(DegreeModel(degrees, (0.5, 0.3, 0.2)), 1001, seed=11)
        assert net.parity_adjusted
        du = net.node_degree[net.edges[:, 0]].astype(float)
        dv = net.node_degree[net.edges[:, 1]].astype(float)
        expected = np.corrcoef(np.concatenate([du, dv]), np.concatenate([dv, du]))[0, 1]
        assert abs(degree_assortativity(net) - expected) <= 1e-12

    @pytest.mark.parametrize("simple", [False, True])
    def test_matches_unique_reference_bit_for_bit(self, simple):
        net = generate(K3, 1001, seed=[11, 0], simple=simple)
        assert degree_assortativity(net) == _reference_assortativity(net)

    def test_parity_node_self_loops_match_the_reference(self):
        # 35 stubs at n = 9, so the last node keeps 4 of its 5 and often loops;
        # its self-loops are the ends the class count table cannot place
        model = DegreeModel((3, 5), (0.5, 0.5))
        looped = 0
        for seed in range(40):
            net = generate(model, 9, seed=seed)
            assert net.parity_adjusted
            looped += bool(((net.edges[:, 0] == 8) & (net.edges[:, 1] == 8)).any())
            assert degree_assortativity(net) == _reference_assortativity(net)
        assert looped >= 5

    @pytest.mark.parametrize("model, n", [(EXAMPLE, 200), (K3, 1001)], ids=["k2", "k3-parity"])
    def test_node_order_is_free(self, model, n):
        # node ids relabeled: the same network, no longer class by class; a
        # parity-adjusted node stays last
        net = generate(model, n, seed=1)
        order = np.append(np.random.default_rng(0).permutation(n - 1), n - 1)
        relabeled = replace(net, node_class=net.node_class[order],
                            node_degree=net.node_degree[order],
                            edges=np.argsort(order)[net.edges])
        assert degree_assortativity(relabeled) == degree_assortativity(net)
        assert degree_assortativity(relabeled) == _reference_assortativity(net)

    def test_needs_every_node_at_its_class_degree(self):
        # node 0 swaps its class, so its recorded degree 4 is off its class degree 6
        net = generate(EXAMPLE, 200, seed=1)
        moved = replace(net, node_class=np.where(np.arange(net.n) == 0, 1, net.node_class))
        with pytest.raises(ModelError, match="needs every node at its class degree"):
            degree_assortativity(moved)

    def test_a_class_swap_is_off_rule(self):
        # nodes 0 and n - 1 trade classes: every class keeps its size and its
        # degree total, yet both nodes sit two off their class degrees
        net = generate(EXAMPLE, 200, seed=1)
        node_class = net.node_class.copy()
        node_class[[0, -1]] = node_class[[-1, 0]]
        with pytest.raises(ModelError, match="needs every node at its class degree"):
            degree_assortativity(replace(net, node_class=node_class))

    @pytest.mark.parametrize("model, n", [(EXAMPLE, 200), (K3, 1001)], ids=["k2", "k3-parity"])
    def test_the_parity_flag_must_match_the_last_node(self, model, n):
        # flipping the flag puts the last node one off the degree it should have
        net = generate(model, n, seed=1)
        flipped = replace(net, parity_adjusted=not net.parity_adjusted)
        with pytest.raises(ModelError, match="needs every node at its class degree"):
            degree_assortativity(flipped)


class TestMonteCarloCheck:
    def test_example_model_recovery(self):
        report = monte_carlo_estimator_check(EXAMPLE, 20000, trials=5, seed=1)
        assert report.naive_mean[1] == pytest.approx(0.5, abs=0.01)
        assert report.sophisticated_mean[1] == pytest.approx(0.4, abs=0.01)
        assert report.predicted_naive[1] == pytest.approx(0.5, abs=1e-12)
        assert report.predicted_sophisticated[1] == pytest.approx(0.4, abs=1e-12)

    def test_precision_rises_with_degree(self):
        report = monte_carlo_estimator_check(EXAMPLE, 20000, trials=3, seed=2)
        for rule in ("naive", "sophisticated"):
            assert report.node_estimate_sd[(rule, 6)] < \
                report.node_estimate_sd[(rule, 4)]

    def test_rules_coincide_without_degree_variation(self):
        m = DegreeModel((2, 4), (1 - 1e-9, 1e-9))
        report = monte_carlo_estimator_check(m, 5000, trials=2, seed=3)
        assert np.allclose(report.naive_estimates,
                           report.sophisticated_estimates, atol=1e-7)

    def test_first_network_is_trial_zero(self):
        report = monte_carlo_estimator_check(EXAMPLE, 2000, trials=3, seed=9)
        again = generate(EXAMPLE, 2000, seed=[9, 0])
        assert report.first_network.seed == [9, 0]
        assert np.array_equal(report.first_network.edges, again.edges)

    def test_needs_a_trial(self):
        with pytest.raises(ModelError):
            monte_carlo_estimator_check(EXAMPLE, 2000, trials=0)

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ModelError):
            monte_carlo_estimator_check(EXAMPLE, 50, trials=1, seed=-1)

    @pytest.mark.parametrize("model, n", [
        (K3, 1001),
        (DegreeModel((2, 4), (1 - 1e-9, 1e-9)), 500),  # the top class is empty
        (EXAMPLE, 2000),
        (APART, 1001),
        (HOLLOW, 99),
    ])
    @pytest.mark.parametrize("simple", [False, True])
    def test_node_sd_matches_mask_reference_bit_for_bit(self, model, n, simple):
        # the reference draws every trial with its own ``generate`` call; one trial
        # runs on the calling thread alone, two and five split over two threads,
        # five unequally
        for trials in (1, 2, 5):
            report = monte_carlo_estimator_check(model, n, trials=trials, seed=11, simple=simple)
            node_sd, naive, soph, assort = _reference_report(model, n, trials, 11, simple)
            assert report.node_estimate_sd == node_sd
            assert np.array_equal(report.naive_estimates, naive)
            assert np.array_equal(report.sophisticated_estimates, soph)
            assert np.array_equal(report.assortativity, assort)

    def test_each_traced_layer_is_called_once_per_trial(self, monkeypatch):
        # the benchmark times these by wrapping the module attributes; a call
        # inlined or bound under another name would read as zero time.  Every
        # multigraph trial, trial 0 too, is a ``draw_multigraph`` call from the
        # run's one layout; trial 1 is drawn at the same time as trial 0, so the
        # draws come in no fixed order.
        calls = []  # list appends, since two threads record
        draws = []
        for name in ("generate", "draw_multigraph", "empirical_neighbor_shares",
                     "degree_assortativity"):
            real = getattr(netsim, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                result = _real(*args, **kwargs)
                if _name == "draw_multigraph":
                    draws.append(result.seed)
                return result
            monkeypatch.setattr(netsim, name, counting)
        monte_carlo_estimator_check(EXAMPLE, 2000, trials=3)
        assert Counter(calls) == {"draw_multigraph": 3, "empirical_neighbor_shares": 3,
                                  "degree_assortativity": 3}
        assert sorted(draws) == [[0, 0], [0, 1], [0, 2]]

    def test_simple_trials_each_call_generate(self, monkeypatch):
        # no shared layout or stub buffer is built for simple trials
        seeds, layouts = [], []
        real_generate, real_layout = netsim.generate, netsim._layout

        def counting(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return real_generate(*args, **kwargs)

        def laying_out(*args):
            layouts.append(args[1])
            return real_layout(*args)

        def no_multigraph(*args, **kwargs):
            raise AssertionError("a simple check drew a multigraph")
        monkeypatch.setattr(netsim, "generate", counting)
        monkeypatch.setattr(netsim, "_layout", laying_out)
        monkeypatch.setattr(netsim, "draw_multigraph", no_multigraph)
        report = monte_carlo_estimator_check(EXAMPLE, 200, trials=2, seed=3, simple=True)
        assert sorted(seeds) == [[3, 0], [3, 1]]  # trials 0 and 1 are drawn at once
        assert layouts == [200, 200]  # one per generate call
        assert report.first_network.simple

    def test_trial_streams_differ(self):
        report = monte_carlo_estimator_check(EXAMPLE, 5000, trials=3, seed=4)
        assert len({round(float(v), 12)
                    for v in report.naive_estimates[:, 1]}) == 3


class TestWorkArrays:
    """The per-trial passes, writing into lent work arrays, match fresh-array
    references bit for bit."""

    # K = 2; K = 3 with a parity-adjusted node whose degree joins a class, or
    # stands alone; an empty middle class
    CASES = [(EXAMPLE, 2000), (K3, 1001), (APART, 1001), (HOLLOW, 99)]

    @pytest.mark.parametrize("model, n", CASES,
                             ids=["k2", "k3-parity", "k3-parity-apart", "k3-empty-middle"])
    @pytest.mark.parametrize("simple", [False, True], ids=["multigraph", "simple"])
    def test_passes_over_reused_work_match_the_references(self, model, n, simple):
        # the second network is summarized in the arrays the first one left behind
        nets = [generate(model, n, seed=[11, t], simple=simple) for t in range(2)]
        work = netsim._Work(nets[0])
        for net in nets:
            summary = empirical_neighbor_shares(net, work=work)
            counts, shares, average = _reference_shares(net)
            assert np.array_equal(summary.counts, counts)
            assert np.array_equal(summary.shares, shares)
            assert np.array_equal(summary.average, average)
            assert degree_assortativity(net, work=work) == _reference_assortativity(net)

    @pytest.mark.parametrize("K", [2, 3, 5])
    def test_node_sds_match_the_row_sum_reference(self, K):
        # random shares, whose sophisticated denominators round as numpy's row sum does
        model = DegreeModel(tuple(range(2, 2 * K + 1, 2)), (1 / K,) * K)
        shares = np.random.default_rng(K).random((3000, K))
        bounds = np.cumsum([0] + class_counts(model, 3000))
        got = np.full((2, K), np.nan)
        # class-major, as the work arrays hold them; left holding the per-node
        # sophisticated estimates
        work = shares.T.copy().T
        netsim._add_node_sds(got, model, bounds, work, np.empty(3000))
        weighted = shares / np.array(model.degrees, dtype=float)
        estimates = weighted[:, -1] / weighted.sum(axis=1)
        assert np.array_equal(work[:, -1], estimates)
        for k in range(K):
            nodes = slice(bounds[k], bounds[k + 1])
            assert got[0, k] == shares[nodes, -1].std()
            assert got[1, k] == estimates[nodes].std()

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 1000, 8193, 60_000, 100_001])
    def test_std_matches_numpy(self, length):
        values = np.random.default_rng(length).random((length, 3)) ** 3
        scratch = np.empty(length)
        for column in (values[:, 2], np.ascontiguousarray(values[:, 2])):
            assert netsim._std(column, scratch) == column.std()


# Records each thread's minor page faults at each of its trials' assortativity
# calls; prints, one line per thread, the count between its consecutive trials.
_FAULTS_PER_TRIAL = """
import resource, sys, threading
from netgame import DegreeModel, netsim

marks = {}
real = netsim.degree_assortativity

def marking(*args, **kwargs):
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    marks.setdefault(threading.get_ident(), []).append(faults)
    return real(*args, **kwargs)

netsim.degree_assortativity = marking
netsim.monte_carlo_estimator_check(DegreeModel((4, 6), (0.6, 0.4)), 100000,
                                   trials=int(sys.argv[1]), seed=1)
for counts in marks.values():
    print(*[b - a for a, b in zip(counts, counts[1:])])
"""


class TestPipeline:
    """The calling thread and one more each draw and summarize whole trials,
    multigraph trials in a steady footprint."""

    @pytest.mark.parametrize("malloc", [{}, {"MALLOC_MMAP_THRESHOLD_": "131072"}],
                             ids=["default", "every-large-block-mapped"])
    def test_minor_faults_per_trial_stay_flat(self, malloc):
        # A fresh process, so that no other test's heap decides the count.  With
        # glibc's mmap threshold fixed, every block over 128 KiB is mapped and
        # touched afresh; a trial then faults in only the neighbor count table
        # its bincount allocates (K * n int64s) and the partner classes (one byte
        # per stub), where trials that allocated their temporaries took about
        # 5,700 faults each.
        env = dict(os.environ, **malloc)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(netgame.__file__).parents[1]), env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", _FAULTS_PER_TRIAL, "10"], env=env,
                             capture_output=True, text=True, check=True).stdout
        per_trial = [[int(word) for word in line.split()] for line in out.splitlines()]
        # two threads of five trials each; each thread's buffer is drawn into, or
        # holds trial 0's keys, before its first mark
        assert [len(counts) for counts in per_trial] == [4, 4]
        table_pages = 2 * 100_000 * 8 // os.sysconf("SC_PAGE_SIZE")
        assert max(max(counts) for counts in per_trial) <= 2 * table_pages, per_trial

    @staticmethod
    def _record_draws(monkeypatch, simple, record):
        """Call ``record(t, out)`` as trial t's draw begins: a simple trial is a
        generate call, a multigraph trial a draw_multigraph call into ``out``;
        ``out`` is None for a simple trial."""
        name = "generate" if simple else "draw_multigraph"
        real = getattr(netsim, name)

        def recording(*args, **kwargs):
            if simple:
                record(kwargs["seed"][-1], None)
            else:
                record(args[1][-1], args[2])
            return real(*args, **kwargs)
        monkeypatch.setattr(netsim, name, recording)

    @pytest.mark.parametrize("simple", [False, True], ids=["multigraph", "simple"])
    def test_two_threads_draw_alternate_trials(self, simple, monkeypatch):
        draws = []  # (trial, thread), appended from both threads
        self._record_draws(monkeypatch, simple,
                           lambda t, out: draws.append((t, threading.get_ident())))
        before = threading.active_count()
        monte_carlo_estimator_check(EXAMPLE, 2000, trials=5, simple=simple)
        assert threading.active_count() == before
        main = threading.get_ident()
        assert sorted(t for t, _ in draws) == list(range(5))
        assert sorted(t for t, thread in draws if thread == main) == [0, 2, 4]
        others = {thread for _, thread in draws if thread != main}
        assert len(others) == 1
        assert sorted(t for t, thread in draws if thread != main) == [1, 3]

    @pytest.mark.parametrize("simple", [False, True], ids=["multigraph", "simple"])
    def test_each_trial_is_drawn_and_summarized_on_one_thread(self, simple, monkeypatch):
        threads = {"draw": {}, "empirical_neighbor_shares": {}, "degree_assortativity": {}}
        self._record_draws(monkeypatch, simple,
                           lambda t, out: threads["draw"].__setitem__(t, threading.get_ident()))
        for name in ("empirical_neighbor_shares", "degree_assortativity"):
            real = getattr(netsim, name)

            def summarizing(net, _real=real, _seen=threads[name], **kwargs):
                _seen[net.seed[-1]] = threading.get_ident()
                return _real(net, **kwargs)
            monkeypatch.setattr(netsim, name, summarizing)
        monte_carlo_estimator_check(EXAMPLE, 2000, trials=5, simple=simple)
        drawn = threads.pop("draw")
        assert sorted(drawn) == list(range(5))
        for seen in threads.values():
            assert seen == drawn
        assert len(set(drawn.values())) == 2

    def test_a_buffer_is_redrawn_only_after_its_summary_ends(self, monkeypatch):
        # Each thread draws into one buffer of its own (trial 0 into generate's
        # array, its keys then formed in the calling thread's buffer) and draws
        # its next trial only once its last reader of the buffer, the
        # assortativity, has returned; each summary finds its trial's edges.
        n, trials = 2000, 7
        expected = [generate(EXAMPLE, n, seed=[0, t]).edges for t in range(trials)]
        events = []  # (thread, "draw" or "done", trial), appended from both threads
        buffers = {}  # trial -> address of the array it was drawn into

        def drawing(t, out):
            events.append((threading.get_ident(), "draw", t))
            buffers[t] = out.ctypes.data
        self._record_draws(monkeypatch, False, drawing)
        real_shares, real_assortativity = (netsim.empirical_neighbor_shares,
                                           netsim.degree_assortativity)

        def summarizing(net, **kwargs):
            assert np.array_equal(net.edges, expected[net.seed[-1]])
            return real_shares(net, **kwargs)

        def ending(net, **kwargs):
            result = real_assortativity(net, **kwargs)
            events.append((threading.get_ident(), "done", net.seed[-1]))
            return result
        monkeypatch.setattr(netsim, "empirical_neighbor_shares", summarizing)
        monkeypatch.setattr(netsim, "degree_assortativity", ending)
        report = monte_carlo_estimator_check(EXAMPLE, n, trials=trials)
        assert np.array_equal(report.first_network.edges, expected[0])
        assert len({buffers[t] for t in range(1, trials)}) == 2
        assert buffers[0] not in {buffers[t] for t in range(1, trials)}
        for thread in {thread for thread, _, _ in events}:
            mine = [(what, t) for who, what, t in events if who == thread]
            first = mine[0][1]
            assert mine == [(what, t) for t in range(first, trials, 2)
                            for what in ("draw", "done")]

    @pytest.mark.parametrize("where", ["summary", "draw"])
    def test_a_failing_trial_leaves_no_thread_behind(self, where, monkeypatch):
        # trial 2, the calling thread's second, fails in its summary or its draw
        # while the other thread draws or summarizes trial 3
        real = netsim.draw_multigraph

        def failing(layout, seed, out):
            if seed[-1] == 2 and where == "draw":
                raise ModelError("the draw failed")
            net = real(layout, seed, out)
            if seed[-1] == 2:
                degree = net.node_degree.copy()
                degree[0] = 0
                net = replace(net, node_degree=degree)
            return net
        monkeypatch.setattr(netsim, "draw_multigraph", failing)
        before = threading.active_count()
        match = "isolated node" if where == "summary" else "^the draw failed$"
        with pytest.raises(ModelError, match=match):
            monte_carlo_estimator_check(EXAMPLE, 2000, trials=5)
        assert threading.active_count() == before

    @pytest.mark.parametrize("trial", [1, 3], ids=["beside-trial-0", "later"])
    def test_a_failing_simple_draw_leaves_no_thread_behind(self, trial, monkeypatch):
        # the other thread's generate call raises; the calling thread re-raises it
        real = netsim.generate

        def failing(*args, **kwargs):
            if kwargs["seed"][-1] == trial:
                raise ModelError("the draw failed")
            return real(*args, **kwargs)
        monkeypatch.setattr(netsim, "generate", failing)
        before = threading.active_count()
        with pytest.raises(ModelError, match="^the draw failed$"):
            monte_carlo_estimator_check(EXAMPLE, 200, trials=5, simple=True)
        assert threading.active_count() == before

    def test_a_degree_sequence_with_no_simple_graph_fails_at_once(self):
        # degrees 3, 3, 1, 1: trial 0 and trial 1 both fail their Erdos-Gallai check
        before = threading.active_count()
        start = time.perf_counter()
        with pytest.raises(ModelError, match="Erdos-Gallai fails at k = 2"):
            monte_carlo_estimator_check(DegreeModel((1, 3), (0.5, 0.5)), 4, trials=3,
                                        simple=True)
        assert time.perf_counter() - start < 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("simple", [False, True], ids=["multigraph", "simple"])
    def test_a_one_trial_run_starts_no_thread(self, simple, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a one-trial run made a thread")
        monkeypatch.setattr(threading, "Thread", refused)
        before = threading.active_count()
        report = monte_carlo_estimator_check(EXAMPLE, 200, trials=1, seed=5, simple=simple)
        assert threading.active_count() == before
        assert report.first_network.seed == [5, 0]

    @pytest.mark.parametrize("simple", [False, True], ids=["multigraph", "simple"])
    def test_concurrent_checks_match_one_at_a_time(self, simple):
        # four checks at once, each with a thread of its own, switching threads often
        expected = [monte_carlo_estimator_check(EXAMPLE, 300, trials=8, seed=s, simple=simple)
                    for s in range(4)]
        got = [None] * 4

        def run(s):
            got[s] = monte_carlo_estimator_check(EXAMPLE, 300, trials=8, seed=s, simple=simple)
        threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, have in zip(expected, got):
            assert have.node_estimate_sd == want.node_estimate_sd
            assert np.array_equal(have.naive_estimates, want.naive_estimates)
            assert np.array_equal(have.sophisticated_estimates, want.sophisticated_estimates)
            assert np.array_equal(have.assortativity, want.assortativity)
            assert np.array_equal(have.first_network.edges, want.first_network.edges)

    def test_scaling_reads_only_the_average_shares(self, monkeypatch):
        draws = []
        real = netsim.draw_multigraph

        def counting(layout, seed, out):
            draws.append(seed)
            return real(layout, seed, out)

        def unused(*args, **kwargs):
            raise AssertionError("the scaling computed an assortativity")
        monkeypatch.setattr(netsim, "draw_multigraph", counting)
        monkeypatch.setattr(netsim, "degree_assortativity", unused)
        sampling_error_scaling(EXAMPLE, [300, 1001], [3, 2], seed=[7])
        # each size's trials 0 and 1 are drawn at once, in no fixed order
        assert sorted(draws) == [[7, 0, 0], [7, 0, 1], [7, 0, 2], [7, 1, 0], [7, 1, 1]]


class TestTrialBudget:
    """The per-trial results a run keeps are charged against
    ``population.MEMORY_BUDGET`` from the trial count, before any is allocated."""

    def test_the_check_refuses_a_huge_trial_count(self):
        # 4K + 1 = 9 floats per trial at K = 2
        before = threading.active_count()
        with pytest.raises(ModelError, match=r"^100000000000 trials: the per-trial results "
                                             r"need 7200000000000 bytes"):
            monte_carlo_estimator_check(EXAMPLE, 1000, trials=10**11)
        assert threading.active_count() == before

    def test_the_scaling_refuses_a_huge_trial_count(self):
        with pytest.raises(ModelError, match=r"^100000000000 trials: the per-trial average "
                                             r"shares need 1600000000000 bytes"):
            sampling_error_scaling(EXAMPLE, [300, 1001], [3, 10**11])


class TestStubBudget:
    """A draw whose int64 stub arrays would pass ``population.MEMORY_BUDGET`` bytes
    fails with ``ModelError`` before any is allocated or any thread starts."""

    HUGE = DegreeModel((10**9, 2 * 10**9), (0.5, 0.5))  # 1.5e10 stubs at n = 10

    def test_generate_refuses_a_stub_array_that_cannot_fit(self):
        with pytest.raises(ModelError, match=r"^15000000000 stubs at n = 10: 2 int64 stub "
                                             r"arrays and 3 int64 node arrays need "
                                             r"240000000240 bytes \(224 GiB\)"):
            generate(self.HUGE, 10, seed=0)

    def test_the_check_refuses_before_starting_a_thread(self):
        before = threading.active_count()
        with pytest.raises(ModelError, match="5 int64 stub arrays and 16 int64 node arrays "
                                             "need 600000001280 bytes"):
            monte_carlo_estimator_check(self.HUGE, 10, trials=3)
        assert threading.active_count() == before

    def test_the_scaling_refuses_before_laying_out(self):
        with pytest.raises(ModelError, match="5 int64 stub arrays and 16 int64 node arrays need"):
            sampling_error_scaling(self.HUGE, [10, 20], [2, 2])

    def test_a_call_fits_exactly_at_the_budget(self, monkeypatch):
        # 4800 stubs at n = 1000: one int64 array of them is 38,400 bytes, one
        # of the nodes 8,000; generate holds two stub arrays and three node
        # arrays, a multigraph run five and 4K + 8 = 16 (see ``_run_trials``), a
        # simple draw four and two
        monkeypatch.setattr(population, "MEMORY_BUDGET", 2 * 38_400 + 3 * 8_000 - 1)
        with pytest.raises(ModelError, match="2 int64 stub arrays and 3 int64 node arrays "
                                             "need 100800 bytes"):
            generate(EXAMPLE, 1000, seed=0)
        monkeypatch.setattr(population, "MEMORY_BUDGET", 2 * 38_400 + 3 * 8_000)
        assert generate(EXAMPLE, 1000, seed=0).m == 2400
        monkeypatch.setattr(population, "MEMORY_BUDGET", 5 * 38_400 + 16 * 8_000 - 1)
        with pytest.raises(ModelError, match="5 int64 stub arrays and 16 int64 node arrays "
                                             "need 320000 bytes"):
            monte_carlo_estimator_check(EXAMPLE, 1000, trials=2)
        monkeypatch.setattr(population, "MEMORY_BUDGET", 5 * 38_400 + 16 * 8_000)
        assert monte_carlo_estimator_check(EXAMPLE, 1000, trials=2).first_network.m == 2400
        monkeypatch.setattr(population, "MEMORY_BUDGET", 4 * 38_400 + 2 * 8_000 - 1)
        with pytest.raises(ModelError, match="4 int64 stub arrays and 2 int64 node arrays "
                                             "need 169600 bytes"):
            generate(EXAMPLE, 1000, seed=0, simple=True)
        monkeypatch.setattr(population, "MEMORY_BUDGET", 4 * 38_400 + 2 * 8_000)
        assert generate(EXAMPLE, 1000, seed=0, simple=True).m == 2400

    def test_simple_draws_are_charged_what_they_hold(self, monkeypatch):
        # a simple draw holds about four stub arrays at its peak, and a run of
        # trials two draws at once beside trial 0: the nominal two and four stub
        # arrays let these through
        monkeypatch.setattr(population, "MEMORY_BUDGET", 4 * 38_400)
        with pytest.raises(ModelError, match="4 int64 stub arrays and 2 int64 node arrays "
                                             "need 169600 bytes"):
            generate(EXAMPLE, 1000, seed=0, simple=True)
        with pytest.raises(ModelError, match="9 int64 stub arrays and 14 int64 node arrays "
                                             "need 457600 bytes"):
            monte_carlo_estimator_check(EXAMPLE, 1000, trials=2, simple=True)
        monkeypatch.setattr(population, "MEMORY_BUDGET", 9 * 38_400 + 14 * 8_000)
        report = monte_carlo_estimator_check(EXAMPLE, 1000, trials=2, simple=True)
        assert report.first_network.simple and report.first_network.m == 2400

    @staticmethod
    def _peak_and_charge(monkeypatch, run):
        """What tracemalloc sees ``run()`` hold at its peak, and the largest charge
        it checked; a small run first leaves out one-time allocations."""
        monte_carlo_estimator_check(EXAMPLE, 200, trials=3)
        monte_carlo_estimator_check(EXAMPLE, 200, trials=3, simple=True)
        charged = []
        monkeypatch.setattr(netsim, "check_budget", lambda need, what: charged.append(need))
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, max(charged)

    # about one stub per node, where the node arrays outweigh the stub arrays
    LOW_DEGREE = [DegreeModel((1, 2), (0.9, 0.1)), K3]
    # sixty stubs per node, where a round repeats over a thousand keys
    DENSE = DegreeModel((30, 90), (0.5, 0.5))

    def test_a_simple_draw_peaks_within_its_charge(self, monkeypatch):
        # the charge holds against what tracemalloc sees, node arrays included
        for model, n in ([(EXAMPLE, 10_000), (self.DENSE, 10_000)]
                         + [(model, 100_000) for model in self.LOW_DEGREE]):
            peak, charge = self._peak_and_charge(
                monkeypatch, lambda: generate(model, n, seed=0, simple=True))
            assert peak <= 1.1 * charge, model

    @pytest.mark.parametrize("model, n", [(LOW_DEGREE[0], 100_000), (LOW_DEGREE[1], 100_000),
                                          (DENSE, 10_000)],
                             ids=["k2-low-degree", "k3-low-degree", "dense"])
    def test_a_simple_run_peaks_within_its_charge(self, model, n, monkeypatch):
        # two trials draw at once; five hold two draws beside trial 0
        for trials in (2, 5):
            peak, charge = self._peak_and_charge(monkeypatch, lambda: monte_carlo_estimator_check(
                model, n, trials=trials, simple=True))
            assert peak <= 1.1 * charge, trials

    @pytest.mark.parametrize("model", [EXAMPLE, K3], ids=["k2", "k3-low-degree"])
    def test_a_multigraph_run_peaks_within_its_charge(self, model, monkeypatch):
        # four trials: each thread draws into its buffer twice
        peak, charge = self._peak_and_charge(
            monkeypatch, lambda: monte_carlo_estimator_check(model, 100_000, trials=4))
        assert peak <= 1.1 * charge


class TestTypeLawOracle:
    """Sampled networks realize the type law that ``type_probabilities`` predicts.

    With T types and n nodes, E[TV] <= sqrt(T/n)/2 by Cauchy-Schwarz, and one
    node moves the total variation by at most 1/n, so by McDiarmid's
    inequality (nodes treated as independent) TV exceeds sqrt(T/n) with
    probability below exp(-T/2), about 0.25% at T = 12.  The bound comes from
    n and T, not from a fitted seed.
    """

    N = 100_000

    @pytest.mark.parametrize("simple", [False, True], ids=["multigraph", "simple"])
    def test_realized_types_match_the_naive_block(self, simple):
        # c = 6, the preset's cost, sits on the stability bound: the system is singular
        params = GameParams(0.5, 4.0, 7.0, 0.5, EXAMPLE)
        solution = solve_direct(build_pi(EXAMPLE, params), params)
        system = solution.system
        naive = np.arange(system.L) < system.L // 2
        T = int(naive.sum())                  # 5 count vectors at degree 4, 7 at degree 6
        counts = empirical_neighbor_shares(generate(EXAMPLE, self.N, 0, simple)).counts
        observed, nodes = np.unique(counts, axis=0, return_counts=True)
        realized = np.zeros(system.L)
        realized[[system.index(NAIVE, int(c.sum()), c) for c in observed]] = nodes / self.N
        predicted = type_probabilities(EXAMPLE, system)
        bound = math.sqrt(T / self.N)
        assert 0.5 * np.abs(realized - predicted)[naive].sum() <= bound
        xi = solution.xi[naive]
        gap = realized[naive] @ xi - average_expectation(solution, EXAMPLE, rule=NAIVE)
        assert abs(gap) <= 2 * bound * np.abs(xi).max()


class TestScaling:
    def test_root_n_decay(self):
        ns, devs, slope = sampling_error_scaling(
            EXAMPLE, [1000, 10000, 100000], [32, 12, 6], seed=5)
        assert devs[0] > devs[1] > devs[2]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_matches_one_generate_call_per_trial_bit_for_bit(self):
        tilde = np.array([float(v) for v in biased_neighbor_share(EXAMPLE)])
        ns, devs, _ = sampling_error_scaling(EXAMPLE, [300, 1001], [3, 2], seed=[7])
        assert ns == [300, 1001]
        for i, (n, trials) in enumerate(zip(ns, [3, 2])):
            expected = np.mean([
                float(np.max(np.abs(empirical_neighbor_shares(
                    generate(EXAMPLE, n, seed=[7, i, t])).average - tilde)))
                for t in range(trials)])
            assert devs[i] == expected

    @pytest.mark.parametrize("ns, trials_per_n, match", [
        ([1000, 10000], [4, 0], "at least one trial"),
        ([1000, 10000], [4, 2.5], "trial count must be an integer"),
        ([1000], [4], "two distinct network sizes"),
        ([1000, 1000], [4, 4], "two distinct network sizes"),
        ([1000, 10000], [4], "one trial count per network size"),
        ([1000, 10.5], [4, 4], "node count"),
    ])
    def test_rejects_what_cannot_give_a_slope(self, ns, trials_per_n, match):
        with pytest.raises(ModelError, match=match):
            sampling_error_scaling(EXAMPLE, ns, trials_per_n)


class TestHandBuiltNetworks:
    """A network built by hand fails where it is built, or where a pass finds
    the degrees it records disagreeing with its edges."""

    @pytest.mark.parametrize("node_class", [[0, 2], [-1, 1]], ids=["past-K", "negative"])
    def test_class_outside_the_model_is_rejected(self, node_class):
        with pytest.raises(ModelError, match=r"node classes must be 0 \.\. 1"):
            SampledNetwork(EXAMPLE, node_class, [1, 1], [[0, 1]], 0, False, False)

    def test_degrees_of_another_length_are_rejected(self):
        with pytest.raises(ModelError, match="need one degree per node, got 3 for 2"):
            SampledNetwork(EXAMPLE, [0, 1], [1, 1, 1], [[0, 1]], 0, False, False)

    def test_degrees_that_differ_from_the_edges_are_rejected(self):
        # node 1 records degree 2 but ends one edge
        net = SampledNetwork(EXAMPLE, [0, 1], [1, 2], [[0, 1]], 0, False, False)
        with pytest.raises(ModelError, match="recorded node degrees differ from the edges"):
            empirical_neighbor_shares(net)


class TestExports:
    def test_edgelist_format(self, tmp_path):
        net = generate(EXAMPLE, 10, seed=1, simple=True)
        path = tmp_path / "edges.txt"
        write_edgelist(net, path)
        lines = path.read_text().splitlines()
        assert len(lines) == net.m
        pairs = [tuple(map(int, ln.split())) for ln in lines]
        assert all(a <= b for a, b in pairs)
        assert pairs == sorted(pairs)

    @pytest.mark.parametrize("n", [2, 10, 11, 1000, 100001])
    def test_edgelist_matches_reference_on_digit_boundaries(self, n, tmp_path):
        ids = [i for i in (0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000)
               if i < n] + [n - 1]
        # every pair of boundary ids, self-loops and both orientations, twice
        boundary = [(a, b) for a in ids for b in ids] * 2
        rng = np.random.default_rng(n)
        drawn = rng.integers(0, n, size=(2 * WRITE_ROWS + 7, 2))
        net = _hand_built(n, np.concatenate((boundary, drawn, drawn[:50])))
        write_edgelist(net, tmp_path / "edges.txt")
        assert (tmp_path / "edges.txt").read_bytes() == _reference_edgelist(net)

    @pytest.mark.parametrize("edges", [[[0, 10]], [[-1, 3]], [[3, -2**63]], [[2**63 - 1, 0]]])
    def test_network_with_an_id_outside_its_nodes_is_rejected(self, edges):
        with pytest.raises(ModelError, match=r"node ids 0 \.\. 9"):
            _hand_built(10, edges)

    def test_a_strided_edge_view_is_checked_where_it_lies(self):
        # every other column of an int64 array is taken as it is, not copied
        wide = np.arange(40, dtype=np.int64).reshape(-1, 4) % 10
        net = _hand_built(10, wide[:, ::2])
        assert not net.edges.flags.c_contiguous and np.shares_memory(net.edges, wide)
        assert np.array_equal(net.edges, wide[:, ::2])
        for outside in (-1, 10):
            wide[-1, 2] = outside
            with pytest.raises(ModelError, match=r"node ids 0 \.\. 9"):
                _hand_built(10, wide[:, ::2])

    @pytest.mark.parametrize("lines", [WRITE_ROWS, WRITE_ROWS + 1])
    def test_edgelist_at_the_block_boundary(self, lines, tmp_path):
        edges = np.random.default_rng(lines).integers(0, 1000, size=(lines, 2))
        net = _hand_built(1000, edges)
        write_edgelist(net, tmp_path / "edges.txt")
        assert (tmp_path / "edges.txt").read_bytes() == _reference_edgelist(net)

    def test_metadata_sidecar(self, tmp_path):
        net = generate(EXAMPLE, 10, seed=1, simple=True)
        path = tmp_path / "meta.json"
        write_metadata(net, path)
        meta = json.loads(path.read_text())
        assert meta["n"] == 10
        assert meta["degrees"] == [4, 6]
        assert meta["mode"] == "simple"
        assert meta["seed"] == 1
