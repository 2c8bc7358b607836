import hashlib
import itertools
import json

import numpy as np
import pytest

from netgame import (
    DegreeModel,
    ModelError,
    class_counts,
    degree_assortativity,
    empirical_neighbor_shares,
    generate,
    monte_carlo_estimator_check,
    sampling_error_scaling,
    write_edgelist,
    write_metadata,
)
from netgame.netsim import MAX_ROUNDS, _check_graphical

EXAMPLE = DegreeModel((4, 6), (0.6, 0.4))


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
        obs = summary.observed(0)
        assert obs.sample_size == int(net.node_degree[0])


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

    def test_trial_streams_differ(self):
        report = monte_carlo_estimator_check(EXAMPLE, 5000, trials=3, seed=4)
        assert len({round(float(v), 12)
                    for v in report.naive_estimates[:, 1]}) == 3


class TestScaling:
    def test_root_n_decay(self):
        ns, devs, slope = sampling_error_scaling(
            EXAMPLE, [1000, 10000, 100000], [32, 12, 6], seed=5)
        assert devs[0] > devs[1] > devs[2]
        assert slope == pytest.approx(-0.5, abs=0.15)


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

    def test_metadata_sidecar(self, tmp_path):
        net = generate(EXAMPLE, 10, seed=1, simple=True)
        path = tmp_path / "meta.json"
        write_metadata(net, path)
        meta = json.loads(path.read_text())
        assert meta["n"] == 10
        assert meta["degrees"] == [4, 6]
        assert meta["mode"] == "simple"
        assert meta["seed"] == 1
