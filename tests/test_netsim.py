import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from netgame import (
    NAIVE,
    DegreeModel,
    GameParams,
    debias_shares,
    ModelError,
    ObservedShares,
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
from netgame import netsim
from netgame.netsim import MAX_NODES, MAX_ROUNDS, WRITE_ROWS, _check_graphical

EXAMPLE = DegreeModel((4, 6), (0.6, 0.4))
K3 = DegreeModel((1, 2, 3), (0.5, 0.3, 0.2))  # odd stub total at n = 1001


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
    """Degree assortativity with the degree table indexed by ``np.unique``."""
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
        obs = ObservedShares.from_counts(tuple(int(c) for c in summary.counts[0]))
        assert obs.sample_size == int(net.node_degree[0])

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
    ])
    @pytest.mark.parametrize("simple", [False, True])
    def test_node_sd_matches_mask_reference_bit_for_bit(self, model, n, simple):
        # the reference draws every trial with its own ``generate`` call
        report = monte_carlo_estimator_check(model, n, trials=3, seed=11, simple=simple)
        node_sd, naive, soph, assort = _reference_report(model, n, 3, 11, simple)
        assert report.node_estimate_sd == node_sd
        assert np.array_equal(report.naive_estimates, naive)
        assert np.array_equal(report.sophisticated_estimates, soph)
        assert np.array_equal(report.assortativity, assort)

    def test_each_traced_layer_is_called_once_per_trial(self, monkeypatch):
        # the benchmark times these by wrapping the module attributes; a call
        # inlined or bound under another name would read as zero time.
        # ``generate`` draws trial 0 through ``draw_multigraph``.
        calls = {}
        draws = []
        for name in ("generate", "draw_multigraph", "empirical_neighbor_shares",
                     "degree_assortativity"):
            real = getattr(netsim, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                result = _real(*args, **kwargs)
                if _name == "draw_multigraph":
                    draws.append(result.seed)
                return result
            monkeypatch.setattr(netsim, name, counting)
        monte_carlo_estimator_check(EXAMPLE, 2000, trials=3)
        assert calls == {"generate": 1, "draw_multigraph": 3,
                         "empirical_neighbor_shares": 3, "degree_assortativity": 3}
        assert draws == [[0, 0], [0, 1], [0, 2]]

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
        assert seeds == [[3, 0], [3, 1]]
        assert layouts == [200, 200]  # one per generate call
        assert report.first_network.simple

    def test_trial_streams_differ(self):
        report = monte_carlo_estimator_check(EXAMPLE, 5000, trials=3, seed=4)
        assert len({round(float(v), 12)
                    for v in report.naive_estimates[:, 1]}) == 3


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
        naive = ~system.columns[2]
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

    @pytest.mark.parametrize("edges", [[[0, 10]], [[-1, 3]]])
    def test_network_with_an_id_outside_its_nodes_is_rejected(self, edges):
        with pytest.raises(ModelError, match=r"node ids 0 \.\. 9"):
            _hand_built(10, edges)

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
