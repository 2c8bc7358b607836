import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import (
    DegreeModel,
    GameParams,
    ModelError,
    bias_surface,
    biased_neighbor_share,
    build_pi,
    debias_shares,
    generate,
    empirical_neighbor_shares,
    observed_high_share,
    sophisticated_mle,
)


def _log_likelihood(delta, counts, degrees):
    """Multinomial log-likelihood of neighbor counts under candidate shares.

    A random neighbor is of class k with probability d_k * delta_k / sum(d * delta),
    so the argmax over the simplex should be ``sophisticated_mle``: this is the
    independent check of that closed form.  It is -inf where a class that was
    observed has no mass.
    """
    weights = [d * s for d, s in zip(degrees, delta)]
    total = sum(weights)
    ll = math.lgamma(sum(counts) + 1) - sum(math.lgamma(c + 1) for c in counts)
    for c, w in zip(counts, weights):
        if c == 0:
            continue
        if w == 0:
            return float("-inf")
        ll += c * math.log(w / total)
    return ll


class TestNaiveEstimate:
    @pytest.mark.parametrize("values,size", [
        ((0.5, 0.5), 2),
        ((1.0, 0.0), 3),
        ((0.25, 0.5, 0.25), 4),
    ])
    def test_identity(self, values, size):
        # a naive observer takes its observed shares at face value: its row of
        # the expectation matrix weighs each degree's columns by that share
        degrees = tuple(size * (k + 1) for k in range(len(values)))
        model = DegreeModel(degrees, (1 / len(values),) * len(values))
        system = build_pi(model, GameParams(1.0, 1.0, 2.0 * len(values), 0.5, model))
        row = system.row("naive", size, tuple(round(v * size) for v in values))
        mass = [row[np.tile(system.degrees, 2) == d].sum() for d in degrees]
        assert mass == pytest.approx(values, abs=1e-12)


class TestSophisticatedMLE:
    def test_worked_example(self):
        est = sophisticated_mle((0.5, 0.5), (4, 6))
        assert est == pytest.approx((0.6, 0.4), abs=1e-12)

    def test_degenerate_observation(self):
        est = sophisticated_mle((0.0, 1.0), (4, 6))
        assert est == (0.0, 1.0)

    def test_low_high_two_four(self):
        est = sophisticated_mle((0.5, 0.5), (2, 4))
        assert est == pytest.approx((2 / 3, 1 / 3), abs=1e-12)

    def test_exact(self):
        est = sophisticated_mle((Fraction(1, 2), Fraction(1, 2)), (4, 6))
        assert est == (Fraction(3, 5), Fraction(2, 5))

    def test_zero_count_class_stays_zero(self):
        est = sophisticated_mle((0.5, 0.0, 0.5), (1, 2, 4))
        assert est[1] == 0.0
        assert sum(est) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("adding", [None, "compensated_sum"])
    def test_bits_do_not_depend_on_how_sum_adds_floats(self, adding, request):
        # Python 3.12 made sum() of floats compensated, which moved these last bits
        if adding:
            request.getfixturevalue(adding)
        est = sophisticated_mle((1 / 3, 1 / 3, 1 / 3), (1, 2, 3))
        assert [v.hex() for v in est] == [v.hex() for v in (
            0.5454545454545454, 0.2727272727272727, 0.1818181818181818)]

    def test_columns_are_debiased_as_one_vector_at_a_time(self):
        rows = [(0.5, 0.0, 0.5), (0.1, 0.2, 0.7), (1 / 3, 1 / 3, 1 / 3)]
        columns = sophisticated_mle(np.array(rows).T, (1, 2, 3))
        assert [[v.hex() for v in row] for row in np.stack(columns, axis=1).tolist()] == \
            [[v.hex() for v in sophisticated_mle(row, (1, 2, 3))] for row in rows]

    def test_an_all_zero_vector_among_columns_is_refused(self):
        columns = (np.array([0.5, 0.0]), np.array([0.5, 0.0]))
        with pytest.raises(ModelError, match="all-zero"):
            debias_shares(columns, (1, 2))


class TestLogLikelihood:
    def test_grid_argmax_matches_closed_form(self):
        # brute-force over the two-class simplex at step 1e-4
        counts, degrees = (1, 1), (4, 6)
        grid = np.arange(1e-4, 1.0, 1e-4)
        values = [_log_likelihood((1 - t, t), counts, degrees) for t in grid]
        best = grid[int(np.argmax(values))]
        assert best == pytest.approx(0.4, abs=1e-4)

    def test_single_class_sample_pushes_to_boundary(self):
        counts, degrees = (5, 0), (4, 6)
        lo = _log_likelihood((0.9, 0.1), counts, degrees)
        hi = _log_likelihood((0.999, 0.001), counts, degrees)
        assert hi > lo
        assert _log_likelihood((0.0, 1.0), counts, degrees) == float("-inf")

    def test_gradient_vanishes_at_mle(self):
        counts, degrees = (3, 2), (4, 6)
        t_star = sophisticated_mle(tuple(c / sum(counts) for c in counts), degrees)[1]
        h = 1e-6
        up = _log_likelihood((1 - t_star - h, t_star + h), counts, degrees)
        dn = _log_likelihood((1 - t_star + h, t_star - h), counts, degrees)
        assert abs(up - dn) / (2 * h) < 1e-6

    def test_boundary_with_observation_is_minus_inf(self):
        assert _log_likelihood((1.0, 0.0), (1, 1), (4, 6)) == float("-inf")

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6))
    def test_mle_beats_perturbations(self, n1, n2):
        if n1 + n2 == 0:
            return
        counts, degrees = (n1, n2), (3, 5)
        t_star = debias_shares(tuple(c / (n1 + n2) for c in counts), degrees)[1]
        best = _log_likelihood((1 - t_star, t_star), counts, degrees)
        for t in (0.05, 0.3, 0.7, 0.95):
            assert best >= _log_likelihood((1 - t, t), counts, degrees) - 1e-12


class TestBiasSurface:
    def test_peak_location_and_height(self):
        pairs = bias_surface(1.0)
        x_best, best = max(pairs, key=lambda p: p[1])
        assert best == pytest.approx(0.1716, abs=5e-4)
        assert x_best == pytest.approx(0.414, abs=2e-3)

    def test_extreme_ratio(self):
        pairs = dict(bias_surface(99.0))
        assert pairs[0.1] == pytest.approx(0.8174, abs=5e-4)

    def test_vanishing_ratio(self):
        assert all(b == 0 for _, b in bias_surface(0.0))

    def test_positive_inside_zero_at_ends(self):
        pairs = bias_surface(2.0)
        assert pairs[0][1] == 0 and pairs[-1][1] == 0
        assert all(b > 0 for x, b in pairs if 0 < x < 1)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(0.1, 20), st.floats(0.1, 20))
    def test_pointwise_increasing_in_ratio(self, x, e1, e2):
        lo, hi = sorted((e1, e2))
        if hi - lo < 1e-9:
            return
        gap_lo = observed_high_share(x, lo) - x
        gap_hi = observed_high_share(x, hi) - x
        assert gap_hi >= gap_lo - 1e-12

    def test_analytic_argmax_matches_grid(self):
        for eps in (0.5, 1.0, 2.0, 99.0):
            grid_best = max(bias_surface(eps), key=lambda p: p[1])[0]
            assert (math.sqrt(1 + eps) - 1) / eps == pytest.approx(grid_best, abs=1e-3)


class TestMonteCarloConsistency:
    def test_population_average_debias_recovers_truth(self):
        m = DegreeModel((4, 6), (0.6, 0.4))
        hits = 0
        for seed in range(10):
            net = generate(m, 20000, seed=seed)
            avg = empirical_neighbor_shares(net).average
            est = debias_shares(tuple(avg), m.degrees)
            hits += abs(est[1] - 0.4) <= 0.01
        assert hits >= 9

    def test_no_degree_variation_rules_coincide(self):
        # clamped near-regular population: both rules see the same thing
        m = DegreeModel((2, 4), (1 - 1e-9, 1e-9))
        tilde = biased_neighbor_share(m)
        assert debias_shares(tilde, m.degrees)[0] == pytest.approx(
            tilde[0], abs=1e-8)
