from fractions import Fraction

import numpy as np
import pytest

from netgame import (
    DegreeModel,
    GameParams,
    best_response,
    build_pi,
    infinite_naive,
    infinite_sophisticated,
    population_average_action,
    solve_direct,
    utility,
)

MODEL = DegreeModel((4, 6), (Fraction(3, 5), Fraction(2, 5)))
THETA = Fraction(1, 2)


def params(sigma):
    return GameParams(THETA, Fraction(4), Fraction(6), sigma, MODEL)


BENCH = Fraction(15, 36)
NAIVE_EXP = Fraction(1, 2)


class TestBestResponse:
    def test_benchmark_actions(self):
        p = params(1)
        assert best_response(THETA, 4, BENCH, MODEL, p) == Fraction(13, 36)
        assert best_response(THETA, 6, BENCH, MODEL, p) == Fraction(18, 36)

    def test_all_naive_actions(self):
        p = params(0)
        assert best_response(THETA, 4, NAIVE_EXP, MODEL, p) == Fraction(15, 36)
        assert best_response(THETA, 6, NAIVE_EXP, MODEL, p) == Fraction(21, 36)

    def test_no_expectation_channel(self):
        p = params(0)
        assert best_response(THETA, 6, 0, MODEL, p) == THETA / 6

    def test_monotone_in_each_argument(self):
        p = params(0)
        base = best_response(0.5, 4, 0.4, MODEL, p)
        assert best_response(0.6, 4, 0.4, MODEL, p) > base
        assert best_response(0.5, 6, 0.4, MODEL, p) > base
        assert best_response(0.5, 4, 0.5, MODEL, p) > base


class TestUtility:
    def test_worked_values(self):
        p = params(1)
        low = utility(Fraction(13, 36), THETA, 4, BENCH, MODEL, p)
        high = utility(Fraction(18, 36), THETA, 6, BENCH, MODEL, p)
        assert float(low) == pytest.approx(0.3912, abs=5e-4)
        assert high == Fraction(3, 4)

    def test_zero_action(self):
        assert utility(0, THETA, 4, BENCH, MODEL, params(1)) == 0

    def test_maximized_at_best_response(self):
        p = params(1)
        x_star = best_response(0.5, 6, 0.41, MODEL, p)
        u_star = utility(x_star, 0.5, 6, 0.41, MODEL, p)
        for dx in (-0.05, -0.01, 0.01, 0.05):
            assert utility(x_star + dx, 0.5, 6, 0.41, MODEL, p) < u_star


class TestExpectedUtilityUnderTruth:
    def test_naive_losses(self):
        p = params(0)
        low = utility(Fraction(15, 36), THETA, 4, BENCH, MODEL, p)
        high = utility(Fraction(21, 36), THETA, 6, BENCH, MODEL, p)
        assert float(low) == pytest.approx(0.3819, abs=5e-4)
        assert float(high) == pytest.approx(0.7291, abs=5e-4)
        assert float(low) < 0.3912
        assert float(high) < 0.75

    def test_no_loss_at_benchmark_action(self):
        # acting on the true expectation attains the maximal payoff b^2 / 2c
        p = params(1)
        act = best_response(THETA, 4, BENCH, MODEL, p)
        b = THETA + p.alpha / 4 * 4 * BENCH
        assert utility(act, THETA, 4, BENCH, MODEL, p) == b * b / (2 * p.cost)

    def test_envelope_property(self):
        p = params(0)
        for d in (4, 6):
            best_act = best_response(THETA, d, BENCH, MODEL, p)
            best_u = utility(best_act, THETA, d, BENCH, MODEL, p)
            for held in (0.3, 0.45, 0.5, 0.6):
                act = best_response(THETA, d, held, MODEL, p)
                eu = utility(act, THETA, d, BENCH, MODEL, p)
                assert eu <= best_u + 1e-15
                if abs(float(act) - float(best_act)) > 1e-12:
                    assert eu < best_u


class TestOutcomes:
    def test_higher_degree_higher_action_and_utility(self):
        p = params(1)
        low = best_response(THETA, 4, BENCH, MODEL, p)
        high = best_response(THETA, 6, BENCH, MODEL, p)
        assert high > low
        assert utility(high, THETA, 6, BENCH, MODEL, p) > \
            utility(low, THETA, 4, BENCH, MODEL, p)

    def test_naive_action_dominates_sophisticated(self):
        for s in np.linspace(0.0, 1.0, 11):
            p = params(Fraction(s).limit_denominator(100))
            x_n = infinite_naive(MODEL, p)
            x_s = infinite_sophisticated(MODEL, p)
            for d in MODEL.degrees:
                assert best_response(THETA, d, x_n, MODEL, p) >= \
                    best_response(THETA, d, x_s, MODEL, p)


class TestPopulationAverage:
    def test_benchmark_fixed_point(self):
        p = params(1)
        avg = population_average_action(MODEL, p, BENCH)
        assert avg == Fraction(15, 36)
        # same thing as the share-weighted sum of the worked actions
        manual = Fraction(6, 10) * Fraction(13, 36) + Fraction(4, 10) * Fraction(18, 36)
        assert avg == manual

    def test_all_naive_average(self):
        p = params(0)
        avg = population_average_action(MODEL, p, NAIVE_EXP)
        manual = Fraction(6, 10) * Fraction(15, 36) + Fraction(4, 10) * Fraction(21, 36)
        assert avg == manual == Fraction(29, 60)

    def test_zero_complementarity(self):
        model = DegreeModel((2, 6), (0.6, 0.4))
        p = GameParams(1.0, 0.0, 3.7, 0.5, model)
        assert population_average_action(model, p, 0.7) == pytest.approx(1 / 3.7)

    def test_finite_solution_weighting(self):
        model = DegreeModel((2, 6), (0.6, 0.4))
        p = GameParams(1.0, 1.2, 3.7, 0.3, model)
        sol = solve_direct(build_pi(model, p), p)
        avg = population_average_action(model, p, sol)
        lo = best_response(1.0, 2, float(sol.xi.min()), model, p)
        hi = best_response(1.0, 6, float(sol.xi.max()), model, p)
        assert lo <= avg <= hi
