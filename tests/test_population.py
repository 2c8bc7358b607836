import itertools
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
    StabilityError,
    biased_neighbor_share,
    debias_shares,
    degree_ratios,
    empirical_neighbor_shares,
    feasible_observed_shares,
    generate,
)


@st.composite
def models(draw, max_k=3, max_degree=10):
    k = draw(st.integers(2, max_k))
    degrees = draw(st.lists(st.integers(1, max_degree), min_size=k, max_size=k,
                            unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(raw)
    return DegreeModel(tuple(sorted(degrees)), tuple(r / total for r in raw))


class TestDegreeModel:
    def test_rejects_duplicate_degrees(self):
        with pytest.raises(ModelError):
            DegreeModel((5, 5), (0.5, 0.5))

    def test_rejects_unsorted_degrees(self):
        with pytest.raises(ModelError):
            DegreeModel((6, 4), (0.5, 0.5))

    def test_rejects_boundary_shares(self):
        with pytest.raises(ModelError):
            DegreeModel((4, 6), (1.0, 0.0))

    def test_rejects_bad_sum(self):
        with pytest.raises(ModelError):
            DegreeModel((4, 6), (0.6, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 2.5, None])
    def test_rejects_non_integer_degrees(self, bad):
        with pytest.raises(ModelError):
            DegreeModel((1, bad), (0.5, 0.5))

    def test_exact_mode(self):
        m = DegreeModel((4, 6), (Fraction(3, 5), Fraction(2, 5)))
        assert m.exact
        assert m.rho == (Fraction(1), Fraction(3, 2))
        assert m.rho[1] - 1 == Fraction(1, 2)


class TestGameParams:
    def test_worked_example_boundary_constructs(self):
        # alpha * d_K/d_1 == cost exactly; closed forms stay finite there
        m = DegreeModel((4, 6), (0.6, 0.4))
        GameParams(0.5, 4, 6, 0.5, m)

    def test_rejects_unstable(self):
        m = DegreeModel((2, 6), (0.6, 0.4))
        with pytest.raises(StabilityError):
            GameParams(1.0, 1.2, 1.8, 0.5, m)

    def test_rejects_bad_ranges(self):
        m = DegreeModel((4, 6), (0.6, 0.4))
        with pytest.raises(ModelError):
            GameParams(-0.1, 1, 6, 0.5, m)
        with pytest.raises(ModelError):
            GameParams(0.5, 1, -6, 0.5, m)
        with pytest.raises(ModelError):
            GameParams(0.5, 1, 6, 1.5, m)

    def test_rejects_non_finite_fields(self):
        m = DegreeModel((4, 6), (0.6, 0.4))
        good = [0.5, 1.0, 6.0, 0.5]
        for field in range(4):
            for bad in (math.nan, math.inf, -math.inf):
                values = list(good)
                values[field] = bad
                with pytest.raises(ModelError):
                    GameParams(*values, m)

    @given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(0, 3),
           st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_always_raises(self, bad, field, sigma):
        m = DegreeModel((4, 6), (0.6, 0.4))
        values = [0.5, 1.0, 6.0, sigma]
        values[field] = bad
        with pytest.raises(ModelError):
            GameParams(*values, m)


class TestBiasedNeighborShare:
    def test_worked_example(self):
        m = DegreeModel((4, 6), (0.6, 0.4))
        assert biased_neighbor_share(m) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_degenerate_limit(self):
        m = DegreeModel((4, 6), (1 - 1e-9, 1e-9))
        share = biased_neighbor_share(m)
        assert share[0] == pytest.approx(1.0, abs=1e-8)
        assert share[1] == pytest.approx(0.0, abs=1e-8)

    def test_monte_carlo_oracle(self):
        # degree-1 vs degree-2 half-and-half: a random neighbor is degree-2
        # with probability 2/3
        m = DegreeModel((1, 2), (0.5, 0.5))
        assert biased_neighbor_share(m)[1] == pytest.approx(2 / 3, abs=1e-12)
        net = generate(m, 100000, seed=11)
        observed = empirical_neighbor_shares(net).average
        assert observed[1] == pytest.approx(2 / 3, abs=0.01)

    @settings(max_examples=50, deadline=None)
    @given(models())
    def test_majorizes_toward_high_degree(self, m):
        tilde = biased_neighbor_share(m)
        assert sum(tilde) == pytest.approx(1.0, abs=1e-12)
        for j in range(m.K):
            assert sum(tilde[j:]) >= sum(m.shares[j:]) - 1e-12

    @settings(max_examples=50, deadline=None)
    @given(models())
    def test_roundtrip_through_debias(self, m):
        back = debias_shares(biased_neighbor_share(m), m.degrees)
        assert max(abs(a - b) for a, b in zip(back, m.shares)) <= 1e-12

    def test_roundtrip_exact(self):
        m = DegreeModel((2, 3, 7), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert debias_shares(biased_neighbor_share(m), m.degrees) == m.shares

    @pytest.mark.parametrize("adding", [None, "compensated_sum"])
    def test_bits_do_not_depend_on_how_sum_adds_floats(self, adding, request):
        # a compensated sum, as Python 3.12 adds floats, gives 0.5, 0.28571428571428575, ...
        if adding:
            request.getfixturevalue(adding)
        share = biased_neighbor_share(DegreeModel((1, 2, 3), (0.7, 0.2, 0.1)))
        assert [v.hex() for v in share] == [v.hex() for v in (
            0.49999999999999994, 0.2857142857142857, 0.2142857142857143)]


class TestFeasibleObservedShares:
    def test_degree_two(self):
        assert feasible_observed_shares(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_degree_four_has_five(self):
        got = feasible_observed_shares(4, 2)
        assert len(got) == 5
        assert [counts[1] for counts in got] == [0, 1, 2, 3, 4]

    def test_three_classes_brute_force(self):
        got = feasible_observed_shares(3, 3)
        brute = [c for c in itertools.product(range(4), repeat=3) if sum(c) == 3]
        # highest class ascending, ties broken by the next class down
        assert got == sorted(brute, key=lambda c: c[::-1])
        assert len(got) == 10

    def test_cardinality_matches_stars_and_bars(self):
        for d_i in range(1, 13):
            for k in range(2, 5):
                assert len(feasible_observed_shares(d_i, k)) == math.comb(
                    d_i + k - 1, k - 1)

class TestDegreeRatios:
    def test_hand_arithmetic(self):
        m = DegreeModel((4, 6), (0.6, 0.4))
        rho, e1, e2 = degree_ratios(m)
        assert rho == (1.0, 1.5)
        assert e1 == pytest.approx(1.2, abs=1e-12)
        assert e2 == pytest.approx(1.5, abs=1e-12)

    def test_monte_carlo_population_moments(self):
        m = DegreeModel((4, 6), (0.6, 0.4))
        _, e1, e2 = degree_ratios(m)
        rng = np.random.default_rng(5)
        draws = np.where(rng.random(200000) < 0.4, 1.5, 1.0)
        assert e1 == pytest.approx(float(draws.mean()), abs=5e-3)
        assert e2 == pytest.approx(float((draws**2).mean()), abs=5e-3)

    def test_excess_ratio_two(self):
        m = DegreeModel((2, 6), (0.7, 0.3))
        assert m.rho[1] - 1 == 2.0
        assert m.rho == (1.0, 3.0)

    @pytest.mark.parametrize("adding", [None, "compensated_sum"])
    def test_bits_do_not_depend_on_how_sum_adds_floats(self, adding, request):
        # a compensated sum, as Python 3.12 adds floats, gives E[rho^2] = 7.500000000000001
        if adding:
            request.getfixturevalue(adding)
        _, e1, e2 = degree_ratios(DegreeModel((1, 2, 3, 5), (0.2, 0.3, 0.4, 0.1)))
        assert (e1.hex(), e2.hex()) == ((2.5).hex(), (7.5).hex())

    @settings(max_examples=50, deadline=None)
    @given(models())
    def test_neighbor_moment_dominates(self, m):
        _, e1, e2 = degree_ratios(m)
        assert e2 / e1 >= e1 - 1e-12
