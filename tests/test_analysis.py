import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgame.analysis as an
from netgame import (
    DegreeModel,
    GameParams,
    ModelError,
    bernstein,
    bernstein_interpolate,
    build_pi,
    convexity_check,
    infinite_sophisticated,
    lattice_values,
    monotonicity_check,
    naive_curve,
    piecewise_linear,
    precision_sweep,
    sigma_sweep,
    solve_direct,
    sophisticated_curve,
)

FIG = dict(eps=2.0, alpha=1.2, cost=3.7, etheta=1.0)
EX = dict(eps=0.5, alpha=4.0, cost=6.0, etheta=0.5)


class TestCurves:
    def test_fig_endpoints(self):
        # sigma = 0 naive curve spans 1/2.5 = 0.4 up toward 1/0.1 = 10
        lo = naive_curve(1e-9, **FIG)
        hi = naive_curve(1 - 1e-9, **FIG)
        assert lo == pytest.approx(0.4, abs=1e-6)
        assert hi == pytest.approx(10.0, rel=1e-5)

    def test_example_curve_value(self):
        assert naive_curve(0.4, **EX) == pytest.approx(0.5, abs=1e-12)

    def test_sophisticated_matches_closed_form(self):
        model = DegreeModel((2, 6), (0.65, 0.35))
        params = GameParams(1.0, 1.2, 3.7, 0.4, model)
        expected = infinite_sophisticated(model, params)
        got = sophisticated_curve(0.35, sigma=0.4, **FIG)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_mle_inverts_observed_share(self):
        for eps in (0.5, 2.0, 99.0):
            for d2 in (0.1, 0.4, 0.9):
                u = an.observed_high_share(d2, eps)
                assert an.mle_high_share(u, eps) == pytest.approx(d2, abs=1e-12)


class TestAuxiliaryEvaluators:
    # finite-difference cross-checks of the closed-form derivatives

    CASES = [(0.5, 4.0, 6.0, 1.0), (2.0, 1.2, 3.7, 0.5), (2.0, 1.2, 3.7, 0.9)]

    def _fd1(self, f, x, h=1e-6):
        return (f(x + h) - f(x - h)) / (2 * h)

    def _fd2(self, f, x, h=1e-4):
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2

    @pytest.mark.parametrize("eps,alpha,cost,sigma", CASES)
    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    def test_observed_share_derivatives(self, eps, alpha, cost, sigma, x):
        f = lambda t: an.observed_high_share(t, eps)
        assert an.observed_share_d1(x, eps) == pytest.approx(
            self._fd1(f, x), rel=1e-6)
        assert an.observed_share_d2(x, eps) == pytest.approx(
            self._fd2(f, x), rel=1e-4)

    def test_rhs_is_constant_two_plus_eps(self):
        # the two condition terms always total 2 + eps
        for eps in (0.5, 2.0, 7.0):
            for x in (0.1, 0.5, 0.9):
                assert an.naive_convexity_rhs(x, eps) == pytest.approx(
                    2 + eps, abs=1e-12)


class TestConvexityCheck:
    def test_fig_parameters_convex_everywhere(self):
        report = convexity_check(**FIG, sigma=1.0)
        assert report.naive_checked.all()
        assert report.naive_convex_predicted.all()
        assert (report.naive_second[report.naive_checked] > 0).all()
        assert report.ok

    def test_example_parameters_convex(self):
        report = convexity_check(**EX, sigma=1.0)
        assert (report.naive_rhs > 2).all()
        assert report.naive_convex_predicted.all()
        assert report.ok

    def test_concave_side(self):
        report = convexity_check(0.5, 1.2, 7.2, sigma=1.0)
        assert not report.naive_convex_predicted.any()
        assert (report.naive_second[report.naive_checked] < 0).all()
        assert report.ok

    def test_vanishing_ratio_flattens(self):
        report = convexity_check(1e-8, 1.2, 3.7, sigma=1.0)
        assert np.nanmax(np.abs(report.naive_second)) < 1e-3

    def test_unstable_points_excluded_not_asserted(self):
        report = convexity_check(2.0, 1.2, 1.8, sigma=1.0)
        assert 0 < report.naive_stable.sum() < len(report.grid)
        assert report.ok

    def test_sufficient_condition_implies_convex_sophisticated(self):
        for eps, ratio in [(0.5, 1.5), (2.0, 1.5), (2.0, 3.083)]:
            report = convexity_check(eps, 1.2, 1.2 * ratio, sigma=1.0)
            applies = report.soph_sufficient & report.soph_stable
            assert (report.soph_second[applies] >= 0).all()


class TestMonotonicityCheck:
    def test_fig_parameters_increasing(self):
        report = monotonicity_check(**FIG, sigma=0.0)
        assert report.increasing
        assert not report.flat

    def test_example_parameters_increasing(self):
        report = monotonicity_check(**EX, sigma=0.5)
        assert report.increasing

    def test_zero_complementarity_flat(self):
        report = monotonicity_check(2.0, 0.0, 3.7, sigma=0.5)
        assert report.flat
        assert np.nanmax(np.abs(report.naive_first)) == 0


class TestBernstein:
    def test_reproduces_linear_functions(self):
        f = lambda x: 2 * x + 1
        for d in (1, 2, 5, 9):
            b = bernstein(f, d)
            for x in np.linspace(0, 1, 7):
                assert b(x) == pytest.approx(f(x), abs=1e-12)

    def test_square_function_elevation_values(self):
        f = lambda x: x * x
        assert bernstein(f, 2)(0.5) == pytest.approx(0.375, abs=1e-12)
        assert bernstein(f, 4)(0.5) == pytest.approx(0.3125, abs=1e-12)

    def test_large_degree_reproduces_linear_functions(self):
        b = bernstein(lambda x: 3 * x - 1, 1500)
        for x in (0.0, 0.3, 0.77, 1.0):
            assert b(x) == pytest.approx(3 * x - 1, abs=1e-12)

    def test_rejects_points_outside_the_unit_interval(self):
        with pytest.raises(ModelError):
            bernstein(lambda x: x, 3)(1.5)

    def test_two_class_pi_block_is_the_bernstein_operator(self):
        # a naive observer with shares (1/2, 1/2) believes degree 6 with
        # weight 1/2 and draws that block's lattice by the same multinomial
        model = DegreeModel((2, 6), (0.5, 0.5))
        system = build_pi(model, GameParams(1.0, 1.0, 7.0, 0.4, model))
        row = system.row("naive", 2, (1, 1))
        f = lambda x: x * x + 0.2
        block = sum(row[system.index("naive", 6, (6 - k, k))] * f(k / 6)
                    for k in range(7))
        assert block / 0.5 == pytest.approx(bernstein(f, 6)(0.5), abs=1e-15)

    def test_lattice_interpolation_exact(self):
        values = [0.3, 0.1, 0.4, 0.15]
        s, b = bernstein_interpolate(values, 3)
        for k, v in enumerate(values):
            assert s(k / 3) == pytest.approx(v, abs=1e-12)
            assert b(1.0 if k == 3 else k / 3) == b(k / 3)
        assert b(0.0) == pytest.approx(values[0], abs=1e-12)
        assert b(1.0) == pytest.approx(values[-1], abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(2, 3),
           st.lists(st.floats(0.01, 1.0), min_size=3, max_size=17))
    def test_degree_elevation_for_convex_lattices(self, d, m, bumps):
        # build a convex sequence on {0, 1/d, ..., 1} from positive curvature
        bumps = (bumps * ((d + 2) // len(bumps) + 1))[:d - 1] if d > 1 else []
        values = [0.0, 0.1]
        for inc in bumps:
            values.append(2 * values[-1] - values[-2] + inc)
        values = values[:d + 1]
        while len(values) < d + 1:
            values.append(2 * values[-1] - values[-2] + 0.1)
        s = piecewise_linear(values)
        b_lo = bernstein(s, d)
        b_hi = bernstein(s, m * d)
        for x in np.linspace(0.05, 0.95, 9):
            assert b_lo(x) >= b_hi(x) - 1e-12


class TestPrecisionSweep:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_lower_precision_lies_higher(self, sigma):
        sweep = precision_sweep(2.0, 1.2, 3.7, sigma, 1.0, [2, 4, 8])
        assert sweep.convexity.ok
        for rule in ("naive", "sophisticated"):
            for ci in (0, 1):
                for share in sweep.matched_shares(ci):
                    vals = [v for _, v in sweep.values(rule, ci, share)]
                    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_gap_to_closed_form_shrinks(self):
        sweep = precision_sweep(2.0, 1.2, 3.7, 1.0, 1.0, [2, 4, 8])
        gaps = [sweep.gap(d) for d in (2, 4, 8)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_matched_shares_exact_for_doubling(self):
        sweep = precision_sweep(2.0, 1.2, 3.7, 0.5, 1.0, [2, 4, 8])
        assert all(r.offset == 0.0 for r in sweep.rows)

    def test_zero_complementarity_collapses(self):
        sweep = precision_sweep(2.0, 0.0, 3.7, 0.5, 1.0, [2, 4])
        vals = {round(r.value, 14) for r in sweep.rows}
        assert vals == {round(1.0 / 3.7, 14)}

    def test_lattice_values_ordered_by_share(self):
        model = DegreeModel((2, 6), (0.6, 0.4))
        params = GameParams(1.0, 1.2, 3.7, 0.5, model)
        sol = solve_direct(build_pi(model, params), params)
        vals = lattice_values(sol, "naive", 6)
        assert len(vals) == 7
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestSigmaSweep:
    EXM = DegreeModel((4, 6), (0.6, 0.4))

    def test_example_endpoints(self):
        rows = sigma_sweep(self.EXM, 4.0, 6.0, 0.5, np.linspace(0, 1, 101))
        naive_vals = {round(r.naive, 12) for r in rows}
        assert naive_vals == {0.5}
        assert rows[-1].sophisticated == rows[-1].benchmark
        assert rows[-1].benchmark == pytest.approx(15 / 36, abs=1e-12)

    def test_half_sophistication_value(self):
        rows = sigma_sweep(self.EXM, 4.0, 6.0, 0.5, [0.5])
        assert rows[0].sophisticated == pytest.approx(17 / 36, abs=1e-12)

    def test_decreasing_sophisticated(self):
        rows = sigma_sweep(self.EXM, 4.0, 6.0, 0.5, np.linspace(0, 1, 51))
        vals = [r.sophisticated for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_degenerate_ratio_collapses(self):
        model = DegreeModel((4, 6), (1 - 1e-9, 1e-9))
        rows = sigma_sweep(model, 4.0, 6.0, 0.5, [0.0, 0.5, 1.0])
        for r in rows:
            assert r.naive == pytest.approx(r.benchmark, abs=1e-6)
            assert r.sophisticated == pytest.approx(r.benchmark, abs=1e-6)
