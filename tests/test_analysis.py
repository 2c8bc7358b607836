import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgame.analysis as an
from netgame import (
    DegreeModel,
    GameParams,
    ModelError,
    average_expectation,
    build_pi,
    convexity_check,
    infinite_sophisticated,
    lattice_values,
    multinomial_pmf,
    naive_curve,
    population_precision_sweep,
    precision_sweep,
    sigma_sweep,
    solve_direct,
    sophisticated_curve,
)

FIG = dict(eps=2.0, alpha=1.2, cost=3.7, etheta=1.0)
EX = dict(eps=0.5, alpha=4.0, cost=6.0, etheta=0.5)


def _bernstein(func, degree):
    """Degree-``degree`` Bernstein operator applied to a function on [0, 1]:
    B_d(f)(x) = sum_k C(d,k) x^k (1-x)^(d-k) f(k/d).

    Each weight is ``multinomial_pmf`` of the same (low, high) lattice as a
    two-class block of the expectation matrix, at cell probabilities (1 - x, x).
    """
    fvals = np.array([float(func(k / degree)) for k in range(degree + 1)])
    counts = [(degree - k, k) for k in range(degree + 1)]
    return lambda x: float(multinomial_pmf(counts, [(1 - x, x)])[0] @ fvals)


def _interpolant(values):
    """Piecewise-linear interpolant of ``values`` on {0, 1/d, ..., 1}."""
    knots = np.linspace(0.0, 1.0, len(values))
    return lambda x: float(np.interp(x, knots, values))


def _curves(eps, alpha, cost, sigma, etheta):
    """Both large-sample curves over ``CHECK_GRID``; an unstable point raises."""
    grid = an.CHECK_GRID
    return (np.array([naive_curve(x, eps, alpha, cost, etheta) for x in grid]),
            np.array([sophisticated_curve(x, eps, alpha, cost, sigma, etheta)
                      for x in grid]))


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


def _pointwise_second_differences(eps, alpha, cost, sigma, etheta):
    """The convexity stencil one grid point at a time: per rule, the second
    differences (NaN where not stable) and the stable mask."""
    h = an.DIFF_STEP
    out = []
    for curve, stable, args in [
        (naive_curve,
         lambda s: cost - alpha * (1 + eps * an.observed_high_share(s, eps)) > 0,
         (eps, alpha, cost, etheta)),
        (sophisticated_curve,
         lambda s: (cost - alpha * (1 + eps * an.observed_high_share(s, eps)) > 0
                    and cost - sigma * alpha * (1 + eps * s) > 0),
         (eps, alpha, cost, sigma, etheta)),
    ]:
        second = np.full(len(an.CHECK_GRID), np.nan)
        mask = np.zeros(len(an.CHECK_GRID), dtype=bool)
        for i, x in enumerate(an.CHECK_GRID):
            stencil = (x - h, x, x + h)
            if all(stable(s) for s in stencil):
                f = [curve(s, *args) for s in stencil]
                second[i] = (f[0] - 2 * f[1] + f[2]) / h**2
                mask[i] = True
        out += [second, mask]
    return out


class TestAuxiliaryEvaluators:
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
        assert (an.naive_convexity_rhs(report.grid, EX["eps"]) > 2).all()
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

    @pytest.mark.parametrize("eps, alpha, cost, sigma, etheta", [
        (2.0, 1.2, 3.7, 1.0, 1.0),      # stable everywhere
        (2.0, 1.2, 1.8, 0.5, 1.0),      # stable at 9 of 99 points
        (0.5, 4.0, 5.0, 0.3, 0.5),      # stable at 39 of 99 points
        (2.0, 1.2, 1.0, 1.0, 1.0),      # nowhere stable
        (1e-8, 0.0, 3.7, 0.0, 1.0),     # degenerate: no complementarity
        (0.0, 1.2, 3.7, 1.0, 1.0),      # degenerate: equal degrees
    ])
    def test_matches_pointwise_stencil_bit_for_bit(self, eps, alpha, cost, sigma, etheta):
        report = convexity_check(eps, alpha, cost, sigma=sigma, etheta=etheta)
        got = [report.naive_second, report.naive_stable,
               report.soph_second, report.soph_stable, report.naive_checked]
        want = _pointwise_second_differences(eps, alpha, cost, sigma, etheta)
        # a point is checked when it is stable, outside the band around the
        # condition's equality and alpha * eps != 0; ok when the measured sign
        # matches the prediction at every checked point
        ratio = cost / alpha if alpha > 0 else math.inf
        checked = np.zeros(len(an.CHECK_GRID), dtype=bool)
        agree = []
        for i, x in enumerate(an.CHECK_GRID):
            rhs = an.naive_convexity_rhs(x, eps)
            inconclusive = abs(ratio - rhs) <= an.BAND_FACTOR * an.DIFF_STEP
            checked[i] = bool(want[1][i] and not inconclusive and alpha * eps != 0)
            predicted = ratio < rhs and not inconclusive
            agree.append((want[0][i] > 0) == predicted or not checked[i])
        want.append(checked)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert report.ok is all(agree)

    @pytest.mark.parametrize("name, value, message", [
        ("eps", math.nan, "excess ratio must be finite"),
        ("eps", math.inf, "excess ratio must be finite"),
        # -1 once passed with ok=True and every soph_second NaN; -2 divided by zero
        ("eps", -1.0, "excess ratio must be finite and non-negative, got -1.0"),
        ("eps", -2.0, "excess ratio must be finite and non-negative, got -2.0"),
        ("alpha", math.nan, "alpha must be finite"),
        ("cost", math.nan, "cost must be finite"),
        ("sigma", math.nan, "sigma must be finite"),
        ("etheta", math.nan, "mean_preference must be finite"),
        ("cost", 0.0, "action cost must be positive"),
        ("sigma", 1.5, "sophistication share must lie in"),
    ], ids=["nan-eps", "inf-eps", "negative-eps", "minus-two-eps", "nan-alpha", "nan-cost",
            "nan-sigma", "nan-etheta", "zero-cost", "sigma-above-one"])
    def test_rejects_invalid_scalars(self, name, value, message):
        # a NaN once passed with ok=True and no point checked
        args = {**FIG, "sigma": 1.0, name: value}
        with pytest.raises(ModelError, match=message):
            convexity_check(**args)

    def test_sufficient_condition_implies_convex_sophisticated(self):
        for eps, ratio in [(0.5, 1.5), (2.0, 1.5), (2.0, 3.083)]:
            report = convexity_check(eps, 1.2, 1.2 * ratio, sigma=1.0)
            applies = report.soph_sufficient & report.soph_stable
            assert (report.soph_second[applies] >= 0).all()


class TestMonotonicityCheck:
    # every grid point is locally stable at these parameters, so both curves
    # are defined on the whole grid
    def test_fig_parameters_increasing(self):
        for curve in _curves(**FIG, sigma=0.0):
            assert (np.diff(curve) > 0).all()

    def test_example_parameters_increasing(self):
        for curve in _curves(**EX, sigma=0.5):
            assert (np.diff(curve) > 0).all()

    def test_zero_complementarity_flat(self):
        for curve in _curves(2.0, 0.0, 3.7, sigma=0.5, etheta=1.0):
            assert (np.diff(curve) == 0).all()


class TestBernstein:
    def test_reproduces_linear_functions(self):
        f = lambda x: 2 * x + 1
        for d in (1, 2, 5, 9):
            b = _bernstein(f, d)
            for x in np.linspace(0, 1, 7):
                assert b(x) == pytest.approx(f(x), abs=1e-12)

    def test_square_function_elevation_values(self):
        f = lambda x: x * x
        assert _bernstein(f, 2)(0.5) == pytest.approx(0.375, abs=1e-12)
        assert _bernstein(f, 4)(0.5) == pytest.approx(0.3125, abs=1e-12)

    def test_large_degree_reproduces_linear_functions(self):
        b = _bernstein(lambda x: 3 * x - 1, 1500)
        for x in (0.0, 0.3, 0.77, 1.0):
            assert b(x) == pytest.approx(3 * x - 1, abs=1e-12)

    def test_rejects_points_outside_the_unit_interval(self):
        with pytest.raises(ModelError):
            _bernstein(lambda x: x, 3)(1.5)

    def test_two_class_pi_block_is_the_bernstein_operator(self):
        # a naive observer with shares (1/2, 1/2) believes degree 6 with
        # weight 1/2 and draws that block's lattice by the same multinomial
        model = DegreeModel((2, 6), (0.5, 0.5))
        system = build_pi(model, GameParams(1.0, 1.0, 7.0, 0.4, model))
        row = system.row("naive", 2, (1, 1))
        f = lambda x: x * x + 0.2
        block = sum(row[system.index("naive", 6, (6 - k, k))] * f(k / 6)
                    for k in range(7))
        assert block / 0.5 == pytest.approx(_bernstein(f, 6)(0.5), abs=1e-15)

    def test_lattice_interpolation_exact(self):
        # the operator reads the interpolant only at the lattice, so it is the
        # plain Bernstein sum of the lattice values, exact at both ends
        values = [0.3, 0.1, 0.4, 0.15]
        b = _bernstein(_interpolant(values), 3)
        for x in (0.0, 0.2, 0.5, 0.9, 1.0):
            plain = sum(math.comb(3, k) * x**k * (1 - x)**(3 - k) * v
                        for k, v in enumerate(values))
            assert b(x) == pytest.approx(plain, abs=1e-12)
        assert b(0.0) == values[0]
        assert b(1.0) == values[-1]

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
        s = _interpolant(values)
        b_lo = _bernstein(s, d)
        b_hi = _bernstein(s, m * d)
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
        gaps = [max(abs(r.value - r.closed_form) for r in sweep.rows if r.d1 == d)
                for d in (2, 4, 8)]
        assert gaps[0] > gaps[1] > gaps[2]

    @pytest.mark.parametrize("query, message", [
        (lambda s: s.values("sophistocated", 0, 0.5), "unknown rule 'sophistocated'"),
        (lambda s: s.values("naive", 2, 0.5), "class index must be 0 or 1, got 2"),
        (lambda s: s.matched_shares(-1), "class index must be 0 or 1, got -1"),
    ], ids=["values-rule", "values-class", "matched-class"])
    def test_rejects_a_query_the_sweep_does_not_hold(self, query, message):
        sweep = precision_sweep(2.0, 1.2, 3.7, 0.5, 1.0, [2, 4])
        with pytest.raises(ModelError, match=re.escape(message)):
            query(sweep)

    def test_matched_shares_exact_for_doubling(self):
        sweep = precision_sweep(2.0, 1.2, 3.7, 0.5, 1.0, [2, 4, 8])
        assert all(r.offset == 0.0 for r in sweep.rows)

    def test_zero_complementarity_collapses(self):
        sweep = precision_sweep(2.0, 0.0, 3.7, 0.5, 1.0, [2, 4])
        vals = {round(r.value, 14) for r in sweep.rows}
        assert vals == {round(1.0 / 3.7, 14)}

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_ratio(self, eps):
        with pytest.raises(ModelError):
            precision_sweep(eps, 1.2, 3.7, 0.5, 1.0, [2, 4])

    @pytest.mark.parametrize("d1_list, message", [
        ([2.5, 5], "lowest degree must be a positive integer, got 2.5"),
        ([2, math.inf], "lowest degree must be a positive integer, got inf"),
        ([2, math.nan], "lowest degree must be a positive integer, got nan"),
        ([2, 2], "need at least two distinct lowest degrees to compare precision, "
                 "got [2, 2]"),
    ], ids=["fraction", "inf", "nan", "repeated"])
    def test_rejects_bad_lowest_degrees(self, d1_list, message):
        with pytest.raises(ModelError, match=re.escape(message)):
            precision_sweep(2.0, 1.2, 3.7, 0.5, 1.0, d1_list)

    def test_lattice_values_ordered_by_share(self):
        model = DegreeModel((2, 6), (0.6, 0.4))
        params = GameParams(1.0, 1.2, 3.7, 0.5, model)
        sol = solve_direct(build_pi(model, params), params)
        vals = lattice_values(sol, "naive", 6)
        assert len(vals) == 7
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def _per_call_precision_rows(eps, alpha, cost, etheta, sigmas, d1_list, grid):
    """The precision study with one ``average_expectation`` call per value."""
    finite = [d for d in d1_list if d != math.inf]
    rows = []
    for sigma in sigmas:
        solutions = {}
        for d1 in finite:
            model = an._two_class_model(d1, eps)
            params = GameParams(etheta, alpha, cost, sigma, model)
            solutions[d1] = (model, solve_direct(build_pi(model, params), params))
        for delta2 in map(float, grid):
            for d1 in finite:
                model, solution = solutions[d1]
                point = DegreeModel(model.degrees, (1 - delta2, delta2))
                for rule in ("naive", "sophisticated"):
                    rows.append((sigma, d1, delta2, rule,
                                 average_expectation(solution, point, rule=rule), ""))
                rows.append((sigma, d1, delta2, "all",
                             average_expectation(solution, point, sigma=sigma), ""))
            if math.inf in d1_list:
                try:
                    nv = naive_curve(delta2, eps, alpha, cost, etheta)
                    sv = sophisticated_curve(delta2, eps, alpha, cost, sigma, etheta)
                except ModelError:
                    rows.append((sigma, "inf", delta2, "all", "", "unstable"))
                    continue
                rows.append((sigma, "inf", delta2, "naive", nv, ""))
                rows.append((sigma, "inf", delta2, "sophisticated", sv, ""))
                rows.append((sigma, "inf", delta2, "all", (1 - sigma) * nv + sigma * sv, ""))
    return rows


class TestPopulationPrecisionSweep:
    @pytest.mark.parametrize("eps, alpha, cost, sigmas, d1_list, grid", [
        (2.0, 1.2, 3.7, [0.0, 0.5, 1.0], [2, 4, 8, math.inf], np.linspace(0, 1, 9)[1:-1]),
        (2.0, 1.1, 3.5, [0.0, 1.0], [math.inf, 3, 2], [0.05, 0.37, 0.5, 0.93]),
        (1.0, 0.9, 2.0, [0.25], [1, 5, 3], np.linspace(0, 1, 41)[1:-1]),
        (0.5, 2.0, 3.5, [1.0, 0.0], [2], [0.6]),
        # no finite system, so the closed forms may leave the stable region
        (2.0, 1.5, 3.7, [0.5], [math.inf], np.linspace(0, 1, 11)[1:-1]),
    ])
    def test_matches_per_call_averages_bit_for_bit(self, eps, alpha, cost, sigmas,
                                                  d1_list, grid):
        got = population_precision_sweep(eps, alpha, cost, 1.0, sigmas, d1_list, grid)
        assert got == _per_call_precision_rows(eps, alpha, cost, 1.0, sigmas,
                                               d1_list, grid)

    @pytest.mark.parametrize("d1_list, value", [
        ([2.5, math.inf], "2.5"), ([2, math.nan], "nan"), ([2, -math.inf], "-inf"),
    ], ids=["fraction", "nan", "minus-inf"])
    def test_rejects_bad_lowest_degrees(self, d1_list, value):
        message = f"lowest degree must be a positive integer, got {value}"
        with pytest.raises(ModelError, match=re.escape(message) + "$"):
            population_precision_sweep(2.0, 1.2, 3.7, 1.0, [0.5], d1_list, [0.5])

    @pytest.mark.parametrize("d1_list", [[2, 2], [4, 2, 4, math.inf], [2, math.inf, math.inf]],
                             ids=["finite", "among-others", "limit"])
    def test_rejects_a_repeated_lowest_degree(self, d1_list, monkeypatch):
        # a repeat would solve its degree twice and write each of its rows twice
        monkeypatch.setattr(an, "build_pi", None)  # rejected before any system is built
        with pytest.raises(ModelError, match=r"^lowest degrees must be distinct, got \["):
            population_precision_sweep(2.0, 1.2, 3.7, 1.0, [0.5], d1_list, [0.5])

    @pytest.mark.parametrize("delta2, share", [
        (0.0, "1.0"), (1.0, "0.0"), (1.5, "-0.5"), (-0.25, "1.25"), (math.nan, "nan"),
    ], ids=["zero", "one", "above", "below", "nan"])
    def test_rejects_a_true_share_outside_the_unit_interval(self, delta2, share):
        # the shares (1 - delta2, delta2) fail as a DegreeModel of them fails
        message = f"shares must lie strictly inside (0, 1), got {share}"
        with pytest.raises(ModelError, match=re.escape(message) + "$"):
            population_precision_sweep(2.0, 1.2, 3.7, 1.0, [0.5], [2, 4, math.inf],
                                       [0.5, delta2])

    @pytest.mark.parametrize("study, models", [
        (lambda: population_precision_sweep(2.0, 1.2, 3.7, 1.0, [0, 0.5, 1], [2, 4, 8],
                                            [0.5]), 3),
        (lambda: precision_sweep(2.0, 1.2, 3.7, 0.5, 1.0, [2, 4, 8]), 3),
    ], ids=["population", "precision"])
    def test_one_system_alive_at_a_time(self, study, models, monkeypatch):
        # one build per model, whatever the number of sigmas; when a system is
        # built, at most the one before it may still be alive
        built, alive_at_build = [], []
        real = an.build_pi

        def tracked(model, params):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in built))
            system = real(model, params)
            built.append(weakref.ref(system))
            return system

        monkeypatch.setattr(an, "build_pi", tracked)
        study()
        assert len(alive_at_build) == models and max(alive_at_build) <= 1

    @pytest.mark.parametrize("sigmas", [[0.5], [0, 0.25, 0.5, 0.75, 1]])
    def test_one_kernel_call_per_build_whatever_the_sigmas(self, sigmas, monkeypatch):
        # the sigma-free table is built once per finite d1 and reused for every sigma
        import netgame.typespace
        calls = []
        real = netgame.typespace.multinomial_pmf
        monkeypatch.setattr(netgame.typespace, "multinomial_pmf",
                            lambda c, p: calls.append(len(p)) or real(c, p))
        population_precision_sweep(2.0, 1.2, 3.7, 1.0, sigmas, [2, 4, math.inf], [0.5])
        # one call per finite d1, over its L/2 = 4 * d1 + 2 observations
        assert calls == [10, 18]

    def test_each_model_lays_out_its_lattices_once_per_build(self, monkeypatch):
        # the benchmark's precision-sweep op: five two-class models, three sigmas;
        # build_pi lays out both degrees' lattices once, the system it makes takes
        # them, and each sigma's copy of the system shares them
        import netgame.typespace
        calls = []
        real = netgame.typespace.feasible_observed_shares
        monkeypatch.setattr(netgame.typespace, "feasible_observed_shares",
                            lambda d, K: calls.append(d) or real(d, K))
        population_precision_sweep(2.0, 1.2, 3.7, 1.0, [0.1, 0.5, 0.9],
                                   [2, 4, 8, 16, 32, math.inf], np.linspace(0, 1, 41)[1:-1])
        assert calls == [d for d1 in (2, 4, 8, 16, 32) for d in (d1, 3 * d1)]

    @pytest.mark.parametrize("study", [
        lambda: population_precision_sweep(2.0, 1.2, 3.7, 1.0, [0.5], [2, 100_000, math.inf],
                                           [0.5]),
        lambda: precision_sweep(2.0, 1.2, 3.7, 0.5, 1.0, [2, 100_000]),
    ], ids=["population", "precision"])
    def test_refuses_a_table_over_the_budget_before_building_any(self, study, monkeypatch):
        # d1 = 1e5 with eps = 2 has L = 800,004 types; d1 = 2 is not solved first
        monkeypatch.setattr(an, "build_pi", None)
        with pytest.raises(ModelError, match=r"^L = 800004 types: the \(L/2\)\^2 table"):
            study()

    def test_rejects_an_empty_sigma_list(self):
        with pytest.raises(ModelError, match="^need at least one sophistication share$"):
            population_precision_sweep(2.0, 1.2, 3.7, 1.0, [], [2, math.inf], [0.5])

    def test_limit_rows_match_scalar_calls_bit_for_bit(self):
        # a grid that crosses the naive stability edge, with points a few ulp
        # either side of it, at sigmas whose sophisticated edges differ
        eps, alpha, cost = 2.0, 1.5, 3.7
        u_edge = (cost / alpha - 1) / eps
        edge = u_edge / ((1 + eps) - eps * u_edge)
        near = [edge]
        for _ in range(4):
            near = [np.nextafter(near[0], 0), *near, np.nextafter(near[-1], 1)]
        grid = [0.05, *map(float, near), 0.5, 0.99]
        for sigma in (0.0, 0.5, 1.0):
            want = []
            for delta2 in grid:
                try:
                    nv = naive_curve(delta2, eps, alpha, cost, 1.0)
                    sv = sophisticated_curve(delta2, eps, alpha, cost, sigma, 1.0)
                except ModelError:
                    want.append((sigma, "inf", delta2, "all", "", "unstable"))
                    continue
                want += [(sigma, "inf", delta2, "naive", nv, ""),
                         (sigma, "inf", delta2, "sophisticated", sv, ""),
                         (sigma, "inf", delta2, "all", (1 - sigma) * nv + sigma * sv, "")]
            got = population_precision_sweep(eps, alpha, cost, 1.0, [sigma], [math.inf], grid)
            bits = lambda rows: [tuple(v.hex() if isinstance(v, float) else v for v in row)
                                 for row in rows]
            assert bits(got) == bits(want)
            assert 1 < sum(row[5] == "unstable" for row in got) < len(grid) - 1

    def test_one_naive_solve_per_model_whatever_the_sigmas(self, monkeypatch):
        # the naive block does not depend on sigma: one LU per model, then one
        # per sigma, each sigma with its own residual gate, all bit-identical
        # to a solve_direct per sigma
        from netgame import equilibrium
        solves, gates, xis = [], [], []
        real_solve, real_gate = equilibrium._solve_block, equilibrium._fixed_point_residual
        real_averages = an._rule_averages
        monkeypatch.setattr(equilibrium, "_solve_block",
                            lambda *a: solves.append(1) or real_solve(*a))
        monkeypatch.setattr(equilibrium, "_fixed_point_residual",
                            lambda *a: gates.append(real_gate(*a)) or gates[-1])
        monkeypatch.setattr(an, "_rule_averages",
                            lambda w, xi, sigma: xis.append(xi) or real_averages(w, xi, sigma))
        sigmas = [0.0, 0.25, 0.5, 0.75, 1.0]
        for d1 in (2, 8):
            solves.clear()
            gates.clear()
            xis.clear()
            population_precision_sweep(2.0, 1.2, 3.7, 1.0, sigmas, [d1], [0.3, 0.6])
            assert (len(solves), len(gates), len(xis)) == (1 + len(sigmas),) + 2 * (len(sigmas),)
            model = an._two_class_model(d1, 2.0)
            for sigma, xi, residual in zip(sigmas, xis, list(gates)):
                params = GameParams(1.0, 1.2, 3.7, sigma, model)
                want = solve_direct(build_pi(model, params), params)
                assert xi.tobytes() == want.xi.tobytes()
                assert residual == want.residual

    def test_unstable_limit_rows(self):
        rows = population_precision_sweep(2.0, 1.5, 3.7, 1.0, [0.5], [math.inf],
                                          [0.1, 0.9])
        assert [r[3:] for r in rows if r[2] == 0.9] == [("all", "", "unstable")]
        assert [r[3] for r in rows if r[2] == 0.1] == ["naive", "sophisticated", "all"]


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
