from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import equilibrium
from netgame import (
    ConvergenceError,
    DegreeModel,
    GameParams,
    ModelError,
    StabilityError,
    average_expectation,
    benchmark_expectation,
    build_pi,
    infinite_naive,
    infinite_sophisticated,
    biased_neighbor_share,
    solve_direct,
    solve_iterative,
    type_probabilities,
)

EXAMPLE = DegreeModel((4, 6), (0.6, 0.4))
EXAMPLE_EXACT = DegreeModel((4, 6), (Fraction(3, 5), Fraction(2, 5)))


def example_params(sigma, exact=False):
    if exact:
        return GameParams(Fraction(1, 2), Fraction(4), Fraction(6), sigma,
                          EXAMPLE_EXACT)
    return GameParams(0.5, 4.0, 6.0, sigma, EXAMPLE)


def fig_system(d1=2, sigma=0.5):
    model = DegreeModel((d1, 3 * d1), (0.6, 0.4))
    params = GameParams(1.0, 1.2, 3.7, sigma, model)
    return model, params, build_pi(model, params)


@st.composite
def stable_instances(draw):
    k = draw(st.integers(2, 3))
    degrees = tuple(sorted(draw(st.lists(st.integers(1, 5), min_size=k,
                                         max_size=k, unique=True))))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(raw)
    model = DegreeModel(degrees, tuple(r / total for r in raw))
    sigma = draw(st.floats(0.0, 1.0))
    slack = draw(st.floats(0.1, 0.9))
    cost = 3.0
    alpha = slack * cost / float(model.rho[-1])
    return model, GameParams(1.0, alpha, cost, sigma, model)


class TestSolvers:
    def test_direct_matches_iterative(self):
        model, params, system = fig_system()
        d = solve_direct(system, params)
        it = solve_iterative(system, params)
        assert np.max(np.abs(d.xi - it.xi)) <= 1e-10

    @settings(max_examples=15, deadline=None)
    @given(stable_instances())
    def test_agreement_property(self, inst):
        model, params = inst
        system = build_pi(model, params)
        d = solve_direct(system, params)
        it = solve_iterative(system, params)
        assert np.max(np.abs(d.xi - it.xi)) <= 1e-10

    def test_lower_bound(self):
        model, params, system = fig_system(sigma=0.0)
        xi = solve_direct(system, params).xi
        assert (xi >= params.mean_preference / params.cost - 1e-14).all()

    def test_zero_complementarity_one_sweep(self):
        model = DegreeModel((2, 6), (0.6, 0.4))
        params = GameParams(1.0, 0.0, 3.7, 0.5, model)
        system = build_pi(model, params)
        sol = solve_iterative(system, params)
        assert sol.iterations == 1
        assert np.allclose(sol.xi, 1.0 / 3.7, atol=0)

    def test_monotone_increasing_iterates(self):
        model, params, system = fig_system()
        a_c = params.alpha / params.cost
        t_c = params.mean_preference / params.cost
        scaled = system.pi * system.d_diag
        xi = np.full(system.L, t_c)
        for _ in range(300):
            nxt = t_c + a_c * (scaled @ xi)
            assert (nxt >= xi - 1e-15).all()
            xi = nxt

    def test_boundary_system_fails_loudly(self, monkeypatch):
        # worked-example parameters sit exactly on the stability boundary;
        # the all-high-neighbors naive type then self-references one-for-one
        params = example_params(0.0)
        system = build_pi(EXAMPLE, params)
        with pytest.raises((StabilityError, ConvergenceError)):
            solve_direct(system, params)
        monkeypatch.setattr(equilibrium, "MAX_SWEEPS", 2000)
        with pytest.raises(ConvergenceError):
            solve_iterative(system, params)

    def test_residual_gate_rejects_nan(self):
        # parameters that skipped GameParams validation must not yield NaN xi
        _, params, system = fig_system()
        raw = SimpleNamespace(alpha=params.alpha, cost=params.cost,
                              mean_preference=float("nan"))
        with pytest.raises(ConvergenceError):
            solve_direct(system, raw)

    def test_max_iter_error_carries_residual(self, monkeypatch):
        model, params, system = fig_system()
        monkeypatch.setattr(equilibrium, "ITERATIVE_TOL", 1e-14)
        monkeypatch.setattr(equilibrium, "MAX_SWEEPS", 3)
        with pytest.raises(ConvergenceError) as err:
            solve_iterative(system, params)
        assert err.value.residual is not None

    def test_permutation_invariance(self):
        model, params, system = fig_system()
        sol = solve_direct(system, params).xi
        rng = np.random.default_rng(0)
        perm = rng.permutation(system.L)
        pi_p = system.pi[np.ix_(perm, perm)]
        d_p = system.d_diag[perm]
        a_c = params.alpha / params.cost
        m = np.eye(system.L) - a_c * pi_p * d_p
        b = np.full(system.L, params.mean_preference / params.cost)
        xi_p = np.linalg.solve(m, b)
        assert np.max(np.abs(xi_p - sol[perm])) <= 1e-10

    def test_value_accessor(self):
        model, params, system = fig_system()
        sol = solve_direct(system, params)
        q = system.index("naive", 2, (1, 1))
        assert sol.value("naive", 2, (1, 1)) == sol.xi[q]


class TestInfiniteNaive:
    def test_worked_example(self):
        assert infinite_naive(EXAMPLE, example_params(0.5)) == \
            pytest.approx(0.5, abs=1e-12)
        assert infinite_naive(EXAMPLE_EXACT, example_params(1, exact=True)) \
            == Fraction(1, 2)

    def test_moment_arithmetic(self):
        # E[rho^2]/E[rho] = 1.5/1.2 = 1.25, so 0.5 / (6 - 4*1.25) = 0.5
        params = example_params(0.0)
        assert infinite_naive(EXAMPLE, params) == pytest.approx(
            0.5 / (6 - 4 * 1.25), abs=1e-12)

    def test_two_class_form_matches_moments(self):
        model = DegreeModel((2, 6), (0.7, 0.3))
        params = GameParams(1.0, 1.2, 3.7, 0.5, model)
        u = biased_neighbor_share(model)[1]
        direct = 1.0 / (3.7 - 1.2 * (1 + 2.0 * u))
        assert infinite_naive(model, params) == pytest.approx(direct, abs=1e-12)

    def test_degenerate_limit_equals_benchmark(self):
        model = DegreeModel((4, 6), (1 - 1e-9, 1e-9))
        params = GameParams(0.5, 4.0, 6.0, 0.5, model)
        assert infinite_naive(model, params) == pytest.approx(
            benchmark_expectation(model, params), abs=1e-6)

    def test_sigma_invariance(self):
        vals = {infinite_naive(EXAMPLE, example_params(s))
                for s in (0.0, 0.25, 0.5, 1.0)}
        assert len(vals) == 1


class TestInfiniteSophisticated:
    def test_benchmark_at_full_sophistication(self):
        params = example_params(1.0)
        assert infinite_sophisticated(EXAMPLE, params) == \
            benchmark_expectation(EXAMPLE, params)
        exact = example_params(1, exact=True)
        assert infinite_sophisticated(EXAMPLE_EXACT, exact) == Fraction(15, 36)

    def test_sigma_zero_value(self):
        # (E[theta] + alpha*E[rho]*x_n)/c = (0.5 + 4*1.2*0.5)/6 = 29/60
        got = infinite_sophisticated(EXAMPLE_EXACT, example_params(0, exact=True))
        assert got == Fraction(29, 60)

    def test_sigma_zero_is_finite_precision_limit(self):
        # finite solves at strictly stable parameters extrapolate to the
        # closed form as the lowest degree doubles
        cost = 6.5
        gaps = []
        for d1 in (4, 8, 16, 32):
            model = DegreeModel((d1, (3 * d1) // 2), (0.6, 0.4))
            params = GameParams(0.5, 4.0, cost, 0.0, model)
            sol = solve_direct(build_pi(model, params), params)
            avg = average_expectation(sol, model, rule="sophisticated")
            gaps.append(abs(avg - infinite_sophisticated(model, params)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05

    def test_strictly_decreasing_in_sigma(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = [infinite_sophisticated(EXAMPLE, example_params(s)) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_never_above_naive(self):
        for s in np.linspace(0, 1, 21):
            params = example_params(s)
            assert infinite_sophisticated(EXAMPLE, params) <= \
                infinite_naive(EXAMPLE, params) + 1e-12


class TestBenchmark:
    def test_worked_example(self):
        assert benchmark_expectation(EXAMPLE_EXACT, example_params(1, exact=True)) \
            == Fraction(15, 36)

    def test_no_complementarity(self):
        model = DegreeModel((2, 6), (0.6, 0.4))
        params = GameParams(1.0, 0.0, 3.7, 0.5, model)
        assert benchmark_expectation(model, params) == pytest.approx(1.0 / 3.7)

    def test_naive_exceeds_benchmark_with_variation(self):
        params = example_params(0.5)
        assert infinite_naive(EXAMPLE, params) > \
            benchmark_expectation(EXAMPLE, params)


class TestAveraging:
    def test_weights_sum_to_one(self):
        model, params, system = fig_system(sigma=0.3)
        w_all = type_probabilities(model, system) * np.where(system.columns[2], 0.3, 0.7)
        assert w_all.sum() == pytest.approx(1.0, abs=1e-12)
        for rule in ("naive", "sophisticated"):
            w = type_probabilities(model, system)
            mask = np.array([t.rule == rule for t in system.types])
            assert w[mask].sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_types_outside_the_support(self):
        model, _, system = fig_system(sigma=0.3)
        other = DegreeModel((3, 6), (0.5, 0.5))
        with pytest.raises(ModelError):
            type_probabilities(other, system)

    def test_fig_span(self):
        # averaged sophisticated expectations stay between E[theta]/c and the
        # large-sample curve's top endpoint 1/(3.7 - 1.2*3) = 10
        model, params, system = fig_system(d1=2, sigma=1.0)
        sol = solve_direct(system, params)
        avg = average_expectation(sol, model, rule="sophisticated")
        assert 1.0 / 3.7 < avg < 10.0

    def test_mix_interpolates_rules(self):
        model, params, system = fig_system(sigma=0.3)
        sol = solve_direct(system, params)
        naive = average_expectation(sol, model, rule="naive")
        soph = average_expectation(sol, model, rule="sophisticated")
        mixed = average_expectation(sol, model, sigma=0.3)
        assert mixed == pytest.approx(0.7 * naive + 0.3 * soph, abs=1e-12)
