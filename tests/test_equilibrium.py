import tracemalloc
from fractions import Fraction
from math import comb
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
    multinomial_pmf,
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

    @pytest.mark.parametrize("solve", [solve_direct, solve_iterative])
    def test_rejects_params_with_another_sigma(self, solve):
        # the solve used to take the system's sigma and ignore the params'
        model, params, system = fig_system(sigma=0.0)
        other = GameParams(1.0, 1.2, 3.7, 1.0, model)
        with pytest.raises(ModelError, match=r"params.sigma = 1.0 but the system was built "
                                             r"with sigma = 0.0"):
            solve(system, other)

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

    def test_iteration_holds_no_scaled_matrix(self):
        # each sweep is a mat-vec with pi; an L x L copy of pi * d_diag would
        # peak at pi.nbytes
        model = DegreeModel((8, 16, 24), (0.5, 0.3, 0.2))
        params = GameParams(1.0, 1.0, 3.7, 0.5, model)
        system = build_pi(model, params)
        tracemalloc.start()
        try:
            solve_iterative(system, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.L == 1046
        assert peak < 0.1 * system.pi.nbytes

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
                              mean_preference=float("nan"), sigma=system.sigma)
        with pytest.raises(ConvergenceError):
            solve_direct(system, raw)

    def test_max_iter_error_carries_residual(self, monkeypatch):
        model, params, system = fig_system()
        monkeypatch.setattr(equilibrium, "ITERATIVE_TOL", 1e-14)
        monkeypatch.setattr(equilibrium, "MAX_SWEEPS", 3)
        with pytest.raises(ConvergenceError) as err:
            solve_iterative(system, params)
        assert err.value.residual is not None

    def test_max_iter_error_states_the_contraction_margin(self, monkeypatch):
        # margin 1 - (1.2/3.7)*3 = 0.027, so about ln(1e12)/0.027 = 1022 sweeps
        _, params, system = fig_system()
        monkeypatch.setattr(equilibrium, "MAX_SWEEPS", 3)
        with pytest.raises(ConvergenceError, match=r"margin 1 - \(alpha/c\)\*d_K/d_1 is 0\.027, "
                           r".*ln\(1e\+12\)/margin = 1\.02e\+03 sweeps; solve_direct"):
            solve_iterative(system, params)

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
        # whole numbers of any numeric type find the type
        assert sol.value("naive", 2.0, np.array([1, 1])) == sol.xi[q]

    @pytest.mark.parametrize("degree, counts", [
        (2.9, (1.6, 1.2)), (2, (1.5, 0.5)), (2.5, (1, 1)), (float("nan"), (1, 1)),
    ])
    def test_value_rejects_a_degree_or_count_that_is_not_whole(self, degree, counts):
        # these used to be truncated to the (2, (1, 1)) type
        _, params, system = fig_system()
        sol = solve_direct(system, params)
        with pytest.raises(ModelError, match="no type"):
            sol.value("naive", degree, counts)

    @pytest.mark.parametrize("solve", [solve_direct, solve_iterative])
    def test_solving_and_averaging_leave_pi_unassembled(self, solve):
        model, params, system = fig_system(d1=4)
        sol = solve(system, params)
        average_expectation(sol, model, sigma=0.5)
        average_expectation(sol, model, rule="sophisticated")
        assert "pi" not in vars(system)


def _exact_two_class_solution(degrees, alpha, cost, etheta, sigma) -> dict:
    """xi of the two-class type system in Fractions, straight from the model.

    Observer (rule, d, j) sees the high share u = j/d; it draws a target's
    j' high neighbors out of d' as a binomial with that share, believes the
    degree shares (1 - u, u) when naive and their degree-debiased form when
    sophisticated, and believes a target sophisticated with chance sigma when
    sophisticated itself, never when naive.  The system
    xi_p - (alpha/c) sum_q pi_pq (d_q/d_1) xi_q = E[theta]/c is solved by
    Gauss-Jordan elimination.
    """
    d1 = degrees[0]
    types = [(rule, d, j) for rule in ("naive", "sophisticated") for d in degrees
             for j in range(d + 1)]
    rule_share = {("naive", "naive"): 1, ("naive", "sophisticated"): 0,
                  ("sophisticated", "naive"): 1 - sigma,
                  ("sophisticated", "sophisticated"): sigma}
    rows = []
    for rule, d, j in types:
        u = Fraction(j, d)
        believed = (1 - u, u)
        if rule == "sophisticated":
            weights = (believed[0] / degrees[0], believed[1] / degrees[1])
            believed = tuple(w / sum(weights) for w in weights)
        row = []
        for rule_q, d_q, j_q in types:
            pmf = comb(d_q, j_q) * u**j_q * (1 - u)**(d_q - j_q)
            pi = rule_share[rule, rule_q] * believed[degrees.index(d_q)] * pmf
            row.append((1 if (rule_q, d_q, j_q) == (rule, d, j) else 0)
                       - alpha / cost * pi * Fraction(d_q, d1))
        rows.append(row + [etheta / cost])
    n = len(rows)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return {t: row[-1] for t, row in zip(types, rows)}


class TestExactOracle:
    @pytest.mark.parametrize("degrees", [(2, 6), (4, 12)])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_direct_solve_matches_exact_two_class_system(self, degrees, sigma):
        model = DegreeModel(degrees, (0.5, 0.5))
        params = GameParams(1.0, 1.0, 4.0, sigma, model)
        solution = solve_direct(build_pi(model, params), params)
        # Fraction(x) is the float's exact value, so both sides solve one system
        exact = _exact_two_class_solution(degrees, Fraction(1.0), Fraction(4.0),
                                          Fraction(1.0), Fraction(sigma))
        assert len(exact) == solution.system.L
        for (rule, d, j), value in exact.items():
            got = solution.value(rule, d, (d - j, j))
            assert abs(got - value) <= 1e-14 * value


def _dense_oracle(system, params) -> np.ndarray:
    """xi from one dense LU of the whole system I - (alpha/c) Pi D."""
    m = np.eye(system.L) - params.alpha / params.cost * system.pi * system.d_diag
    return np.linalg.solve(m, np.full(system.L, params.mean_preference / params.cost))


def _max_relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


def block_system(degrees, shares, sigma):
    model = DegreeModel(degrees, shares)
    params = GameParams(1.0, 1.2, 3.7, sigma, model)
    return params, build_pi(model, params)


class TestBlockSolve:
    @pytest.mark.parametrize("degrees, shares, sigma", [
        ((8, 16, 24), (0.5, 0.3, 0.2), 0.0),
        ((8, 16, 24), (0.5, 0.3, 0.2), 0.5),
        ((8, 16, 24), (0.5, 0.3, 0.2), 1.0),
        ((2, 6), (0.6, 0.4), 0.5),
        ((1, 2, 3), (0.2, 0.3, 0.5), 0.3),
        ((128, 384), (0.6, 0.4), 0.5),
    ])
    def test_matches_the_dense_solve(self, degrees, shares, sigma):
        params, system = block_system(degrees, shares, sigma)
        xi = solve_direct(system, params).xi
        assert _max_relative_gap(xi, _dense_oracle(system, params)) <= 1e-13

    def test_naive_only_system(self):
        # the naive block is a naive-only system of its own: one dense LU of
        # I - (alpha/c) Pi_nn D_n, read from the assembled pi, gives its xi
        params, system = block_system((2, 6), (0.6, 0.4), 0.5)
        half = system.L // 2
        m = (np.eye(half) - params.alpha / params.cost
             * system.pi[:half, :half] * system.d_diag[:half])
        dense = np.linalg.solve(m, np.full(half, params.mean_preference / params.cost))
        xi = solve_direct(system, params).xi[:half]
        assert _max_relative_gap(xi, dense) <= 1e-13

    def test_holds_one_block_at_a_time(self):
        # a dense solve's system matrix alone is L^2 * 8 bytes; one rule block is
        # a quarter of that.  tracemalloc sees numpy's buffers but not the copy
        # LAPACK makes of each block inside np.linalg.solve.
        params, system = block_system((8, 16, 24), (0.5, 0.3, 0.2), 0.5)
        assert system.L == 1046
        tracemalloc.start()
        try:
            solve_direct(system, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * system.L ** 2 * 8


SIGMAS = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def statics_instances(draw, classes=(2, 3)):
    """A model with d1 <= 8 and higher degrees up to 3 * d1, and parameters at
    contraction margin 1 - (alpha/c) * d_K/d_1 between 0.02 and 1."""
    k = draw(st.sampled_from(classes))
    d1 = draw(st.integers(1, 8))
    higher = draw(st.lists(st.integers(d1 + 1, 3 * d1), min_size=k - 1,
                           max_size=k - 1, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    model = DegreeModel((d1, *sorted(higher)), tuple(r / sum(raw) for r in raw))
    margin = draw(st.floats(0.02, 1.0))
    cost = 3.0
    return model, (1.0, (1 - margin) * cost / float(model.rho[-1]), cost)


def statics_solution(model, scalars, sigma):
    params = GameParams(*scalars, sigma, model)
    return solve_direct(build_pi(model, params), params)


class TestComparativeStatics:
    # ties round either way: alpha at or next to 0, or an observation of one
    # class only, where both rules read the same row but the blocks round
    # apart by a few ulp per unit of 1/margin
    SLACK = 1e-13

    @settings(max_examples=20, deadline=None)
    @given(statics_instances())
    def test_naive_block_is_sigma_free(self, inst):
        model, scalars = inst
        blocks = []
        for sigma in SIGMAS:
            solution = statics_solution(model, scalars, sigma)
            blocks.append(solution.xi[~solution.system.columns[2]])
        assert all(np.array_equal(blocks[0], b) for b in blocks[1:])

    @settings(max_examples=20, deadline=None)
    @given(statics_instances(), st.sampled_from(SIGMAS))
    def test_sophisticated_never_above_naive(self, inst, sigma):
        model, scalars = inst
        solution = statics_solution(model, scalars, sigma)
        for t in solution.system.types:
            if t.rule == "sophisticated":
                naive = solution.value("naive", t.degree, t.counts)
                got = solution.value(t.rule, t.degree, t.counts)
                assert got <= naive * (1 + self.SLACK)

    @settings(max_examples=20, deadline=None)
    @given(statics_instances())
    def test_mixed_mean_belief_falls_with_sigma(self, inst):
        # the sigma-mixed population average of each sigma's own solution
        model, scalars = inst
        means = [average_expectation(statics_solution(model, scalars, sigma), model,
                                     sigma=sigma) for sigma in SIGMAS]
        assert all(b <= a * (1 + self.SLACK) for a, b in zip(means, means[1:]))

    @settings(max_examples=20, deadline=None)
    @given(statics_instances(classes=(2,)), st.sampled_from(SIGMAS))
    def test_two_class_xi_rises_with_the_high_share(self, inst, sigma):
        model, scalars = inst
        solution = statics_solution(model, scalars, sigma)
        for rule in ("naive", "sophisticated"):
            for d in model.degrees:
                xi = [solution.value(rule, d, (d - j, j)) for j in range(d + 1)]
                assert all(b >= a * (1 - self.SLACK) for a, b in zip(xi, xi[1:]))


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
    @pytest.mark.parametrize("rule, sigma, message", [
        (None, 1.5, r"sophistication share must lie in \[0, 1\]"),
        (None, -0.25, r"sophistication share must lie in \[0, 1\]"),
        (None, float("nan"), "sigma must be finite, got nan"),
        (None, float("inf"), "sigma must be finite, got inf"),
        ("naive", 7, r"sophistication share must lie in \[0, 1\]"),
        ("sophisticated", float("nan"), "sigma must be finite, got nan"),
    ])
    def test_rejects_an_invalid_sigma(self, rule, sigma, message):
        # a mixed average outside the rule averages, NaN, or a share ignored
        model, params, system = fig_system(sigma=0.3)
        sol = solve_direct(system, params)
        with pytest.raises(ModelError, match=message):
            average_expectation(sol, model, rule=rule, sigma=sigma)

    def test_weights_sum_to_one(self):
        model, params, system = fig_system(sigma=0.3)
        w_all = type_probabilities(model, system) * np.where(system.columns[2], 0.3, 0.7)
        assert w_all.sum() == pytest.approx(1.0, abs=1e-12)
        for rule in ("naive", "sophisticated"):
            w = type_probabilities(model, system)
            mask = np.array([t.rule == rule for t in system.types])
            assert w[mask].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("degrees", [(d1, 3 * d1) for d1 in (2, 4, 8, 16, 32)]
                             + [(8, 16, 24)])
    def test_weights_match_the_kernel_over_every_type(self, degrees):
        # the sophisticated half repeats the naive observations, so they are
        # weighed once and tiled; the bits equal one kernel call over all L rows
        k = len(degrees)
        shares = [tuple(np.roll(np.arange(1.0, k + 1), i) / (k * (k + 1) / 2))
                  for i in range(3)]
        models = [DegreeModel(degrees, s) for s in shares]
        system = build_pi(models[0], GameParams(1.0, 0.1, 3.0, 0.5, models[0]))
        counts, type_degrees, _ = system.columns
        cls = np.searchsorted(np.array(degrees), type_degrees)
        law = [[float(v) for v in biased_neighbor_share(m)] for m in models]
        full = np.array(shares)[:, cls] * multinomial_pmf(counts, law)
        weights = equilibrium._type_weights(degrees, np.array(shares), law, system.columns)
        assert weights.tobytes() == full.tobytes()

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
