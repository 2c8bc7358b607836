import re
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
        # each sweep is a mat-vec with pi; an L x L copy of pi * rho would
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
        scaled = system.pi * np.tile(system.rho, 2)
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
        with pytest.raises(StabilityError):
            solve_direct(system, params)
        # refused before the first sweep, with solve_direct's message; a small
        # MAX_SWEEPS keeps a solver that sweeps instead quick to fail
        monkeypatch.setattr(equilibrium, "MAX_SWEEPS", 2000)
        with pytest.raises(StabilityError, match="^singular type system; stability requires "
                           r"alpha \* d_K/d_1 < cost$"):
            solve_iterative(system, params)

    def test_boundary_system_without_preference_fails_loudly(self, monkeypatch):
        # at E[theta] = 0 the first sweep returns xi = 0 unchanged, which a
        # solver that sweeps would accept as converged
        params = GameParams(0.0, 4.0, 6.0, 0.5, EXAMPLE)
        system = build_pi(EXAMPLE, params)
        with pytest.raises(StabilityError):
            solve_direct(system, params)
        monkeypatch.setattr(equilibrium, "MAX_SWEEPS", 2000)
        with pytest.raises(StabilityError):
            solve_iterative(system, params)

    @pytest.mark.parametrize("scalars, degrees", [
        # alpha * d_K = c * d_1 exactly, yet 1 - (3/11)*(11/3) rounds to 1.1e-16:
        # the LU met no singular block and the residual gate raised instead
        ((0.5, 3.0, 11.0), (3, 11)),
        # alpha * d_K < c * d_1 exactly, yet (alpha/c)*(d_K/d_1) rounds to one:
        # the block the solvers form is singular
        ((1.0, 1.5857142857142856, 3.7), (3, 7)),
    ], ids=["on-the-boundary", "ratio-rounds-to-one"])
    def test_a_singular_system_is_decided_before_any_solve(self, scalars, degrees,
                                                           monkeypatch):
        model = DegreeModel(degrees, (0.6, 0.4))
        params = GameParams(*scalars, 0.5, model)
        system = build_pi(model, params)
        monkeypatch.setattr(equilibrium, "MAX_SWEEPS", 2000)
        for solve in (solve_direct, solve_iterative):
            with pytest.raises(StabilityError, match="^singular type system; stability "
                               r"requires alpha \* d_K/d_1 < cost$"):
                solve(system, params)

    def test_stability_is_decided_on_exact_fractions_and_integers(self):
        # integers and fractions carry their ratio; at the boundary both raise
        for alpha, cost in ((Fraction(4), Fraction(6)), (4, 6), (np.int64(4), np.int64(6))):
            params = GameParams(0.5, alpha, cost, 0.5, EXAMPLE)
            with pytest.raises(StabilityError):
                solve_direct(build_pi(EXAMPLE, params), params)
        # a hair inside the boundary solves
        params = GameParams(0.5, Fraction(4) - Fraction(1, 10**6), 6.0, 0.5, EXAMPLE)
        assert solve_direct(build_pi(EXAMPLE, params), params).residual <= 1e-8

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
        d_p = np.tile(system.rho, 2)[perm]
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
    m = np.eye(system.L) - params.alpha / params.cost * system.pi * np.tile(system.rho, 2)
    return np.linalg.solve(m, np.full(system.L, params.mean_preference / params.cost))


def _max_relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


def block_system(degrees, shares, sigma):
    model = DegreeModel(degrees, shares)
    params = GameParams(1.0, 1.2, 3.7, sigma, model)
    return params, build_pi(model, params)


def edge_system(d1, cost, sigma=0.5):
    """The two-class (d1, 3 * d1) system at alpha = 1: its contraction margin
    1 - (alpha/c) * d_K/d_1 is 1 - 3/cost."""
    model = DegreeModel((d1, 3 * d1), (0.5, 0.5))
    params = GameParams(1.0, 1.0, cost, sigma, model)
    return params, build_pi(model, params)


class TestBackwardErrorGate:
    """The direct solve is gated by ||r|| / (||M|| ||xi|| + ||b||), not by ||r||:
    xi grows like 1/margin, and so does the residual of a solve as good as
    double precision gets."""

    @pytest.mark.parametrize("d1", [2, 32])
    def test_solves_a_hair_inside_the_stability_edge(self, d1):
        # margin 1e-10: xi near 3e9, a residual of a few ulp of it (2.4e-7 and
        # 9.5e-7 here) that an absolute 1e-8 gate refused, and a backward error
        # near 1e-16
        params, system = edge_system(d1, 3.0000000003)
        solution = solve_direct(system, params)
        assert 1e-8 < solution.residual < 1e-5
        assert np.isfinite(solution.xi).all() and solution.xi.max() > 1e9

    @pytest.mark.parametrize("d1", [2, 32])
    def test_a_perturbed_xi_fails_at_every_margin(self, d1):
        for margin in 10.0 ** -np.arange(2, 11):
            params, system = edge_system(d1, 3 * (1 + margin))
            a_c, t_c = equilibrium._rates(system, params)
            xi = solve_direct(system, params).xi.copy()
            assert equilibrium._gated_residual(system, 0.5, a_c, t_c, xi) <= 1e-6
            xi[np.argmax(xi)] *= 1 + 1e-6
            # about 1e-6 / ||M||, and ||M|| is near 2
            with pytest.raises(ConvergenceError, match=r"^direct solve backward error 5\.0\d\de-07"
                               r" exceeds 1\.0e-12 \(residual "):
                equilibrium._gated_residual(system, 0.5, a_c, t_c, xi)

    @pytest.mark.parametrize("degrees, shares, sigma", [
        ((2, 6), (0.6, 0.4), 0.5),
        ((1, 2, 3), (0.2, 0.3, 0.5), 0.3),
        ((8, 16, 24), (0.5, 0.3, 0.2), 1.0),
    ])
    def test_the_row_sums_are_the_dense_norm(self, degrees, shares, sigma, monkeypatch):
        # the gate's ||M|| from the table's diagonal and one map of a ones vector
        params, system = block_system(degrees, shares, sigma)
        a_c, t_c = equilibrium._rates(system, params)
        xi = solve_direct(system, params).xi
        dense = np.abs(np.eye(system.L) - a_c * system.pi * np.tile(system.rho, 2)).sum(axis=1)
        scale = dense.max() * np.abs(xi).max() + t_c
        res = equilibrium._fixed_point_residual(system, sigma, a_c, t_c, xi)
        monkeypatch.setattr(equilibrium, "BACKWARD_TOL", res / scale * (1 + 1e-9))
        assert equilibrium._gated_residual(system, sigma, a_c, t_c, xi) == res
        monkeypatch.setattr(equilibrium, "BACKWARD_TOL", res / scale * (1 - 1e-9))
        with pytest.raises(ConvergenceError):
            equilibrium._gated_residual(system, sigma, a_c, t_c, xi)


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
             * system.pi[:half, :half] * system.rho)
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
            blocks.append(solution.xi.reshape(2, -1)[0])
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


def _assert_corners_hold(solution, scalars, sigma):
    """The corner observation e_k, at every degree, reads only the degree-d_k corner
    type, so with a = alpha/c, t = E[theta]/c and rho_k = d_k/d_1 its xi is
    t/(1 - a rho_k) for naive types and (t + a rho_k (1 - sigma) x_n)/(1 - a rho_k sigma)
    for sophisticated ones.  Solves round it by a few ulp per unit of 1/(1 - a rho_k)."""
    etheta, alpha, cost = scalars
    a, t = float(alpha) / float(cost), float(etheta) / float(cost)
    degrees = solution.system.model.degrees
    for k, d_k in enumerate(degrees):
        a_rho = a * (d_k / degrees[0])
        naive = t / (1 - a_rho)
        oracle = {"naive": naive,
                  "sophisticated": (t + a_rho * (1 - sigma) * naive) / (1 - a_rho * sigma)}
        for d in degrees:
            corner = tuple(d if j == k else 0 for j in range(len(degrees)))
            for rule, want in oracle.items():
                got = solution.value(rule, d, corner)
                assert abs(got - want) <= 8 * np.spacing(want) / (1 - a_rho), (rule, d, k)


def _assert_faces_hold(solution, scalars, sigma):
    """Observations of a three-class model with no neighbor outside two classes S
    meet only types of S, which weigh d_j/d_1 = (d_min(S)/d_1) * d_j/d_min(S): each
    face solves as S's own model at alpha * d_min(S)/d_1.  The two solves part by
    a few ulp per unit of 1/margin, with margin 1 - (alpha/c) * d_K/d_1."""
    etheta, alpha, cost = scalars
    full = solution.system.model
    margin = 1 - float(alpha) / float(cost) * float(full.rho[-1])
    for face in ((0, 1), (1, 2), (0, 2)):
        degrees = tuple(full.degrees[k] for k in face)
        sub = statics_solution(DegreeModel(degrees, (0.5, 0.5)),
                               (etheta, alpha * degrees[0] / full.degrees[0], cost), sigma)
        for t in sub.system.types:
            counts = [0, 0, 0]
            for k, c in zip(face, t.counts):
                counts[k] = c
            want = sub.value(t.rule, t.degree, t.counts)
            got = solution.value(t.rule, t.degree, counts)
            assert abs(got - want) <= 2e-15 / margin * want, (face, t)


class TestOracles:
    """Closed forms and sub-systems that hold at every size, where no ``Fraction``
    oracle reaches."""

    @settings(max_examples=40, deadline=None)
    @given(statics_instances(), st.floats(0.0, 1.0))
    def test_corners_hold_their_closed_forms(self, inst, sigma):
        model, scalars = inst
        _assert_corners_hold(statics_solution(model, scalars, sigma), scalars, sigma)

    def test_corners_hold_their_closed_forms_at_two_thousand_neighbors(self):
        # L = 6148 types; rho and the rule axis at a size far past every other oracle
        model = DegreeModel((1024, 2048), (0.6, 0.4))
        scalars = (1.0, 1.2, 3.7)
        _assert_corners_hold(statics_solution(model, scalars, 0.5), scalars, 0.5)

    @settings(max_examples=15, deadline=None)
    @given(statics_instances(classes=(3,)), st.floats(0.0, 1.0))
    def test_faces_solve_as_their_sub_models(self, inst, sigma):
        model, scalars = inst
        _assert_faces_hold(statics_solution(model, scalars, sigma), scalars, sigma)

    def test_each_face_of_8_16_24_solves_as_its_sub_model(self):
        # margin 0.2, so within 1e-14 relative: seen at 3.0e-16 over the 52 types
        # of {8, 16}, 4.4e-16 over the 84 of {16, 24} and 5.8e-16 over the 68 of {8, 24}
        scalars = (1.0, 1.2, 4.5)
        full = DegreeModel((8, 16, 24), (0.5, 0.3, 0.2))
        _assert_faces_hold(statics_solution(full, scalars, 0.5), scalars, 0.5)


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
        w_all = type_probabilities(model, system) * np.repeat([0.7, 0.3], system.L // 2)
        assert w_all.sum() == pytest.approx(1.0, abs=1e-12)
        for rule in ("naive", "sophisticated"):
            w = type_probabilities(model, system)
            mask = np.array([t.rule == rule for t in system.types])
            assert w[mask].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("degrees", [(d1, 3 * d1) for d1 in (2, 4, 8, 16, 32)]
                             + [(8, 16, 24)])
    def test_weights_match_the_kernel_over_every_type(self, degrees):
        # both rules read the same L/2 observations, so they are weighed once;
        # the bits equal each class share times one kernel call over them
        k = len(degrees)
        shares = [tuple(np.roll(np.arange(1.0, k + 1), i) / (k * (k + 1) / 2))
                  for i in range(3)]
        models = [DegreeModel(degrees, s) for s in shares]
        system = build_pi(models[0], GameParams(1.0, 0.1, 3.0, 0.5, models[0]))
        cls = np.searchsorted(np.array(degrees), system.degrees)
        law = [[float(v) for v in biased_neighbor_share(m)] for m in models]
        full = np.array(shares)[:, cls] * multinomial_pmf(system.counts, law)
        weights = equilibrium._type_weights(system, np.array(shares), law)
        assert weights.tobytes() == full.tobytes()

    def test_rejects_types_outside_the_support(self):
        # same K or not: a different K used to fail with the kernel's shape message
        model, params, system = fig_system(sigma=0.3)
        solution = solve_direct(system, params)
        for other in (DegreeModel((3, 6), (0.5, 0.5)), DegreeModel((2, 4, 6), (0.2, 0.3, 0.5))):
            message = re.escape(f"the model's degrees {other.degrees} differ from the type "
                                "system's (2, 6)")
            with pytest.raises(ModelError, match=message):
                type_probabilities(other, system)
            with pytest.raises(ModelError, match=message):
                average_expectation(solution, other, rule="naive")

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
