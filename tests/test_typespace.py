import csv
import io
import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import population
from netgame import (
    AgentType,
    DegreeModel,
    ExpectationMatrix,
    GameParams,
    ModelError,
    average_expectation,
    build_pi,
    enumerate_types,
    multinomial_pmf,
    pi_csv_rows,
    solve_direct,
)

REFERENCE_ROW = {
    # exact weights behind the rounded two-digit reference row
    "low": (Fraction(1, 6), Fraction(1, 3), Fraction(1, 6)),
    "high": (Fraction(1, 48), Fraction(1, 12), Fraction(1, 8),
             Fraction(1, 12), Fraction(1, 48)),
}


def _stable_params(model, sigma=1.0):
    return GameParams(1.0, 1.0, 2.0 * model.rho[-1] + 1.0, sigma, model)


@st.composite
def small_models(draw):
    k = draw(st.integers(2, 3))
    degrees = draw(st.lists(st.integers(1, 6), min_size=k, max_size=k, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(raw)
    return DegreeModel(tuple(sorted(degrees)), tuple(r / total for r in raw))


class TestAgentType:
    def test_shares_and_label_come_from_the_counts(self):
        t = AgentType("sophisticated", 4, (3, 1))
        assert t.shares == (0.75, 0.25)
        assert t.label == "s:d4:0.75/0.25"

    @pytest.mark.parametrize("degree, counts", [(2, (1, 2)), (2, (3, -1)), (0, (0, 0)),
                                                (0, ()), (float("nan"), (1, 1))])
    def test_rejects_counts_that_are_not_an_observation_of_the_degree(self, degree, counts):
        with pytest.raises(ModelError, match="must be non-negative and sum to a degree"):
            AgentType("naive", degree, counts)

    def test_rejects_an_unknown_rule(self):
        with pytest.raises(ModelError, match="unknown updating rule"):
            AgentType("bayesian", 2, (1, 1))


class TestEnumerateTypes:
    def test_reference_count(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        assert len(enumerate_types(m)) == 16

    def test_stars_and_bars_count(self):
        m = DegreeModel((4, 6), (0.6, 0.4))
        assert len(enumerate_types(m)) == 2 * (5 + 7)

    def test_brute_force_count(self):
        m = DegreeModel((1, 2), (0.5, 0.5))
        types = enumerate_types(m)
        brute = 2 * sum(
            1 for d in (1, 2)
            for c in itertools.product(range(d + 1), repeat=2) if sum(c) == d
        )
        assert len(types) == brute == 10

    def test_order_is_naive_block_then_degree_then_lattice(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        types = enumerate_types(m)
        rules = [t.rule for t in types]
        assert rules == ["naive"] * 8 + ["sophisticated"] * 8
        assert [t.degree for t in types[:8]] == [2, 2, 2, 4, 4, 4, 4, 4]
        assert [t.shares[1] for t in types[:3]] == [0.0, 0.5, 1.0]
        assert [t.counts for t in types[:3]] == [(2, 0), (1, 1), (0, 2)]

    def test_rule_blocks_share_one_lattice_per_degree(self, monkeypatch):
        import netgame.typespace
        calls = []
        real = netgame.typespace.feasible_observed_shares
        monkeypatch.setattr(netgame.typespace, "feasible_observed_shares",
                            lambda d, K: calls.append(d) or real(d, K))
        m = DegreeModel((2, 3, 5), (0.3, 0.4, 0.3))
        types = enumerate_types(m)
        assert calls == [2, 3, 5]
        half = len(types) // 2
        for naive, soph in zip(types[:half], types[half:]):
            assert soph.degree == naive.degree and soph.counts is naive.counts

    def test_a_build_lays_out_each_degrees_lattice_once(self, monkeypatch):
        # the tables and the derived columns read one lattice per degree
        import netgame.typespace
        calls = []
        real = netgame.typespace.feasible_observed_shares
        monkeypatch.setattr(netgame.typespace, "feasible_observed_shares",
                            lambda d, K: calls.append(d) or real(d, K))
        m = DegreeModel((2, 3, 5), (0.3, 0.4, 0.3))
        systems = [build_pi(m, _stable_params(m)) for _ in range(2)]
        assert calls == [2, 3, 5, 2, 3, 5]
        for system in systems:
            assert not any(array.flags.writeable for array in (
                system.pmf, system.beliefs, *system.columns, system.d_diag))

    def test_index_bijection(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        params = _stable_params(m)
        system = build_pi(m, params)
        for q, t in enumerate(system.types):
            assert system.index(t.rule, t.degree, t.counts) == q

    @pytest.mark.parametrize("degree, counts", [(2.5, (1, 1)), (2, (1.5, 0.5)),
                                                (4.0000001, (2, 2))])
    def test_row_rejects_a_degree_or_count_that_is_not_whole(self, degree, counts):
        # these used to be truncated to a neighboring type's row
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        with pytest.raises(ModelError, match="no type"):
            system.row("naive", degree, counts)


def _degree_mass(model, rule, counts, sigma=1.0):
    """Mass that one row of ``build_pi`` puts on each degree's columns: the
    population share that observer believes each degree has."""
    system = build_pi(model, _stable_params(model, sigma=sigma))
    row = system.row(rule, sum(counts), counts)
    return [row[system.columns[1] == d].sum() for d in model.degrees]


class TestBelievedShares:
    M = DegreeModel((2, 4), (0.5, 0.5))

    def test_sophisticated_corrects(self):
        assert _degree_mass(self.M, "sophisticated", (1, 1))[1] == \
            pytest.approx(1 / 3, abs=1e-12)

    def test_naive_reads_off(self):
        assert _degree_mass(self.M, "naive", (1, 1))[1] == pytest.approx(0.5, abs=1e-12)

    def test_no_observed_mass(self):
        assert _degree_mass(self.M, "sophisticated", (2, 0))[1] == 0.0

    def test_unknown_degree_raises(self):
        system = build_pi(self.M, _stable_params(self.M))
        with pytest.raises(ModelError):
            system.index("naive", 3, (2, 1))

    def test_sums_to_one_over_degrees(self):
        m = DegreeModel((2, 4, 8), (0.3, 0.4, 0.3))
        for rule in ("naive", "sophisticated"):
            total = sum(_degree_mass(m, rule, (1, 2, 1), sigma=0.35))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestBuildPi:
    def test_reference_example_row(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m, sigma=1.0))
        row = system.row("sophisticated", 2, (1, 1))
        for counts, expected in zip([(2, 0), (1, 1), (0, 2)], REFERENCE_ROW["low"]):
            q = system.index("sophisticated", 2, counts)
            assert row[q] == pytest.approx(float(expected), abs=1e-12)
        high_lattice = [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]
        for counts, expected in zip(high_lattice, REFERENCE_ROW["high"]):
            q = system.index("sophisticated", 4, counts)
            assert row[q] == pytest.approx(float(expected), abs=1e-12)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    def test_naive_rows_zero_on_sophisticated_columns(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m, sigma=0.4))
        for p, t in enumerate(system.types):
            if t.rule == "naive":
                for q, tq in enumerate(system.types):
                    if tq.rule == "sophisticated":
                        assert system.pi[p, q] == 0.0

    @settings(max_examples=20, deadline=None)
    @given(small_models(), st.floats(0.0, 1.0))
    def test_row_sums_one(self, m, sigma):
        system = build_pi(m, _stable_params(m, sigma=sigma))
        assert np.max(np.abs(system.pi.sum(axis=1) - 1.0)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(small_models(), st.floats(0.0, 1.0), st.floats(0.05, 0.9))
    def test_spectral_radius_below_one_when_stable(self, m, sigma, slack):
        # pick alpha so that alpha * rho_K = slack * cost < cost
        cost = 3.0
        alpha = slack * cost / float(m.rho[-1])
        params = GameParams(1.0, alpha, cost, sigma, m)
        system = build_pi(m, params)
        mat = (alpha / cost) * system.pi * system.d_diag
        radius = np.max(np.abs(np.linalg.eigvals(mat)))
        assert radius < 1.0

    def test_same_observation_same_row_across_degrees(self):
        # beliefs depend on the sample content, not the observer's degree
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m, sigma=0.6))
        for rule in ("naive", "sophisticated"):
            r1 = system.row(rule, 2, (1, 1))
            r2 = system.row(rule, 4, (2, 2))
            assert np.array_equal(r1, r2)

    def test_d_diag_holds_column_ratios(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        for q, t in enumerate(system.types):
            assert system.d_diag[q] == t.degree / 2

    def test_one_kernel_call_per_target_degree_over_distinct_observations(self,
                                                                            monkeypatch):
        # both rule blocks read the same observations, so each call has L/2 rows
        import netgame.typespace
        calls = []
        real = netgame.typespace.multinomial_pmf
        monkeypatch.setattr(netgame.typespace, "multinomial_pmf",
                            lambda c, p, **kw: calls.append((len(c), len(p)))
                            or real(c, p, **kw))
        m = DegreeModel((8, 16, 24), (0.5, 0.3, 0.2))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert system.L == 1046
        assert calls == [(math.comb(d + 2, 2), 523) for d in m.degrees]

    def test_d_diag_is_derived_from_the_types(self):
        m = DegreeModel((2, 3, 5), (0.3, 0.4, 0.3))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert system.d_diag.tolist() == [t.degree / 2 for t in system.types]

    def test_solving_and_averaging_make_no_agent_type(self, monkeypatch):
        # the system is derived from the degree support; types are made only
        # when a caller reads them
        import netgame.typespace

        def refuse(*args, **kwargs):
            raise AssertionError("an AgentType was made")

        monkeypatch.setattr(netgame.typespace, "AgentType", refuse)
        m = DegreeModel((2, 3, 5), (0.3, 0.4, 0.3))
        params = _stable_params(m, sigma=0.5)
        system = build_pi(m, params)
        solution = solve_direct(system, params)
        assert average_expectation(solution, m, sigma=0.5) > 0
        assert "types" not in vars(system)

    def test_types_are_the_enumerated_types(self):
        m = DegreeModel((2, 3, 5), (0.3, 0.4, 0.3))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert system.types == tuple(enumerate_types(m))
        counts, degrees, sophisticated = system.columns
        assert [(t.rule == "sophisticated", t.degree, t.counts) for t in system.types] == \
            list(zip(sophisticated.tolist(), degrees.tolist(), map(tuple, counts.tolist())))

    def test_rejects_a_system_not_built_on_a_degree_model(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        with pytest.raises(ModelError, match="built on a DegreeModel"):
            replace(system, model=system.types)

    @pytest.mark.parametrize("sigma", [-0.1, 1.5, np.nan])
    def test_rejects_a_bad_sigma(self, sigma):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        with pytest.raises(ModelError, match="sigma must be finite|must lie in"):
            replace(system, sigma=sigma)

    def test_a_bad_sigma_or_an_oversized_model_raises_before_any_layout(self, monkeypatch):
        import netgame.typespace

        def refuse(degrees):
            raise AssertionError("a lattice was laid out")

        monkeypatch.setattr(netgame.typespace, "_lattice", refuse)
        with pytest.raises(ModelError, match="must lie in"):
            ExpectationMatrix(DegreeModel((2, 4), (0.5, 0.5)), 1.5)
        with pytest.raises(ModelError, match="^L = 563606 types"):
            ExpectationMatrix(DegreeModel((200, 400, 600), (0.5, 0.3, 0.2)), 0.5)

    def test_systems_compare_and_hash_by_model_and_sigma(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        again = build_pi(m, _stable_params(m, sigma=0.5))
        assert system == again and hash(system) == hash(again)
        assert system != build_pi(m, _stable_params(m, sigma=0.25))
        assert {system, again} == {system}

    def test_repr_holds_the_model_and_sigma_but_no_array(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert repr(system) == f"ExpectationMatrix(model={m!r}, sigma=0.5)"

    @settings(max_examples=30, deadline=None)
    @given(small_models(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_a_sigma_replacement_rebuilds_the_same_tables(self, m, sigma, s):
        system = build_pi(m, _stable_params(m, sigma=sigma))
        other = replace(system, sigma=s)
        assert other.pmf.tobytes() == system.pmf.tobytes()
        assert other.beliefs.tobytes() == system.beliefs.tobytes()
        assert other == build_pi(m, _stable_params(m, sigma=s))

    def test_build_peak_memory_stays_near_pi(self):
        # the table itself and the types: the kernel writes each degree's
        # columns into the table (a per-degree block copy took the peak to
        # 1.62 x pmf.nbytes)
        m = DegreeModel((8, 16, 24), (0.5, 0.3, 0.2))
        params = _stable_params(m, sigma=0.5)
        tracemalloc.start()
        try:
            system = build_pi(m, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.L == 1046
        assert peak <= 1.35 * system.pmf.nbytes

    def test_build_pi_refuses_a_table_over_the_budget_before_enumerating(self,
                                                                        monkeypatch):
        import netgame.typespace
        monkeypatch.setattr(netgame.typespace, "enumerate_types", None)
        m = DegreeModel((200, 400, 600), (0.5, 0.3, 0.2))   # L = 563,606
        with pytest.raises(ModelError, match=r"^L = 563606 types: the \(L/2\)\^2 table, "
                                             r"a solve block and LAPACK's copy of it need "
                                             r"1905910339416 bytes"):
            build_pi(m, _stable_params(m))

    def test_a_build_is_charged_the_lapack_copy_of_its_solve_block(self, monkeypatch):
        # L = 16: the table, a solve block and the Fortran copy np.linalg.solve
        # makes of it take 3 * 8^2 * 8 = 1536 bytes
        m = DegreeModel((2, 4), (0.5, 0.5))
        monkeypatch.setattr(population, "MEMORY_BUDGET", 1535)
        with pytest.raises(ModelError, match=r"^L = 16 types: .* need 1536 bytes"):
            build_pi(m, _stable_params(m))
        monkeypatch.setattr(population, "MEMORY_BUDGET", 1536)
        assert build_pi(m, _stable_params(m)).L == 16

    def test_the_pi_view_is_charged_when_assembled(self, monkeypatch):
        # L = 16: the build is charged 3 * 8^2 * 8 = 1536 bytes, pi 2048
        m = DegreeModel((2, 4), (0.5, 0.5))
        monkeypatch.setattr(population, "MEMORY_BUDGET", 2047)
        system = build_pi(m, _stable_params(m))
        with pytest.raises(ModelError, match=r"^the L\^2 = 256 entries of pi need 2048 bytes"):
            system.pi
        assert "pi" not in vars(system)
        monkeypatch.setattr(population, "MEMORY_BUDGET", 2048)
        assert system.pi.shape == (16, 16)

    def test_rows_are_formed_without_an_l_by_l_array(self):
        # pi at (8, 16, 24) is L^2 * 8 = 8.75 MB; a row, or a dump's pass over
        # every row, forms one row at a time from the table and keeps nothing
        m = DegreeModel((8, 16, 24), (0.5, 0.3, 0.2))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        for form in (lambda: system.row("sophisticated", 16, (4, 8, 4)),
                     lambda: sum(len(row) for row in pi_csv_rows(system))):
            tracemalloc.start()
            try:
                form()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 0.05 * 8 * system.L ** 2
        assert "pi" not in vars(system)

    def test_pi_is_assembled_afresh_on_each_read(self):
        m = DegreeModel((2, 4, 5), (0.3, 0.3, 0.4))
        system = build_pi(m, _stable_params(m, 0.7))
        first = system.pi
        assert np.array_equal(first, system.pi) and first is not system.pi
        assert "pi" not in vars(system)
        assert all(np.array_equal(first[p], system.pi_row(p)) for p in range(system.L))

    def test_three_class_rows_sum_to_one(self):
        m = DegreeModel((1, 2, 3), (0.3, 0.4, 0.3))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert np.max(np.abs(system.pi.sum(axis=1) - 1.0)) <= 1e-12
        assert system.L == 2 * (math.comb(3, 2) + math.comb(4, 2) + math.comb(5, 2))


class TestDrawProbability:
    # one-row cases: count vectors under a single cell-probability row
    def test_binomial_case(self):
        got = multinomial_pmf([(1, 1), (0, 4)], [(0.5, 0.5)])[0]
        assert got.tolist() == pytest.approx([0.5, 0.0625])

    def test_multinomial_sums_to_one(self):
        counts = [c for c in itertools.product(range(6), repeat=3) if sum(c) == 5]
        total = multinomial_pmf(counts, [(0.2, 0.5, 0.3)]).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_cell(self):
        got = multinomial_pmf([(1, 1), (2, 0)], [(1.0, 0.0)])[0]
        assert got.tolist() == [0.0, 1.0]

    def test_large_degree_does_not_overflow(self):
        exact = Fraction(math.comb(1100, 550), 2 ** 1100)
        got = multinomial_pmf([(550, 550)], [(0.5, 0.5)])[0, 0]
        assert abs(got / float(exact) - 1) <= 1e-12


def _exact_pmf(counts, probs):
    coeff, rem = 1, sum(counts)
    for c in counts:
        coeff *= math.comb(rem, c)
        rem -= c
    p = Fraction(coeff)
    for c, q in zip(counts, probs):
        p *= Fraction(q) ** c
    return p


def _believed_rule_share(observer_rule, target_rule, sigma):
    """Share of the target's rule an observer believes in: a sophisticated
    observer knows the mix sigma, a naive one thinks everyone is naive."""
    return {("naive", "naive"): 1, ("naive", "sophisticated"): 0,
            ("sophisticated", "naive"): 1 - sigma,
            ("sophisticated", "sophisticated"): sigma}[observer_rule, target_rule]


def _believed_degree_share(rule, shares, target_degree, degrees):
    """Population share an observer assigns to agents of ``target_degree``:
    the observed share if naive; if sophisticated, the observed shares divided
    by their degrees and renormalized."""
    j = list(degrees).index(target_degree)
    if rule == "naive":
        return shares[j]
    weights = [v / d for v, d in zip(shares, degrees)]
    return weights[j] / sum(weights)


def _lattice(total, K):
    return [c for c in itertools.product(range(total + 1), repeat=K) if sum(c) == total]


@st.composite
def probability_rows(draw, K):
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                            min_size=K, max_size=K).filter(lambda r: sum(r) > 0))
        rows.append([v / sum(raw) for v in raw])
    return rows


class TestMultinomialPmf:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_exact_fractions(self, data):
        K = data.draw(st.integers(2, 4))
        counts = data.draw(st.lists(st.lists(st.integers(0, 6), min_size=K, max_size=K),
                                    min_size=1, max_size=5))
        probs = data.draw(probability_rows(K))
        got = multinomial_pmf(counts, probs)
        assert got.shape == (len(probs), len(counts))
        for i, row in enumerate(probs):
            for j, c in enumerate(counts):
                exact = _exact_pmf(c, row)
                if exact == 0:
                    assert got[i, j] == 0.0
                else:
                    assert got[i, j] == pytest.approx(float(exact), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_full_lattice_sums_to_one(self, data):
        K = data.draw(st.integers(2, 4))
        total = data.draw(st.integers(0, 9))
        probs = data.draw(probability_rows(K))
        sums = multinomial_pmf(_lattice(total, K), probs).sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12

    @pytest.mark.parametrize("counts,probs", [
        ([(1, -1)], [(0.5, 0.5)]),
        ([(1.5, 0.5)], [(0.5, 0.5)]),
        ([(1, 1)], [(1.5, -0.5)]),
        ([(1, 1)], [(np.nan, 0.5)]),
        ([(1, 1, 0)], [(0.5, 0.5)]),
    ])
    def test_rejects_bad_input(self, counts, probs):
        with pytest.raises(ModelError):
            multinomial_pmf(counts, probs)

    def test_build_pi_matches_entrywise_reference(self):
        # the per-entry definition, evaluated exactly for every (observer, target)
        m = DegreeModel((1, 2, 4), (0.3, 0.4, 0.3))
        system = build_pi(m, _stable_params(m, sigma=0.35))
        pi = system.pi  # assembled afresh on each read
        for p, obs in enumerate(system.types):
            for q, tgt in enumerate(system.types):
                weight = (_believed_rule_share(obs.rule, tgt.rule, 0.35)
                          * _believed_degree_share(obs.rule, obs.shares, tgt.degree,
                                                   m.degrees))
                ref = float(weight) * float(_exact_pmf(tgt.counts, obs.shares))
                assert pi[p, q] == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_large_degree_system_passes_matrix_checks(self):
        m = DegreeModel((2, 1100), (0.5, 0.5))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert system.L == 2 * (3 + 1101)
        assert np.max(np.abs(system.pi.sum(axis=1) - 1.0)) <= 1e-12
        assert ExpectationMatrix(m, system.sigma) == system


class TestCsvDump:
    def test_header_and_shape(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        rows = list(pi_csv_rows(system))
        assert rows[0][0] == "observer"
        assert len(rows) == system.L + 1
        assert len(rows[0]) == system.L + 1

    def test_rows_are_written_one_at_a_time(self):
        # holding every row's strings at once took the peak to 7.8 x the text
        m = DegreeModel((4, 8, 12), (0.5, 0.3, 0.2))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        buf = io.StringIO()
        tracemalloc.start()
        try:
            csv.writer(buf, lineterminator="\n").writerows(pi_csv_rows(system))
            text = buf.getvalue()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.L == 302
        assert peak <= 3 * len(text)
