import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import (
    DegreeModel,
    ExpectationMatrix,
    GameParams,
    ModelError,
    believed_rule_share,
    build_pi,
    enumerate_types,
    multinomial_pmf,
    pi_csv_rows,
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
        assert [t.observed.values[1] for t in types[:3]] == [0.0, 0.5, 1.0]

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
            assert soph.degree == naive.degree and soph.observed is naive.observed

    def test_index_bijection(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        params = _stable_params(m)
        system = build_pi(m, params)
        for q, t in enumerate(system.types):
            assert system.index(t.rule, t.degree, t.observed.counts) == q


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


class TestBelievedRuleShare:
    def test_sophisticated_observer(self):
        assert believed_rule_share("sophisticated", "sophisticated", 0.5) == 0.5
        assert believed_rule_share("sophisticated", "naive", 0.3) == 0.7

    def test_naive_observer(self):
        assert believed_rule_share("naive", "sophisticated", 0.9) == 0
        assert believed_rule_share("naive", "naive", 0.3) == 1

    def test_rejects_bad_sigma(self):
        with pytest.raises(ModelError):
            believed_rule_share("naive", "naive", 1.5)


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

    def test_build_pi_reads_the_type_columns_once(self, monkeypatch):
        import netgame.typespace
        calls = []
        real = netgame.typespace.type_columns
        monkeypatch.setattr(netgame.typespace, "type_columns",
                            lambda types: calls.append(len(types)) or real(types))
        m = DegreeModel((2, 3, 5), (0.3, 0.4, 0.3))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert calls == [system.L]

    def test_one_kernel_call_per_target_degree_over_distinct_observations(self,
                                                                            monkeypatch):
        # both rule blocks read the same observations, so each call has L/2 rows
        import netgame.typespace
        calls = []
        real = netgame.typespace.multinomial_pmf
        monkeypatch.setattr(netgame.typespace, "multinomial_pmf",
                            lambda c, p: calls.append((len(c), len(p))) or real(c, p))
        m = DegreeModel((8, 16, 24), (0.5, 0.3, 0.2))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert system.L == 1046
        assert calls == [(math.comb(d + 2, 2), 523) for d in m.degrees]

    def test_d_diag_is_derived_from_the_types(self):
        m = DegreeModel((2, 3, 5), (0.3, 0.4, 0.3))
        built = build_pi(m, _stable_params(m, sigma=0.5))
        system = ExpectationMatrix(built.types, built.pi)
        assert system.d_diag.tolist() == [t.degree / 2 for t in system.types]
        assert np.array_equal(system.d_diag, built.d_diag)

    def test_rejects_non_finite_entries(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        pi = system.pi.copy()
        pi[0, 0] = np.nan                       # a naive row, naive column
        with pytest.raises(ModelError):
            ExpectationMatrix(system.types, pi)

    def test_rejects_an_empty_system(self):
        with pytest.raises(ModelError, match="at least one type"):
            ExpectationMatrix((), np.zeros((0, 0)))

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


def _believed_degree_share(rule, observed, target_degree, degrees):
    """Population share an observer assigns to agents of ``target_degree``:
    the observed share if naive; if sophisticated, the observed shares divided
    by their degrees and renormalized."""
    j = list(degrees).index(target_degree)
    if rule == "naive":
        return observed.values[j]
    weights = [v / d for v, d in zip(observed.values, degrees)]
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
        for p, obs in enumerate(system.types):
            for q, tgt in enumerate(system.types):
                weight = (believed_rule_share(obs.rule, tgt.rule, 0.35)
                          * _believed_degree_share(obs.rule, obs.observed, tgt.degree,
                                                   m.degrees))
                ref = float(weight) * float(_exact_pmf(tgt.observed.counts,
                                                       obs.observed.values))
                assert system.pi[p, q] == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_large_degree_system_passes_matrix_checks(self):
        m = DegreeModel((2, 1100), (0.5, 0.5))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert system.L == 2 * (3 + 1101)
        assert np.max(np.abs(system.pi.sum(axis=1) - 1.0)) <= 1e-12
        # re-running the constructor repeats every check on the same data
        ExpectationMatrix(system.types, system.pi)


class TestCsvDump:
    def test_header_and_shape(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        rows = pi_csv_rows(system)
        assert rows[0][0] == "observer"
        assert len(rows) == system.L + 1
        assert len(rows[0]) == system.L + 1
