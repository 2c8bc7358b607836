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
    ObservedShares,
    believed_degree_share,
    believed_rule_share,
    build_pi,
    draw_probability,
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

    def test_index_bijection(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        params = _stable_params(m)
        system = build_pi(m, params)
        for q, t in enumerate(system.types):
            assert system.index(t.rule, t.degree, t.observed.counts) == q


class TestBelievedShares:
    def test_sophisticated_corrects(self):
        obs = ObservedShares((0.5, 0.5), 2)
        assert believed_degree_share("sophisticated", obs, 4, (2, 4)) == \
            pytest.approx(1 / 3, abs=1e-12)

    def test_naive_reads_off(self):
        obs = ObservedShares((0.5, 0.5), 2)
        assert believed_degree_share("naive", obs, 4, (2, 4)) == 0.5

    def test_no_observed_mass(self):
        obs = ObservedShares((1.0, 0.0), 2)
        assert believed_degree_share("sophisticated", obs, 4, (2, 4)) == 0.0

    def test_unknown_degree_raises(self):
        obs = ObservedShares((0.5, 0.5), 2)
        with pytest.raises(ModelError):
            believed_degree_share("naive", obs, 3, (2, 4))

    def test_sums_to_one_over_degrees(self):
        obs = ObservedShares((0.25, 0.5, 0.25), 4)
        degrees = (2, 4, 8)
        for rule in ("naive", "sophisticated"):
            total = sum(believed_degree_share(rule, obs, d, degrees)
                        for d in degrees)
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

    def test_rejects_non_finite_entries(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        pi = system.pi.copy()
        pi[0, 0] = np.nan                       # a naive row, naive column
        with pytest.raises(ModelError):
            ExpectationMatrix(system.types, pi, system.d_diag)
        d_diag = system.d_diag.copy()
        d_diag[-1] = np.inf
        with pytest.raises(ModelError):
            ExpectationMatrix(system.types, system.pi, d_diag)

    def test_three_class_rows_sum_to_one(self):
        m = DegreeModel((1, 2, 3), (0.3, 0.4, 0.3))
        system = build_pi(m, _stable_params(m, sigma=0.5))
        assert np.max(np.abs(system.pi.sum(axis=1) - 1.0)) <= 1e-12
        assert system.L == 2 * (math.comb(3, 2) + math.comb(4, 2) + math.comb(5, 2))


class TestDrawProbability:
    def test_binomial_case(self):
        assert draw_probability((1, 1), (0.5, 0.5)) == pytest.approx(0.5)
        assert draw_probability((0, 4), (0.5, 0.5)) == pytest.approx(0.0625)

    def test_multinomial_sums_to_one(self):
        probs = (0.2, 0.5, 0.3)
        total = sum(draw_probability(c, probs)
                    for c in itertools.product(range(6), repeat=3)
                    if sum(c) == 5)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_cell(self):
        assert draw_probability((1, 1), (1.0, 0.0)) == 0.0
        assert draw_probability((2, 0), (1.0, 0.0)) == 1.0


    def test_large_degree_does_not_overflow(self):
        exact = Fraction(math.comb(1100, 550), 2 ** 1100)
        got = draw_probability((550, 550), (0.5, 0.5))
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
                          * believed_degree_share(obs.rule, obs.observed, tgt.degree,
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
        ExpectationMatrix(system.types, system.pi, system.d_diag)


class TestCsvDump:
    def test_header_and_shape(self):
        m = DegreeModel((2, 4), (0.5, 0.5))
        system = build_pi(m, _stable_params(m))
        rows = pi_csv_rows(system)
        assert rows[0][0] == "observer"
        assert len(rows) == system.L + 1
        assert len(rows[0]) == system.L + 1
