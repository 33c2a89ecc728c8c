import numpy as np
import pytest

from fairdyn.errors import DomainError, UndefinedConditionalError
from fairdyn.metrics import (
    OutcomeModel,
    demographic_parity_gap,
    equal_opportunity_gap,
    equalized_odds_gap,
    individual_fairness_violations,
    metric_report,
    unawareness_check,
)
from fairdyn.policy import Policy

from conftest import make_grid, make_population, random_instance

GRID2 = make_grid(2, start=300.0, width=100.0)


def two_group_pop(pmf0, pmf1):
    return make_population(GRID2, {"a0": pmf0, "a1": pmf1})


def shared_outcome(rho):
    return OutcomeModel(rho={"a0": rho, "a1": rho}, steps_up=1, steps_down=1)


def shared_policy(tau):
    return Policy.from_arrays({"a0": np.asarray(tau), "a1": np.asarray(tau)})


class TestDemographicParity:
    def test_identical_groups(self):
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        out = shared_outcome((0.2, 0.8))
        assert demographic_parity_gap(pop, out, shared_policy((0.1, 0.9)), "a0", "a1") == 0.0

    def test_accept_all(self):
        pop = two_group_pop((0.3, 0.7), (0.9, 0.1))
        out = shared_outcome((0.2, 0.8))
        assert demographic_parity_gap(pop, out, shared_policy((1.0, 1.0)), "a0", "a1") == 0.0

    def test_unequal_mass_above_threshold(self):
        pop = two_group_pop((0.5, 0.5), (0.8, 0.2))
        out = shared_outcome((0.2, 0.8))
        gap = demographic_parity_gap(pop, out, shared_policy((0.0, 1.0)), "a0", "a1")
        assert gap == pytest.approx(0.3, abs=1e-15)

    def test_unknown_label(self):
        pop = two_group_pop((0.5, 0.5), (0.8, 0.2))
        out = shared_outcome((0.2, 0.8))
        with pytest.raises(KeyError):
            demographic_parity_gap(pop, out, shared_policy((0, 1)), "a0", "zz")


class TestEqualOpportunity:
    def test_identical_groups(self):
        pop = two_group_pop((0.6, 0.4), (0.6, 0.4))
        out = shared_outcome((0.2, 0.8))
        assert equal_opportunity_gap(pop, out, shared_policy((0.3, 0.9)), "a0", "a1") == 0.0

    def test_hand_computed_conditional(self):
        # TPR_0 = 0.5*0.8 / (0.5*0.2 + 0.5*0.8) = 0.8
        # TPR_1 = 0.2*0.8 / (0.8*0.2 + 0.2*0.8) = 0.5
        pop = two_group_pop((0.5, 0.5), (0.8, 0.2))
        out = shared_outcome((0.2, 0.8))
        gap = equal_opportunity_gap(pop, out, shared_policy((0.0, 1.0)), "a0", "a1")
        assert gap == pytest.approx(0.3, abs=1e-12)

    def test_zero_qualified_mass_errors(self):
        pop = two_group_pop((0.5, 0.5), (0.8, 0.2))
        out = OutcomeModel(
            rho={"a0": (0.0, 0.0), "a1": (0.2, 0.8)}, steps_up=1, steps_down=1
        )
        with pytest.raises(UndefinedConditionalError, match="a0"):
            equal_opportunity_gap(pop, out, shared_policy((0, 1)), "a0", "a1")


class TestEqualizedOdds:
    def test_identical_groups(self):
        pop = two_group_pop((0.6, 0.4), (0.6, 0.4))
        out = shared_outcome((0.2, 0.8))
        assert equalized_odds_gap(pop, out, shared_policy((0.3, 0.9)), "a0", "a1") == 0.0

    def test_tpr_gap_dominates(self):
        pop = two_group_pop((0.5, 0.5), (0.8, 0.2))
        out = shared_outcome((0.2, 0.8))
        gap = equalized_odds_gap(pop, out, shared_policy((0.0, 1.0)), "a0", "a1")
        assert gap == pytest.approx(0.3, abs=1e-12)

    def test_accept_all_rates_are_one(self):
        pop = two_group_pop((0.5, 0.5), (0.8, 0.2))
        out = shared_outcome((0.2, 0.8))
        assert equalized_odds_gap(pop, out, shared_policy((1.0, 1.0)), "a0", "a1") == 0.0


class TestSymmetryAndInvariance:
    def test_gaps_symmetric_in_group_order(self, rng):
        for _ in range(50):
            pop, out, pol = random_instance(rng)
            for fn in (demographic_parity_gap, equal_opportunity_gap, equalized_odds_gap):
                assert fn(pop, out, pol, "g0", "g1") == fn(pop, out, pol, "g1", "g0")

    def test_gaps_invariant_under_affine_score_relabel(self, rng):
        for _ in range(20):
            pop, out, pol = random_instance(rng)
            grid = pop.grid
            relabeled = make_population(
                make_grid(
                    len(grid.bin_scores),
                    start=2.0 * grid.bin_scores[0] + 7.0,
                    width=2.0 * grid.bin_width,
                ),
                {g.group_id: g.pmf for g in pop.groups},
                {g.group_id: g.proportion for g in pop.groups},
            )
            for fn in (demographic_parity_gap, equal_opportunity_gap, equalized_odds_gap):
                assert fn(pop, out, pol, "g0", "g1") == fn(relabeled, out, pol, "g0", "g1")


class TestIndividualFairness:
    def test_same_bin_same_group_never_violates(self):
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        pol = shared_policy((0.2, 0.9))
        pairs = [(("a0", 0), ("a0", 0)), (("a0", 1), ("a0", 1))]
        assert individual_fairness_violations(pop, pol, 0.01, pairs) == []

    def test_lipschitz_blind_policy_clean(self):
        # tau changes by 0.5 over a 100-point score gap; L=1 gives bound 100
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        pol = shared_policy((0.2, 0.7))
        pairs = [
            ((g1, b1), (g2, b2))
            for g1 in ("a0", "a1")
            for g2 in ("a0", "a1")
            for b1 in (0, 1)
            for b2 in (0, 1)
        ]
        assert individual_fairness_violations(pop, pol, 1.0, pairs) == []

    def test_cross_group_violation_with_slack(self):
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        pol = Policy.from_arrays(
            {"a0": np.array([0.0, 1.0]), "a1": np.array([0.0, 0.0])}
        )
        pairs = [(("a0", 1), ("a1", 1))]
        out = individual_fairness_violations(pop, pol, 0.001, pairs)
        assert len(out) == 1
        assert out[0][1] == pytest.approx(1.0)

    def test_positive_lipschitz_required(self):
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        with pytest.raises(DomainError):
            individual_fairness_violations(pop, shared_policy((0, 1)), 0.0, [])

    @pytest.mark.parametrize(
        "lipschitz, message",
        [
            (np.nan, "lipschitz constant nan must be positive and finite"),
            (np.inf, "lipschitz constant inf must be positive and finite"),
            (-1.0, "lipschitz constant -1.0 must be positive and finite"),
            (True, "lipschitz constant must be a real number, got True"),
            ("1", "lipschitz constant must be a real number, got '1'"),
        ],
    )
    def test_lipschitz_must_be_a_positive_finite_real(self, lipschitz, message):
        # NaN once passed every pair, as ``nan > EQ_TOL`` is false, and True
        # was taken as 1.
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        pol = Policy.from_arrays({"a0": np.array([0.0, 1.0]), "a1": np.zeros(2)})
        pairs = [(("a0", 1), ("a1", 1))]
        with pytest.raises(DomainError) as info:
            individual_fairness_violations(pop, pol, lipschitz, pairs)
        assert str(info.value) == message

    @pytest.mark.parametrize("bin_", [-1, 2, 0.5, True, "1", None])
    def test_bin_must_be_an_integer_on_the_grid(self, bin_):
        # A bin of -1 once audited the top bin.
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        pol = Policy.from_arrays({"a0": np.array([0.0, 1.0]), "a1": np.zeros(2)})
        pair = (("a0", 1), ("a1", bin_))
        pairs = [(("a0", 0), ("a1", 0)), pair]
        with pytest.raises(DomainError) as info:
            individual_fairness_violations(pop, pol, 0.001, pairs)
        assert str(info.value) == f"pair {pair!r}: bins must be integers in [0, 2)"

    @pytest.mark.parametrize(
        "pair, message",
        [
            ((("zz", 0), ("a1", 1)), "policy has no group 'zz'"),
            ((("a0", 0), ("zz", 1)), "policy has no group 'zz'"),
            ((("a0", 0),), "must be two (group, bin) entries"),
            ((("a0", 0), ("a1", 0), ("a1", 1)), "must be two (group, bin) entries"),
            (("a0", 0), "must be two (group, bin) entries"),
            (((("a0", 0, 1)), ("a1", 0)), "must be two (group, bin) entries"),
            (None, "must be two (group, bin) entries"),
        ],
        ids=["unknown_first", "unknown_second", "one_entry", "three_entries",
             "one_group_and_bin", "three_field_entry", "none"],
    )
    def test_a_malformed_pair_names_itself(self, pair, message):
        # An unknown group once raised a raw KeyError, and a pair that is not
        # two (group, bin) entries Python's unpacking ValueError.
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        pol = Policy.from_arrays({"a0": np.array([0.0, 1.0]), "a1": np.zeros(2)})
        with pytest.raises(DomainError) as info:
            individual_fairness_violations(pop, pol, 0.001, [pair])
        assert str(info.value) == f"pair {pair!r}: {message}"

    def test_an_integral_float_bin_is_its_integer(self):
        pop = two_group_pop((0.5, 0.5), (0.5, 0.5))
        pol = Policy.from_arrays({"a0": np.array([0.0, 1.0]), "a1": np.zeros(2)})
        pairs = [(("a0", 1.0), ("a1", np.int64(1)))]
        out = individual_fairness_violations(pop, pol, 0.001, pairs)
        assert out == [(pairs[0], pytest.approx(1.0))]


class TestUnawareness:
    def test_identical_thresholds(self):
        assert unawareness_check(shared_policy((0.0, 1.0))) is True

    def test_differing_vectors(self):
        pol = Policy.from_arrays(
            {"a0": np.array([0.0, 1.0]), "a1": np.array([0.5, 1.0])}
        )
        assert unawareness_check(pol) is False

    def test_constant_policy(self):
        assert unawareness_check(shared_policy((0.3, 0.3))) is True

    def test_single_group_rejected(self):
        with pytest.raises(DomainError):
            unawareness_check(Policy.from_arrays({"a0": np.array([0.5, 0.5])}))

    def test_blindness_with_equal_pmfs_gives_parity(self, rng):
        out = shared_outcome((0.2, 0.8))
        for _ in range(50):
            pmf = rng.random(2) + 1e-9
            pmf /= pmf.sum()
            pop = two_group_pop(tuple(pmf), tuple(pmf))
            tau = rng.random(2)
            pol = shared_policy(tau)
            assert unawareness_check(pol)
            assert demographic_parity_gap(pop, out, pol, "a0", "a1") == 0.0

    def test_blindness_does_not_correct_biased_data(self):
        # witness: group-blind policy, different distributions, positive gap
        pop = two_group_pop((0.2, 0.8), (0.9, 0.1))
        out = shared_outcome((0.2, 0.8))
        pol = shared_policy((0.0, 1.0))
        assert unawareness_check(pol)
        assert demographic_parity_gap(pop, out, pol, "a0", "a1") > 0.5


def test_eo_bounded_by_eodds_random(rng):
    for _ in range(300):
        pop, out, pol = random_instance(rng)
        rep = metric_report(pop, out, pol, "g0", "g1")
        assert rep.eo_gap <= rep.eodds_gap + 1e-12
        for v in (rep.dp_gap, rep.eo_gap, rep.eodds_gap):
            assert -1e-12 <= v <= 1.0 + 1e-12


def test_nan_rho_rejected():
    with pytest.raises(DomainError, match="NaN"):
        OutcomeModel(rho={"a0": (0.2, float("nan"))}, steps_up=1, steps_down=1)


GAPS = {
    "dp_gap": demographic_parity_gap,
    "eo_gap": equal_opportunity_gap,
    "eodds_gap": equalized_odds_gap,
}


def degenerate(pop, out, case, confined):
    """``pop`` and ``out`` where each group of ``case`` has rho equal to its
    value (0: no qualified mass, 1: no unqualified mass) on every bin or,
    when ``confined``, only on the lower bins, which then hold all its mass."""
    n = len(pop.grid)
    k = n // 2 if confined else n
    pmfs, rho = {}, dict(out.rho)
    for g in pop.groups:
        pmf = g.pmf.copy()
        if g.group_id in case:
            pmf[k:] = 0.0
            pmf /= pmf.sum()
            rho[g.group_id] = rho[g.group_id].copy()
            rho[g.group_id][:k] = case[g.group_id]
        pmfs[g.group_id] = pmf
    proportions = {g.group_id: g.proportion for g in pop.groups}
    return (
        make_population(pop.grid, pmfs, proportions),
        OutcomeModel(rho, out.steps_up, out.steps_down),
    )


class TestGapsAgreeWithMetricReport:
    def test_each_gap_is_its_report_field(self, rng):
        for _ in range(200):
            pop, out, pol = random_instance(rng)
            for a0, a1 in (("g0", "g1"), ("g1", "g0"), ("g0", "g0")):
                rep = metric_report(pop, out, pol, a0, a1)
                for name, gap in GAPS.items():
                    value = gap(pop, out, pol, a0, a1)
                    assert type(value) is float
                    assert value.hex() == getattr(rep, name).hex()

    @pytest.mark.parametrize("confined", [False, True], ids=["spread", "confined"])
    @pytest.mark.parametrize(
        "case, eo_error, eodds_error",
        [
            (
                {"g0": 0.0},
                "group 'g0' has zero qualified mass; true-positive rate undefined",
                "group 'g0' has zero qualified mass",
            ),
            (
                {"g1": 0.0},
                "group 'g1' has zero qualified mass; true-positive rate undefined",
                "group 'g1' has zero qualified mass",
            ),
            ({"g0": 1.0}, None, "group 'g0' has zero unqualified mass"),
            ({"g1": 1.0}, None, "group 'g1' has zero unqualified mass"),
            (
                {"g0": 1.0, "g1": 0.0},
                "group 'g1' has zero qualified mass; true-positive rate undefined",
                "group 'g0' has zero unqualified mass",
            ),
        ],
    )
    def test_undefined_rates_raise_what_they_raised(
        self, rng, confined, case, eo_error, eodds_error
    ):
        for _ in range(20):
            pop, out, pol = random_instance(rng, n_bins=int(rng.integers(2, 9)))
            pop, out = degenerate(pop, out, case, confined)
            rep = metric_report(pop, out, pol, "g0", "g1")
            errors = {"dp_gap": None, "eo_gap": eo_error, "eodds_gap": eodds_error}
            for name, gap in GAPS.items():
                if errors[name] is None:
                    value = gap(pop, out, pol, "g0", "g1")
                    assert value.hex() == getattr(rep, name).hex()
                else:
                    with pytest.raises(UndefinedConditionalError) as exc:
                        gap(pop, out, pol, "g0", "g1")
                    assert str(exc.value) == errors[name]
