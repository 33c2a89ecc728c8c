import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdyn.errors import DomainError
from fairdyn.metrics import OutcomeModel
from fairdyn.policy import (
    InstitutionModel,
    Policy,
    acceptance_rate,
    institution_utility,
    threshold_levels,
    threshold_policy_for_rate,
    threshold_values,
)
from fairdyn.population import GroupState

from conftest import make_grid, make_population


def group(pmf):
    return GroupState("a", 1.0, tuple(pmf))


class TestAcceptanceRate:
    def test_accept_all(self):
        g = group((0.3, 0.7))
        pol = Policy.from_arrays({"a": np.ones(2)})
        assert acceptance_rate(pol, g) == 1.0

    def test_accept_none(self):
        g = group((0.3, 0.7))
        pol = Policy.from_arrays({"a": np.zeros(2)})
        assert acceptance_rate(pol, g) == 0.0

    def test_top_bin_only(self):
        # enumerate: only the 0.2 mass in the top bin is accepted
        g = group((0.8, 0.2))
        pol = Policy.from_arrays({"a": np.array([0.0, 1.0])})
        assert acceptance_rate(pol, g) == pytest.approx(0.2, abs=1e-15)

    def test_missing_group(self):
        pol = Policy.from_arrays({"other": np.ones(2)})
        with pytest.raises(KeyError):
            acceptance_rate(pol, group((0.5, 0.5)))

    def test_monotone_in_tau(self, rng):
        for _ in range(100):
            pmf = rng.random(4) + 1e-9
            g = group(pmf / pmf.sum())
            t1 = rng.random(4)
            t2 = np.clip(t1 + rng.random(4) * (1 - t1), 0, 1)
            r1 = acceptance_rate(Policy.from_arrays({"a": t1}), g)
            r2 = acceptance_rate(Policy.from_arrays({"a": t2}), g)
            assert r1 <= r2 + 1e-12


class TestThresholdForRate:
    def test_target_zero(self):
        g = group((0.8, 0.2))
        thp = threshold_policy_for_rate(g, 0.0)
        th = thp.thresholds["a"]
        assert th.threshold_bin == len(g.pmf) - 1
        assert th.boundary_acceptance == 0.0
        grid = make_grid(2)
        assert acceptance_rate(thp.expand(grid), g) == 0.0

    def test_target_one(self):
        g = group((0.8, 0.2))
        thp = threshold_policy_for_rate(g, 1.0)
        th = thp.thresholds["a"]
        assert th.threshold_bin == 0
        assert th.boundary_acceptance == 1.0

    def test_partial_boundary(self):
        # solve 0.8*b + 0.2 = 0.5 -> b = 0.375
        g = group((0.8, 0.2))
        thp = threshold_policy_for_rate(g, 0.5)
        tau = thp.expand(make_grid(2)).tau("a")
        assert tau == pytest.approx([0.375, 1.0], abs=1e-15)

    def test_out_of_range_target(self):
        with pytest.raises(DomainError):
            threshold_policy_for_rate(group((0.5, 0.5)), 1.2)

    def test_expansion_monotone_in_score(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            pmf = rng.random(n) + 1e-9
            g = group(pmf / pmf.sum())
            tau = (
                threshold_policy_for_rate(g, float(rng.random()))
                .expand(make_grid(n))
                .tau("a")
            )
            assert np.all(np.diff(tau) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        target=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_round_trip(self, seed, target):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        pmf = rng.random(n) + 1e-6
        g = group(pmf / pmf.sum())
        pol = threshold_policy_for_rate(g, target).expand(make_grid(n))
        assert abs(acceptance_rate(pol, g) - target) <= 1e-12

    def test_round_trip_bulk(self, rng):
        # 1000 random (pmf, target) pairs as a direct loop
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            pmf = rng.random(n) + 1e-9
            g = group(pmf / pmf.sum())
            target = float(rng.random())
            pol = threshold_policy_for_rate(g, target).expand(make_grid(n))
            assert abs(acceptance_rate(pol, g) - target) <= 1e-12


def scan_threshold(pmf, target):
    """Bin-by-bin top-down scan: the reference that ``threshold_levels``
    must reproduce bit for bit."""
    cum_above = 0.0
    for i in range(len(pmf) - 1, -1, -1):
        if cum_above + pmf[i] >= target or i == 0:
            b = (target - cum_above) / pmf[i] if pmf[i] > 0 else 0.0
            return i, min(max(b, 0.0), 1.0)
        cum_above += pmf[i]


# Integer weights put zero-mass bins, and so repeated cumulative masses, into
# most draws.
weights = st.lists(st.integers(0, 5), min_size=2, max_size=12).filter(
    lambda w: sum(w) > 0
)


class TestThresholdLevels:
    @settings(max_examples=200, deadline=None)
    @given(w=weights, rates=st.lists(st.floats(0.0, 1.0), max_size=20))
    def test_equals_scalar_scan(self, w, rates):
        pmf = np.array(w, dtype=float) / sum(w)
        # Rates on the cumulative masses sit exactly on bin boundaries (their
        # sum can round above 1).
        boundaries = np.minimum(np.cumsum(pmf[::-1]), 1.0)
        rates = np.array([0.0, 1.0, *rates, *boundaries])
        bins, fractions = threshold_levels(pmf, rates)
        for r, b, f in zip(rates, bins, fractions):
            assert (int(b), float(f)) == scan_threshold(pmf, float(r))

    @settings(max_examples=100, deadline=None)
    @given(w=weights, seed=st.integers(0, 2**31))
    def test_values_match_expanded_policy(self, w, seed):
        rng = np.random.default_rng(seed)
        pmf = np.array(w, dtype=float) / sum(w)
        weight = rng.normal(size=len(pmf))
        rates = np.concatenate(([0.0, 1.0], rng.random(10)))
        bins, fractions = threshold_levels(pmf, rates)
        values = threshold_values(pmf, weight, bins, fractions)
        g = group(pmf)
        for r, v in zip(rates, values):
            tau = threshold_policy_for_rate(g, r).expand(make_grid(len(pmf))).tau("a")
            assert abs(v - float(pmf @ (tau * weight))) <= 1e-12

    def test_nan_rate_rejected(self):
        with pytest.raises(DomainError):
            threshold_levels(np.array([0.5, 0.5]), np.array([0.2, np.nan]))


class TestInstitutionUtility:
    def setup_method(self):
        self.grid = make_grid(2)
        self.pop = make_population(self.grid, {"a": (0.5, 0.5)}, {"a": 1.0})
        self.outcome = OutcomeModel(
            rho={"a": (0.2, 0.8)}, steps_up=1, steps_down=1
        )

    def test_no_decisions_no_utility(self):
        pol = Policy.from_arrays({"a": np.zeros(2)})
        inst = InstitutionModel(3.0, -5.0)
        assert institution_utility(pol, self.pop, self.outcome, inst) == 0.0

    def test_all_succeed(self):
        pop = make_population(self.grid, {"a": (0.5, 0.5)}, {"a": 1.0})
        outcome = OutcomeModel(rho={"a": (1.0, 1.0)}, steps_up=1, steps_down=1)
        pol = Policy.from_arrays({"a": np.ones(2)})
        inst = InstitutionModel(1.0, -7.0)
        assert institution_utility(pol, pop, outcome, inst) == pytest.approx(1.0)

    def test_top_bin_enumeration(self):
        # only top bin accepted: 0.5 * (0.8*1 + 0.2*(-1)) = 0.3
        pol = Policy.from_arrays({"a": np.array([0.0, 1.0])})
        inst = InstitutionModel(1.0, -1.0)
        assert institution_utility(pol, self.pop, self.outcome, inst) == (
            pytest.approx(0.3, abs=1e-15)
        )

    def test_linear_in_tau(self, rng):
        inst = InstitutionModel(2.0, -3.0)
        for _ in range(100):
            t1 = rng.random(2)
            t2 = rng.random(2)
            alpha = float(rng.random())
            mix = alpha * t1 + (1 - alpha) * t2
            u_mix = institution_utility(
                Policy.from_arrays({"a": mix}), self.pop, self.outcome, inst
            )
            u1 = institution_utility(
                Policy.from_arrays({"a": t1}), self.pop, self.outcome, inst
            )
            u2 = institution_utility(
                Policy.from_arrays({"a": t2}), self.pop, self.outcome, inst
            )
            assert abs(u_mix - (alpha * u1 + (1 - alpha) * u2)) <= 1e-12


def test_non_finite_utilities_rejected():
    with pytest.raises(DomainError):
        InstitutionModel(float("inf"), 0.0)


def test_policy_entries_validated():
    with pytest.raises(DomainError):
        Policy.from_arrays({"a": np.array([0.5, 1.5])})


def test_nan_policy_entry_rejected():
    with pytest.raises(DomainError, match="NaN"):
        Policy.from_arrays({"a": np.array([0.5, np.nan])})


def test_acceptance_is_read_only():
    # The range check holds for the policy's lifetime: neither the mapping
    # nor its vectors can be written.
    pol = Policy({"a": [0.5, 0.5]})
    with pytest.raises(TypeError):
        pol.acceptance["a"] = np.array([10.0, 10.0])
    with pytest.raises(TypeError):
        del pol.acceptance["a"]
    with pytest.raises(ValueError):
        pol.tau("a")[0] = 10.0
    assert pol.tau("a").tolist() == [0.5, 0.5]
    # A copy with one group replaced is a new, checked policy.
    other = Policy({**pol.acceptance, "b": [1.0, 0.0]})
    assert other.group_ids == ("a", "b") and other.tau("a").tolist() == [0.5, 0.5]
