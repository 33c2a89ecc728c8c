import copy
import gc
import math
import pickle
import re
import sys
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dynamics_oracle
from fairdyn import dynamics, scenarios
from fairdyn.dynamics import (
    RegimeLabel,
    classify_regime,
    group_delta_mu,
    is_stationary,
    monte_carlo_validate,
    simulate,
    step,
    trajectory_rows,
)
from fairdyn.errors import DimensionError, DomainError
from fairdyn.metrics import OutcomeModel, metric_report
from fairdyn.policy import (
    InstitutionModel,
    Policy,
    acceptance_rate,
    institution_utility,
)
from fairdyn.population import (
    GroupState,
    Population,
    ScoreGrid,
    group_mean,
    validate_population,
)

from conftest import make_grid, make_population, random_instance, unchecked_config

INST = InstitutionModel(1.0, -1.0)
LENDING = scenarios.load_scenario("lending_liu")
BOARDS = scenarios.load_scenario("boards_quota")


def single_group(pmf, rho, steps_up=1, steps_down=1, width=100.0):
    grid = make_grid(len(pmf), width=width)
    pop = make_population(grid, {"a": pmf}, {"a": 1.0})
    out = OutcomeModel(rho={"a": tuple(rho)}, steps_up=steps_up, steps_down=steps_down)
    return pop, out


def two_groups():
    grid = make_grid(3, width=100.0)
    pop = make_population(
        grid, {"a": (0.2, 0.3, 0.5), "b": (0.6, 0.3, 0.1)}, {"a": 0.5, "b": 0.5}
    )
    rho = {"a": (0.2, 0.5, 0.9), "b": (0.1, 0.4, 0.8)}
    return pop, OutcomeModel(rho=rho, steps_up=1, steps_down=1)


class TestScoreChange:
    def test_sure_success(self):
        pop, out = single_group((0.5, 0.5), (1.0, 1.0))
        assert out.score_change("a", pop.grid)[0] == out.benefit(pop.grid)

    def test_sure_failure(self):
        pop, out = single_group((0.5, 0.5), (0.0, 0.0))
        assert out.score_change("a", pop.grid)[1] == out.cost(pop.grid)

    def test_mixed(self):
        pop, out = single_group((0.5, 0.5), (0.7, 0.7))
        # 100 * (0.7 - 0.3)
        assert out.score_change("a", pop.grid)[0] == pytest.approx(40.0)


class TestGroupDeltaMu:
    def test_nobody_selected(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.zeros(2)})
        assert group_delta_mu(pop.groups[0], pol, out, pop.grid) == 0.0

    def test_no_impact(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9), steps_up=0, steps_down=0)
        pol = Policy.from_arrays({"a": np.ones(2)})
        assert group_delta_mu(pop.groups[0], pol, out, pop.grid) == 0.0

    def test_enumeration(self):
        # 0.5*(-40) + 0.5*80 over (bin, outcome) pairs
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        assert group_delta_mu(pop.groups[0], pol, out, pop.grid) == pytest.approx(20.0)


class TestClassifyRegime:
    @pytest.mark.parametrize(
        "dmu,tol,expected",
        [
            (0.5, 1e-9, RegimeLabel.IMPROVEMENT),
            (0.0, 0.1, RegimeLabel.STAGNATION),
            (-1e-12, 1e-9, RegimeLabel.STAGNATION),
            (-0.5, 1e-9, RegimeLabel.DECLINE),
        ],
    )
    def test_labels(self, dmu, tol, expected):
        assert classify_regime(dmu, tol) is expected

    def test_non_finite(self):
        with pytest.raises(DomainError):
            classify_regime(float("nan"), 1e-9)

    def test_tol_positive(self):
        with pytest.raises(DomainError):
            classify_regime(0.5, 0.0)

    def test_tol_nan(self):
        with pytest.raises(DomainError):
            classify_regime(0.5, float("nan"))

    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_delta_mu_must_be_a_real_number(self, value):
        message = f"delta_mu must be a real number, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            classify_regime(value, 1e-6)

    @pytest.mark.parametrize("value", [True, "1e-6", None])
    def test_tol_must_be_a_real_number(self, value):
        message = f"tol must be a real number, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            classify_regime(0.5, value)


class TestStep:
    def test_reject_all_is_identity(self):
        pop, out = single_group((0.2, 0.3, 0.5), (0.5, 0.5, 0.5))
        pol = Policy.from_arrays({"a": np.zeros(3)})
        assert np.array_equal(step(pop, pol, out).groups[0].pmf, pop.groups[0].pmf)

    def test_zero_steps_is_identity(self):
        pop, out = single_group((0.2, 0.3, 0.5), (0.5, 0.5, 0.5), 0, 0)
        pol = Policy.from_arrays({"a": np.ones(3)})
        assert np.array_equal(step(pop, pol, out).groups[0].pmf, pop.groups[0].pmf)

    def test_middle_bin_splits(self):
        pop, out = single_group((0.0, 1.0, 0.0), (0.6, 0.6, 0.6))
        pol = Policy.from_arrays({"a": np.ones(3)})
        new = step(pop, pol, out).groups[0].pmf
        assert new == pytest.approx([0.4, 0.0, 0.6], abs=1e-15)

    def test_clamps_at_boundaries(self):
        pop, out = single_group((0.5, 0.0, 0.5), (0.5, 0.5, 0.5), 2, 2)
        pol = Policy.from_arrays({"a": np.ones(3)})
        new = step(pop, pol, out).groups[0].pmf
        assert new == pytest.approx([0.5, 0.0, 0.5])
        assert new.sum() == pytest.approx(1.0, abs=1e-12)

    def test_mass_conserved_random(self, rng):
        for _ in range(300):
            pop, out, pol = random_instance(rng)
            new = step(pop, pol, out)
            for g in new.groups:
                assert abs(g.pmf.sum() - 1.0) <= 1e-12
            assert validate_population(new).ok

    def test_mean_shift_identity_interior(self, rng):
        # support kept away from both boundaries so nothing is clamped
        for _ in range(300):
            n = int(rng.integers(7, 10))
            inner = rng.random(n - 6) + 1e-9
            pmf = np.zeros(n)
            pmf[3:-3] = inner / inner.sum()
            grid = make_grid(n)
            pop = make_population(grid, {"a": tuple(pmf)}, {"a": 1.0})
            out = OutcomeModel(
                rho={"a": tuple(rng.random(n))},
                steps_up=int(rng.integers(0, 4)),
                steps_down=int(rng.integers(0, 4)),
            )
            pol = Policy.from_arrays({"a": rng.random(n)})
            dmu = group_delta_mu(pop.groups[0], pol, out, grid)
            shift = group_mean(step(pop, pol, out).groups[0], grid) - group_mean(
                pop.groups[0], grid
            )
            assert abs(shift - dmu) <= 1e-10

    def test_monotone_impact_when_delta_nonnegative(self, rng):
        for _ in range(100):
            n = 5
            grid = make_grid(n)
            pmf = rng.random(n) + 1e-9
            pmf /= pmf.sum()
            pop = make_population(grid, {"a": tuple(pmf)}, {"a": 1.0})
            out = OutcomeModel(
                rho={"a": tuple(rng.random(n))}, steps_up=2, steps_down=0
            )
            t1 = rng.random(n)
            t2 = np.clip(t1 + rng.random(n) * (1 - t1), 0, 1)
            d1 = group_delta_mu(pop.groups[0], Policy.from_arrays({"a": t1}), out, grid)
            d2 = group_delta_mu(pop.groups[0], Policy.from_arrays({"a": t2}), out, grid)
            assert d1 <= d2 + 1e-12


class TestSimulate:
    def test_metric_pair_with_an_unknown_group(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.ones(3), "b": np.ones(3)})
        with pytest.raises(
            DomainError, match=r"^metric pair: unknown group label 'zz'$"
        ):
            simulate(pop, lambda t, p: pol, out, INST, 2, metric_pair=("a", "zz"))

    def test_zero_horizon(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        traj = simulate(pop, lambda t, p: pol, out, INST, 0)
        assert len(traj) == 1
        assert traj.steps[0].population is pop

    def test_reject_all_stagnates(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.zeros(2)})
        traj = simulate(pop, lambda t, p: pol, out, INST, 5)
        for rec in traj.steps:
            assert np.array_equal(rec.population.groups[0].pmf, pop.groups[0].pmf)
            assert rec.regime["a"] is RegimeLabel.STAGNATION

    def test_first_record_matches_single_step_ops(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        traj = simulate(pop, lambda t, p: pol, out, INST, 1)
        expected = group_delta_mu(pop.groups[0], pol, out, pop.grid)
        assert traj.steps[0].delta_mu["a"] == expected
        assert np.array_equal(
            traj.steps[1].population.groups[0].pmf, step(pop, pol, out).groups[0].pmf
        )

    def test_bit_reproducible(self):
        pop, out = single_group((0.25, 0.25, 0.5), (0.2, 0.5, 0.9))
        pol = Policy.from_arrays({"a": np.array([0.1, 0.5, 0.9])})
        t1 = simulate(pop, lambda t, p: pol, out, INST, 20)
        t2 = simulate(pop, lambda t, p: pol, out, INST, 20)
        for r1, r2 in zip(t1.steps, t2.steps):
            assert np.array_equal(r1.population.groups[0].pmf, r2.population.groups[0].pmf)
            assert r1.utility == r2.utility

    def test_invalid_initial_population_rejected(self):
        pop, out = single_group((0.6, 0.6), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        with pytest.raises(DomainError, match="pmf sum 1.2"):
            simulate(pop, lambda t, p: pol, out, INST, 3)

    def test_invalid_pre_step_population_rejected(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})

        def pre_step(t, p):
            if t < 2:
                return p
            return p.with_groups([p.groups[0].with_pmf([-0.5, 1.5])])

        with pytest.raises(DomainError, match="negative pmf entry"):
            simulate(pop, lambda t, p: pol, out, INST, 3, pre_step=pre_step)

    def test_validates_once_without_hooks(self, monkeypatch):
        pop, out = single_group((0.25, 0.25, 0.5), (0.2, 0.5, 0.9))
        pol = Policy.from_arrays({"a": np.array([0.1, 0.5, 0.9])})
        seen = []
        real = dynamics.validate_population
        monkeypatch.setattr(
            dynamics, "validate_population", lambda p: seen.append(p) or real(p)
        )
        simulate(pop, lambda t, p: pol, out, INST, 10)
        assert seen == [pop]

    def test_horizon_cap(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.zeros(2)})
        with pytest.raises(DomainError):
            simulate(pop, lambda t, p: pol, out, INST, 10**5 + 1)

    @pytest.mark.parametrize(
        "horizon", [2.5, "3", math.nan, math.inf, -math.inf, True, False, None]
    )
    def test_horizon_must_be_an_integer(self, horizon):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy({"a": np.zeros(2)})
        message = rf"^horizon must be an integer, got {re.escape(repr(horizon))}$"
        with pytest.raises(DomainError, match=message):
            simulate(pop, lambda t, p: pol, out, INST, horizon)
        with pytest.raises(DomainError, match=message):
            scenarios.run_scenario(replace(LENDING, horizon=horizon))
        with pytest.raises(DomainError, match=message):
            scenarios.sensitivity_sweep(replace(LENDING, horizon=horizon), 0.01, 2, 0)

    @pytest.mark.parametrize(
        "bad,at",
        [(None, 0), (None, 1), ("x", 0), (3, 0)],
        ids=["none_at_step_0", "none_at_step_1", "string", "int"],
    )
    def test_policy_fn_must_return_a_policy(self, bad, at):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy({"a": np.ones(2)})
        message = rf"^policy_fn gave {type(bad).__name__} at step {at}, not a Policy$"
        with pytest.raises(DomainError, match=message):
            simulate(pop, lambda t, p: bad if t == at else pol, out, INST, 3)

    def test_integral_float_horizon_counts(self):
        pop, out = single_group((0.25, 0.75), (0.3, 0.9))
        pol = Policy({"a": np.ones(2)})
        as_float = simulate(pop, lambda t, p: pol, out, INST, 3.0)
        as_int = simulate(pop, lambda t, p: pol, out, INST, np.int64(3))
        assert len(as_float) == len(as_int) == 4
        assert as_float.columns.states.tobytes() == as_int.columns.states.tobytes()


class TestIsStationary:
    def make_traj(self, horizon, tau):
        pop, out = single_group((0.2, 0.3, 0.5), (0.3, 0.5, 0.8))
        pol = Policy.from_arrays({"a": np.asarray(tau, dtype=float)})
        return simulate(pop, lambda t, p: pol, out, INST, horizon)

    def test_constant_trajectory(self):
        traj = self.make_traj(6, (0.0, 0.0, 0.0))
        assert is_stationary(traj, 3, 1e-12) is True

    def test_moving_trajectory(self):
        traj = self.make_traj(3, (1.0, 1.0, 1.0))
        assert is_stationary(traj, 2, 0.01) is False

    def test_absorbing_top_bin(self):
        pop, out = single_group((0.0, 0.0, 1.0), (1.0, 1.0, 1.0), 1, 0)
        pol = Policy.from_arrays({"a": np.ones(3)})
        traj = simulate(pop, lambda t, p: pol, out, INST, 4)
        assert is_stationary(traj, 3, 1e-12) is True

    def test_window_too_long(self):
        traj = self.make_traj(2, (0.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            is_stationary(traj, 5, 0.01)

    @pytest.mark.parametrize("window", [2.5, "3", True, False, None, math.nan])
    def test_window_must_be_an_integer(self, window):
        traj = self.make_traj(6, (0.0, 0.0, 0.0))
        message = f"window must be an integer, got {window!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            is_stationary(traj, window, 1e-12)

    def test_integral_float_window_counts(self):
        traj = self.make_traj(6, (0.0, 0.0, 0.0))
        assert is_stationary(traj, 3.0, 1e-12) is is_stationary(traj, 3, 1e-12)

    @pytest.mark.parametrize("eps", [True, "0.1", None])
    def test_eps_must_be_a_real_number(self, eps):
        traj = self.make_traj(6, (0.0, 0.0, 0.0))
        message = f"eps must be a real number, got {eps!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            is_stationary(traj, 2, eps)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_eps_not_positive(self, eps):
        # A NaN eps would make every ``tv >= eps`` false, so any trajectory
        # would read as stationary.
        traj = self.make_traj(6, (1.0, 1.0, 1.0))
        with pytest.raises(DomainError, match=f"eps {eps} must be positive"):
            is_stationary(traj, 3, eps)


class TestMonteCarlo:
    def test_accept_all_rate_exact(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        for seed in (0, 1, 2):
            rep = monte_carlo_validate(pop, pol, out, 500, seed)
            assert rep.acceptance["a"] == 1.0

    def test_reject_all_delta_exact(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.zeros(2)})
        rep = monte_carlo_validate(pop, pol, out, 500, 7)
        assert rep.delta_mu["a"] == 0.0

    def test_seed_reproducible(self):
        pop, out = single_group((0.3, 0.7), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.array([0.2, 0.8])})
        r1 = monte_carlo_validate(pop, pol, out, 10_000, 42)
        r2 = monte_carlo_validate(pop, pol, out, 10_000, 42)
        assert r1 == r2

    def test_agrees_with_exact_engine(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        rep = monte_carlo_validate(pop, pol, out, 200_000, 3)
        exact = group_delta_mu(pop.groups[0], pol, out, pop.grid)
        assert abs(rep.delta_mu["a"] - exact) <= 4 * rep.delta_mu_se["a"]

    @pytest.mark.parametrize("n", [1.5, "3", True, False, None, math.inf])
    def test_sample_count_must_be_an_integer(self, n):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        message = f"sample count n must be an integer, got {n!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            monte_carlo_validate(pop, pol, out, n, 1)

    def test_integral_float_sample_count_counts(self):
        pop, out = single_group((0.3, 0.7), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.array([0.2, 0.8])})
        rep = monte_carlo_validate(pop, pol, out, 500.0, 4)
        assert rep == monte_carlo_validate(pop, pol, out, 500, 4)
        assert type(rep.n) is int

    @pytest.mark.parametrize(
        "seed,message",
        [
            (-1, "seed must be >= 0, got -1"),
            (2.5, "seed must be an integer, got 2.5"),
            ("3", "seed must be an integer, got '3'"),
            (True, "seed must be an integer, got True"),
            (None, "seed must be an integer, got None"),
            (math.nan, "seed must be an integer, got nan"),
        ],
        ids=["negative", "fraction", "string", "bool", "none", "nan"],
    )
    def test_seed_must_be_a_nonnegative_integer(self, seed, message):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            monte_carlo_validate(pop, pol, out, 10, seed)

    def test_needs_samples(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        with pytest.raises(DomainError):
            monte_carlo_validate(pop, pol, out, 0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda pop, pol, out: acceptance_rate(pol, pop.groups[0]),
        lambda pop, pol, out: institution_utility(pol, pop, out, INST),
        lambda pop, pol, out: metric_report(pop, out, pol, "a", "a"),
        lambda pop, pol, out: group_delta_mu(pop.groups[0], pol, out, pop.grid),
        lambda pop, pol, out: step(pop, pol, out),
        lambda pop, pol, out: simulate(pop, lambda t, p: pol, out, INST, 3),
    ],
    ids=["acceptance_rate", "institution_utility", "metric_report",
         "group_delta_mu", "step", "simulate"],
)
def test_policy_of_wrong_length_is_a_dimension_error(call):
    pop, out = single_group((0.5, 0.5), (0.3, 0.9))
    pol = Policy.from_arrays({"a": [1.0]})
    with pytest.raises(DimensionError, match=r"group 'a': inconsistent lengths .*tau=1"):
        call(pop, pol, out)


def test_trajectory_rows_schema():
    pop, out = single_group((0.5, 0.5), (0.3, 0.9))
    pol = Policy.from_arrays({"a": np.ones(2)})
    traj = simulate(pop, lambda t, p: pol, out, INST, 2)
    rows = trajectory_rows(traj)
    assert len(rows) == 3
    assert rows[0]["step"] == 0 and rows[0]["group"] == "a"
    assert rows[0]["regime"] in {"improvement", "stagnation", "decline"}


class TestColumnarTrajectory:
    def run(self, horizon=6):
        pop, out = single_group((0.25, 0.25, 0.5), (0.2, 0.5, 0.9))
        pol = Policy.from_arrays({"a": np.array([0.1, 0.5, 0.9])})
        return pop, pol, simulate(pop, lambda t, p: pol, out, INST, horizon)

    def test_columns_are_read_only(self):
        _, _, traj = self.run()
        for name, value in vars(traj.columns).items():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, name
        with pytest.raises(ValueError):
            traj.steps[2].population.groups[0].pmf[0] = 1.0

    def test_step_populations_are_views_of_the_state_array(self):
        _, _, traj = self.run()
        for rec in traj.steps[1:]:
            pmf = rec.population.groups[0].pmf
            assert np.shares_memory(pmf, traj.columns.states)
            assert np.array_equal(pmf, traj.columns.states[rec.step, 0])

    def test_one_policy_object_and_one_set_of_products(self, monkeypatch):
        built = []

        class Counting(dynamics._PolicyTerms):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_PolicyTerms", Counting)
        _, pol, traj = self.run(horizon=9)
        assert built == [pol]
        assert all(rec.policy is pol for rec in traj.steps)

    def test_one_scatter_index_per_run(self, monkeypatch):
        # A quota decides a new policy object at every step; the run builds
        # its scatter index once for all of them, and a public ``step`` call
        # builds its own.
        built, terms = [], []
        scatter_index = dynamics._scatter_index

        def counting(*args):
            built.append(args)
            return scatter_index(*args)

        class Counting(dynamics._PolicyTerms):
            def __init__(self, *args, **kwargs):
                terms.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_scatter_index", counting)
        monkeypatch.setattr(dynamics, "_PolicyTerms", Counting)
        quota = scenarios.InterventionRule(
            "quota", "B", target_share=0.15, sunset=scenarios.SunsetRule(1e-6, 60)
        )
        traj = scenarios.run_scenario(
            replace(LENDING, horizon=50, interventions=(quota,))
        )
        assert len(terms) == len({id(pol) for pol in traj.columns.policies}) == 51
        assert len(built) == 1
        rec = traj.steps[3]
        step(rec.population, rec.policy, LENDING.outcome)
        assert len(built) == 2

    def test_only_the_last_policy_keeps_its_products(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        simulate(pop, lambda t, p: pol, out, INST, 2)
        gone = weakref.ref(pol)
        del pol
        other = Policy.from_arrays({"a": np.zeros(2)})
        simulate(pop, lambda t, p: other, out, INST, 2)
        gc.collect()
        assert gone() is None

    def test_each_transition_is_one_call_of_step(self, monkeypatch):
        seen = []

        def counting(pop, policy, outcome, **kwargs):
            seen.append(pop)
            return step(pop, policy, outcome, **kwargs)

        monkeypatch.setattr(dynamics, "step", counting)
        _, _, traj = self.run(horizon=5)
        assert len(seen) == 5
        for pop, rec in zip(seen, traj.steps):
            assert np.array_equal(pop.groups[0].pmf, rec.population.groups[0].pmf)

    @staticmethod
    def assert_records_without_columns(other, kept):
        assert other.steps is kept
        assert len(other) == len(kept) and other.final() is kept[-1]
        with pytest.raises(DomainError, match="only a trajectory that simulate"):
            other.columns
        with pytest.raises(DomainError, match="only a trajectory that simulate"):
            trajectory_rows(other)

    def test_trajectory_from_records_has_steps_but_no_columns(self):
        _, _, traj = self.run(horizon=4)
        steps = tuple(traj.steps)
        self.assert_records_without_columns(dynamics.Trajectory(steps), steps)

    def test_replaced_steps_keep_steps_but_no_columns(self):
        _, _, traj = self.run(horizon=4)
        first = tuple(traj.steps)[:2]
        self.assert_records_without_columns(replace(traj, steps=first), first)

    def test_rows_read_only_the_columns(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.ones(3), "b": np.full(3, 0.5)})
        traj = simulate(pop, lambda t, p: pol, out, INST, 3)
        bare = replace(traj.columns, states=None, policies=None)
        rows = trajectory_rows(dynamics.Trajectory(dynamics._StepViews(bare)))
        assert repr(rows) == repr(trajectory_rows(traj))

    def test_steps_index_and_slice(self):
        _, _, traj = self.run(horizon=4)
        assert len(traj.steps) == 5
        assert traj.steps[-1].step == 4 == traj.final().step
        assert [rec.step for rec in traj.steps[::2]] == [0, 2, 4]
        assert isinstance(traj.steps[1:], tuple)
        with pytest.raises(IndexError):
            traj.steps[5]

    def test_flags_must_keep_their_number(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        with pytest.raises(DomainError, match="flags_fn gave 2 flags at step 1"):
            simulate(
                pop, lambda t, p: pol, out, INST, 3,
                flags_fn=lambda t: (True,) * (t + 1),
            )

    def test_pre_step_may_return_an_equal_grid_object(self):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))
        pol = Policy.from_arrays({"a": np.ones(2)})
        other = make_population(make_grid(2, width=100.0), {"a": (0.5, 0.5)}, {"a": 1.0})
        assert other.grid is not pop.grid
        traj = simulate(pop, lambda t, p: pol, out, INST, 2, pre_step=lambda t, p: other)
        assert np.array_equal(traj.columns.states[2], [[0.5, 0.5]])

    def test_pre_step_must_keep_grid_values_and_group_order(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.ones(3), "b": np.ones(3)})
        wider = Population(ScoreGrid(pop.grid.bin_scores * 2, 200.0), pop.groups)
        swapped = pop.with_groups(pop.groups[::-1])
        for other in (wider, swapped):
            with pytest.raises(DomainError, match="equal grid and the same groups"):
                simulate(
                    pop, lambda t, p: pol, out, INST, 2, pre_step=lambda t, p: other
                )

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_bad_regime_tolerance_raises_before_the_first_step(self, tol):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))

        def policy_fn(t, p):
            raise AssertionError("policy_fn called")

        with pytest.raises(DomainError, match="regime tolerance"):
            simulate(pop, policy_fn, out, INST, 3, regime_tol=tol)

    @pytest.mark.parametrize("tol", [True, "1e-6", None])
    def test_regime_tolerance_must_be_a_real_number(self, tol):
        pop, out = single_group((0.5, 0.5), (0.3, 0.9))

        def policy_fn(t, p):
            raise AssertionError("policy_fn called")

        message = f"regime_tol must be a real number, got {tol!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            simulate(pop, policy_fn, out, INST, 3, regime_tol=tol)

    def test_non_finite_score_change_raises_after_the_loop(self):
        # A NaN acceptance entry cannot reach the loop: the policy rejects it.
        with pytest.raises(DomainError, match="group 'a': acceptance entries"):
            Policy({"a": np.array([math.nan, 1.0])})
        # Two bins up at a width of 1e308 overflows the score change itself.
        pop, out = single_group((0.5, 0.5), (0.3, 0.9), steps_up=2, width=1e308)
        pol = Policy({"a": np.ones(2)})
        calls = []

        def policy_fn(t, p):
            calls.append(t)
            return pol

        with pytest.raises(DomainError, match="delta mu inf is not finite"):
            simulate(pop, policy_fn, out, INST, 5)
        # The one finiteness check reads the finished delta_mu column.
        assert calls == [0, 1, 2, 3, 4, 5]

    def test_finite_score_change_whose_delta_mu_overflows(self):
        # The score change is DBL_MAX, finite, but a valid pmf whose mass
        # is 1 + 1e-12 makes the expected change overflow: only the check
        # on the finished delta_mu column sees it, and numpy does not warn.
        big = sys.float_info.max
        grid = ScoreGrid((0.0, big), big)
        pop = Population(grid, (GroupState("a", 1.0, (0.5, 0.5 + 1e-12)),))
        assert validate_population(pop).ok
        out = OutcomeModel({"a": (1.0, 1.0)}, steps_up=1, steps_down=0)
        assert np.isfinite(out.score_change("a", grid)).all()
        pol = Policy({"a": np.ones(2)})
        with pytest.raises(
            DomainError, match=r"^delta mu inf is not finite at step 0, group 'a'$"
        ):
            simulate(pop, lambda t, p: pol, out, INST, 3)

    def test_utility_that_overflows_raises_naming_its_step(self):
        # A valid institution whose success utility is DBL_MAX, on a valid
        # pmf whose mass is 1 + 1e-12: delta_mu stays finite and every
        # step's utility overflows.
        pop, out = single_group((0.5, 0.5 + 1e-12), (1.0, 1.0), steps_down=0)
        inst = InstitutionModel(sys.float_info.max, -1.0)
        pol = Policy({"a": np.ones(2)})
        with pytest.raises(DomainError, match=r"^utility inf is not finite at step 0$"):
            simulate(pop, lambda t, p: pol, out, inst, 2)

    def test_mean_score_that_overflows_raises_naming_its_step_and_group(self):
        # Scores one unit in the last place apart at DBL_MAX: a valid pmf
        # whose mass is 1 + 1e-12 has a mean score above DBL_MAX, while
        # nothing moves and delta_mu and utility stay finite.
        big = sys.float_info.max
        low = float(np.nextafter(big, 0.0))
        grid = ScoreGrid((low, big), big - low)
        pop = Population(
            grid,
            (GroupState("a", 0.5, (0.5, 0.5)), GroupState("b", 0.5, (0.5, 0.5 + 1e-12))),
        )
        assert validate_population(pop).ok
        out = OutcomeModel({"a": (0.5, 0.5), "b": (0.5, 0.5)}, 0, 0)
        pol = Policy({"a": np.ones(2), "b": np.ones(2)})
        with pytest.raises(
            DomainError, match=r"^mean score inf is not finite at step 0, group 'b'$"
        ):
            simulate(pop, lambda t, p: pol, out, INST, 2)


def _same(a, b):
    """Bit-identical floats, NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


@st.composite
def runs(draw):
    """A random scenario: 1-3 groups, 2-60 bins, shifts of 0, small and at
    least n - 1, each policy rule and any set of interventions, in any
    order: at most one quota and one pipeline, and up to three role-model
    feedbacks, on the same or different groups."""
    groups = draw(st.integers(1, 3))
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [f"g{i}" for i in range(groups)]
    pmfs, rho = {}, {}
    for gid in ids:
        raw = rng.random(n) * (rng.random(n) < 0.8)
        raw[rng.integers(n)] += 0.1
        pmfs[gid] = raw / raw.sum()
        r = np.where(rng.random(n) < 0.1, rng.integers(0, 2, n), rng.random(n))
        if draw(st.booleans()) and draw(st.booleans()):
            r = np.zeros(n) if draw(st.booleans()) else np.ones(n)
        rho[gid] = np.sort(r)
    shares = rng.random(groups) + 0.05
    shares /= shares.sum()
    shift = st.sampled_from([0, 1, 2, n - 1, n, n + 3])
    kinds = ["fixed", "max_utility", "outcome_optimal"]
    if groups == 2:
        kinds.append("constrained")
    kind = draw(st.sampled_from(kinds))
    rule = scenarios.PolicyRuleSpec(kind)
    if kind == "fixed":
        tau = {
            gid: np.clip(rng.random(n) * 1.4 - 0.2, 0.0, 1.0) for gid in ids
        }
        rule = scenarios.PolicyRuleSpec(kind, tau=tau)
    elif kind == "constrained":
        rule = scenarios.PolicyRuleSpec(
            kind, constraint=draw(st.sampled_from(["dp", "eo"]))
        )
    elif kind == "outcome_optimal":
        rule = scenarios.PolicyRuleSpec(
            kind, target_group=draw(st.sampled_from(ids))
        )
    IR = scenarios.InterventionRule
    options = [
        IR("quota", draw(st.sampled_from(ids)),
           active_from=draw(st.integers(0, 3)),
           target_share=draw(st.floats(0.0, 0.9)),
           sunset=scenarios.SunsetRule(draw(st.floats(0.0, 0.1)),
                                       draw(st.integers(1, 4)))),
        IR("pipeline_investment", draw(st.sampled_from(ids)),
           active_from=draw(st.integers(0, 3)),
           shift_fraction=draw(st.floats(0.0, 1.0))),
    ]
    interventions = [iv for iv in options if draw(st.booleans())]
    interventions += [
        IR("role_model_feedback", draw(st.sampled_from(ids)),
           active_from=draw(st.integers(0, 3)),
           strength=draw(st.floats(0.0, 1.0)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    interventions = tuple(draw(st.permutations(interventions)))
    grid = ScoreGrid(tuple(300.0 + 10.0 * i for i in range(n)), 10.0)
    pop = Population(
        grid,
        tuple(GroupState(gid, float(p), pmfs[gid]) for gid, p in zip(ids, shares)),
    )
    return scenarios.ScenarioConfig(
        name="random",
        declared_goal=scenarios.DeclaredGoal("any", "delta_mu", 1e-6, ids[0]),
        population=pop,
        outcome=OutcomeModel(rho, draw(shift), draw(shift)),
        institution=InstitutionModel(1.0, -draw(st.floats(0.1, 4.0))),
        policy_rule=rule,
        interventions=interventions,
        horizon=draw(st.integers(0, 25)),
        tolerances=scenarios.Tolerances(regime=draw(st.sampled_from([1e-9, 1e-3]))),
        seed=0,
        resolution=0.1,
        metric_groups=(ids[0], ids[-1]),
    )


def _hooked(run, cfg):
    """``run`` (a ``simulate``) on ``cfg``'s scenario with an engine of its
    own, whose interventions the oracle's ``intervention_hook`` applies, or
    the exception it raised."""
    engine = scenarios._ScenarioEngine(cfg, cfg.interventions)
    hooks = bool(cfg.interventions)

    def policy_fn(t, pop):
        groups = pop.groups
        return engine.decide(t, [g.pmf for g in groups], [g.proportion for g in groups])

    try:
        return run(
            cfg.population, policy_fn, cfg.outcome, cfg.institution,
            cfg.horizon, regime_tol=cfg.tolerances.regime,
            metric_pair=cfg.metric_groups,
            pre_step=dynamics_oracle.intervention_hook(engine) if hooks else None,
            flags_fn=engine.flags_fn if hooks else None,
        )
    except (DomainError, scenarios.InfeasibilityError) as exc:
        return exc


def _both(cfg):
    """``run_scenario``'s run of ``cfg``, with the engine's in-place row
    hook, and the oracle's records of it; or the exception each raised."""
    try:
        traj = scenarios.run_scenario(cfg)
    except (DomainError, scenarios.InfeasibilityError) as exc:
        traj = exc
    return traj, _hooked(dynamics_oracle.simulate, cfg)


def _assert_same_run(traj, records):
    """The library's run equals the oracle's records bit for bit: every
    column of every group, every step view and every CSV row's mean score
    and acceptance rate."""
    c = traj.columns
    assert len(traj) == len(records)
    ids = c.group_ids
    rows = trajectory_rows(traj)
    names = ("mean_score", "acceptance", "tpr", "fpr")
    for name in names:
        assert getattr(c, name).shape == (len(traj), len(ids)), name
    for t, rec in enumerate(records):
        for i, gid in enumerate(ids):
            for name in names:
                assert _same(getattr(c, name)[t, i], rec[name][gid])
    for t, (view, rec) in enumerate(zip(traj.steps, records)):
        assert np.array_equal(c.states[t], np.array(rec["pmfs"]))
        assert c.proportions[t].tolist() == rec["proportions"]
        assert c.utility[t] == view.utility == rec["utility"]
        for name in ("dp_gap", "eo_gap", "eodds_gap"):
            assert _same(getattr(c, name)[t], rec[name])
            if view.metrics is not None:
                assert _same(getattr(view.metrics, name), rec[name])
        assert view.intervention_active == tuple(rec["flags"])
        for i, gid in enumerate(ids):
            assert np.array_equal(view.population.groups[i].pmf, rec["pmfs"][i])
            assert view.population.groups[i].proportion == rec["proportions"][i]
            assert np.array_equal(view.policy.tau(gid), rec["policy"].tau(gid))
            assert _same(c.delta_mu[t, i], rec["delta_mu"][gid])
            row = rows[t * len(ids) + i]
            assert _same(row["acceptance_rate"], rec["acceptance"][gid])
            assert _same(row["mean_score"], rec["mean_score"][gid])
            assert view.delta_mu[gid] == rec["delta_mu"][gid]
            assert view.regime[gid].value == rec["regime"][gid]
        if view.metrics is not None:
            for name in ("acceptance", "tpr", "fpr"):
                for gid, value in getattr(view.metrics, name).items():
                    assert _same(value, rec[name][gid])


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(cfg=runs())
    def test_records_bit_identical(self, cfg):
        # The scenario's row path, and the public ``pre_step`` path with the
        # oracle's hook, against the oracle.
        traj, records = _both(cfg)
        for run in (traj, _hooked(simulate, cfg)):
            if isinstance(records, Exception):
                assert type(run) is type(records) and str(run) == str(records)
                continue
            assert len(run) == cfg.horizon + 1
            assert run.columns.metric_pair == cfg.metric_groups
            _assert_same_run(run, records)

    @pytest.mark.parametrize(
        "iv",
        [
            scenarios.InterventionRule("pipeline_investment", "B", shift_fraction=1.5),
            scenarios.InterventionRule(
                "pipeline_investment", "B", active_from=2, shift_fraction=math.nan
            ),
            scenarios.InterventionRule("role_model_feedback", "B", strength=-100.0),
            scenarios.InterventionRule("role_model_feedback", "B", strength=math.inf),
            scenarios.InterventionRule(
                "role_model_feedback", "B", active_from=3, strength=-100.0
            ),
        ],
        ids=[
            "shift_above_one", "shift_nan", "strength_negative", "strength_inf",
            "strength_negative_from_step_3",
        ],
    )
    def test_invalid_intervention_raises_as_the_oracle(self, iv):
        # The config's check rejects these values when it is built, as the
        # loader does; an engine of a config that skipped it must still fail
        # in its in-place hook, or in the role-model pass after the loop, as
        # a checked population does, and at the same step.
        with pytest.raises(
            DomainError, match=r"^interventions\[0\]\.(shift_fraction|strength) out of"
        ):
            replace(LENDING, interventions=(iv,))
        horizon = 8 if iv.active_from == 3 else LENDING.horizon
        cfg = unchecked_config(LENDING, interventions=(iv,), horizon=horizon)
        traj, records = _both(cfg)
        assert type(traj) is type(records) is DomainError
        assert str(traj) == str(records)
        assert str(traj).startswith("invalid population: group ")
        assert "group 'B': " in str(traj)
        if iv.active_from == 3:
            # A run that ends before the feedback starts does not fail.
            short = unchecked_config(cfg, horizon=2)
            assert not isinstance(_both(short)[0], Exception)

    def test_broken_shift_wins_over_a_later_infeasible_quota(self, monkeypatch):
        # The shifted rows are checked once per run. A run whose loop a later
        # step fails still raises the error of the first row that the shift
        # broke, as the oracle's check at every step does: here the shift
        # breaks step 0, and the quota becomes infeasible at step 2.
        quota = scenarios.InterventionRule(
            "quota", "B", target_share=0.9, active_from=2,
            sunset=scenarios.SunsetRule(1e-6, 5),
        )
        shift = scenarios.InterventionRule("pipeline_investment", "B", shift_fraction=1.5)
        cfg = unchecked_config(LENDING, interventions=(shift, quota))
        traj, records = _both(cfg)
        assert type(traj) is type(records) is DomainError
        assert str(traj) == str(records)
        assert str(traj) == "invalid population: group 'B': negative pmf entry -0.125"
        with pytest.raises(DomainError) as info:
            scenarios.sensitivity_sweep(cfg, 0.01, 3, seed=5)
        assert str(info.value) == (
            "sweep draw 0: invalid population: group 'B': negative pmf entry -0.124"
        )
        # Without the check the loop meets the quota's error.
        monkeypatch.setattr(scenarios._ScenarioEngine, "check_shifts", lambda *a: None)
        with pytest.raises(scenarios.InfeasibilityError, match=r"^step 2: quota share"):
            scenarios.run_scenario(cfg)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        groups=st.integers(1, 3),
        n=st.integers(2, 30),
        scale=st.sampled_from([1.0, 1 + 5e-10, 1 + 1e-9, 1 - 1e-9, 1 + 2e-9, 1 - 2e-9]),
        entry=st.sampled_from([None, math.nan, -1e-12, math.inf, 0.0]),
        proportion=st.sampled_from([None, math.nan, -0.1, 1.2, 0.5]),
    )
    def test_hook_check_accepts_what_validate_population_accepts(
        self, seed, groups, n, scale, entry, proportion
    ):
        rng = np.random.default_rng(seed)
        pmfs = rng.random((groups, n))
        pmfs /= pmfs.sum(axis=1, keepdims=True)
        grid = make_grid(n)
        pop = make_population(grid, {f"g{i}": row for i, row in enumerate(pmfs)})
        bad = pmfs * scale
        if entry is not None:
            bad[rng.integers(groups), rng.integers(n)] = entry
        shares = [g.proportion for g in pop.groups]
        if proportion is not None:
            shares[int(rng.integers(groups))] = proportion
        hooked = pop.with_groups(
            GroupState(g.group_id, p, row)
            for g, p, row in zip(pop.groups, shares, bad)
        )
        out = OutcomeModel({g.group_id: np.full(n, 0.5) for g in pop.groups}, 1, 1)
        pol = Policy.from_arrays({g.group_id: np.ones(n) for g in pop.groups})
        try:
            simulate(pop, lambda t, p: pol, out, INST, 1,
                     pre_step=lambda t, p: hooked if t == 1 else p)
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == validate_population(hooked).ok


def _quota_config(seed, kind):
    """A 200-bin, two-group scenario with a reachable quota on B and a
    pipeline for B under ``kind``'s rule: A's mass lies high and B's low,
    with exact zeros inside and at A's bottom and B's top bin, sorted
    success vectors, shifts of 1-5 bins and a sunset window of 2-8 steps."""
    rng = np.random.default_rng([seed, 200])
    n = 200
    x = np.linspace(0.0, 1.0, n)
    pmfs = {}
    for gid, weight in (("A", x**2), ("B", (1.0 - x) ** 2)):
        raw = rng.random(n) * (rng.random(n) < 0.8) * weight
        raw[rng.integers(1, n - 1)] += 0.1
        pmfs[gid] = raw / raw.sum()
    p_a = float(rng.uniform(0.3, 0.7))
    rule = scenarios.PolicyRuleSpec(kind)
    if kind == "constrained":
        rule = scenarios.PolicyRuleSpec(kind, constraint="eo")
    elif kind == "outcome_optimal":
        rule = scenarios.PolicyRuleSpec(kind, target_group="A")
    IR = scenarios.InterventionRule
    interventions = (
        IR("quota", "B", active_from=int(rng.integers(0, 3)),
           target_share=float(rng.uniform(0.8, 0.95) * (1.0 - p_a)),
           sunset=scenarios.SunsetRule(1e-6, int(rng.integers(2, 40)))),
        IR("pipeline_investment", "B", shift_fraction=float(rng.uniform(0.02, 0.1))),
    )
    grid = ScoreGrid(tuple(300.0 + 10.0 * i for i in range(n)), 10.0)
    pop = Population(
        grid, (GroupState("A", p_a, pmfs["A"]), GroupState("B", 1.0 - p_a, pmfs["B"]))
    )
    rho = {gid: np.sort(rng.random(n)) for gid in ("A", "B")}
    return scenarios.ScenarioConfig(
        name="quota200",
        declared_goal=scenarios.DeclaredGoal("any", "dp_gap", 0.05),
        population=pop,
        outcome=OutcomeModel(rho, int(rng.integers(1, 6)), int(rng.integers(1, 6))),
        institution=InstitutionModel(1.0, -float(rng.uniform(1.0, 4.0))),
        policy_rule=rule,
        interventions=interventions,
        horizon=60,
        tolerances=scenarios.Tolerances(regime=1e-9),
        seed=0,
        resolution=0.05,
        metric_groups=("A", "B"),
    )


class TestQuotaAgainstOracle:
    """Quota runs against the oracle's own quota rule, which decides every
    step from population objects with a bin-by-bin threshold scan, apart
    from the scenario engine, so a wrongly enforced row or a wrong streak or
    sunset fails here."""

    @staticmethod
    def oracle(cfg):
        rule = dynamics_oracle.QuotaRule(cfg)
        records = dynamics_oracle.simulate(
            cfg.population, rule.policy_fn, cfg.outcome, cfg.institution,
            cfg.horizon, regime_tol=cfg.tolerances.regime,
            metric_pair=cfg.metric_groups,
            pre_step=dynamics_oracle.intervention_hook(rule),
            flags_fn=rule.flags_fn,
        )
        return rule, records

    @pytest.mark.parametrize("variant", ["quota_only", "quota_pipeline"])
    def test_boards_quota_variants(self, variant):
        cfg = replace(BOARDS, interventions=BOARDS.variants[variant])
        rule, records = self.oracle(cfg)
        # The quota binds, and its sunset ends it within the run.
        assert rule.enforced > 0 and rule.ended[0]
        assert not records[-1]["flags"][0]
        _assert_same_run(scenarios.run_scenario(cfg), records)

    @pytest.mark.parametrize("kind", ["max_utility", "constrained", "outcome_optimal"])
    @pytest.mark.parametrize("seed", range(6))
    def test_quota_pipeline_runs_on_200_bins(self, seed, kind):
        cfg = _quota_config(seed, kind)
        rule, records = self.oracle(cfg)
        assert rule.enforced > 0 and rule.ended[0]
        _assert_same_run(scenarios.run_scenario(cfg), records)


class TestScatterIndex:
    """``_scatter_index`` against a per-row construction, for shifts of 0,
    within the grid and of at least its length."""

    @pytest.mark.parametrize("up", [0, 1, 2, 5, 9])
    @pytest.mark.parametrize("down", [0, 1, 2, 5, 9])
    def test_against_a_naive_construction(self, up, down):
        for bins in (1, 2, 5):
            out = OutcomeModel({"a": np.full(bins, 0.5)}, up, down)
            for rows in (1, 2, 3):
                naive = []
                for r in range(rows):
                    naive += [r * bins + min(j + up, bins - 1) for j in range(bins)]
                    naive += [r * bins + max(j - down, 0) for j in range(bins)]
                index = dynamics._scatter_index(rows, bins, out)
                assert index.dtype.kind == "i" and index.ndim == 1
                assert index.tolist() == naive


class TestKernelAgainstOracle:
    """The step kernel against the oracle's per-group ``np.add.at`` step,
    byte for byte: shifts of 0, within the grid and of at least its length,
    and pmfs, acceptance and success vectors with exact zeros."""

    @staticmethod
    def rows(rng, rows, n):
        """``rows`` pmfs, acceptance and success vectors over ``n`` bins,
        about a third of their entries exactly 0 and some exactly 1."""

        def zeroed():
            v = rng.random((rows, n)) * (rng.random((rows, n)) >= 0.3)
            v[rng.random((rows, n)) < 0.1] = 1.0
            return v

        pmfs = zeroed()
        pmfs[np.arange(rows), rng.integers(n, size=rows)] += 1.0
        pmfs /= pmfs.sum(axis=1, keepdims=True)
        return pmfs, zeroed(), zeroed()

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        groups=st.integers(1, 3),
        n=st.integers(2, 60),
        up=st.integers(0, 5),
        down=st.integers(0, 5),
    )
    def test_step_and_a_stacked_block(self, seed, groups, n, up, down):
        rng = np.random.default_rng(seed)
        shifts = (0, 1, 2, n - 1, n, n + 3)
        up, down = shifts[up], shifts[down]
        grid = make_grid(n)
        # The public step over a population of ``groups`` groups.
        ids = [f"g{i}" for i in range(groups)]
        pmfs, tau, rho = self.rows(rng, groups, n)
        pop = make_population(grid, dict(zip(ids, pmfs)))
        pol = Policy.from_arrays(dict(zip(ids, tau)))
        out = OutcomeModel(dict(zip(ids, rho)), up, down)
        new, ref = step(pop, pol, out), dynamics_oracle.step(pop, pol, out)
        for g, h in zip(new.groups, ref.groups):
            assert g.pmf.tobytes() == h.pmf.tobytes()
        # One kernel call over a block of 64 rows, each row with a policy and
        # success vector of its own.
        pmfs, tau, rho = self.rows(rng, 64, n)
        pols = tuple(Policy.from_arrays({"a": row}) for row in tau)
        rf = np.stack((rho, 1.0 - rho), axis=1)
        out = OutcomeModel({"a": rho[0]}, up, down)
        terms = dynamics._PolicyTerms(
            pols, ("a",), pmfs, rf, dynamics._scatter_index(64, n, out)
        )
        block = np.empty_like(pmfs)
        dynamics._advance(terms, pmfs, block)
        for pmf, pol, r, row in zip(pmfs, pols, rho, block):
            one = make_population(grid, {"a": pmf})
            ref = dynamics_oracle.step(one, pol, OutcomeModel({"a": r}, up, down))
            assert row.tobytes() == ref.groups[0].pmf.tobytes()


@st.composite
def direct_runs(draw):
    """``simulate`` arguments without hooks: 1-3 groups, a horizon that ends
    before, on or after a multiple of the reduction block, success
    probabilities that may leave a group no qualified or no unqualified
    mass, any metric pair, and a policy that is one object, alternates
    between two or is new at every step."""
    groups = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [f"g{i}" for i in range(groups)]
    block = dynamics._BLOCK
    horizon = draw(st.sampled_from(
        [0, 1, block - 2, block - 1, block, 2 * block - 1, 2 * block]
    ))
    pmfs = rng.random((groups, n)) * (rng.random((groups, n)) < 0.8) + 1e-3
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    shares = rng.random(groups) + 0.05
    shares /= shares.sum()
    pop = Population(
        make_grid(n),
        tuple(GroupState(gid, float(p), row) for gid, p, row in zip(ids, shares, pmfs)),
    )
    rho = {
        gid: draw(st.sampled_from(
            [rng.random(n), np.zeros(n), np.ones(n), np.sort(rng.random(n))]
        ))
        for gid in ids
    }
    shift = st.sampled_from([0, 1, 2, n])
    out = OutcomeModel(rho, draw(shift), draw(shift))
    inst = InstitutionModel(1.0, -draw(st.floats(0.1, 4.0)))
    policies = [
        Policy.from_arrays({gid: rng.random(n) * (rng.random(n) < 0.7) for gid in ids})
        for _ in range(horizon + 1)
    ]
    pick = draw(st.sampled_from([
        lambda t: 0,  # one policy object
        lambda t: t % 2,  # two objects, alternating
        lambda t: t,  # a new object at every step
    ]))
    pair = draw(st.sampled_from([None, (ids[-1], ids[0]), (ids[0], ids[0])]))
    return (pop, lambda t, p: policies[pick(t)], out, inst, horizon), {
        "regime_tol": draw(st.sampled_from([1e-9, 1e-3])),
        "metric_pair": pair,
    }


class TestBatchedColumns:
    """The per-step columns come from one reduction pass after the loop, in
    blocks of ``dynamics._BLOCK`` steps; they must equal the per-step
    oracle bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(run=direct_runs())
    def test_bit_identical_to_the_oracle(self, run):
        args, kwargs = run
        traj = simulate(*args, **kwargs)
        pair = kwargs["metric_pair"]
        if pair is None and len(args[0].groups) >= 2:
            pair = args[0].group_ids[:2]
        assert traj.columns.metric_pair == pair
        _assert_same_run(traj, dynamics_oracle.simulate(*args, **kwargs))

    def test_quota_that_sunsets_mid_run(self):
        block = dynamics._BLOCK
        window = block + 3
        quota = scenarios.InterventionRule(
            "quota", "B", target_share=0.15, sunset=scenarios.SunsetRule(1e-6, window)
        )
        cfg = replace(LENDING, horizon=2 * block + 5, interventions=(quota,))
        traj, records = _both(cfg)
        c = traj.columns
        after = len(traj) - window
        assert c.flags[:, 0].tolist() == [True] * window + [False] * after
        # A new policy object at every step of the quota, then one.
        assert len({id(pol) for pol in c.policies[:window]}) == window
        assert len({id(pol) for pol in c.policies[window:]}) == 1
        _assert_same_run(traj, records)

    def test_zero_qualified_mass_gives_nan_tpr(self):
        pop, _ = two_groups()
        out = OutcomeModel({"a": np.zeros(3), "b": (0.1, 0.4, 0.8)}, 1, 1)
        pol = Policy.from_arrays({"a": np.ones(3), "b": np.full(3, 0.5)})
        args = (pop, lambda t, p: pol, out, INST, 3)
        traj = simulate(*args)
        c = traj.columns
        assert np.isnan(c.tpr[:, 0]).all() and np.isnan(c.eo_gap).all()
        assert not np.isnan(c.tpr[:, 1]).any() and not np.isnan(c.fpr).any()
        _assert_same_run(traj, dynamics_oracle.simulate(*args))

    def test_out_of_range_policy_is_rejected_before_simulate(self):
        # In a run such a policy keeps each group's mass summing to 1 while
        # the state's entries grow without bound, so it fails where it is
        # built, naming the group.
        for tau in ([10.0, 10.0], [-0.1, 1.0], [1.0, math.nan], [math.inf, 0.0]):
            with pytest.raises(DomainError, match="group 'a': acceptance entries"):
                Policy({"b": [0.5, 0.5], "a": tau})
            with pytest.raises(DomainError, match="group 'a': acceptance entries"):
                Policy.from_arrays({"a": np.array(tau)})

    def test_peak_memory_does_not_grow_with_the_horizon(self):
        # Each step has a new policy, so a run that kept products per policy
        # would hold about six times the state array on top of it.
        n, horizon = 200, 2000
        rng = np.random.default_rng(11)
        pmfs = rng.random((2, n))
        pmfs /= pmfs.sum(axis=1, keepdims=True)
        pop = make_population(make_grid(n), {"a": pmfs[0], "b": pmfs[1]})
        out = OutcomeModel({"a": rng.random(n), "b": rng.random(n)}, 1, 2)
        policies = [
            Policy.from_arrays({"a": rng.random(n), "b": rng.random(n)})
            for _ in range(horizon + 1)
        ]
        tracemalloc.start()
        try:
            traj = simulate(pop, lambda t, p: policies[t], out, INST, horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < traj.columns.states.nbytes + 2 * 2**20


class TestHandedOutPopulations:
    """``step`` writes each state into the run's state array and the hooks
    edit its rows in place, yet no population handed out changes later."""

    @staticmethod
    def kept(pop):
        return pop, [(g.pmf.copy(), g.proportion) for g in pop.groups]

    @staticmethod
    def assert_unchanged(kept):
        assert kept
        for pop, values in kept:
            for g, (pmf, proportion) in zip(pop.groups, values):
                assert np.array_equal(g.pmf, pmf) and g.proportion == proportion

    def test_public_pre_step_and_policy_fn_inputs(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.full(3, 0.5), "b": np.ones(3)})
        pre, seen = [], []

        def pre_step(t, p):
            pre.append(self.kept(p))
            a, b = p.groups
            shares = (0.4, 0.6) if t % 2 else (0.6, 0.4)
            return p.with_groups([
                GroupState("a", shares[0], np.roll(a.pmf, 1)),
                GroupState("b", shares[1], b.pmf),
            ])

        def policy_fn(t, p):
            seen.append(self.kept(p))
            return pol

        traj = simulate(pop, policy_fn, out, INST, 6, pre_step=pre_step)
        assert len(pre) == len(seen) == 7
        self.assert_unchanged(pre)
        self.assert_unchanged(seen)
        assert pre[0][0] is pop
        # The hook's populations, not the inputs, are the run's states.
        assert traj.columns.proportions[1].tolist() == [0.4, 0.6]
        assert not np.array_equal(pre[1][1][0][0], traj.columns.states[1, 0])

    def test_populations_policy_fn_gets_in_a_run(self):
        # Without hooks, every population after step 0 is a view the loop
        # builds over a row of the state array that ``step`` writes.
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.full(3, 0.5), "b": np.ones(3)})
        seen = []

        def policy_fn(t, p):
            seen.append(self.kept(p))
            return pol

        simulate(pop, policy_fn, out, INST, 6)
        assert len(seen) == 7
        self.assert_unchanged(seen)

    def test_step_without_out_returns_a_fresh_array(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.full(3, 0.5), "b": np.ones(3)})
        first, second = step(pop, pol, out), step(pop, pol, out)
        for g, h, orig in zip(first.groups, second.groups, pop.groups):
            assert np.array_equal(g.pmf, h.pmf)
            assert not np.shares_memory(g.pmf, h.pmf)
            assert not np.shares_memory(g.pmf, orig.pmf)
            assert not g.pmf.flags.writeable

    def test_step_into_out_writes_the_row(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.full(3, 0.5), "b": np.ones(3)})
        fresh = step(pop, pol, out)
        # ``out`` of either memory layout.
        for row in (np.zeros((2, 3)), np.zeros((2, 3), order="F")):
            into = step(pop, pol, out, out=row)
            for i, (g, h) in enumerate(zip(into.groups, fresh.groups)):
                assert np.array_equal(g.pmf, h.pmf) and np.shares_memory(g.pmf, row)
                assert np.array_equal(row[i], h.pmf)

    def test_engine_edits_never_reach_the_initial_population(self):
        cfg = LENDING
        before = self.kept(cfg.population)
        ivs = (
            scenarios.InterventionRule("pipeline_investment", "B", shift_fraction=0.3),
            scenarios.InterventionRule("role_model_feedback", "B", strength=0.5),
        )
        traj = scenarios.run_scenario(cfg, ivs)
        self.assert_unchanged([before])
        first = traj.steps[0].population
        assert first is not cfg.population
        assert not np.array_equal(first.group("B").pmf, cfg.population.group("B").pmf)


class TestViewsPerRun:
    """A scenario's engine decides from the step's rows and ``step`` returns
    nothing in a run, so a scenario run builds no population per step; a
    user's ``policy_fn`` gets one view per step, built after its
    ``pre_step``."""

    @staticmethod
    def counting(monkeypatch):
        views = []
        real = dynamics._population_view
        monkeypatch.setattr(
            dynamics, "_population_view", lambda *a: views.append(a) or real(*a)
        )
        return views

    def test_scenario_run_builds_a_view_only_when_a_hook_edits_row_0(
        self, monkeypatch
    ):
        views = self.counting(monkeypatch)
        iv = scenarios.InterventionRule("role_model_feedback", "B", strength=0.5)
        traj = scenarios.run_scenario(replace(LENDING, horizon=50), (iv,))
        # Every step rescales the proportions, after the loop: no hook runs.
        assert np.all(np.diff(traj.columns.proportions[:, 0]) != 0)
        assert views == []
        # A pipeline's hook edits row 0: one view, the initial population.
        iv = scenarios.InterventionRule("pipeline_investment", "B", shift_fraction=0.1)
        scenarios.run_scenario(replace(LENDING, horizon=50), (iv,))
        assert len(views) == 1

    def test_user_run_builds_one_view_per_transition(self, monkeypatch):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.full(3, 0.5), "b": np.ones(3)})
        views = self.counting(monkeypatch)
        simulate(pop, lambda t, p: pol, out, INST, 50)
        assert len(views) == 50

    @pytest.mark.parametrize("rescale", [False, True])
    def test_pre_step_run_builds_one_view_per_step_after_the_hook(
        self, monkeypatch, rescale
    ):
        # Row 0's view, and from step 1 the hook's input and one view of the
        # row after the hook, whether or not the hook keeps the proportions.
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.full(3, 0.5), "b": np.ones(3)})

        def pre_step(t, p):
            if not rescale:
                return p
            shares = (0.3, 0.7) if t % 2 else (0.6, 0.4)
            return p.with_groups(
                [g.with_proportion(s) for g, s in zip(p.groups, shares)]
            )

        views = self.counting(monkeypatch)
        simulate(pop, lambda t, p: pol, out, INST, 50, pre_step=pre_step)
        assert len(views) == 101

    def test_policy_fn_gets_read_only_views_of_the_next_row(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.full(3, 0.5), "b": np.ones(3)})
        seen = []
        traj = simulate(pop, lambda t, p: seen.append(p) or pol, out, INST, 6)
        states = traj.columns.states
        assert len(seen) == 7 and seen[0] is pop
        for t, p in enumerate(seen[1:]):
            for i, g in enumerate(p.groups):
                assert not g.pmf.flags.writeable
                assert np.shares_memory(g.pmf, states[t + 1, i])
                assert np.array_equal(g.pmf, states[t + 1, i])

    def test_policy_fn_sees_the_proportions_pre_step_rescaled(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.full(3, 0.5), "b": np.ones(3)})
        seen = []

        def pre_step(t, p):
            shares = (0.3, 0.7) if t % 2 else (0.6, 0.4)
            return p.with_groups(
                [g.with_proportion(s) for g, s in zip(p.groups, shares)]
            )

        def policy_fn(t, p):
            seen.append([g.proportion for g in p.groups])
            return pol

        traj = simulate(pop, policy_fn, out, INST, 5, pre_step=pre_step)
        assert seen == [[0.3, 0.7] if t % 2 else [0.6, 0.4] for t in range(6)]
        assert seen == traj.columns.proportions.tolist()


def _draw_columns(runs, d, groups):
    """Draw ``d``'s slices of the stacked columns of a run of several draws,
    by the name of the ``TrajectoryColumns`` field each one stands for."""
    own = slice(d * groups, (d + 1) * groups)
    per_group = ("states", "proportions", "mean_score", "acceptance", "tpr",
                 "fpr", "delta_mu", "regime")
    per_draw = ("utility", "dp_gap", "eo_gap", "eodds_gap")
    return {
        **{name: getattr(runs, name)[:, own] for name in per_group},
        **{name: getattr(runs, name)[:, d] for name in per_draw},
    }


def _assert_draw_is_its_own_run(runs, d, traj):
    """Draw ``d`` of a stacked run has, bit for bit, the columns and the
    policies of ``traj``, the run of its start alone. A block of draws keeps
    no intervention flags."""
    c = traj.columns
    assert runs.flags.size == 0
    for name, got in _draw_columns(runs, d, len(c.group_ids)).items():
        want = getattr(c, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), name
    for t, (got, want) in enumerate(zip(runs.policies, c.policies)):
        got = got if isinstance(got, Policy) else got[d]
        assert got.group_ids == want.group_ids, t
        assert got._rows(got.group_ids).tobytes() == want._rows(want.group_ids).tobytes()


class TestDrawsAgainstTheirOwnRuns:
    """A sensitivity sweep advances a block of draws as one stacked run.
    Each draw's columns, policies and goal value are bit for bit those of
    ``run_scenario`` on its start alone, over every rule (``fixed``,
    ``max_utility``, constrained dp/eo, ``outcome_optimal``) and any set of
    quota (with sunset), pipeline and role-model interventions; a block that
    fails raises what its first failing draw raises alone."""

    @settings(max_examples=150, deadline=None)
    @given(
        cfg=runs(),
        draws=st.sampled_from([1, 2, 7]),
        eps=st.sampled_from([0.0, 0.01, 0.3]),
        seed=st.integers(0, 2**16),
    )
    def test_each_draw_is_bit_identical_to_its_own_run(self, cfg, draws, eps, seed):
        pop = cfg.population
        starts = np.array(
            [scenarios._perturbed_pmfs(pop, eps, seed, d) for d in range(draws)]
        )
        alone = []
        for start in starts:
            groups = [g.with_pmf(pmf) for g, pmf in zip(pop.groups, start)]
            try:
                alone.append(
                    scenarios.run_scenario(
                        replace(cfg, population=pop.with_groups(groups))
                    )
                )
            except (DomainError, scenarios.InfeasibilityError) as exc:
                alone.append(exc)
        failed = [(d, r) for d, r in enumerate(alone) if isinstance(r, Exception)]
        # Blocks of three draws, so that seven draws span three blocks.
        state_bytes = (cfg.horizon + 1) * len(pop.groups) * len(pop.grid) * 8
        with mock.patch.object(scenarios, "_SWEEP_STATE_BYTES", 3 * state_bytes):
            if failed:
                d, exc = failed[0]
                with pytest.raises(type(exc)) as info:
                    scenarios.sensitivity_sweep(cfg, eps, draws, seed)
                assert str(info.value) == f"sweep draw {d}: {exc}"
                return
            report = scenarios.sensitivity_sweep(cfg, eps, draws, seed)
        # One block of every draw.
        stacked = scenarios._run_draws(cfg, starts)
        for d, traj in enumerate(alone):
            _assert_draw_is_its_own_run(stacked, d, traj)
        want = [
            scenarios._goal_values(cfg, traj.columns, str)[-1, 0].item()
            for traj in alone
        ]
        got = scenarios._goal_values(cfg, stacked, str)[-1].tolist()
        assert np.array(got).tobytes() == np.array(want).tobytes()
        assert np.array(report.values).tobytes() == np.array(want).tobytes()
        assert report.minimum_draw == want.index(min(want))
        assert report.maximum_draw == want.index(max(want))


BUILTINS = {name: scenarios.load_scenario(name) for name in scenarios.BUILTIN_NAMES}


@pytest.mark.parametrize("name", scenarios.BUILTIN_NAMES)
def test_a_run_leaves_its_outcome_model_as_it_found_it(name):
    # The outcome model is frozen and shared by every run of a scenario: a
    # run keeps what it builds from it to itself.
    cfg = BUILTINS[name]
    pickled = pickle.dumps(cfg.outcome)
    copied = pickle.dumps(copy.deepcopy(cfg.outcome))
    pol = scenarios.initial_policy(cfg)
    runs = {
        "simulate": lambda: simulate(
            cfg.population, lambda t, p: pol, cfg.outcome, cfg.institution, cfg.horizon
        ),
        "run_scenario": lambda: scenarios.run_scenario(cfg),
        "sensitivity_sweep": lambda: scenarios.sensitivity_sweep(cfg, 0.01, 5, seed=1),
    }
    for what, run in runs.items():
        run()
        assert pickle.dumps(cfg.outcome) == pickled, what
        assert pickle.dumps(copy.deepcopy(cfg.outcome)) == copied, what


def _rescaled(cfg, a, b):
    """``cfg`` with its bin scores ``a * s + b``, its bin width ``a * w`` and
    its regime tolerance ``a * tol``."""
    pop, grid = cfg.population, cfg.population.grid
    scaled = ScoreGrid(a * grid.bin_scores + b, a * grid.bin_width)
    return replace(
        cfg,
        population=Population(scaled, pop.groups),
        tolerances=scenarios.Tolerances(regime=a * cfg.tolerances.regime),
    )


class TestAffineRescale:
    """Scores enter a run only through the score change, ``steps *
    bin_width`` per bin moved, and the mean score. Scaling the bin scores and
    the bin width by a power of two ``a``, which multiplies without rounding,
    and shifting the scores by ``b`` leaves everything else of a run bit for
    bit as it was, on both built-ins under every searched or utility rule,
    with and without interventions. The property covers valid grids only:
    a shift whose spacing falls below the rounding of the scores is
    rejected (``test_a_shift_that_merges_scores_is_rejected``)."""

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(scenarios.BUILTIN_NAMES),
        rule=st.sampled_from(["max_utility", "dp", "eo", "outcome_optimal"]),
        hooked=st.booleans(),
        k=st.integers(-40, 10),
        b=st.floats(0.0, 1e4),
    )
    def test_only_score_change_and_mean_score_move(self, name, rule, hooked, k, b):
        cfg = BUILTINS[name]
        scores = cfg.population.grid.bin_scores
        assume(np.all(np.diff(2.0**k * scores + b) > 0))
        ids = cfg.population.group_ids
        spec = {
            "max_utility": scenarios.PolicyRuleSpec("max_utility"),
            "dp": scenarios.PolicyRuleSpec("constrained", constraint="dp"),
            "eo": scenarios.PolicyRuleSpec("constrained", constraint="eo"),
            "outcome_optimal": scenarios.PolicyRuleSpec(
                "outcome_optimal", target_group=ids[1]
            ),
        }[rule]
        IR = scenarios.InterventionRule
        ivs = ()
        if hooked:
            ivs = cfg.interventions + (
                IR("pipeline_investment", ids[1], shift_fraction=0.25),
                IR("role_model_feedback", ids[1], active_from=2, strength=0.5),
            )
        cfg = replace(cfg, policy_rule=spec, interventions=ivs)
        a = 2.0**k
        base = scenarios.run_scenario(cfg).columns
        got = scenarios.run_scenario(_rescaled(cfg, a, b)).columns
        for field in ("states", "proportions", "acceptance", "tpr", "fpr",
                      "dp_gap", "eo_gap", "eodds_gap", "utility", "regime", "flags"):
            want = getattr(base, field)
            assert getattr(got, field).tobytes() == want.tobytes(), field
        assert len(got.policies) == len(base.policies)
        for t, (p, q) in enumerate(zip(got.policies, base.policies)):
            assert p._rows(ids).tobytes() == q._rows(ids).tobytes(), t
        assert got.delta_mu.tobytes() == (a * base.delta_mu).tobytes()
        np.testing.assert_allclose(
            got.mean_score, a * base.mean_score + b, rtol=1e-12, atol=0.0
        )

    def test_a_shift_that_merges_scores_is_rejected(self):
        # At a = 2**-40 and b = 8192 the bins are 2**-40 apart, half the
        # spacing of floats near 8192 (2**-39), so neighbouring scores round
        # to one value.
        cfg = BUILTINS["boards_quota"]
        cfg = replace(cfg, policy_rule=scenarios.PolicyRuleSpec("max_utility"))
        with pytest.raises(DomainError, match="not strictly ascending"):
            scenarios.run_scenario(_rescaled(cfg, 2.0**-40, 8192.0))
