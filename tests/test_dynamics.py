import numpy as np
import pytest

from fairdyn import dynamics
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
from fairdyn.population import group_mean, validate_population

from conftest import make_grid, make_population, random_instance

INST = InstitutionModel(1.0, -1.0)


def single_group(pmf, rho, steps_up=1, steps_down=1, width=100.0):
    grid = make_grid(len(pmf), width=width)
    pop = make_population(grid, {"a": pmf}, {"a": 1.0})
    out = OutcomeModel(rho={"a": tuple(rho)}, steps_up=steps_up, steps_down=steps_down)
    return pop, out


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
    ],
    ids=["acceptance_rate", "institution_utility", "metric_report",
         "group_delta_mu", "step"],
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
