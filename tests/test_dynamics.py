import gc
import math
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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

from conftest import make_grid, make_population, random_instance

INST = InstitutionModel(1.0, -1.0)
LENDING = scenarios.load_scenario("lending_liu")


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

        def counting(pop, policy, outcome):
            seen.append(pop)
            return step(pop, policy, outcome)

        monkeypatch.setattr(dynamics, "step", counting)
        _, _, traj = self.run(horizon=5)
        assert len(seen) == 5
        for pop, rec in zip(seen, traj.steps):
            assert np.array_equal(pop.groups[0].pmf, rec.population.groups[0].pmf)

    def test_trajectory_from_records_has_their_columns(self):
        pop, pol, traj = self.run(horizon=4)
        rebuilt = dynamics.Trajectory(tuple(traj.steps))
        for name, value in vars(traj.columns).items():
            other = getattr(rebuilt.columns, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, other, equal_nan=True), name
                assert value.dtype == other.dtype and not other.flags.writeable
            else:
                assert value == other, name
        assert repr(trajectory_rows(rebuilt)) == repr(trajectory_rows(traj))

    def test_replaced_steps_replace_the_columns(self):
        pop, out = two_groups()
        pol = Policy.from_arrays({"a": np.ones(3), "b": np.full(3, 0.5)})
        traj = simulate(pop, lambda t, p: pol, out, INST, 3)
        rec = traj.steps[1]
        steps = list(traj.steps)
        steps[1] = replace(
            rec,
            utility=7.0,
            metrics=replace(rec.metrics, eo_gap=1e-6),
            population=traj.steps[0].population,
        )
        changed = replace(traj, steps=tuple(steps))
        c = changed.columns
        assert c.utility[1] == 7.0 and c.eo_gap[1] == 1e-6
        assert np.array_equal(c.states[1], traj.columns.states[0])
        assert np.array_equal(c.states[2], traj.columns.states[2])
        assert trajectory_rows(changed)[2]["utility"] == 7.0

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
        # on the finished delta_mu column sees it.
        big = sys.float_info.max
        grid = ScoreGrid((0.0, big), big)
        pop = Population(grid, (GroupState("a", 1.0, (0.5, 0.5 + 1e-12)),))
        assert validate_population(pop).ok
        out = OutcomeModel({"a": (1.0, 1.0)}, steps_up=1, steps_down=0)
        assert np.isfinite(out.score_change("a", grid)).all()
        pol = Policy({"a": np.ones(2)})
        with pytest.warns(RuntimeWarning, match="overflow encountered in matmul"):
            with pytest.raises(DomainError, match="delta mu inf is not finite"):
                simulate(pop, lambda t, p: pol, out, INST, 3)


def _same(a, b):
    """Bit-identical floats, NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


@st.composite
def runs(draw):
    """A random scenario: 1-3 groups, 2-60 bins, shifts of 0, small and at
    least n - 1, each policy rule and any set of interventions."""
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
        IR("role_model_feedback", draw(st.sampled_from(ids)),
           active_from=draw(st.integers(0, 3)),
           strength=draw(st.floats(0.0, 1.0))),
    ]
    interventions = tuple(iv for iv in options if draw(st.booleans()))
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


def _both(cfg):
    """The library's run and the oracle's records of ``cfg``, each with its
    own engine, or the exception each raised."""
    out = []
    for run in (dynamics.simulate, dynamics_oracle.simulate):
        engine = scenarios._ScenarioEngine(cfg, cfg.interventions)
        hooks = bool(cfg.interventions)
        try:
            out.append(run(
                cfg.population, engine.policy, cfg.outcome, cfg.institution,
                cfg.horizon, regime_tol=cfg.tolerances.regime,
                pre_step=engine.pre_step if hooks else None,
                flags_fn=engine.flags_fn if hooks else None,
            ))
        except (DomainError, scenarios.InfeasibilityError) as exc:
            out.append(exc)
    return out


def _assert_same_run(traj, records):
    """The library's run equals the oracle's records bit for bit: every
    column, every step view and every CSV acceptance rate."""
    c = traj.columns
    assert len(traj) == len(records)
    ids = c.group_ids
    rows = trajectory_rows(traj)
    pair = c.metric_pair or ()
    assert c.acceptance.shape == c.tpr.shape == c.fpr.shape == (len(traj), len(pair))
    for t, rec in enumerate(records):
        for k, gid in enumerate(pair):
            for name in ("acceptance", "tpr", "fpr"):
                assert _same(getattr(c, name)[t, k], rec[name][gid])
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
            assert _same(rows[t * len(ids) + i]["acceptance_rate"],
                         rec["acceptance"][gid])
            assert view.delta_mu[gid] == rec["delta_mu"][gid]
            assert view.regime[gid].value == rec["regime"][gid]


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(cfg=runs())
    def test_records_bit_identical(self, cfg):
        traj, records = _both(cfg)
        if isinstance(records, Exception):
            assert type(traj) is type(records) and str(traj) == str(records)
            return
        assert len(traj) == cfg.horizon + 1
        assert traj.columns.metric_pair == (
            cfg.population.group_ids[:2] if len(cfg.population.groups) >= 2 else None
        )
        _assert_same_run(traj, records)

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
