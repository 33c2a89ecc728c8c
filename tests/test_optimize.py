import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdyn.dynamics import group_delta_mu
from fairdyn.errors import (
    CapacityError,
    DimensionError,
    DomainError,
    InfeasibilityError,
)
from fairdyn.metrics import (
    OutcomeModel,
    demographic_parity_gap,
    equal_opportunity_gap,
)
from fairdyn.optimize import (
    MAX_LEVELS,
    Constraint,
    constrained_plan,
    constrained_policy,
    max_utility_policy,
    outcome_optimal_plan,
    outcome_optimal_policy,
    rate_grid,
    rates_for_tpr,
    search,
)
from fairdyn.policy import (
    GroupThreshold,
    InstitutionModel,
    Policy,
    RandomizedThresholdPolicy,
    institution_utility,
    threshold_levels,
)
from fairdyn.population import GroupState

from conftest import make_grid, make_population, random_instance


def two_group(pmf0, pmf1, rho, proportions=(0.5, 0.5)):
    grid = make_grid(len(pmf0))
    pop = make_population(
        grid,
        {"g0": pmf0, "g1": pmf1},
        {"g0": proportions[0], "g1": proportions[1]},
    )
    out = OutcomeModel(rho={"g0": tuple(rho), "g1": tuple(rho)}, steps_up=1, steps_down=1)
    return pop, out


# --- independent brute-force oracles -------------------------------------

def bf_tau_for_rate(pmf, target):
    """Top-down greedy fill; independent of the library's threshold solver."""
    tau = [0.0] * len(pmf)
    remaining = target
    for i in reversed(range(len(pmf))):
        if pmf[i] <= 0.0:
            continue
        take = min(1.0, remaining / pmf[i])
        tau[i] = take
        remaining -= take * pmf[i]
        if remaining <= 1e-15:
            break
    return np.array(tau)


def bf_utility(pop, outcome, inst, taus):
    total = 0.0
    for g in pop.groups:
        if g.group_id not in taus:
            continue
        tau = taus[g.group_id]
        rho = outcome.rho_for(g.group_id)
        for i, mass in enumerate(g.pmf):
            total += g.proportion * mass * tau[i] * (
                inst.u_plus * rho[i] + inst.u_minus * (1.0 - rho[i])
            )
    return total


def bf_rate_for_tpr(pmf, rho, tpr):
    """Top-down greedy fill of qualified mass; returns the acceptance rate."""
    need = tpr * sum(p * r for p, r in zip(pmf, rho))
    rate = 0.0
    for i in reversed(range(len(pmf))):
        contrib = pmf[i] * rho[i]
        if contrib <= 0.0:
            continue
        take = min(1.0, need / contrib)
        rate += take * pmf[i]
        need -= take * contrib
        if need <= 1e-15:
            break
    return rate


def bf_constrained_dp(pop, outcome, inst, resolution):
    """Scan the common-rate grid, exhaustively, tie toward larger rate."""
    best = None
    for beta in rate_grid(resolution):
        taus = {g.group_id: bf_tau_for_rate(g.pmf, float(beta)) for g in pop.groups}
        util = bf_utility(pop, outcome, inst, taus)
        if best is None or util >= best[0]:
            best = (util, float(beta), taus)
    return best


def bf_max_utility(pop, outcome, inst):
    """Exhaustive search over all deterministic bin policies per group."""
    taus = {}
    for g in pop.groups:
        n = len(g.pmf)
        best = None
        for bits in itertools.product((0.0, 1.0), repeat=n):
            util = bf_utility(pop, outcome, inst, {g.group_id: bits})
            if best is None or util > best[0]:
                best = (util, bits)
        taus[g.group_id] = np.array(best[1])
    return taus


# --- the vectorised threshold search against the oracles ------------------

# Integer weights put zero-mass bins, and so repeated cumulative masses, into
# most draws; every rate grid holds the levels 0 and 1.
# Each cell is one bin's (weight, rho).
cells_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.floats(0.05, 1.0)), min_size=2, max_size=12
).filter(lambda cells: sum(w for w, _ in cells) > 0)
resolutions = st.sampled_from([1.0, 0.5, 0.1, 0.05, 0.01, 0.007])


def expand_one(pmf, b, f):
    th = RandomizedThresholdPolicy({"a": GroupThreshold(int(b), float(f))})
    return th.expand(make_grid(len(pmf))).tau("a")


class TestThresholdSearchOracles:
    @settings(max_examples=150, deadline=None)
    @given(cells=cells_strategy, resolution=resolutions)
    def test_every_level_matches_greedy_fill(self, cells, resolution):
        w = np.array([w for w, _ in cells], dtype=float)
        pmf = w / w.sum()
        levels = rate_grid(resolution)
        bins, fractions = threshold_levels(pmf, levels)
        held = pmf > 0  # acceptance of a zero-mass bin changes nothing
        for level, b, f in zip(levels, bins, fractions):
            tau = expand_one(pmf, b, f)
            oracle = bf_tau_for_rate(pmf, float(level))
            assert np.max(np.abs(tau - oracle)[held]) <= 1e-12
            assert abs(float(pmf @ tau) - level) <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(cells=cells_strategy, resolution=resolutions)
    def test_tpr_map_matches_greedy_fill(self, cells, resolution):
        w = np.array([w for w, _ in cells], dtype=float)
        pmf = w / w.sum()
        rho = np.sort([r for _, r in cells])
        levels = rate_grid(resolution)
        rates = rates_for_tpr(GroupState("a", 1.0, tuple(pmf)), rho, levels)
        qualified = float(pmf @ rho)
        bins, fractions = threshold_levels(pmf, rates)
        for level, rate, b, f in zip(levels, rates, bins, fractions):
            assert abs(rate - bf_rate_for_tpr(pmf, rho, float(level))) <= 1e-12
            tau = expand_one(pmf, b, f)
            assert abs(float(pmf @ (tau * rho)) / qualified - level) <= 1e-12

    @pytest.mark.parametrize("tpr", [np.nan, 2.0, -0.5, np.inf])
    def test_tpr_map_rejects_a_target_outside_the_unit_interval(self, tpr):
        # NaN once mapped to rate 1.0, 2.0 to 1.0 and -0.5 to a negative rate.
        group = GroupState("a", 1.0, (0.2, 0.3, 0.5))
        with pytest.raises(DomainError) as info:
            rates_for_tpr(group, np.array([0.1, 0.5, 0.9]), [0.5, tpr])
        assert str(info.value) == f"target TPR outside [0,1] in {np.array([0.5, tpr])}"

    @pytest.mark.parametrize(
        "rho, error, message",
        [
            (0.5, DimensionError, "expected a 1-D vector, got shape ()"),
            (np.array([[0.1], [0.5], [0.9]]), DimensionError,
             "expected a 1-D vector, got shape (3, 1)"),
            ([0.1, True, 0.9], DomainError, "rho[1] must be a real number, got True"),
        ],
        ids=["scalar", "column", "bool_entry"],
    )
    def test_tpr_map_reads_rho_as_a_vector_of_reals(self, rho, error, message):
        # A scalar once raised TypeError from ``len``, and a (3, 1) array
        # passed the length check and failed inside the search.
        group = GroupState("a", 1.0, (0.2, 0.3, 0.5))
        with pytest.raises(error) as info:
            rates_for_tpr(group, rho, [0.5])
        assert str(info.value) == message

    def test_tpr_map_rejects_a_short_rho(self):
        group = GroupState("a", 1.0, (0.2, 0.3, 0.5))
        with pytest.raises(DimensionError) as info:
            rates_for_tpr(group, np.array([0.1, 0.5]), [0.5])
        assert str(info.value) == "group 'a': inconsistent lengths pmf=3 rho=2"


# --- max_utility_policy ----------------------------------------------------

class TestMaxUtility:
    def test_accept_everyone(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.3, 0.9))
        pol = max_utility_policy(pop, out, InstitutionModel(2.0, 0.0))
        # u_minus = 0 and u_plus > 0: every bin with rho > 0 is profitable
        for gid in pop.group_ids:
            assert np.all(pol.tau(gid) == 1.0)

    def test_accept_no_one(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.3, 0.9))
        pol = max_utility_policy(pop, out, InstitutionModel(-1.0, -2.0))
        for gid in pop.group_ids:
            assert np.all(pol.tau(gid) == 0.0)

    def test_threshold_at_rho_080(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.7, 0.9))
        inst = InstitutionModel(1.0, -4.0)
        pol = max_utility_policy(pop, out, inst)
        # exhaustive check over all 4 deterministic bin policies per group
        oracle = bf_max_utility(pop, out, inst)
        for gid in pop.group_ids:
            assert pol.tau(gid) == pytest.approx([0.0, 1.0])
            assert np.array_equal(pol.tau(gid), oracle[gid])

    def test_zero_utility_bins_rejected(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.5, 0.9))
        pol = max_utility_policy(pop, out, InstitutionModel(1.0, -1.0))
        assert pol.tau("g0")[0] == 0.0  # u exactly 0 at rho = 0.5

    def test_dominates_random_policies(self, rng):
        for _ in range(50):
            pop, out, _ = random_instance(rng)
            inst = InstitutionModel(float(rng.normal()), float(rng.normal()))
            best = institution_utility(max_utility_policy(pop, out, inst), pop, out, inst)
            rand = Policy.from_arrays(
                {gid: rng.random(len(pop.grid.bin_scores)) for gid in pop.group_ids}
            )
            assert best >= institution_utility(rand, pop, out, inst) - 1e-12


# --- constrained_policy ----------------------------------------------------

class TestConstrainedPolicy:
    def test_identical_groups_zero_gap(self):
        pop, out = two_group((0.2, 0.8), (0.2, 0.8), (0.4, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        res = constrained_policy(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY)
        assert demographic_parity_gap(pop, out, res.policy, "g0", "g1") <= 1e-9
        # equals the per-group optimum within the threshold family
        bf = bf_constrained_dp(pop, out, inst, 0.01)
        assert res.utility == pytest.approx(bf[0], abs=1e-12)

    def test_dp_gap_forced_small(self):
        pop, out = two_group((0.5, 0.5), (0.8, 0.2), (0.4, 0.9))
        res = constrained_policy(
            pop, out, InstitutionModel(1.0, -1.0), Constraint.DEMOGRAPHIC_PARITY
        )
        assert demographic_parity_gap(pop, out, res.policy, "g0", "g1") <= 1e-9

    def test_matches_brute_force_grid(self):
        pop, out = two_group((0.2, 0.8), (0.8, 0.2), (0.4, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        res = constrained_policy(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.01)
        util, beta, taus = bf_constrained_dp(pop, out, inst, 0.01)
        assert res.level == beta
        assert res.utility == pytest.approx(util, abs=1e-12)
        for gid in pop.group_ids:
            assert res.policy.tau(gid) == pytest.approx(taus[gid], abs=1e-12)

    def test_eo_gap_forced_small(self, rng):
        for _ in range(30):
            pop, out, _ = random_instance(rng, monotone_rho=True)
            res = constrained_policy(
                pop, out, InstitutionModel(1.0, -1.0), Constraint.EQUAL_OPPORTUNITY, 0.05
            )
            assert equal_opportunity_gap(pop, out, res.policy, "g0", "g1") <= 1e-9

    def test_eo_requires_monotone_rho(self):
        grid = make_grid(2)
        pop = make_population(grid, {"g0": (0.5, 0.5), "g1": (0.5, 0.5)})
        out = OutcomeModel(
            rho={"g0": (0.9, 0.2), "g1": (0.2, 0.9)}, steps_up=1, steps_down=1
        )
        with pytest.raises(DomainError):
            constrained_policy(
                pop, out, InstitutionModel(1.0, -1.0), Constraint.EQUAL_OPPORTUNITY
            )

    def test_two_groups_required(self):
        grid = make_grid(2)
        pop = make_population(grid, {"g0": (0.5, 0.5)}, {"g0": 1.0})
        out = OutcomeModel(rho={"g0": (0.2, 0.8)}, steps_up=1, steps_down=1)
        with pytest.raises(DomainError):
            constrained_policy(
                pop, out, InstitutionModel(1.0, -1.0), Constraint.DEMOGRAPHIC_PARITY
            )

    def test_constraint_only_costs_utility(self, rng):
        zero = 0.0
        for _ in range(50):
            pop, out, _ = random_instance(rng, monotone_rho=True)
            inst = InstitutionModel(1.0, float(rng.uniform(-3, -0.1)))
            unconstrained = institution_utility(
                max_utility_policy(pop, out, inst), pop, out, inst
            )
            for constraint in Constraint:
                res = constrained_policy(pop, out, inst, constraint, 0.05)
                assert unconstrained >= res.utility - 1e-12
                assert res.utility >= zero - 1e-12  # level 0 always available

    def test_refining_resolution_never_hurts(self, rng):
        for _ in range(20):
            pop, out, _ = random_instance(rng)
            inst = InstitutionModel(1.0, -2.0)
            coarse = constrained_policy(
                pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.1
            )
            fine = constrained_policy(
                pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.05
            )
            assert fine.utility >= coarse.utility - 1e-12


class TestTieBreaks:
    """With u_plus = 1 and u_minus = -1 the per-bin utility is exactly 0 at
    rho = 0.5, so every level whose thresholds fall in those bins ties."""

    def test_constrained_picks_largest_tied_level(self):
        pop, out = two_group(
            (0.2, 0.3, 0.3, 0.2), (0.1, 0.3, 0.3, 0.3), (0.1, 0.5, 0.5, 0.9)
        )
        inst = InstitutionModel(1.0, -1.0)
        res = constrained_policy(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.1)
        util, beta, taus = bf_constrained_dp(pop, out, inst, 0.1)
        tied = [
            float(level)
            for level in rate_grid(0.1)
            if bf_utility(
                pop,
                out,
                inst,
                {g.group_id: bf_tau_for_rate(g.pmf, float(level)) for g in pop.groups},
            )
            == util
        ]
        assert tied == pytest.approx([0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        assert res.level == beta == tied[-1]
        assert res.utility == pytest.approx(util, abs=1e-12)
        for gid in pop.group_ids:
            assert res.policy.tau(gid) == pytest.approx(taus[gid], abs=1e-12)

    def test_outcome_optimal_tie_order(self):
        # steps_up == steps_down, so the score change is also exactly 0 at
        # rho = 0.5: the rates 0.25 to 0.75 tie on the target's change.
        pmf = (0.25, 0.25, 0.25, 0.25)
        pop, out = two_group(pmf, pmf, (0.1, 0.5, 0.5, 0.9))
        # Utility ties too: the lowest tied rate wins.
        pol = outcome_optimal_policy(
            pop, out, InstitutionModel(1.0, -1.0), "g1", resolution=0.125
        )
        assert list(pol.tau("g1")) == [0.0, 0.0, 0.0, 1.0]
        # Utility grows across the tie (0.5 per accepted rho = 0.5 bin): the
        # highest-utility tied rate wins.
        pol = outcome_optimal_policy(
            pop, out, InstitutionModel(2.0, -1.0), "g1", resolution=0.125
        )
        assert list(pol.tau("g1")) == [0.0, 1.0, 1.0, 1.0]


# --- outcome_optimal_policy ------------------------------------------------

class TestOutcomeOptimal:
    def test_all_deltas_negative_accepts_nobody(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.1, 0.2))
        # benefit 100, cost -100: delta = 100*(2*rho - 1) < 0 everywhere
        pol = outcome_optimal_policy(
            pop, out, InstitutionModel(1.0, -1.0), "g1", float("-inf")
        )
        assert np.all(pol.tau("g1") == 0.0)
        assert group_delta_mu(pop.group("g1"), pol, out, pop.grid) == 0.0

    def test_all_deltas_positive_accepts_everyone(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.8, 0.9))
        pol = outcome_optimal_policy(
            pop, out, InstitutionModel(1.0, -1.0), "g1", float("-inf")
        )
        assert np.all(pol.tau("g1") == 1.0)

    def test_mixed_sign_matches_brute_force(self):
        pop, out = two_group((0.6, 0.4), (0.7, 0.3), (0.2, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        pol = outcome_optimal_policy(pop, out, inst, "g1", float("-inf"), 0.01)
        # brute force over the same rate grid for the target group
        best = None
        for beta in rate_grid(0.01):
            tau = bf_tau_for_rate(pop.group("g1").pmf, float(beta))
            dmu = group_delta_mu(
                pop.group("g1"), Policy.from_arrays({"g1": tau}), out, pop.grid
            )
            if best is None or dmu > best[0] + 1e-15:
                best = (dmu, tau)
        got = group_delta_mu(
            pop.group("g1"),
            Policy.from_arrays({"g1": pol.tau("g1")}),
            out,
            pop.grid,
        )
        assert got == pytest.approx(best[0], abs=1e-12)

    def test_infeasible_floor_reports_max(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.2, 0.9))
        with pytest.raises(InfeasibilityError, match="maximum achievable"):
            outcome_optimal_policy(
                pop, out, InstitutionModel(1.0, -1.0), "g1", 1e9
            )

    def test_unknown_target(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.2, 0.9))
        with pytest.raises(KeyError):
            outcome_optimal_policy(pop, out, InstitutionModel(1.0, -1.0), "zz")

    def test_beats_dp_policy_on_target_delta(self, rng):
        inst = InstitutionModel(1.0, -1.0)
        for _ in range(30):
            pop, out, _ = random_instance(rng, monotone_rho=True)
            dp = constrained_policy(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.05)
            floor = dp.utility
            direct = outcome_optimal_policy(pop, out, inst, "g1", floor, 0.05)
            dmu_direct = group_delta_mu(pop.group("g1"), direct, out, pop.grid)
            dmu_dp = group_delta_mu(pop.group("g1"), dp.policy, out, pop.grid)
            assert dmu_direct >= dmu_dp - 1e-9


# --- a run's search plan against the public searches -----------------------

@st.composite
def two_group_scenarios(draw):
    """A two-group scenario over 2 to 10 bins whose pmfs are small integer
    weights, zero-mass bins included, and whose success probabilities are
    nondecreasing in score, so equal-opportunity search applies."""
    n = draw(st.integers(2, 10))
    weights = st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(
        lambda w: sum(w) > 0
    )
    rhos = st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n).map(sorted)
    p0 = draw(st.floats(0.1, 0.9))
    pmfs = {gid: np.array(draw(weights), dtype=float) for gid in ("g0", "g1")}
    pop = make_population(
        make_grid(n),
        {gid: w / w.sum() for gid, w in pmfs.items()},
        {"g0": p0, "g1": 1.0 - p0},
    )
    out = OutcomeModel(
        rho={"g0": draw(rhos), "g1": draw(rhos)},
        steps_up=draw(st.integers(1, 2)),
        steps_down=draw(st.integers(1, 2)),
    )
    inst = InstitutionModel(1.0, draw(st.floats(-3.0, -0.1)))
    return pop, out, inst


def scenario_config(pop, out, inst, rule, resolution, horizon=4):
    from fairdyn.scenarios import DeclaredGoal, ScenarioConfig, Tolerances

    return ScenarioConfig(
        name="planned",
        declared_goal=DeclaredGoal("g1 improves", "delta_mu", 1e-6, "g1"),
        population=pop,
        outcome=out,
        institution=inst,
        policy_rule=rule,
        interventions=(),
        horizon=horizon,
        tolerances=Tolerances(),
        seed=0,
        resolution=resolution,
        metric_groups=("g0", "g1"),
    )


class TestRunPlanAgainstPublicSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        instance=two_group_scenarios(),
        resolution=resolutions,
        floor=st.sampled_from([float("-inf"), 0.0]),
    )
    def test_every_step_equals_the_public_search(self, instance, resolution, floor):
        # Each step's policy of a run, scored by the run's one plan, is the
        # public function's policy on that step's population, bit for bit.
        from fairdyn.scenarios import PolicyRuleSpec, run_scenario

        pop, out, inst = instance
        searches = {
            "dp": lambda p: constrained_policy(
                p, out, inst, Constraint.DEMOGRAPHIC_PARITY, resolution
            ).policy,
            "eo": lambda p: constrained_policy(
                p, out, inst, Constraint.EQUAL_OPPORTUNITY, resolution
            ).policy,
            "outcome": lambda p: outcome_optimal_policy(
                p, out, inst, "g1", floor, resolution
            ),
        }
        rules = {
            "dp": PolicyRuleSpec("constrained", constraint="dp"),
            "eo": PolicyRuleSpec("constrained", constraint="eo"),
            "outcome": PolicyRuleSpec(
                "outcome_optimal", target_group="g1", utility_floor=floor
            ),
        }
        for kind, rule in rules.items():
            traj = run_scenario(scenario_config(pop, out, inst, rule, resolution))
            for rec in traj.steps:
                want = searches[kind](rec.population)
                assert rec.policy.group_ids == want.group_ids
                for gid in want.group_ids:
                    got = rec.policy.tau(gid)
                    assert got.tobytes() == want.tau(gid).tobytes(), (kind, rec.step)


class TestSearchPlan:
    def test_plan_scored_on_another_population(self):
        # A plan scores any population over its groups and grid; the level
        # and policy are those of a plan built for that population.
        pop, out = two_group((0.2, 0.8), (0.8, 0.2), (0.4, 0.9))
        moved, _ = two_group((0.5, 0.5), (0.3, 0.7), (0.4, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        plan = constrained_plan(pop, out, inst, Constraint.EQUAL_OPPORTUNITY, 0.05)
        res = constrained_policy(moved, out, inst, Constraint.EQUAL_OPPORTUNITY, 0.05)
        policy, level = plan.score(
            [g.pmf for g in moved.groups], [g.proportion for g in moved.groups]
        )
        assert level == res.level
        for gid in pop.group_ids:
            assert np.array_equal(search(plan, moved).tau(gid), res.policy.tau(gid))
            assert np.array_equal(policy.tau(gid), res.policy.tau(gid))

    def test_plan_rejects_other_groups(self):
        pop, out = two_group((0.2, 0.8), (0.8, 0.2), (0.4, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        swapped = pop.with_groups(pop.groups[::-1])
        for plan in (
            constrained_plan(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY),
            outcome_optimal_plan(pop, out, inst, "g1"),
        ):
            with pytest.raises(DomainError, match="search plan for groups"):
                search(plan, swapped)

    def test_checks_run_when_the_plan_is_built(self):
        pop, out = two_group((0.5, 0.5), (0.5, 0.5), (0.9, 0.2))
        inst = InstitutionModel(1.0, -1.0)
        with pytest.raises(DomainError, match="rho must be nondecreasing"):
            constrained_plan(pop, out, inst, Constraint.EQUAL_OPPORTUNITY)
        with pytest.raises(KeyError, match="unknown group label 'zz'"):
            outcome_optimal_plan(pop, out, inst, "zz")
        with pytest.raises(DomainError, match="utility floor nan is not a number"):
            outcome_optimal_plan(pop, out, inst, "g1", float("nan"))
        with pytest.raises(DomainError, match="resolution"):
            outcome_optimal_plan(pop, out, inst, "g1", resolution=0.0)

    def test_zero_qualified_mass_is_found_when_scoring(self):
        # Qualified mass depends on the pmf, so only the scoring pass can
        # find it missing.
        pop, out = two_group((0.5, 0.5), (1.0, 0.0), (0.0, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        plan = constrained_plan(pop, out, inst, Constraint.EQUAL_OPPORTUNITY)
        with pytest.raises(DomainError, match="group 'g1' has zero qualified mass"):
            search(plan, pop)


class TestGrid:
    def test_levels_are_rounded_reciprocal_plus_one(self):
        # round(1 / resolution) + 1 evenly spaced levels: 0.3 gives thirds
        # and 0.7 only the two ends.
        assert rate_grid(0.3).tolist() == pytest.approx([0.0, 1 / 3, 2 / 3, 1.0])
        assert rate_grid(0.7).tolist() == [0.0, 1.0]
        assert len(rate_grid(0.01)) == 101

    @pytest.mark.parametrize(
        "resolution,count",
        [(5e-324, "inf"), (1e-9, "1000000000"), (9.99999e-7, "1000001")],
        ids=["subnormal", "1e-9", "just_over_the_cap"],
    )
    def test_more_levels_than_the_cap_raise_before_allocating(
        self, monkeypatch, resolution, count
    ):
        def fail(*args, **kwargs):
            raise AssertionError("np.linspace called")

        monkeypatch.setattr(np, "linspace", fail)
        message = rf"^resolution {resolution} asks for {count} rate levels"
        with pytest.raises(CapacityError, match=message):
            rate_grid(resolution)

    def test_the_cap_itself_is_allowed(self):
        assert MAX_LEVELS == 10**6
        assert len(rate_grid(1e-6)) == MAX_LEVELS + 1

    @pytest.mark.parametrize("n", [1, 3, 100, 101])
    def test_rate_grid_is_a_fresh_writable_linspace(self, n):
        first, second = rate_grid(1 / n), rate_grid(1 / n)
        assert first is not second
        assert first.flags.writeable and second.flags.writeable
        assert first.tobytes() == np.linspace(0.0, 1.0, n + 1).tobytes()
        first[:] = 5.0
        assert second.tobytes() == rate_grid(1 / n).tobytes()
        assert rate_grid(1 / n)[0] == 0.0

    def test_plans_of_one_resolution_share_one_read_only_grid(self):
        pop, out = two_group((0.2, 0.3, 0.5), (0.5, 0.3, 0.2), (0.2, 0.5, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        dp = constrained_plan(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.05)
        eo = constrained_plan(pop, out, inst, Constraint.EQUAL_OPPORTUNITY, 0.05)
        best = outcome_optimal_plan(pop, out, inst, "g1", resolution=0.05)
        assert dp.levels is eo.levels is best.levels
        assert not dp.levels.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dp.levels[0] = 1.0
        assert dp.levels.tobytes() == rate_grid(0.05).tobytes()
        coarser = constrained_plan(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.1)
        assert len(coarser.levels) == 11 and coarser.levels is not dp.levels


class TestRealArguments:
    """The plan builders read ``resolution`` and ``utility_floor`` as real
    numbers, as a scenario config does: a bool, a string or None raises
    ``DomainError`` naming the argument."""

    @staticmethod
    def calls(resolution=0.1, utility_floor=0.0):
        pop, out = two_group((0.2, 0.3, 0.5), (0.5, 0.3, 0.2), (0.2, 0.5, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        dp = Constraint.DEMOGRAPHIC_PARITY
        target = (pop, out, inst, "g1", utility_floor, resolution)
        return [
            lambda: constrained_plan(pop, out, inst, dp, resolution),
            lambda: constrained_policy(pop, out, inst, dp, resolution),
            lambda: outcome_optimal_plan(*target),
            lambda: outcome_optimal_policy(*target),
        ]

    @pytest.mark.parametrize("resolution", [True, False, "0.5", None, [0.5]])
    def test_resolution(self, resolution):
        got = re.escape(repr(resolution))
        message = rf"^resolution must be a real number, got {got}$"
        with pytest.raises(DomainError, match=message):
            rate_grid(resolution)
        for call in self.calls(resolution=resolution):
            with pytest.raises(DomainError, match=message):
                call()

    @pytest.mark.parametrize("floor", [True, "0.5", None])
    def test_utility_floor(self, floor):
        got = re.escape(repr(floor))
        message = rf"^utility_floor must be a real number, got {got}$"
        for call in self.calls(utility_floor=floor)[2:]:
            with pytest.raises(DomainError, match=message):
                call()

    def test_integers_and_numpy_floats_count(self):
        pop, out = two_group((0.2, 0.3, 0.5), (0.5, 0.3, 0.2), (0.2, 0.5, 0.9))
        inst = InstitutionModel(1.0, -1.0)
        dp = Constraint.DEMOGRAPHIC_PARITY
        assert rate_grid(1).tolist() == [0.0, 1.0]
        as_int = constrained_policy(pop, out, inst, dp, 1)
        as_float = constrained_policy(pop, out, inst, dp, np.float64(1.0))
        assert as_int.level == as_float.level
        floor = outcome_optimal_policy(pop, out, inst, "g1", np.float64(-1), 0.1)
        assert floor._matrix.tobytes() == outcome_optimal_policy(
            pop, out, inst, "g1", -1, 0.1
        )._matrix.tobytes()


def test_boards_dp_tie_is_decided_by_rounding():
    # On boards_quota the DP utility is flat at 0.24 on the rates 0.55 to
    # 0.70, but the sum at 0.70 rounds 6e-17 lower, so the exact comparison
    # of the largest-tied-level rule picks 0.69.
    from fairdyn.policy import threshold_values
    from fairdyn.scenarios import load_scenario

    cfg = load_scenario("boards_quota")
    pop, out, inst = cfg.population, cfg.outcome, cfg.institution
    levels = rate_grid(cfg.resolution)
    utility = np.zeros(len(levels))
    for g in pop.groups:
        bins, fractions = threshold_levels(g.pmf, levels)
        per_bin = inst.per_bin_utility(out.rho_for(g.group_id))
        utility = utility + g.proportion * threshold_values(
            g.pmf, per_bin, bins, fractions
        )
    flat = utility[55:71]
    assert np.all(np.abs(flat - 0.24) <= 1e-15)
    assert np.all(flat[:-1] == flat[0]) and flat[-1] < flat[0]
    res = constrained_policy(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.01)
    assert res.level == levels[69] == pytest.approx(0.69)
    assert res.utility == pytest.approx(0.24, abs=1e-15)
