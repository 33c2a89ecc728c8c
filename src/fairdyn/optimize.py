"""Policy construction: unconstrained, fairness-constrained, outcome-optimal.

Constrained search is restricted to per-group randomized thresholds, which
are within-group utility-optimal whenever the success probability is
nondecreasing in score. That makes the search one-dimensional (a common
rate or true-positive rate on a uniform grid) and exactly auditable by
brute force.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibilityError
from .metrics import OutcomeModel
from .policy import (
    GroupThreshold,
    InstitutionModel,
    Policy,
    RandomizedThresholdPolicy,
    institution_utility,
    threshold_levels,
    threshold_values,
)
from .population import GroupState, Population

DEFAULT_RESOLUTION = 0.01


class Constraint(enum.Enum):
    DEMOGRAPHIC_PARITY = "dp"
    EQUAL_OPPORTUNITY = "eo"


def max_utility_policy(
    pop: Population, outcome: OutcomeModel, inst: InstitutionModel
) -> Policy:
    """Accept exactly the bins with strictly positive expected utility.

    The objective separates over bins, so the bin-wise rule is globally
    optimal. Zero-utility bins are rejected (strict-improvement rule).
    """
    arrays = {}
    for g in pop.groups:
        u = inst.per_bin_utility(outcome.rho_for(g.group_id))
        arrays[g.group_id] = (u > 0).astype(float)
    return Policy.from_arrays(arrays)


def rate_grid(resolution: float) -> np.ndarray:
    if not 0.0 < resolution <= 1.0:
        raise DomainError(f"resolution {resolution} outside (0, 1]")
    n = int(round(1.0 / resolution))
    return np.linspace(0.0, 1.0, n + 1)


def rates_for_tpr(
    group: GroupState, rho: np.ndarray, tprs: np.ndarray
) -> np.ndarray:
    """Acceptance rate of the top-down threshold policy whose true-positive
    rate equals each entry of ``tprs``, in one pass.

    The same top-down search as :func:`threshold_levels`, run over the
    qualified mass ``pmf * rho`` instead of the mass: bins that hold no
    qualified mass are never the threshold, and a target the cumulative
    qualified mass does not reach accepts the whole group.
    """
    pmf = group.pmf
    qualified = float(pmf @ rho)
    if qualified <= 0:
        raise DomainError(f"group {group.group_id!r} has zero qualified mass")
    need = np.asarray(tprs, dtype=float) * qualified
    top_pmf = pmf[::-1]
    top_contrib = top_pmf * rho[::-1]
    got = np.cumsum(top_contrib)  # qualified mass of the top k+1 bins
    rate = np.cumsum(top_pmf)  # mass of the top k+1 bins
    candidates = np.flatnonzero(top_contrib > 0)
    j = np.searchsorted(got[candidates], need, side="left")
    k = candidates[np.minimum(j, len(candidates) - 1)]
    got_above = np.concatenate(([0.0], got))[k]
    rate_above = np.concatenate(([0.0], rate))[k]
    frac = (need - got_above) / top_contrib[k]
    rates = np.where(
        j < len(candidates), rate_above + frac * top_pmf[k], rate[-1]
    )
    return np.minimum(rates, 1.0)


@dataclass(frozen=True)
class ConstrainedResult:
    policy: Policy
    level: float
    utility: float


def constrained_policy(
    pop: Population,
    outcome: OutcomeModel,
    inst: InstitutionModel,
    constraint: Constraint,
    resolution: float = DEFAULT_RESOLUTION,
) -> ConstrainedResult:
    """Best common level on the rate grid under the given fairness constraint.

    For demographic parity both groups share an acceptance rate; for equal
    opportunity both share a true-positive rate. Each candidate level is
    realized exactly per group by a randomized threshold; the level with the
    highest institution utility wins, ties broken toward the larger level.
    All levels are scored in one pass; only the winner is expanded.
    """
    if len(pop.groups) != 2:
        raise DomainError("constrained optimization needs exactly two groups")
    levels = rate_grid(resolution)
    utility = np.zeros(len(levels))
    searched = []
    for g in pop.groups:
        rho = outcome.rho_for(g.group_id)
        rates = levels
        if constraint is Constraint.EQUAL_OPPORTUNITY:
            if np.any(np.diff(rho) < 0):
                raise DomainError(
                    f"group {g.group_id!r}: rho must be nondecreasing in score "
                    "for equal-opportunity search"
                )
            rates = rates_for_tpr(g, rho, levels)
        pmf = g.pmf
        bins, fractions = threshold_levels(pmf, rates)
        utility = utility + g.proportion * threshold_values(
            pmf, inst.per_bin_utility(rho), bins, fractions
        )
        searched.append((g.group_id, bins, fractions))
    best = len(levels) - 1 - int(np.argmax(utility[::-1]))
    policy = RandomizedThresholdPolicy(
        {
            gid: GroupThreshold(int(bins[best]), float(fractions[best]))
            for gid, bins, fractions in searched
        }
    ).expand(pop.grid)
    return ConstrainedResult(
        policy,
        float(levels[best]),
        institution_utility(policy, pop, outcome, inst),
    )


def outcome_optimal_policy(
    pop: Population,
    outcome: OutcomeModel,
    inst: InstitutionModel,
    target_group: str,
    utility_floor: float = float("-inf"),
    resolution: float = DEFAULT_RESOLUTION,
) -> Policy:
    """Maximize the target group's expected score change directly.

    Searches per-group acceptance rates over the grid of randomized
    thresholds, keeps combinations with institution utility at or above the
    floor, and among those maximizes the target group's expected change.
    Ties break toward higher utility, then lower target acceptance rate.
    """
    target = pop.group(target_group)  # raises KeyError if unknown
    levels = rate_grid(resolution)

    # Per group the utility of a threshold policy at each rate is independent
    # of other groups, so evaluate each axis once.
    def axis(group: GroupState):
        pmf = group.pmf
        bins, fractions = threshold_levels(pmf, levels)
        per_bin = inst.per_bin_utility(outcome.rho_for(group.group_id))
        utils = group.proportion * threshold_values(pmf, per_bin, bins, fractions)
        return bins, fractions, utils

    # Other groups do not affect the objective: give each its utility-best
    # rate so the floor is as easy to satisfy as possible.
    thresholds = {}
    other_util = 0.0
    for g in pop.groups:
        if g.group_id == target_group:
            continue
        bins, fractions, utils = axis(g)
        k = int(np.argmax(utils))
        thresholds[g.group_id] = GroupThreshold(int(bins[k]), float(fractions[k]))
        other_util += float(utils[k])

    bins, fractions, target_utils = axis(target)
    dmus = threshold_values(
        target.pmf,
        outcome.score_change(target_group, pop.grid),
        bins,
        fractions,
    )
    utils = other_util + target_utils
    feasible = np.flatnonzero(utils >= utility_floor)
    if len(feasible) == 0:
        max_util = other_util + float(target_utils.max())
        raise InfeasibilityError(
            f"utility floor {utility_floor} infeasible; maximum achievable "
            f"utility is {max_util:.12g}"
        )
    # lexsort sorts by its last key first, so the last index is the level
    # with the largest (dmu, utility, -rate).
    order = np.lexsort((-levels[feasible], utils[feasible], dmus[feasible]))
    best = int(feasible[order[-1]])
    thresholds[target_group] = GroupThreshold(
        int(bins[best]), float(fractions[best])
    )
    return RandomizedThresholdPolicy(thresholds).expand(pop.grid)
