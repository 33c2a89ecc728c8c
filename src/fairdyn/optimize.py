"""Policy construction: unconstrained, fairness-constrained, outcome-optimal.

Constrained search is restricted to per-group randomized thresholds, which
are within-group utility-optimal whenever the success probability is
nondecreasing in score. That makes the search one-dimensional (a common
rate or true-positive rate on a uniform grid) and exactly auditable by
brute force.

Each search is a plan, built and checked once for a run's groups and grid,
and a scoring pass over one population (:func:`search`). The public
policy functions build a plan and score it once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, DomainError, InfeasibilityError
from .metrics import OutcomeModel
from .policy import (
    InstitutionModel,
    Policy,
    _threshold_levels,
    _threshold_policy,
    _top_sums,
    institution_utility,
    threshold_values,
)
from .population import GroupState, Population, _check_lengths, _real_vector

DEFAULT_RESOLUTION = 0.01
# The most levels a search scans, as ``round(1 / resolution)`` counts them
# (the grid holds one more, the level 0). Each array over the levels takes
# 8 MB at 10**6; a resolution of 1e-9 would ask for 8 GB per array.
MAX_LEVELS = 10**6


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
    ids = pop.group_ids
    return Policy({g: inst.per_bin_utility(outcome.rho_for(g)) > 0 for g in ids})


def rate_grid(resolution: float) -> np.ndarray:
    """The levels ``0, 1/n, ..., 1`` of a search at ``resolution``, with ``n =
    round(1 / resolution)``; an ``n`` above ``MAX_LEVELS`` raises
    ``CapacityError`` before anything is allocated."""
    if not 0.0 < resolution <= 1.0:
        raise DomainError(f"resolution {resolution} outside (0, 1]")
    n = 1.0 / resolution  # inf for the smallest subnormals
    # ``round`` goes half to even, so ``round(n) > MAX_LEVELS`` exactly when
    # ``n > MAX_LEVELS + 0.5``, and this compares an inf too.
    if n > MAX_LEVELS + 0.5:
        raise CapacityError(
            f"resolution {resolution} asks for {n:.0f} rate levels, more than "
            f"the {MAX_LEVELS} a search scans"
        )
    return np.linspace(0.0, 1.0, round(n) + 1)


def rates_for_tpr(
    group: GroupState, rho: np.ndarray, tprs: np.ndarray
) -> np.ndarray:
    """Acceptance rate of the top-down threshold policy whose true-positive
    rate equals each entry of ``tprs``, in one pass.

    The same top-down search as :func:`threshold_levels`, run over the
    qualified mass ``pmf * rho`` instead of the mass: bins that hold no
    qualified mass are never the threshold, and a target the cumulative
    qualified mass does not reach accepts the whole group. A target outside
    [0, 1], NaN included, raises ``DomainError``, and a ``rho`` of another
    length than the pmf ``DimensionError``. ``rho`` is read as a vector of
    reals: one that is not 1-D raises ``DimensionError``, a bool entry
    ``DomainError``.
    """
    pmf = group.pmf
    tprs = np.asarray(tprs, dtype=float)
    if not np.all((tprs >= 0.0) & (tprs <= 1.0)):  # NaN fails too
        raise DomainError(f"target TPR outside [0,1] in {tprs}")
    rho = _real_vector(rho, "rho")
    _check_lengths(group.group_id, pmf=pmf, rho=rho)
    return _rates_for_tpr(group.group_id, pmf, _top_sums(pmf), rho, tprs)


def _rates_for_tpr(
    group_id: str,
    pmf: np.ndarray,
    reach: np.ndarray,
    rho: np.ndarray,
    tprs: np.ndarray,
) -> np.ndarray:
    """:func:`rates_for_tpr` for a float array of levels; ``reach`` is
    ``_top_sums(pmf)``, the mass of the top k bins."""
    qualified = float(pmf @ rho)
    if qualified <= 0:
        raise DomainError(f"group {group_id!r} has zero qualified mass")
    need = tprs * qualified
    n = len(pmf)
    contrib = pmf * rho
    got = _top_sums(contrib)  # qualified mass of the top k bins
    # The top-down positions of the bins that hold qualified mass.
    candidates = (contrib[::-1] > 0).nonzero()[0]
    j = got[candidates + 1].searchsorted(need, side="left")
    k = candidates[np.minimum(j, len(candidates) - 1)]
    frac = (need - got[k]) / contrib[n - 1 - k]
    rates = np.where(
        j < len(candidates), reach[k] + frac * pmf[n - 1 - k], reach[n]
    )
    return np.minimum(rates, 1.0)


@dataclass(frozen=True)
class ConstrainedResult:
    policy: Policy
    level: float
    utility: float


def _rows(plan: ConstrainedPlan | OutcomeOptimalPlan, pop: Population) -> tuple:
    """``pop``'s pmfs and proportions, once its labels are ``plan``'s."""
    groups = pop.groups
    if len(groups) != len(plan.group_ids) or any(
        g.group_id != gid for g, gid in zip(groups, plan.group_ids)
    ):
        raise DomainError(
            f"search plan for groups {list(plan.group_ids)} given groups "
            f"{list(pop.group_ids)}"
        )
    return [g.pmf for g in groups], [g.proportion for g in groups]


@dataclass(frozen=True, eq=False)
class ConstrainedPlan:
    """What a constrained search needs besides a population's pmfs and
    proportions, built and checked once by :func:`constrained_plan`.

    ``utility`` holds each group's per-bin institution utility; ``rho`` each
    group's success probabilities for an equal-opportunity search, ``None``
    for demographic parity."""

    group_ids: tuple[str, str]
    n_bins: int
    levels: np.ndarray
    utility: tuple[np.ndarray, np.ndarray]
    rho: Optional[tuple[np.ndarray, np.ndarray]]

    def score(
        self, pmfs: Sequence[np.ndarray], proportions: Sequence[float]
    ) -> tuple[Policy, float]:
        """The best policy for the groups' ``pmfs`` and ``proportions``, in
        the plan's group order, and its level. All levels are scored in one
        pass per group; only the winner is expanded."""
        levels = self.levels
        utility = np.zeros(len(levels))
        searched = {}
        for i, (gid, pmf, share) in enumerate(zip(self.group_ids, pmfs, proportions)):
            reach = _top_sums(pmf)
            rates = levels
            if self.rho is not None:
                rates = _rates_for_tpr(gid, pmf, reach, self.rho[i], levels)
            bins, fractions = _threshold_levels(pmf, rates, reach)
            utility = utility + share * threshold_values(
                pmf, self.utility[i], bins, fractions
            )
            searched[gid] = (bins, fractions)
        # The largest of the levels with the highest utility.
        best = len(levels) - 1 - int(np.argmax(utility[::-1]))
        policy = _threshold_policy(
            self.n_bins,
            {
                gid: (int(bins[best]), float(fractions[best]))
                for gid, (bins, fractions) in searched.items()
            },
        )
        return policy, float(levels[best])


def constrained_plan(
    pop: Population,
    outcome: OutcomeModel,
    inst: InstitutionModel,
    constraint: Constraint,
    resolution: float = DEFAULT_RESOLUTION,
) -> ConstrainedPlan:
    """The plan of a constrained search over populations with ``pop``'s
    groups and grid: the level grid and each group's per-bin utility, with
    the two-group and (for equal opportunity) monotone-``rho`` checks."""
    if len(pop.groups) != 2:
        raise DomainError("constrained optimization needs exactly two groups")
    levels = rate_grid(resolution)
    eo = constraint is Constraint.EQUAL_OPPORTUNITY
    utility = []
    rhos = []
    for gid in pop.group_ids:
        rho = outcome.rho_for(gid)
        if eo and np.any(np.diff(rho) < 0):
            raise DomainError(
                f"group {gid!r}: rho must be nondecreasing in score "
                "for equal-opportunity search"
            )
        rhos.append(rho)
        utility.append(inst.per_bin_utility(rho))
    return ConstrainedPlan(
        pop.group_ids,
        len(pop.grid),
        levels,
        tuple(utility),
        tuple(rhos) if eo else None,
    )


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
    """
    plan = constrained_plan(pop, outcome, inst, constraint, resolution)
    policy, level = plan.score(*_rows(plan, pop))
    return ConstrainedResult(
        policy, level, institution_utility(policy, pop, outcome, inst)
    )


@dataclass(frozen=True, eq=False)
class OutcomeOptimalPlan:
    """What an outcome-optimal search needs besides a population's pmfs and
    proportions, built and checked once by :func:`outcome_optimal_plan`.

    ``utility`` holds each group's per-bin institution utility, ``change``
    the target group's per-bin expected score change and ``target`` its
    index in ``group_ids``."""

    group_ids: tuple[str, ...]
    n_bins: int
    levels: np.ndarray
    utility: tuple[np.ndarray, ...]
    target: int
    change: np.ndarray
    utility_floor: float

    def score(
        self, pmfs: Sequence[np.ndarray], proportions: Sequence[float]
    ) -> tuple[Policy, float]:
        """The best policy for the groups' ``pmfs`` and ``proportions``, in
        the plan's group order, and the target group's rate."""
        levels = self.levels

        # Per group the utility of a threshold policy at each rate is
        # independent of other groups, so evaluate each axis once.
        def axis(i: int):
            pmf = pmfs[i]
            bins, fractions = _threshold_levels(pmf, levels)
            utils = proportions[i] * threshold_values(
                pmf, self.utility[i], bins, fractions
            )
            return bins, fractions, utils

        # Other groups do not affect the objective: give each its
        # utility-best rate so the floor is as easy to satisfy as possible.
        target = self.group_ids[self.target]
        thresholds = {}
        other_util = 0.0
        for i, gid in enumerate(self.group_ids):
            if i == self.target:
                continue
            bins, fractions, utils = axis(i)
            k = int(np.argmax(utils))
            thresholds[gid] = (int(bins[k]), float(fractions[k]))
            other_util += float(utils[k])

        bins, fractions, target_utils = axis(self.target)
        dmus = threshold_values(pmfs[self.target], self.change, bins, fractions)
        utils = other_util + target_utils
        feasible = np.flatnonzero(utils >= self.utility_floor)
        if len(feasible) == 0:
            max_util = other_util + float(target_utils.max())
            raise InfeasibilityError(
                f"utility floor {self.utility_floor} infeasible; maximum "
                f"achievable utility is {max_util:.12g}"
            )
        # lexsort sorts by its last key first, so the last index is the
        # level with the largest (dmu, utility, -rate).
        order = np.lexsort((-levels[feasible], utils[feasible], dmus[feasible]))
        best = int(feasible[order[-1]])
        thresholds[target] = (int(bins[best]), float(fractions[best]))
        return _threshold_policy(self.n_bins, thresholds), float(levels[best])


def outcome_optimal_plan(
    pop: Population,
    outcome: OutcomeModel,
    inst: InstitutionModel,
    target_group: str,
    utility_floor: float = float("-inf"),
    resolution: float = DEFAULT_RESOLUTION,
) -> OutcomeOptimalPlan:
    """The plan of an outcome-optimal search over populations with ``pop``'s
    groups and grid: the known-target check, the level grid, each group's
    per-bin utility and the target's per-bin score change."""
    pop.group(target_group)  # raises KeyError if unknown
    if math.isnan(utility_floor):
        raise DomainError(f"utility floor {utility_floor} is not a number")
    levels = rate_grid(resolution)
    ids = pop.group_ids
    return OutcomeOptimalPlan(
        ids,
        len(pop.grid),
        levels,
        tuple(inst.per_bin_utility(outcome.rho_for(gid)) for gid in ids),
        ids.index(target_group),
        outcome.score_change(target_group, pop.grid),
        utility_floor,
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
    plan = outcome_optimal_plan(
        pop, outcome, inst, target_group, utility_floor, resolution
    )
    return search(plan, pop)


def search(plan: ConstrainedPlan | OutcomeOptimalPlan, pop: Population) -> Policy:
    """The policy ``plan``'s search selects for ``pop``, whose groups are the
    plan's: one scoring pass over its pmfs and proportions."""
    return plan.score(*_rows(plan, pop))[0]
