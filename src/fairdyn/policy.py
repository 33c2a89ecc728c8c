"""Selection policies: per-group acceptance probabilities per score bin.

Policies are probability vectors rather than hard thresholds so that any
acceptance rate is exactly realizable on a discrete grid. The randomized
threshold form accepts every bin above a threshold, the threshold bin with
a fractional probability, and nothing below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

import numpy as np

from .errors import DomainError
from .population import GroupState, Population, ScoreGrid, _check_lengths, _vector

if TYPE_CHECKING:
    from .metrics import OutcomeModel


@dataclass(frozen=True, eq=False)
class Policy:
    """Acceptance probability per bin, keyed by group label; every entry is
    checked to lie in [0, 1]."""

    acceptance: Mapping[str, np.ndarray]

    def __post_init__(self):
        acc = {}
        for gid, tau in self.acceptance.items():
            acc[gid] = tau = _vector(tau)
            # Written so that NaN fails the check too.
            if not np.all((tau >= 0) & (tau <= 1)):
                raise DomainError(
                    f"group {gid!r}: acceptance entries outside [0,1] or NaN"
                )
        object.__setattr__(self, "acceptance", acc)

    def tau(self, group_id: str) -> np.ndarray:
        if group_id not in self.acceptance:
            raise KeyError(f"policy has no acceptance vector for group {group_id!r}")
        return self.acceptance[group_id]

    @property
    def group_ids(self) -> tuple[str, ...]:
        return tuple(self.acceptance)

    @staticmethod
    def from_arrays(arrays: Mapping[str, Sequence[float]]) -> "Policy":
        """The policy with these acceptance vectors; the same as ``Policy(arrays)``."""
        return Policy(arrays)


@dataclass(frozen=True)
class GroupThreshold:
    threshold_bin: int
    boundary_acceptance: float


@dataclass(frozen=True)
class RandomizedThresholdPolicy:
    """Accept above the threshold bin, fractionally at it, never below."""

    thresholds: Mapping[str, GroupThreshold]

    def expand(self, grid: ScoreGrid) -> Policy:
        n = len(grid.bin_scores)
        arrays = {}
        for gid, th in self.thresholds.items():
            if not 0 <= th.threshold_bin < n:
                raise DomainError(
                    f"group {gid!r}: threshold bin {th.threshold_bin} outside grid"
                )
            if not 0.0 <= th.boundary_acceptance <= 1.0:
                raise DomainError(
                    f"group {gid!r}: boundary acceptance {th.boundary_acceptance} "
                    "outside [0,1]"
                )
            tau = np.zeros(n)
            tau[th.threshold_bin + 1 :] = 1.0
            tau[th.threshold_bin] = th.boundary_acceptance
            arrays[gid] = tau
        return Policy.from_arrays(arrays)


@dataclass(frozen=True)
class InstitutionModel:
    """Utility of an accepted success (u_plus) and an accepted failure (u_minus)."""

    u_plus: float
    u_minus: float

    def __post_init__(self):
        # Messages start with the field, so a loader can prefix its section.
        for name in ("u_plus", "u_minus"):
            if not np.isfinite(getattr(self, name)):
                raise DomainError(f"{name} {getattr(self, name)} is not finite")

    def per_bin_utility(self, rho: np.ndarray) -> np.ndarray:
        """Expected utility of accepting one applicant at each bin."""
        return self.u_plus * rho + self.u_minus * (1.0 - rho)


class _PolicyTerms:
    """A policy's per-bin products with the outcome model, one row per group
    in the order of ``group_ids``: ``keep = 1 - tau``, ``fail = 1 - rho``,
    ``tau_rho``, ``tau_fail``, and, when a grid or an institution is given,
    ``tau_delta = tau * score_change`` and ``tau_utility = tau *
    per_bin_utility``.

    The lengths of every group's pmf, acceptance and success vectors are
    checked here, once. ``_policy_terms`` reuses the set while a run keeps
    its policy, so each product is computed once however many steps the
    policy serves. The vectors that do not depend on the policy (``rho``,
    ``fail``, ``change``, ``unit_utility``) are taken from ``model``, an
    earlier set for the same outcome model, groups, grid and institution,
    when one is given.
    """

    def __init__(
        self,
        policy: Policy,
        outcome: "OutcomeModel",
        group_ids: Sequence[str],
        pmfs: Sequence[np.ndarray],
        grid: Optional[ScoreGrid] = None,
        inst: Optional[InstitutionModel] = None,
        model: Optional["_PolicyTerms"] = None,
    ):
        taus, rhos = [], []
        for gid, pmf in zip(group_ids, pmfs):
            tau, rho = policy.tau(gid), outcome.rho_for(gid)
            _check_lengths(gid, pmf=pmf, tau=tau, rho=rho)
            taus.append(tau)
            rhos.append(rho)
        self.policy, self.group_ids = policy, tuple(group_ids)
        self.grid, self.inst = grid, inst
        self.tau = np.array(taus)
        if model is None:
            self.rho = np.array(rhos)
            self.fail = 1.0 - self.rho
            if grid is not None:
                self.change = np.array(
                    [outcome.score_change(gid, grid) for gid in group_ids]
                )
            if inst is not None:
                self.unit_utility = inst.per_bin_utility(self.rho)
        else:
            self.rho, self.fail = model.rho, model.fail
            if grid is not None:
                self.change = model.change
            if inst is not None:
                self.unit_utility = model.unit_utility
        self.keep = 1.0 - self.tau
        self.tau_rho = self.tau * self.rho
        self.tau_fail = self.tau * self.fail
        if grid is not None:
            self.tau_delta = self.tau * self.change
        if inst is not None:
            self.tau_utility = _utility_weights(self.tau, self.unit_utility)


def _policy_terms(
    policy: Policy,
    outcome: "OutcomeModel",
    group_ids: Sequence[str],
    pmfs: Sequence[np.ndarray],
    grid: Optional[ScoreGrid] = None,
    inst: Optional[InstitutionModel] = None,
) -> _PolicyTerms:
    """``_PolicyTerms(policy, outcome, group_ids, pmfs, grid, inst)``, or the
    set built last with this outcome model when it is for this policy
    object, these groups and this bin count and, where they are given, this
    grid and institution. The outcome model keeps that one set, so a
    simulated run that asks for it in the loop and again in ``step``
    computes it once, and the policies a trajectory keeps hold no
    products. A set for a new policy under the same groups, bin count, grid
    and institution takes the policy-free vectors from the last set."""
    terms = outcome._terms
    ids = tuple(group_ids)
    n = len(pmfs[0]) if len(pmfs) else 0
    same_model = (
        terms is not None
        and terms.group_ids == ids
        and terms.tau.shape == (len(ids), n)
        and all(len(pmf) == n for pmf in pmfs)
        and (grid is None or terms.grid is grid)
        and (inst is None or terms.inst is inst)
    )
    if not same_model or terms.policy is not policy:
        model = None
        if same_model and terms.grid is grid and terms.inst is inst:
            model = terms
        terms = _PolicyTerms(policy, outcome, ids, pmfs, grid, inst, model)
        object.__setattr__(outcome, "_terms", terms)
    return terms


def _utility_weights(tau: np.ndarray, unit_utility: np.ndarray) -> np.ndarray:
    """Expected institution utility of an applicant at each bin, from the
    acceptance probabilities and ``InstitutionModel.per_bin_utility``."""
    return tau * unit_utility


def _utility(
    proportions: Sequence[float],
    pmfs: Sequence[np.ndarray],
    weights: Sequence[np.ndarray],
) -> float:
    """Expected utility per applicant: the proportion-weighted sum over groups
    of each pmf against its ``_utility_weights``."""
    total = 0.0
    for proportion, pmf, weight in zip(proportions, pmfs, weights):
        total += proportion * float(pmf.dot(weight))
    return total


def _acceptance(pmf: np.ndarray, tau: np.ndarray) -> float:
    """Probability that a member with score pmf ``pmf`` is accepted."""
    return float(pmf.dot(tau))


def acceptance_rate(policy: Policy, group: GroupState) -> float:
    """Probability that a random member of the group is accepted."""
    tau = policy.tau(group.group_id)
    _check_lengths(group.group_id, tau=tau, pmf=group.pmf)
    return _acceptance(group.pmf, tau)


def threshold_levels(
    pmf: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold bin and boundary acceptance of the randomized threshold
    policy at every acceptance rate in ``rates``, in one pass.

    Acceptance mass is allocated from the highest score bin downward: every
    bin above the threshold bin is accepted, the threshold bin with the
    boundary acceptance, nothing below. The top-down cumulative mass is a
    sequential sum, so each threshold equals the one a bin-by-bin scan finds.
    Zero-mass bins repeat a cumulative value; the search takes the highest
    bin that reaches the rate. Memory is O(len(rates) + len(pmf)).
    """
    rates = np.asarray(rates, dtype=float)
    # Written so that NaN fails the check too.
    if not np.all((rates >= 0.0) & (rates <= 1.0)):
        raise DomainError(f"target rate outside [0,1] in {rates}")
    n = len(pmf)
    reach = np.cumsum(pmf[::-1])  # mass of the top k+1 bins
    k = np.minimum(np.searchsorted(reach, rates, side="left"), n - 1)
    bins = n - 1 - k
    above = np.concatenate(([0.0], reach))[k]
    mass = pmf[bins]
    fractions = np.divide(
        rates - above, mass, out=np.zeros_like(rates), where=mass > 0
    )
    return bins, np.clip(fractions, 0.0, 1.0)


def threshold_values(
    pmf: np.ndarray, weight: np.ndarray, bins: np.ndarray, fractions: np.ndarray
) -> np.ndarray:
    """``sum_x pmf[x] * tau[x] * weight[x]`` for every threshold policy
    ``(bins, fractions)`` of :func:`threshold_levels`, without expanding any
    of them: the weighted mass above the threshold bin plus the boundary
    share of the threshold bin itself."""
    pw = pmf * weight
    above = np.concatenate(([0.0], np.cumsum(pw[::-1])))
    return above[len(pw) - 1 - bins] + fractions * pw[bins]


def threshold_policy_for_rate(
    group: GroupState, target_rate: float
) -> RandomizedThresholdPolicy:
    """Randomized threshold whose acceptance rate equals ``target_rate`` exactly.

    Acceptance mass is allocated from the highest score bin downward, so the
    expanded policy is monotone nondecreasing in score.
    """
    bins, fractions = threshold_levels(group.pmf, np.array([target_rate]))
    return RandomizedThresholdPolicy(
        {group.group_id: GroupThreshold(int(bins[0]), float(fractions[0]))}
    )


def institution_utility(
    policy: Policy,
    pop: Population,
    outcome: "OutcomeModel",
    inst: InstitutionModel,
) -> float:
    """Expected utility per applicant across the whole population."""
    weights = []
    for g in pop.groups:
        tau, rho = policy.tau(g.group_id), outcome.rho_for(g.group_id)
        _check_lengths(g.group_id, tau=tau, rho=rho, pmf=g.pmf)
        weights.append(_utility_weights(tau, inst.per_bin_utility(rho)))
    return _utility(
        [g.proportion for g in pop.groups], [g.pmf for g in pop.groups], weights
    )
