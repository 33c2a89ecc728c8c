"""Selection policies: per-group acceptance probabilities per score bin.

Policies are probability vectors rather than hard thresholds so that any
acceptance rate is exactly realizable on a discrete grid. The randomized
threshold form accepts every bin above a threshold, the threshold bin with
a fractional probability, and nothing below.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import DomainError
from .population import GroupState, Population, ScoreGrid, _check_lengths, _vector

if TYPE_CHECKING:
    from .metrics import OutcomeModel


@dataclass(frozen=True, eq=False)
class Policy:
    """Acceptance probability per bin, keyed by group label; every entry is
    checked to lie in [0, 1]. ``acceptance`` is a read-only mapping of
    read-only vectors, so the check holds for the policy's lifetime."""

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
        object.__setattr__(self, "acceptance", MappingProxyType(acc))

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
    total = 0.0
    for g in pop.groups:
        tau, rho = policy.tau(g.group_id), outcome.rho_for(g.group_id)
        _check_lengths(g.group_id, tau=tau, rho=rho, pmf=g.pmf)
        total += g.proportion * float(g.pmf.dot(tau * inst.per_bin_utility(rho)))
    return total
