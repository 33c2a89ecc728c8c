"""Observational group-fairness metrics over exact discrete models.

Everything is computed in closed form from the population pmfs, the success
probabilities and the policy; no sampling. The true label is Bernoulli with
the bin's success probability, and the decision is Bernoulli with the bin's
acceptance probability, independent of the label given group and score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, UndefinedConditionalError
from .policy import Policy
from .population import Population, ScoreGrid, _check_lengths, _vector

EQ_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OutcomeModel:
    """Success probability per bin per group, plus the score impact of a decision.

    ``steps_up`` bins are gained on an accepted success, ``steps_down`` bins
    are lost on an accepted failure. The corresponding score impacts are
    ``steps_up * bin_width`` and ``-steps_down * bin_width``.
    """

    rho: Mapping[str, np.ndarray]
    steps_up: int
    steps_down: int

    def __post_init__(self):
        if self.steps_up < 0 or self.steps_down < 0:
            raise DomainError("step counts must be nonnegative")
        rho = {gid: _vector(r) for gid, r in self.rho.items()}
        for gid, r in rho.items():
            # Written so that NaN fails the check too.
            if not np.all((r >= 0) & (r <= 1)):
                raise DomainError(f"group {gid!r}: rho entries outside [0,1] or NaN")
        object.__setattr__(self, "rho", rho)

    def rho_for(self, group_id: str) -> np.ndarray:
        if group_id not in self.rho:
            raise KeyError(f"outcome model has no rho for group {group_id!r}")
        return self.rho[group_id]

    def benefit(self, grid: ScoreGrid) -> float:
        return self.steps_up * grid.bin_width

    def cost(self, grid: ScoreGrid) -> float:
        return -self.steps_down * grid.bin_width

    def score_change(self, group_id: str, grid: ScoreGrid) -> np.ndarray:
        """Expected score change of a selected individual at each bin."""
        rho = self.rho_for(group_id)
        return self.benefit(grid) * rho + self.cost(grid) * (1.0 - rho)


@dataclass(frozen=True)
class MetricReport:
    """Pairwise fairness gaps and the per-group rates behind them."""

    group_a: str
    group_b: str
    dp_gap: float
    eo_gap: float
    eodds_gap: float
    acceptance: Mapping[str, float]
    tpr: Mapping[str, float]
    fpr: Mapping[str, float]


def _rates(pop: Population, outcome: OutcomeModel, policy: Policy, label: str):
    pmf = pop.group(label).pmf
    tau = policy.tau(label)
    rho = outcome.rho_for(label)
    _check_lengths(label, pmf=pmf, tau=tau, rho=rho)
    acc = float(pmf @ tau)
    qualified = float(pmf @ rho)
    unqualified = float(pmf @ (1.0 - rho))
    tpr = None
    fpr = None
    if qualified > 0:
        tpr = float(pmf @ (tau * rho)) / qualified
    if unqualified > 0:
        fpr = float(pmf @ (tau * (1.0 - rho))) / unqualified
    return acc, tpr, fpr


def demographic_parity_gap(
    pop: Population, outcome: OutcomeModel, policy: Policy, a0: str, a1: str
) -> float:
    """Absolute difference in acceptance rates between the two groups."""
    r0, _, _ = _rates(pop, outcome, policy, a0)
    r1, _, _ = _rates(pop, outcome, policy, a1)
    return abs(r0 - r1)


def equal_opportunity_gap(
    pop: Population, outcome: OutcomeModel, policy: Policy, a0: str, a1: str
) -> float:
    """Absolute difference in true-positive rates (acceptance among the qualified)."""
    _, t0, _ = _rates(pop, outcome, policy, a0)
    _, t1, _ = _rates(pop, outcome, policy, a1)
    if t0 is None:
        raise UndefinedConditionalError(
            f"group {a0!r} has zero qualified mass; true-positive rate undefined"
        )
    if t1 is None:
        raise UndefinedConditionalError(
            f"group {a1!r} has zero qualified mass; true-positive rate undefined"
        )
    return abs(t0 - t1)


def equalized_odds_gap(
    pop: Population, outcome: OutcomeModel, policy: Policy, a0: str, a1: str
) -> float:
    """Max of the true-positive and false-positive rate gaps."""
    _, t0, f0 = _rates(pop, outcome, policy, a0)
    _, t1, f1 = _rates(pop, outcome, policy, a1)
    for label, t, f in ((a0, t0, f0), (a1, t1, f1)):
        if t is None:
            raise UndefinedConditionalError(
                f"group {label!r} has zero qualified mass"
            )
        if f is None:
            raise UndefinedConditionalError(
                f"group {label!r} has zero unqualified mass"
            )
    return max(abs(t0 - t1), abs(f0 - f1))


def metric_report(
    pop: Population, outcome: OutcomeModel, policy: Policy, a0: str, a1: str
) -> MetricReport:
    acc = {}
    tpr = {}
    fpr = {}
    for label in (a0, a1):
        a, t, f = _rates(pop, outcome, policy, label)
        acc[label] = a
        tpr[label] = float("nan") if t is None else t
        fpr[label] = float("nan") if f is None else f
    dp = abs(acc[a0] - acc[a1])
    eo = abs(tpr[a0] - tpr[a1])
    eodds = max(eo, abs(fpr[a0] - fpr[a1]))
    return MetricReport(a0, a1, dp, eo, eodds, acc, tpr, fpr)


PairSpec = tuple[tuple[str, int], tuple[str, int]]


def individual_fairness_violations(
    pop: Population,
    policy: Policy,
    lipschitz: float,
    pairs: Iterable[PairSpec],
) -> list[tuple[PairSpec, float]]:
    """Pairs of (group, bin) whose acceptance probabilities differ by more
    than the Lipschitz bound on their score distance.

    Output distance is the absolute acceptance-probability difference;
    input distance is ``lipschitz * |score difference|``. This is one
    admissible instantiation of the abstract distance pair.
    """
    if lipschitz <= 0:
        raise DomainError(f"lipschitz constant {lipschitz} must be positive")
    scores = pop.grid.bin_scores
    out = []
    for pair in pairs:
        (g1, b1), (g2, b2) = pair
        d_out = abs(float(policy.tau(g1)[b1]) - float(policy.tau(g2)[b2]))
        d_in = lipschitz * abs(float(scores[b1]) - float(scores[b2]))
        slack = d_out - d_in
        if slack > EQ_TOL:
            out.append((pair, slack))
    return out


def unawareness_check(policy: Policy) -> bool:
    """True iff the decision is a function of score alone (all groups share tau)."""
    ids = policy.group_ids
    if len(ids) < 2:
        raise DomainError("unawareness check needs a policy over at least two groups")
    ref = policy.tau(ids[0])
    return all(
        np.all(np.abs(policy.tau(gid) - ref) <= EQ_TOL) for gid in ids[1:]
    )
