"""Observational group-fairness metrics over exact discrete models.

Everything is computed in closed form from the population pmfs, the success
probabilities and the policy; no sampling. The true label is Bernoulli with
the bin's success probability, and the decision is Bernoulli with the bin's
acceptance probability, independent of the label given group and score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, UndefinedConditionalError
from .policy import Policy, _acceptance
from .population import (
    Population, ScoreGrid, _check_lengths, _integer, _is_integer, _real, _real_vector,
)

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
        # Messages start with the field, so a loader can prefix its section.
        for name in ("steps_up", "steps_down"):
            steps = _integer(getattr(self, name), name)
            if steps < 0:
                raise DomainError(f"{name} {steps} must be nonnegative")
            object.__setattr__(self, name, steps)
        rho = {gid: _real_vector(r, f"rho[{gid}]") for gid, r in self.rho.items()}
        for gid, r in rho.items():
            # Written so that NaN fails the check too.
            if not np.all((r >= 0) & (r <= 1)):
                raise DomainError(f"rho[{gid}]: entries outside [0,1] or NaN")
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
        return self._score_change(self.rho_for(group_id), grid)

    def _score_change(self, rho: np.ndarray, grid: ScoreGrid) -> np.ndarray:
        """``score_change`` at success probabilities ``rho``, an array of any
        shape: of several groups' rows, elementwise as of each group's."""
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
    """Acceptance rate, true-positive rate and false-positive rate of group
    ``label``. A rate conditioned on a group's zero qualified (or
    unqualified) mass is NaN.

    Each reduction is one ``pmf.dot(vector)`` (the BLAS dot that ``@`` also
    calls, with less call overhead); stacking them into one matrix product
    would change the rounding.
    """
    pmf = pop.group(label).pmf
    tau, rho = policy.tau(label), outcome.rho_for(label)
    _check_lengths(label, pmf=pmf, tau=tau, rho=rho)
    fail = 1.0 - rho
    qualified = float(pmf.dot(rho))
    unqualified = float(pmf.dot(fail))
    tpr = float(pmf.dot(tau * rho)) / qualified if qualified > 0 else math.nan
    fpr = float(pmf.dot(tau * fail)) / unqualified if unqualified > 0 else math.nan
    return _acceptance(pmf, tau), tpr, fpr


def _gaps(acc0, acc1, tpr0, tpr1, fpr0, fpr1):
    """Demographic-parity, equal-opportunity and equalized-odds gaps of two
    groups' rates: of two numbers, or row by row of two columns. The
    equalized-odds gap is the larger of the TPR and FPR gaps, and the TPR gap
    where that comparison is undecided (NaN), as ``max`` returns."""
    eo = abs(tpr0 - tpr1)
    fpr_gap = abs(fpr0 - fpr1)
    return abs(acc0 - acc1), eo, np.where(fpr_gap > eo, fpr_gap, eo)


def demographic_parity_gap(
    pop: Population, outcome: OutcomeModel, policy: Policy, a0: str, a1: str
) -> float:
    """Absolute difference in acceptance rates between the two groups."""
    return metric_report(pop, outcome, policy, a0, a1).dp_gap


def equal_opportunity_gap(
    pop: Population, outcome: OutcomeModel, policy: Policy, a0: str, a1: str
) -> float:
    """Absolute difference in true-positive rates (acceptance among the qualified)."""
    report = metric_report(pop, outcome, policy, a0, a1)
    for label in (a0, a1):
        if math.isnan(report.tpr[label]):
            raise UndefinedConditionalError(
                f"group {label!r} has zero qualified mass; true-positive rate undefined"
            )
    return report.eo_gap


def equalized_odds_gap(
    pop: Population, outcome: OutcomeModel, policy: Policy, a0: str, a1: str
) -> float:
    """Max of the true-positive and false-positive rate gaps."""
    report = metric_report(pop, outcome, policy, a0, a1)
    for label in (a0, a1):
        if math.isnan(report.tpr[label]):
            raise UndefinedConditionalError(f"group {label!r} has zero qualified mass")
        if math.isnan(report.fpr[label]):
            raise UndefinedConditionalError(
                f"group {label!r} has zero unqualified mass"
            )
    return report.eodds_gap


def metric_report(
    pop: Population, outcome: OutcomeModel, policy: Policy, a0: str, a1: str
) -> MetricReport:
    (acc0, tpr0, fpr0), (acc1, tpr1, fpr1) = (
        _rates(pop, outcome, policy, label) for label in (a0, a1)
    )
    dp, eo, eodds = _gaps(acc0, acc1, tpr0, tpr1, fpr0, fpr1)
    return MetricReport(
        a0,
        a1,
        dp,
        eo,
        float(eodds),
        {a0: acc0, a1: acc1},
        {a0: tpr0, a1: tpr1},
        {a0: fpr0, a1: fpr1},
    )


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

    ``lipschitz`` is a positive, finite real number, each pair two (group,
    bin) entries, each group one of the policy's and each bin an integer in
    [0, bins); else ``DomainError``, naming the pair for a pair's fault.
    """
    if not 0 < _real(lipschitz, "lipschitz constant") < math.inf:  # NaN fails too
        raise DomainError(f"lipschitz constant {lipschitz} must be positive and finite")
    scores = pop.grid.bin_scores
    n = len(scores)
    out = []
    for pair in pairs:
        try:
            (g1, b1), (g2, b2) = pair
        except (TypeError, ValueError):
            raise DomainError(
                f"pair {pair!r}: must be two (group, bin) entries"
            ) from None
        for g in (g1, g2):
            if g not in policy.group_ids:
                raise DomainError(f"pair {pair!r}: policy has no group {g!r}")
        if not all(_is_integer(b) and 0 <= b < n for b in (b1, b2)):
            raise DomainError(f"pair {pair!r}: bins must be integers in [0, {n})")
        b1, b2 = int(b1), int(b2)
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
    tau = policy._rows(ids)
    return bool(np.all(np.abs(tau[1:] - tau[0]) <= EQ_TOL))
