"""One-step feedback dynamics of selection on score distributions.

An accepted individual at bin x succeeds with probability rho(x) and moves
up steps_up bins; on failure they move down steps_down bins. Rejected
individuals stay put. Iterating the step yields a deterministic evolution of
the per-group pmfs. Expected score impacts are benefit = steps_up*bin_width
and cost = -steps_down*bin_width, so the per-bin expected change for a
selected individual is benefit*rho + cost*(1-rho).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DomainError, InfeasibilityError
from .metrics import MetricReport, OutcomeModel, metric_report
from .policy import InstitutionModel, Policy, acceptance_rate, institution_utility
from .population import (
    GroupState,
    Population,
    ScoreGrid,
    _check_lengths,
    group_mean,
    validate_population,
)

MAX_HORIZON = 10**5
MASS_TOL = 1e-12


class RegimeLabel(enum.Enum):
    IMPROVEMENT = "improvement"
    STAGNATION = "stagnation"
    DECLINE = "decline"


@dataclass(frozen=True)
class TrajectoryStep:
    step: int
    population: Population
    policy: Policy
    metrics: Optional[MetricReport]
    delta_mu: Mapping[str, float]
    regime: Mapping[str, RegimeLabel]
    utility: float
    intervention_active: tuple[bool, ...]


@dataclass(frozen=True)
class Trajectory:
    steps: tuple[TrajectoryStep, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def final(self) -> TrajectoryStep:
        return self.steps[-1]


def group_delta_mu(
    group: GroupState,
    policy: Policy,
    outcome: OutcomeModel,
    grid: ScoreGrid,
) -> float:
    """Expected score change for the group as a whole.

    Unselected individuals contribute zero.
    """
    tau = policy.tau(group.group_id)
    delta = outcome.score_change(group.group_id, grid)
    _check_lengths(group.group_id, pmf=group.pmf, tau=tau, delta=delta)
    return float(group.pmf @ (tau * delta))


def classify_regime(delta_mu: float, tol: float) -> RegimeLabel:
    if not math.isfinite(delta_mu):
        raise DomainError(f"delta mu {delta_mu} is not finite")
    if not tol > 0:
        raise DomainError(f"regime tolerance {tol} must be positive")
    if delta_mu > tol:
        return RegimeLabel.IMPROVEMENT
    if delta_mu < -tol:
        return RegimeLabel.DECLINE
    return RegimeLabel.STAGNATION


def step(pop: Population, policy: Policy, outcome: OutcomeModel) -> Population:
    """Advance the population by one decision round.

    Accepted mass at each bin splits into a success part moving up and a
    failure part moving down, clamped at the grid boundaries; rejected mass
    stays. Group proportions are unchanged. ``pop`` must be valid; it is not
    rechecked, and on a valid population the step conserves each group's mass.
    """
    n = len(pop.grid.bin_scores)
    idx = np.arange(n)
    up = np.minimum(idx + outcome.steps_up, n - 1)
    down = np.maximum(idx - outcome.steps_down, 0)
    new_groups = []
    for g in pop.groups:
        pmf = g.pmf
        tau = policy.tau(g.group_id)
        rho = outcome.rho_for(g.group_id)
        _check_lengths(g.group_id, pmf=pmf, tau=tau, rho=rho)
        new = pmf * (1.0 - tau)
        np.add.at(new, up, pmf * tau * rho)
        np.add.at(new, down, pmf * tau * (1.0 - rho))
        new_groups.append(g.with_pmf(new))
    return pop.with_groups(new_groups)


def _require_valid(pop: Population) -> None:
    report = validate_population(pop)
    if not report.ok:
        raise DomainError("invalid population: " + "; ".join(report.violations))


PolicyFn = Callable[[int, Population], Policy]
PreStepFn = Callable[[int, Population], Population]
FlagsFn = Callable[[int], tuple[bool, ...]]


def simulate(
    pop: Population,
    policy_fn: PolicyFn,
    outcome: OutcomeModel,
    inst: InstitutionModel,
    horizon: int,
    regime_tol: float = 1e-9,
    metric_pair: Optional[tuple[str, str]] = None,
    pre_step: Optional[PreStepFn] = None,
    flags_fn: Optional[FlagsFn] = None,
) -> Trajectory:
    """Run the feedback model for ``horizon`` transitions.

    ``policy_fn`` is evaluated against the current population at every step,
    which models an institution continuously re-applying its decision rule.
    ``pre_step`` and ``flags_fn`` are hooks for scenario interventions; with
    both unset the loop is the bare feedback model. Fully deterministic.
    ``pop`` and each population ``pre_step`` returns are validated once.
    """
    if horizon < 0 or horizon > MAX_HORIZON:
        raise DomainError(f"horizon {horizon} outside [0, {MAX_HORIZON}]")
    _require_valid(pop)
    if metric_pair is None and len(pop.groups) >= 2:
        metric_pair = (pop.groups[0].group_id, pop.groups[1].group_id)
    records = []
    cur = pop
    for t in range(horizon + 1):
        if pre_step is not None:
            cur = pre_step(t, cur)
            _require_valid(cur)
        try:
            pol = policy_fn(t, cur)
        except InfeasibilityError as exc:
            raise InfeasibilityError(f"step {t}: {exc}") from exc
        dmu = {
            g.group_id: group_delta_mu(g, pol, outcome, cur.grid)
            for g in cur.groups
        }
        regimes = {
            gid: classify_regime(v, regime_tol) for gid, v in dmu.items()
        }
        metrics = None
        if metric_pair is not None:
            metrics = metric_report(cur, outcome, pol, *metric_pair)
        util = institution_utility(pol, cur, outcome, inst)
        flags = flags_fn(t) if flags_fn is not None else ()
        records.append(
            TrajectoryStep(t, cur, pol, metrics, dmu, regimes, util, flags)
        )
        if t < horizon:
            cur = step(cur, pol, outcome)
    return Trajectory(tuple(records))


def is_stationary(traj: Trajectory, window: int, eps: float) -> bool:
    """True iff every group pmf moved less than ``eps`` in total variation
    over each of the last ``window`` transitions."""
    if window <= 0:
        raise DomainError(f"window {window} must be positive")
    if eps <= 0:
        raise DomainError(f"eps {eps} must be positive")
    if len(traj) < window + 1:
        raise DomainError(
            f"trajectory of length {len(traj)} shorter than window {window} + 1"
        )
    steps = traj.steps[-(window + 1) :]
    for prev, nxt in zip(steps, steps[1:]):
        for g_prev, g_next in zip(prev.population.groups, nxt.population.groups):
            tv = 0.5 * float(np.abs(g_prev.pmf - g_next.pmf).sum())
            if tv >= eps:
                return False
    return True


@dataclass(frozen=True)
class MonteCarloReport:
    acceptance: Mapping[str, float]
    acceptance_se: Mapping[str, float]
    delta_mu: Mapping[str, float]
    delta_mu_se: Mapping[str, float]
    n: int
    seed: int


def monte_carlo_validate(
    pop: Population,
    policy: Policy,
    outcome: OutcomeModel,
    n: int,
    seed: int,
) -> MonteCarloReport:
    """Sampled counterpart of the exact engine, for cross-validation.

    Draws n individuals per group (bin from the pmf, acceptance from tau,
    outcome from rho) and reports empirical acceptance rates and mean score
    change with standard errors. Deterministic given the seed.
    """
    if n < 1:
        raise DomainError(f"sample count {n} must be >= 1")
    rng = np.random.default_rng(seed)
    grid = pop.grid
    acc = {}
    acc_se = {}
    dmu = {}
    dmu_se = {}
    for g in pop.groups:
        pmf = g.pmf
        tau = policy.tau(g.group_id)
        rho = outcome.rho_for(g.group_id)
        bins = rng.choice(len(pmf), size=n, p=pmf / pmf.sum())
        accepted = rng.random(n) < tau[bins]
        succeeded = rng.random(n) < rho[bins]
        change = np.where(
            accepted,
            np.where(succeeded, outcome.benefit(grid), outcome.cost(grid)),
            0.0,
        )
        a = accepted.astype(float)
        acc[g.group_id] = float(a.mean())
        acc_se[g.group_id] = float(a.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        dmu[g.group_id] = float(change.mean())
        dmu_se[g.group_id] = (
            float(change.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        )
    return MonteCarloReport(acc, acc_se, dmu, dmu_se, n, seed)


TRAJECTORY_COLUMNS = (
    "step",
    "group",
    "mean_score",
    "acceptance_rate",
    "delta_mu",
    "regime",
    "dp_gap",
    "eo_gap",
    "eodds_gap",
    "utility",
    "intervention_active",
)


def trajectory_rows(traj: Trajectory) -> list[dict]:
    """Flatten a trajectory to one row per (step, group) for CSV output."""
    rows = []
    for rec in traj.steps:
        active = ";".join(str(int(f)) for f in rec.intervention_active)
        for g in rec.population.groups:
            m = rec.metrics
            rows.append(
                {
                    "step": rec.step,
                    "group": g.group_id,
                    "mean_score": group_mean(g, rec.population.grid),
                    "acceptance_rate": acceptance_rate(rec.policy, g),
                    "delta_mu": rec.delta_mu[g.group_id],
                    "regime": rec.regime[g.group_id].value,
                    "dp_gap": m.dp_gap if m else float("nan"),
                    "eo_gap": m.eo_gap if m else float("nan"),
                    "eodds_gap": m.eodds_gap if m else float("nan"),
                    "utility": rec.utility,
                    "intervention_active": active,
                }
            )
    return rows
