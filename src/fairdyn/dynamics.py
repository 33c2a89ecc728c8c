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
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import DomainError, InfeasibilityError
from .metrics import MetricReport, OutcomeModel, _gaps
from .policy import InstitutionModel, Policy, _acceptance
from .population import (
    GroupState,
    Population,
    ScoreGrid,
    _check_lengths,
    _rows_valid,
    validate_population,
)

MAX_HORIZON = 10**5
MASS_TOL = 1e-12
# Steps per block of the reductions after a run's loop. A block's weights
# take 40 bytes per group and bin per step, 0.5 MB at 2 groups x 200 bins.
_BLOCK = 32


class RegimeLabel(enum.Enum):
    IMPROVEMENT = "improvement"
    STAGNATION = "stagnation"
    DECLINE = "decline"


_REGIMES = tuple(RegimeLabel)  # a regime code indexes this tuple


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


@dataclass(frozen=True, eq=False)
class TrajectoryColumns:
    """Everything a run records, as read-only arrays whose row ``t`` belongs
    to step ``t`` (0 to the horizon) and whose group axis follows
    ``group_ids``.

    ``states`` (steps, groups, bins) and ``proportions`` hold the population
    after the ``pre_step`` hook; ``initial`` is step 0's population object
    itself. ``policies`` holds each step's policy, one shared object for the
    steps a policy serves. ``acceptance``, ``tpr`` and ``fpr`` have one
    column per group of ``metric_pair`` (none without a pair); ``tpr``/``fpr``
    are NaN where a group has no qualified/unqualified mass, and the gap
    columns are NaN without a metric pair. ``regime`` holds indices into
    ``tuple(RegimeLabel)`` and ``flags`` the intervention flags (steps,
    flags).
    """

    grid: ScoreGrid
    group_ids: tuple[str, ...]
    metric_pair: Optional[tuple[str, str]]
    initial: Population
    states: np.ndarray
    proportions: np.ndarray
    policies: tuple[Policy, ...]
    acceptance: np.ndarray
    tpr: np.ndarray
    fpr: np.ndarray
    delta_mu: np.ndarray
    regime: np.ndarray
    utility: np.ndarray
    dp_gap: np.ndarray
    eo_gap: np.ndarray
    eodds_gap: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def record(self, t: int) -> TrajectoryStep:
        """Step ``t`` as a ``TrajectoryStep``; its population is a view over
        row ``t`` of ``states`` (step 0: ``initial``)."""
        ids = self.group_ids
        pop = self.initial
        if t > 0:
            pop = _population_view(
                self.grid, ids, self.proportions[t].tolist(), self.states[t]
            )
        metrics = None
        if self.metric_pair is not None:
            a0, a1 = self.metric_pair
            metrics = MetricReport(
                a0,
                a1,
                float(self.dp_gap[t]),
                float(self.eo_gap[t]),
                float(self.eodds_gap[t]),
                *(
                    {a0: float(col[t, 0]), a1: float(col[t, 1])}
                    for col in (self.acceptance, self.tpr, self.fpr)
                ),
            )
        return TrajectoryStep(
            t,
            pop,
            self.policies[t],
            metrics,
            dict(zip(ids, self.delta_mu[t].tolist())),
            {gid: _REGIMES[code] for gid, code in zip(ids, self.regime[t].tolist())},
            float(self.utility[t]),
            tuple(self.flags[t].tolist()),
        )


def _columns_of(steps: Sequence[TrajectoryStep]) -> TrajectoryColumns:
    """The columns of a trajectory given as ``TrajectoryStep`` records."""
    first = steps[0]
    ids = first.population.group_ids
    m = first.metrics
    pair = None if m is None else (m.group_a, m.group_b)

    def column(value, dtype=float):
        return np.array([value(rec) for rec in steps], dtype=dtype)

    return TrajectoryColumns(
        first.population.grid,
        ids,
        pair,
        first.population,
        column(lambda rec: [g.pmf for g in rec.population.groups]),
        column(lambda rec: [g.proportion for g in rec.population.groups]),
        tuple(rec.policy for rec in steps),
        *(
            column(lambda rec: [getattr(rec.metrics, name)[a] for a in pair or ()])
            for name in ("acceptance", "tpr", "fpr")
        ),
        column(lambda rec: [rec.delta_mu[gid] for gid in ids]),
        column(lambda rec: [_REGIMES.index(rec.regime[gid]) for gid in ids], np.int8),
        column(lambda rec: rec.utility),
        *(
            column(lambda rec: math.nan if pair is None else getattr(rec.metrics, name))
            for name in ("dp_gap", "eo_gap", "eodds_gap")
        ),
        column(lambda rec: rec.intervention_active, bool).reshape(len(steps), -1),
    )


class _StepViews(Sequence):
    """The steps of a run as ``TrajectoryStep`` views over ``columns``, built
    on each access; a slice gives a tuple."""

    def __init__(self, columns: TrajectoryColumns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns.utility)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[t] for t in range(len(self))[index])
        return self.columns.record(range(len(self))[index])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The record of one run: ``steps``, one ``TrajectoryStep`` per step, and
    the same run as ``columns``.

    ``simulate`` keeps a run as columns only; its ``steps`` are views over
    them, built on access, so a run keeps no per-step objects. A trajectory
    made from records, such as ``dataclasses.replace(traj, steps=...)``,
    builds its columns from those records on first use.
    """

    steps: Sequence[TrajectoryStep]

    @functools.cached_property
    def columns(self) -> TrajectoryColumns:
        if isinstance(self.steps, _StepViews):
            return self.steps.columns
        return _columns_of(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def final(self) -> TrajectoryStep:
        return self.steps[-1]


def _dots(pmfs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``pmfs[..., i, :].dot(weights[..., i, k, :])`` for every leading index,
    group ``i`` and weight ``k``, as an array of shape ``weights.shape[:-1]``.

    Each entry is one (1 x n)(n x 1) product of a stacked ``np.matmul``,
    which calls the BLAS dot that ``pmf.dot(w)`` calls, so it equals the
    per-row dot bit for bit. ``A @ v`` (a matrix-vector product) and
    ``np.einsum`` sum in other orders and round some results differently.
    """
    return np.matmul(pmfs[..., None, None, :], weights[..., None])[..., 0, 0]


def group_delta_mu(
    group: GroupState,
    policy: Policy,
    outcome: OutcomeModel,
    grid: ScoreGrid,
) -> float:
    """Expected score change for the group as a whole.

    Unselected individuals contribute zero.
    """
    gid = group.group_id
    tau = policy.tau(gid)
    _check_lengths(gid, pmf=group.pmf, tau=tau, rho=outcome.rho_for(gid))
    return float(group.pmf.dot(tau * outcome.score_change(gid, grid)))


def _check_finite(delta_mu: float) -> None:
    if not math.isfinite(delta_mu):
        raise DomainError(f"delta mu {delta_mu} is not finite")


def _check_regime_tol(tol: float) -> None:
    if not tol > 0:
        raise DomainError(f"regime tolerance {tol} must be positive")


def _regime_codes(delta_mu: np.ndarray, tol: float) -> np.ndarray:
    """Index into ``tuple(RegimeLabel)`` of each expected score change, for
    finite changes and a positive tolerance."""
    codes = np.full(
        delta_mu.shape, _REGIMES.index(RegimeLabel.STAGNATION), dtype=np.int8
    )
    codes[delta_mu > tol] = _REGIMES.index(RegimeLabel.IMPROVEMENT)
    codes[delta_mu < -tol] = _REGIMES.index(RegimeLabel.DECLINE)
    return codes


def classify_regime(delta_mu: float, tol: float) -> RegimeLabel:
    _check_finite(delta_mu)
    _check_regime_tol(tol)
    return _REGIMES[int(_regime_codes(np.array([delta_mu], dtype=float), tol)[0])]


def _add_in_order(column: np.ndarray, terms: np.ndarray) -> None:
    """``column[g] += terms[g, 0]``, then ``terms[g, 1]``, and so on: one
    rounded float64 add at a time, as ``np.add.at`` adds repeated indices.

    The adds are Python float adds: for a few groups and a few edge terms
    that is faster than one numpy add per column of ``terms``, whose call
    overhead is larger than the arithmetic."""
    sums = column.tolist()
    for g, row in enumerate(terms.tolist()):
        for term in row:
            sums[g] += term
    column[:] = sums


class _PolicyTerms:
    """The per-bin vectors ``step`` reads for a policy, one row per group in
    the order of ``group_ids``: ``tau``, ``keep = 1 - tau``, ``rho`` and
    ``fail = 1 - rho``. The lengths of every group's pmf, acceptance and
    success vectors are checked here, once per policy."""

    def __init__(
        self,
        policy: Policy,
        outcome: OutcomeModel,
        group_ids: Sequence[str],
        pmfs: Sequence[np.ndarray],
    ):
        taus, rhos = [], []
        for gid, pmf in zip(group_ids, pmfs):
            tau, rho = policy.tau(gid), outcome.rho_for(gid)
            _check_lengths(gid, pmf=pmf, tau=tau, rho=rho)
            taus.append(tau)
            rhos.append(rho)
        self.policy, self.group_ids = policy, tuple(group_ids)
        self.tau = np.array(taus)
        self.keep = 1.0 - self.tau
        self.rho = np.array(rhos)
        self.fail = 1.0 - self.rho


def _policy_terms(
    policy: Policy,
    outcome: OutcomeModel,
    group_ids: Sequence[str],
    pmfs: Sequence[np.ndarray],
) -> _PolicyTerms:
    """``_PolicyTerms(policy, outcome, group_ids, pmfs)``, or the set built
    last with this outcome model when it is for this policy object, these
    groups and this bin count. The outcome model keeps that one set, so a run
    that asks for it in the loop and again in ``step`` computes it once, and
    the policies a trajectory keeps hold no products."""
    terms = outcome._terms
    ids = tuple(group_ids)
    n = len(pmfs[0]) if len(pmfs) else 0
    if (
        terms is None
        or terms.policy is not policy
        or terms.group_ids != ids
        or terms.tau.shape != (len(ids), n)
        or any(len(pmf) != n for pmf in pmfs)
    ):
        terms = _PolicyTerms(policy, outcome, ids, pmfs)
        object.__setattr__(outcome, "_terms", terms)
    return terms


def _advance(
    terms: _PolicyTerms,
    pmf: np.ndarray,
    steps_up: int,
    steps_down: int,
    out: np.ndarray,
) -> None:
    """Write the next pmfs of every group (rows of ``pmf``) into ``out``.

    Bit for bit the sum ``pmf * (1 - tau)``, then
    ``np.add.at(new, up, pmf * tau * rho)``, then
    ``np.add.at(new, down, pmf * tau * (1 - rho))`` with clamped shifts
    ``up``/``down``: each bin below the top receives one success term, so a
    slice add gives it, and the top bin receives the rest, added one by one in
    index order; failures likewise, with the bottom bin.
    """
    n = pmf.shape[1]
    accepted = pmf * terms.tau
    success = accepted * terms.rho
    failure = accepted * terms.fail
    np.multiply(pmf, terms.keep, out=out)
    single = max(n - 1 - steps_up, 0)
    out[:, n - 1 - single : n - 1] += success[:, :single]
    _add_in_order(out[:, n - 1], success[:, single:])
    single = max(n - 1 - steps_down, 0)
    out[:, 1 : 1 + single] += failure[:, n - single :]
    _add_in_order(out[:, 0], failure[:, : n - single])


def _population_view(
    grid: ScoreGrid,
    group_ids: Sequence[str],
    proportions: Sequence[float],
    pmfs: np.ndarray,
) -> Population:
    """A population over read-only views of the rows of ``pmfs``."""
    rows = pmfs.view()
    rows.setflags(write=False)
    return Population(
        grid,
        tuple(
            GroupState._of_row(gid, p, row)
            for gid, p, row in zip(group_ids, proportions, rows)
        ),
    )


def step(pop: Population, policy: Policy, outcome: OutcomeModel) -> Population:
    """Advance the population by one decision round.

    Accepted mass at each bin splits into a success part moving up and a
    failure part moving down, clamped at the grid boundaries; rejected mass
    stays. Group proportions are unchanged. ``pop`` must be valid; it is not
    rechecked, and on a valid population the step conserves each group's mass.
    Repeated steps under one policy object reuse its products with the
    outcome model.
    """
    ids, pmfs = pop.group_ids, [g.pmf for g in pop.groups]
    terms = _policy_terms(policy, outcome, ids, pmfs)
    pmf = np.array(pmfs)
    out = np.empty_like(pmf)
    _advance(terms, pmf, outcome.steps_up, outcome.steps_down, out)
    return _population_view(pop.grid, ids, [g.proportion for g in pop.groups], out)


def _require_valid(pop: Population) -> None:
    report = validate_population(pop)
    if not report.ok:
        raise DomainError("invalid population: " + "; ".join(report.violations))


def _take_hook_result(
    pop: Population,
    grid: ScoreGrid,
    group_ids: tuple[str, ...],
    pmf_out: np.ndarray,
    proportions_out: np.ndarray,
) -> None:
    """Check a population a ``pre_step`` hook returned and copy it into one
    row of the run. Its grid must equal the run's grid and its group labels
    must come in the run's order; the rest is accepted exactly when
    ``validate_population`` accepts it."""
    same_grid = pop.grid is grid or (
        pop.grid.bin_width == grid.bin_width
        and np.array_equal(pop.grid.bin_scores, grid.bin_scores)
    )
    if not same_grid or pop.group_ids != group_ids:
        raise DomainError(
            "pre_step must return a population over an equal grid and the "
            "same groups, in the same order"
        )
    proportions = [g.proportion for g in pop.groups]
    ok = all(len(g.pmf) == pmf_out.shape[1] for g in pop.groups)
    if ok:
        for row, g in zip(pmf_out, pop.groups):
            row[:] = g.pmf
        proportions_out[:] = proportions
        ok = _rows_valid(pmf_out, proportions)
    if not ok:
        report = validate_population(pop)
        raise DomainError("invalid population: " + "; ".join(report.violations))


def _step_columns(
    states: np.ndarray,
    proportions: np.ndarray,
    policies: Sequence[Policy],
    group_ids: tuple[str, ...],
    pair: list[int],
    rho: np.ndarray,
    change: np.ndarray,
    unit_utility: np.ndarray,
):
    """The acceptance, TPR and FPR columns of the groups ``pair`` indexes,
    and the ``delta_mu`` and utility columns, of a run with these states,
    proportions and per-step policies.

    ``rho``, ``change`` and ``unit_utility`` are the run's success
    probabilities, score changes and per-bin utilities, one row per group.
    The rows go in blocks of ``_BLOCK`` steps: a block gathers its steps'
    acceptance vectors, multiplies them by the run's vectors and reduces
    each row against the products with ``_dots``, so every value equals the
    per-row ``pmf.dot`` of the former per-step loop bit for bit.
    """
    rows, groups, n = states.shape
    fail = 1.0 - rho
    # Per row and group: acceptance, true positives, false positives,
    # delta_mu and utility.
    dots = np.empty((rows, groups, 5))
    for a in range(0, rows, _BLOCK):
        b = min(a + _BLOCK, rows)
        # Each policy object's vectors once, then one set per step.
        slot: dict[Policy, int] = {}
        index = [slot.setdefault(pol, len(slot)) for pol in policies[a:b]]
        tau = np.array([[pol.tau(gid) for gid in group_ids] for pol in slot])
        if len(slot) > 1:
            tau = tau[index]
        w = np.empty((len(tau), groups, 5, n))
        w[:, :, 0] = tau
        np.multiply(tau, rho, out=w[:, :, 1])
        np.multiply(tau, fail, out=w[:, :, 2])
        np.multiply(tau, change, out=w[:, :, 3])
        np.multiply(tau, unit_utility, out=w[:, :, 4])
        dots[a:b] = _dots(states[a:b], w)
    # TPR and FPR: true (false) positives over qualified (unqualified) mass,
    # NaN where that mass is zero.
    pair_dots = dots[:, pair]
    masses = _dots(states, np.stack((rho, fail), axis=1))[:, pair]
    rates = np.full(masses.shape, math.nan)
    np.divide(pair_dots[..., 1:3], masses, out=rates, where=masses > 0)
    # The proportion-weighted sum over groups, in group order.
    utility = np.zeros(rows)
    for i in range(groups):
        utility += proportions[:, i] * dots[:, i, 4]
    # Compact copies, so that the trajectory keeps no intermediate array.
    return (
        pair_dots[..., 0].copy(),
        rates[..., 0].copy(),
        rates[..., 1].copy(),
        dots[:, :, 3].copy(),
        utility,
    )


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
    ``pop`` and each population ``pre_step`` returns are validated once;
    ``pre_step`` keeps the grid's values and the groups in their order, and
    ``flags_fn`` returns the same number of flags at every step.

    The state is one (groups, bins) matrix per step, kept in one
    preallocated array; the hooks see populations over read-only views.
    The loop does only the sequential work: the hooks, ``policy_fn``, the
    flags and one call of ``step`` per transition. The per-step columns
    (``delta_mu``, acceptance, TPR, FPR and utility) are computed after the
    loop from the state array and the kept policies, bit for bit as per-row
    ``pmf.dot`` calls would give them; a non-finite ``delta_mu`` then
    raises ``DomainError``.
    """
    if horizon < 0 or horizon > MAX_HORIZON:
        raise DomainError(f"horizon {horizon} outside [0, {MAX_HORIZON}]")
    _check_regime_tol(regime_tol)
    _require_valid(pop)
    grid, ids = pop.grid, pop.group_ids
    if metric_pair is None and len(ids) >= 2:
        metric_pair = ids[:2]
    pair = []
    if metric_pair is not None:
        pair = [ids.index(pop.group(label).group_id) for label in metric_pair]
    rows, groups, n = horizon + 1, len(ids), len(grid)
    states = np.empty((rows, groups, n))
    proportions = np.empty((rows, groups))
    flags = None
    policies = []
    cur = initial = pop
    pol = None
    for t in range(rows):
        if pre_step is not None:
            cur = pre_step(t, cur)
            _take_hook_result(cur, grid, ids, states[t], proportions[t])
            if t == 0:
                initial = cur
        else:
            states[t] = [g.pmf for g in cur.groups]
            proportions[t] = [g.proportion for g in cur.groups]
        last = pol
        try:
            pol = policy_fn(t, cur)
        except InfeasibilityError as exc:
            raise InfeasibilityError(f"step {t}: {exc}") from exc
        if pol is not last:
            # Checks the lengths at this step; ``step`` reuses the set.
            _policy_terms(pol, outcome, ids, states[t])
        active = flags_fn(t) if flags_fn is not None else ()
        if flags is None:
            flags = np.empty((rows, len(active)), dtype=bool)
        elif len(active) != flags.shape[1]:
            raise DomainError(
                f"flags_fn gave {len(active)} flags at step {t}, "
                f"{flags.shape[1]} at step 0"
            )
        flags[t] = active
        policies.append(pol)
        if t < horizon:
            cur = step(cur, pol, outcome)
    # Step 0's policy set checked every rho length against the grid.
    rho = np.array([outcome.rho_for(gid) for gid in ids])
    change = np.array([outcome.score_change(gid, grid) for gid in ids])
    acceptance, tpr, fpr, delta_mu, utility = _step_columns(
        states, proportions, policies, ids, pair, rho, change, inst.per_bin_utility(rho)
    )
    bad = ~np.isfinite(delta_mu)
    if bad.any():
        _check_finite(float(delta_mu[bad][0]))
    if metric_pair is None:
        gaps = [np.full(rows, math.nan) for _ in range(3)]
    else:
        gaps = _gaps(*(col[:, k] for col in (acceptance, tpr, fpr) for k in (0, 1)))
    columns = TrajectoryColumns(
        grid,
        ids,
        None if metric_pair is None else tuple(metric_pair),
        initial,
        states,
        proportions,
        tuple(policies),
        acceptance,
        tpr,
        fpr,
        delta_mu,
        _regime_codes(delta_mu, regime_tol),
        utility,
        *gaps,
        flags,
    )
    return Trajectory(_StepViews(columns))


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
    states = traj.columns.states[-(window + 1) :]
    tv = 0.5 * np.abs(np.diff(states, axis=0)).sum(axis=2)
    return not np.any(tv >= eps)


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
    c = traj.columns
    scores = c.grid.bin_scores
    delta_mu = c.delta_mu.tolist()
    regime, utility = c.regime.tolist(), c.utility.tolist()
    gaps = zip(c.dp_gap.tolist(), c.eo_gap.tolist(), c.eodds_gap.tolist())
    rows = []
    for t, (dp, eo, eodds) in enumerate(gaps):
        active = ";".join(str(int(f)) for f in c.flags[t].tolist())
        for i, gid in enumerate(c.group_ids):
            rows.append(
                {
                    "step": t,
                    "group": gid,
                    "mean_score": float(c.states[t, i] @ scores),
                    "acceptance_rate": _acceptance(
                        c.states[t, i], c.policies[t].tau(gid)
                    ),
                    "delta_mu": delta_mu[t][i],
                    "regime": _REGIMES[regime[t][i]].value,
                    "dp_gap": dp,
                    "eo_gap": eo,
                    "eodds_gap": eodds,
                    "utility": utility[t],
                    "intervention_active": active,
                }
            )
    return rows
