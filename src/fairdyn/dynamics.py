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
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .errors import DomainError, InfeasibilityError
from .metrics import MetricReport, OutcomeModel, _gaps
from .policy import InstitutionModel, Policy
from .population import (
    GroupState,
    Population,
    ScoreGrid,
    _check_lengths,
    _integer,
    _real,
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
    after the hook; ``initial`` is the population of step 0 after the hook,
    ``pop`` itself in a run without hooks. ``policies`` holds each step's
    policy, one shared object for the steps a policy serves. ``mean_score``,
    ``acceptance``, ``tpr``, ``fpr`` and ``delta_mu`` are (steps, groups);
    ``tpr``/``fpr`` are NaN where a group has no qualified/unqualified mass.
    ``utility`` and the gap columns are (steps,); the gap columns are those
    of the two groups of ``metric_pair``, NaN without a pair. ``regime``
    holds indices into ``tuple(RegimeLabel)`` and ``flags`` the intervention
    flags (steps, flags).

    A sweep block of several draws is recorded draw-major: each per-group
    array has one column per group of each draw, draw by draw, (steps,
    draws * groups), ``states`` is (steps, draws * groups, bins), and
    ``utility`` and the gap columns are (steps, draws), even for one draw.
    Draw ``d``'s columns are the slices ``[:, d * groups:(d + 1) * groups]``
    and ``[:, d]``. A step's policy is a tuple of each draw's, ``initial``
    is the first draw's and a block keeps no flags (steps, 0).
    """

    grid: ScoreGrid
    group_ids: tuple[str, ...]
    metric_pair: Optional[tuple[str, str]]
    initial: Population
    states: np.ndarray
    proportions: np.ndarray
    policies: tuple[Policy, ...]
    mean_score: np.ndarray
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

    def __reduce__(self):
        # Through the constructor, so a loaded run's arrays are read-only.
        return (
            TrajectoryColumns,
            tuple(getattr(self, f.name) for f in fields(self)),
        )

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
            pair = self.metric_pair
            metrics = MetricReport(
                *pair,
                *(float(gap[t]) for gap in (self.dp_gap, self.eo_gap, self.eodds_gap)),
                *(
                    {a: float(col[t, ids.index(a)]) for a in pair}
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
    made from records, such as ``dataclasses.replace(traj, steps=...)``, has
    its ``steps``, ``final()`` and ``len()`` but no columns.
    """

    steps: Sequence[TrajectoryStep]

    @property
    def columns(self) -> TrajectoryColumns:
        if isinstance(self.steps, _StepViews):
            return self.steps.columns
        raise DomainError("only a trajectory that simulate returns has columns")

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


def _checked_horizon(horizon) -> int:
    """``horizon`` as an int in [0, ``MAX_HORIZON``]; else ``DomainError``."""
    horizon = _integer(horizon, "horizon")
    if not 0 <= horizon <= MAX_HORIZON:
        raise DomainError(f"horizon {horizon} outside [0, {MAX_HORIZON}]")
    return horizon


def _check_regime_tol(tol: float, name: str) -> None:
    """``DomainError`` unless ``tol``, the argument ``name``, is a real number
    in (0, inf)."""
    if not 0 < _real(tol, name) < math.inf:  # NaN fails too
        raise DomainError(f"regime tolerance {tol} must be positive and finite")


def _checked_pair(
    metric_pair: Optional[Sequence[str]], group_ids: tuple[str, ...]
) -> tuple[Optional[tuple[str, str]], list[int]]:
    """The metric pair, the first two of ``group_ids`` when None, as a tuple
    with its groups' indices; (None, []) when None and there are fewer than
    two groups. A pair that is not a tuple or list of two of ``group_ids``
    raises ``DomainError``."""
    if metric_pair is None and len(group_ids) >= 2:
        metric_pair = group_ids[:2]
    if metric_pair is None:
        return None, []
    if not isinstance(metric_pair, (tuple, list)) or len(metric_pair) != 2:
        raise DomainError(
            f"metric pair must name exactly two groups, got {metric_pair!r}"
        )
    for label in metric_pair:
        if label not in group_ids:
            raise DomainError(f"metric pair: unknown group label {label!r}")
    return tuple(metric_pair), [group_ids.index(label) for label in metric_pair]


def _regime_codes(delta_mu: np.ndarray, tol: float) -> np.ndarray:
    """Index into ``tuple(RegimeLabel)`` of each expected score change, for
    finite changes and a positive, finite tolerance."""
    codes = np.full(
        delta_mu.shape, _REGIMES.index(RegimeLabel.STAGNATION), dtype=np.int8
    )
    codes[delta_mu > tol] = _REGIMES.index(RegimeLabel.IMPROVEMENT)
    codes[delta_mu < -tol] = _REGIMES.index(RegimeLabel.DECLINE)
    return codes


def classify_regime(delta_mu: float, tol: float) -> RegimeLabel:
    if not math.isfinite(_real(delta_mu, "delta_mu")):
        raise DomainError(f"delta mu {delta_mu} is not finite")
    _check_regime_tol(tol, "tol")
    return _REGIMES[int(_regime_codes(np.array([delta_mu], dtype=float), tol)[0])]


# A step's policy: one ``Policy``, or in a run of several draws a tuple of
# each draw's policy.
_StepPolicy = Union[Policy, tuple[Policy, ...]]


def _acceptance_rows(policy: _StepPolicy, group_ids: tuple[str, ...]) -> np.ndarray:
    """The acceptance vectors of ``policy`` in the order of ``group_ids``, one
    row per group and draw, draw by draw."""
    if isinstance(policy, Policy):
        return policy._rows(group_ids)
    return np.concatenate([pol._rows(group_ids) for pol in policy])


def _checked_rho(outcome: OutcomeModel, ids: tuple[str, ...], pmfs) -> list:
    """Each group's ``rho``; ``DimensionError`` names the first group whose
    ``rho`` is not as long as its pmf, once every group has one."""
    rhos = [outcome.rho_for(gid) for gid in ids]
    for gid, pmf, rho in zip(ids, pmfs, rhos):
        _check_lengths(gid, pmf=pmf, rho=rho)
    return rhos


def _scatter_index(rows: int, bins: int, outcome: OutcomeModel) -> np.ndarray:
    """Where ``_advance`` adds each moved term in the flattened (rows, bins)
    pmfs: row ``r``'s success destinations ``min(j + steps_up, bins - 1)``
    for every bin ``j``, then its failure destinations ``max(j - steps_down,
    0)``, each offset by ``r * bins``."""
    j = np.arange(bins)
    dest = np.stack(
        (
            np.minimum(j + min(outcome.steps_up, bins), bins - 1),
            np.maximum(j - min(outcome.steps_down, bins), 0),
        )
    )
    return (dest + bins * np.arange(rows)[:, None, None]).reshape(-1)


class _KernelBuffers:
    """The arrays that ``_advance`` writes a transition's products into, for
    (rows, bins) pmfs: the ``pmf * tau`` rows (rows, bins) and the moved
    terms (rows, 2, bins), with the (rows, 1, bins) and flat views it reads
    them through. A run builds one, so its transitions allocate none."""

    __slots__ = ("accepted", "accepted_rows", "moved", "moved_flat")

    def __init__(self, rows: int, bins: int):
        self.accepted = np.empty((rows, bins))
        self.accepted_rows = self.accepted[:, None, :]
        self.moved = np.empty((rows, 2, bins))
        self.moved_flat = self.moved.reshape(-1)


class _PolicyTerms:
    """What ``_advance`` reads for a policy, one row per group of each draw
    in the order of the stacked pmfs: ``tau`` and ``keep = 1 - tau``, built
    here, and the run's ``rf``, ``rho`` and ``1 - rho`` stacked as (rows,
    2, bins), its ``_scatter_index`` and its ``_KernelBuffers``, all shared
    by every policy of the run; without ``buffers`` the terms get their own.
    Acceptance vectors of another length than the pmfs' raise, naming the
    first group that has one."""

    def __init__(
        self,
        policy: _StepPolicy,
        group_ids: tuple[str, ...],
        pmfs: np.ndarray,
        rf: np.ndarray,
        index: np.ndarray,
        buffers: Optional[_KernelBuffers] = None,
    ):
        self.tau = _acceptance_rows(policy, group_ids)
        if self.tau.shape != pmfs.shape:
            draws = len(pmfs) // len(group_ids)
            for gid, pmf, tau, r in zip(group_ids * draws, pmfs, self.tau, rf[:, 0]):
                _check_lengths(gid, pmf=pmf, tau=tau, rho=r)
        self.keep = 1.0 - self.tau
        self.rf, self.index = rf, index
        self.buffers = _KernelBuffers(*pmfs.shape) if buffers is None else buffers


def _advance(terms: _PolicyTerms, pmf: np.ndarray, out: np.ndarray) -> None:
    """Write the next pmfs of every row of ``pmf`` (each group of each draw)
    into ``out``, a C-contiguous array of its shape; every row is advanced
    on its own.

    Per row this is ``pmf * (1 - tau)``, then ``np.add.at(new, up, pmf * tau
    * rho)``, then ``np.add.at(new, down, pmf * tau * (1 - rho))`` with the
    clamped shifts ``up``/``down``: one ``np.add.at`` over the flattened rows
    with ``terms.index`` adds the same terms, unbuffered and in index order,
    so it gives those sums bit for bit. The products go into the terms'
    ``buffers``, the run's, so a transition of a run allocates no array.
    """
    buf = terms.buffers
    np.multiply(pmf, terms.tau, out=buf.accepted)
    np.multiply(buf.accepted_rows, terms.rf, out=buf.moved)
    np.multiply(pmf, terms.keep, out=out)
    np.add.at(out.reshape(-1), terms.index, buf.moved_flat)


def _population_view(
    grid: ScoreGrid,
    group_ids: Sequence[str],
    proportions: Sequence[float],
    pmfs: np.ndarray,
) -> Population:
    """A population over read-only views of the rows of ``pmfs``."""
    rows = pmfs.view()
    rows.setflags(write=False)
    groups = [GroupState._of_row(*group) for group in zip(group_ids, proportions, rows)]
    return Population(grid, tuple(groups))


def step(
    pop: Population,
    policy: Policy,
    outcome: OutcomeModel,
    *,
    out: Optional[np.ndarray] = None,
    _pmfs: Optional[np.ndarray] = None,
    _terms: Optional[_PolicyTerms] = None,
) -> Optional[Population]:
    """Advance the population by one decision round.

    Accepted mass at each bin splits into a success part moving up and a
    failure part moving down, clamped at the grid boundaries; rejected mass
    stays. Group proportions are unchanged. ``pop`` must be valid; it is not
    rechecked, and on a valid population the step conserves each group's mass.

    The result is a population over read-only views of a fresh (groups,
    bins) matrix, or of ``out`` when given.

    A run's loop passes the step's row of its state array as ``_pmfs`` (one
    draw's groups, or a sweep block's every draw's), the next row as
    ``out`` and the step's ``_PolicyTerms`` as ``_terms``, built once per
    policy object of the run over the run's one scatter index and kernel
    buffers: the step then advances ``_pmfs`` into ``out`` and returns None,
    and neither ``pop`` nor ``policy`` is read. Called without them, the
    step builds its own terms, index and buffers.
    """
    if _terms is not None:
        _advance(_terms, _pmfs, out)
        return None
    ids = pop.group_ids
    pmf = np.array([g.pmf for g in pop.groups])
    rho = np.array(_checked_rho(outcome, ids, pmf))
    rf, index = np.stack((rho, 1.0 - rho), axis=1), _scatter_index(*pmf.shape, outcome)
    new = np.empty_like(pmf)
    _advance(_PolicyTerms(policy, ids, pmf, rf, index), pmf, new)
    if out is not None:
        out[...] = new  # ``out`` may have any layout, ``new`` is C-contiguous
        new = out
    return _population_view(pop.grid, ids, [g.proportion for g in pop.groups], new)


def _require_valid(pop: Population) -> None:
    report = validate_population(pop)
    if not report.ok:
        raise DomainError("invalid population: " + "; ".join(report.violations))


def _step_columns(
    states: np.ndarray,
    proportions: np.ndarray,
    policies: Sequence[_StepPolicy],
    group_ids: tuple[str, ...],
    run: np.ndarray,
    scores: np.ndarray,
    feedback: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], None]] = None,
):
    """The mean score, acceptance, TPR, FPR and ``delta_mu`` columns of every
    group of every draw (steps, draws * groups), and the utility column of
    every draw (steps, draws), of a run with these states (steps, draws *
    groups, bins), proportions and per-step policies.

    ``run`` holds the run's vectors, one (4, bins) matrix per group of each
    draw: ``rho``, ``1 - rho``, the score change and the per-bin utility;
    ``scores`` are the grid's bin scores. The rows go in blocks of
    ``_BLOCK`` steps: a block stacks its steps' acceptance matrices,
    multiplies them by the run's vectors and reduces each row against the
    products with ``_dots``, bit for bit as per-row ``pmf.dot`` calls. A run
    whose steps all have the same policy object is one block of every row,
    against one (1, draws * groups, 5, bins) weight array. An overflow gives
    inf, no warning.

    ``feedback(states, acceptance, proportions)``, when given, runs after
    that pass and before the utility sum, the only column that reads the
    proportions: it gets the acceptance column (steps, draws * groups) and
    fills the proportion rows after row 0 in place.
    """
    rows, width, n = states.shape
    groups = len(group_ids)
    with np.errstate(over="ignore", invalid="ignore"):
        # Per row and group: acceptance, true positives, false positives,
        # delta_mu and utility.
        dots = np.empty((rows, width, 5))
        # One block for a run whose steps share one policy object: its one
        # weight matrix broadcasts over every row.
        one = all(map(operator.is_, policies, repeat(policies[0])))
        block = rows if one else _BLOCK
        for a in range(0, rows, block):
            b = min(a + block, rows)
            # Each policy object's vectors once, then one set per step.
            slot: dict[_StepPolicy, int] = {}
            index = [slot.setdefault(pol, len(slot)) for pol in policies[a:b]]
            tau = np.array([_acceptance_rows(pol, group_ids) for pol in slot])
            if len(slot) > 1:
                tau = tau[index]
            w = np.empty((len(tau), width, 5, n))
            w[:, :, 0] = tau
            np.multiply(tau[:, :, None], run, out=w[:, :, 1:])
            dots[a:b] = _dots(states[a:b], w)
        if feedback is not None:
            feedback(states, dots[..., 0], proportions)
        # Per row and group: qualified mass, unqualified mass and mean score,
        # none of which depends on the policy.
        scores = np.broadcast_to(scores, (width, 1, n))
        masses = _dots(states, np.concatenate((run[:, :2], scores), axis=1))
        # TPR and FPR: true (false) positives over qualified (unqualified)
        # mass, NaN where that mass is zero.
        rates = np.full((rows, width, 2), math.nan)
        np.divide(dots[..., 1:3], masses[..., :2], out=rates, where=masses[..., :2] > 0)
        # Each draw's proportion-weighted sum over its groups, in group order.
        utility = np.zeros((rows, width // groups))
        for i in range(groups):
            utility += proportions[:, i::groups] * dots[:, i::groups, 4]
    # Compact copies, so that the trajectory keeps no intermediate array.
    columns = (masses[..., 2], dots[..., 0], rates[..., 0], rates[..., 1], dots[..., 3])
    return (*(column.copy() for column in columns), utility)


def _check_finite(columns, group_ids: tuple[str, ...]) -> None:
    """Raise ``DomainError`` at the first non-finite value of the first
    column that has one, naming its step, and its group for a column of
    every group. ``columns`` holds (name, column, per group) triples; a
    column is (steps, draws * groups) or, not per group, (steps, draws)."""
    for name, column, per_group in columns:
        finite = np.isfinite(column)
        if not finite.all():
            t, j = np.argwhere(~finite)[0].tolist()
            at = f"step {t}"
            if per_group:
                at += f", group {group_ids[j % len(group_ids)]!r}"
            raise DomainError(f"{name} {column[t, j]} is not finite at {at}")


PolicyFn = Callable[[int, Population], Policy]
PreStepFn = Callable[[int, Population], Population]
FlagsFn = Callable[[int], tuple[bool, ...]]
# Edits step t's pmfs (rows, bins) and proportions (rows,) in place and
# returns whether it changed the proportions; a row is a group of a draw.
RowHook = Callable[[int, np.ndarray, np.ndarray], bool]


def _pre_step_rows(pre_step: PreStepFn, pop: Population) -> RowHook:
    """The row hook that runs a public ``pre_step`` hook.

    ``pre_step`` gets ``pop`` at step 0 and, at a later step, a population
    over a copy of the row, so a population it keeps never changes. The
    population it returns must be over a grid of equal values with the same
    groups in the same order, and pass ``validate_population``; its pmfs and
    proportions are then copied into the row. The hook returns whether that
    changed the row's proportions.
    """
    grid, ids = pop.grid, pop.group_ids

    def hook(t: int, pmfs: np.ndarray, proportions: np.ndarray) -> bool:
        given = pop
        if t > 0:
            given = _population_view(grid, ids, proportions.tolist(), pmfs.copy())
        new = pre_step(t, given)
        same_grid = new.grid is grid or (
            new.grid.bin_width == grid.bin_width
            and np.array_equal(new.grid.bin_scores, grid.bin_scores)
        )
        if not same_grid or new.group_ids != ids:
            raise DomainError(
                "pre_step must return a population over an equal grid and the "
                "same groups, in the same order"
            )
        _require_valid(new)
        pmfs[:] = [g.pmf for g in new.groups]
        before = proportions.tobytes()
        proportions[:] = [g.proportion for g in new.groups]
        return proportions.tobytes() != before

    return hook


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
    *,
    _engine=None,
) -> Trajectory:
    """Run the feedback model for ``horizon`` transitions.

    ``policy_fn`` is evaluated against the current population at every step,
    which models an institution continuously re-applying its decision rule.
    ``pre_step`` and ``flags_fn`` are hooks for scenario interventions; with
    both unset the loop is the bare feedback model. Fully deterministic.
    ``horizon`` is an integer in [0, ``MAX_HORIZON``]: an integral float
    counts, a bool, a string, a fraction, NaN or inf does not. ``regime_tol``
    is positive and finite; ``metric_pair``, if given, names two groups.
    ``pop`` and each population ``pre_step`` returns must pass
    ``validate_population`` (else ``DomainError("invalid population: ...")``);
    ``pre_step`` keeps the grid's values and the groups in their order, and
    ``flags_fn`` returns the same number of flags at every step. The
    populations the hooks receive never change afterwards.

    The horizon, ``regime_tol``, ``pop``, the pair and each group's ``rho``
    length are checked here, in that order; ``_run`` runs ``pop``'s pmfs as
    a block of one draw, with ``pre_step`` wrapped into its ``RowHook``,
    which edits row ``t`` of the state in place before the step's policy is
    decided. ``step`` writes each transition into the next row.
    ``policy_fn`` sees ``pop`` at step 0 of a run without ``pre_step``, and
    otherwise a population over read-only views of row ``t`` that the loop
    builds after the hook, one per step.

    ``run_scenario`` passes its scenario engine as ``_engine``, in place of
    ``policy_fn``, ``pre_step`` and ``flags_fn``, with a checked config's
    values, so no start check runs again. The engine's ``hooks`` give the
    run's policy, row hook, flags and feedback; its ``policy`` decides from
    the step's (pmfs, proportions) rows, as in a sweep block, and no
    population is built for it.

    The per-step columns are computed after the loop, bit for bit as per-row
    ``pmf.dot`` calls would give them; a non-finite ``delta_mu``, utility or
    mean score then raises ``DomainError`` naming its step.
    """
    feedback = check = None
    if _engine is None:
        horizon = _checked_horizon(horizon)
        _check_regime_tol(regime_tol, "regime_tol")
        _require_valid(pop)
        _checked_pair(metric_pair, pop.group_ids)
        _checked_rho(outcome, pop.group_ids, [g.pmf for g in pop.groups])
        hook = None if pre_step is None else _pre_step_rows(pre_step, pop)
    else:
        policy_fn, hook, flags_fn, feedback, check = _engine.hooks()
    columns = _run(
        pop, policy_fn, outcome, inst, horizon, regime_tol, metric_pair,
        np.array([g.pmf for g in pop.groups]), flags_fn, hook,
        views=_engine is None, feedback=feedback, check=check,
    )
    return Trajectory(_StepViews(columns))


def _run(
    pop: Population,
    policy_fn: Callable,
    outcome: OutcomeModel,
    inst: InstitutionModel,
    horizon: int,
    regime_tol: float,
    metric_pair: Optional[tuple[str, str]],
    starts: np.ndarray,
    flags_fn: Optional[Callable] = None,
    hook: Optional[RowHook] = None,
    views: bool = False,
    feedback: Optional[Callable] = None,
    check: Optional[Callable[[np.ndarray, np.ndarray, int], None]] = None,
) -> TrajectoryColumns:
    """The record of the draws of ``starts`` run over ``pop``'s grid and
    groups as stacked rows; the state (steps, draws * groups, bins) holds
    each draw's groups in ``pop``'s order, draw by draw. A sweep block's
    ``starts`` are (draws, groups, bins) and its record keeps per-draw
    columns (steps, draws), as ``TrajectoryColumns`` lays a block out;
    ``simulate``'s are its (groups, bins) pmfs, run as a block of one draw
    whose per-draw columns are (steps,). Draws never mix: each value of a
    draw is computed from its own rows alone, with the operations and in the
    order of its own run, so a draw gives bit for bit the numbers of that
    run.

    The caller checked the starts, and the rest of the start as ``simulate``
    does, and ``horizon`` is an int; the metric pair (the first two groups
    when None) is only resolved here. Checked here is what the run makes:
    each policy's acceptance lengths, the hook's populations, the flags.

    ``policy_fn(t, rows)`` gets the step's (pmfs, proportions) rows and
    returns the step's policy (a tuple of each draw's for several draws),
    or with ``views`` (a user's ``policy_fn``) gets a ``Population`` over
    read-only views of the rows, built once per step after the hook.
    ``flags_fn(t)`` gives the step's tuple of flags; without it a step has
    none. Each transition is one ``step`` call that advances every row into
    the next and builds no population. ``feedback`` goes to
    ``_step_columns``, for a run whose decisions never read the
    proportions. ``check(states, proportions, upto)`` checks the rows the
    hook edited, through step ``upto``, once per run: after the loop,
    before the columns, or, when the loop raises, through the last step
    whose hook returned, so that an invalid row raises its own error before
    any that a later step meets.
    """
    grid, group_ids = pop.grid, pop.group_ids
    metric_pair, pair = _checked_pair(metric_pair, group_ids)
    groups = len(group_ids)
    draws = 1 if starts.ndim == 2 else len(starts)
    rows, width = horizon + 1, draws * groups
    states = np.empty((rows, width, len(grid)))
    proportions = np.empty((rows, width))
    # Every row; from the first step whose hook changes them, each row is
    # copied from the one before.
    proportions[:] = [g.proportion for g in pop.groups] * draws
    states[0] = starts.reshape(width, -1)
    # The population ``step`` is given; with ``views``, ``policy_fn``'s too.
    cur = pop
    flags = []
    policies = []
    pol = None
    # The run's vectors: ``rho``, ``1 - rho``, the score change and the
    # per-bin utility of every row. A score change past the largest float is
    # inf, no warning, and the finiteness check after the loop names it.
    rho = np.tile([outcome.rho_for(gid) for gid in group_ids], (draws, 1))
    rf = np.stack((rho, 1.0 - rho), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        change = [outcome.score_change(gid, grid) for gid in group_ids]
    change = np.tile(change, (draws, 1))
    run = np.stack((rho, rf[:, 1], change, inst.per_bin_utility(rho)), axis=1)
    # What every transition reads: ``rf``, a contiguous (rows, 2, bins) array
    # the kernel multiplies faster than the strided ``run[:, :2]``, the run's
    # one scatter index and the buffers the kernel writes into.
    index = _scatter_index(width, len(grid), outcome)
    buffers = _KernelBuffers(width, len(grid))
    rescaled = False  # whether the hook has changed the proportions yet
    # Step ``t``'s rows, one view each, which the hooks and ``step`` share.
    pmfs, shares = states[0], proportions[0]
    hooked = -1  # the last step whose hook has returned
    try:
        for t in range(rows):
            if hook is not None and hook(t, pmfs, shares):
                rescaled = True
            hooked = t
            # A view of row ``t`` after the hook: ``policy_fn``'s at every
            # later step, and at step 0 of a run with a hook, which may have
            # edited the row in place, which ``pop`` does not show (of a
            # block, over its first draw's rows).
            if (views and t > 0) or (t == 0 and hook is not None):
                cur = _population_view(grid, group_ids, shares.tolist(), pmfs)
            if t == 0:
                initial = cur
            last = pol
            try:
                pol = policy_fn(t, cur if views else (pmfs, shares))
            except InfeasibilityError as exc:
                raise InfeasibilityError(f"step {t}: {exc}") from exc
            if pol is not last:
                terms = _PolicyTerms(pol, group_ids, pmfs, rf, index, buffers)
            active = flags_fn(t) if flags_fn is not None else ()
            if flags and len(active) != len(flags[0]):
                raise DomainError(
                    f"flags_fn gave {len(active)} flags at step {t}, "
                    f"{len(flags[0])} at step 0"
                )
            flags.append(tuple(active))
            policies.append(pol)
            if t < horizon:
                # Each transition stays one call of ``step`` with a
                # population first: the benchmark's tracer (bench/spans.py)
                # counts a run's transitions from its calls and their bin
                # steps from that population's grid and groups, one draw's.
                # Given the rows, ``step`` reads no population and builds
                # none.
                nxt = states[t + 1]
                step(cur, pol, outcome, out=nxt, _pmfs=pmfs, _terms=terms)
                pmfs = nxt
                if rescaled:
                    proportions[t + 1] = shares
                shares = proportions[t + 1]
    except Exception:
        # A row the hook made invalid fails the run at its step, before
        # any later error: the check covers the rows whose hooks returned.
        if check is not None:
            check(states, proportions, hooked)
        raise
    if check is not None:
        check(states, proportions, horizon)
    mean_score, acceptance, tpr, fpr, delta_mu, utility = _step_columns(
        states, proportions, policies, group_ids, run, grid.bin_scores, feedback
    )
    _check_finite(
        (
            ("delta mu", delta_mu, True),
            ("utility", utility, False),
            ("mean score", mean_score, True),
        ),
        group_ids,
    )
    if not pair:
        gaps = [np.full((rows, draws), math.nan) for _ in range(3)]
    else:
        gaps = _gaps(
            *(col[:, k::groups] for col in (acceptance, tpr, fpr) for k in pair)
        )
    # The per-draw columns: (steps,) for ``simulate``'s run, else (steps, draws).
    per_draw = [col.reshape(rows, *starts.shape[:-2]) for col in (utility, *gaps)]
    return TrajectoryColumns(
        grid, group_ids, metric_pair, initial, states, proportions, tuple(policies),
        mean_score, acceptance, tpr, fpr, delta_mu,
        _regime_codes(delta_mu, regime_tol), *per_draw,
        np.array(flags, dtype=bool).reshape(rows, -1),
    )


def is_stationary(traj: Trajectory, window: int, eps: float) -> bool:
    """True iff every group pmf moved less than ``eps`` in total variation
    over each of the last ``window`` transitions."""
    window = _integer(window, "window")
    if window <= 0:
        raise DomainError(f"window {window} must be positive")
    if not _real(eps, "eps") > 0:  # NaN fails too
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
    change with standard errors. Deterministic given the seed, an integer
    >= 0.
    """
    n = _integer(n, "sample count n")
    if n < 1:
        raise DomainError(f"sample count {n} must be >= 1")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
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
    """Flatten a trajectory's columns to one row per (step, group) for CSV."""
    c = traj.columns
    mean_score, acceptance = c.mean_score.tolist(), c.acceptance.tolist()
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
                    "mean_score": mean_score[t][i],
                    "acceptance_rate": acceptance[t][i],
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
