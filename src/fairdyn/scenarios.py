"""Scenario configuration and intervention machinery.

A scenario bundles the three declarations every run must make: an ethical
goal with its chosen metric and tolerance, the formal model (population,
outcomes, institution, decision rule), and the downstream horizon. On top
of the bare dynamics it supports three stylized interventions:

* quota - a minimum accepted share for a protected group, enforced per step
  by lowering that group's randomized threshold, with a sunset rule that
  retires the quota once the share sits at the target for a run of steps;
* pipeline_investment - a fraction of each non-top bin's mass moves up one
  bin in the group's pmf before every step;
* role_model_feedback - the group's applicant proportion is scaled by
  (1 + strength * previous accepted share), then proportions renormalize.

The intervention parameters are illustrative, not empirically calibrated.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from ._yaml import load_yaml
from .dynamics import MAX_HORIZON, Trajectory, simulate
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    InfeasibilityError,
    UndefinedConditionalError,
)
from .metrics import OutcomeModel
from .optimize import (
    DEFAULT_RESOLUTION,
    Constraint,
    constrained_policy,
    max_utility_policy,
    outcome_optimal_policy,
)
from .policy import (
    InstitutionModel,
    Policy,
    acceptance_rate,
    threshold_policy_for_rate,
)
from .population import (
    GroupState,
    Population,
    ScoreGrid,
    _vector,
    validate_population,
)

BUILTIN_NAMES = ("lending_liu", "boards_quota")

GOAL_METRICS = ("dp_gap", "eo_gap", "eodds_gap", "delta_mu")
POLICY_KINDS = ("fixed", "max_utility", "constrained", "outcome_optimal")
INTERVENTION_KINDS = ("quota", "pipeline_investment", "role_model_feedback")


@dataclass(frozen=True)
class DeclaredGoal:
    label: str
    metric: str
    tolerance: float
    target_group: Optional[str] = None


@dataclass(frozen=True, eq=False)
class PolicyRuleSpec:
    kind: str
    tau: Optional[Mapping[str, np.ndarray]] = None
    constraint: Optional[str] = None
    target_group: Optional[str] = None
    utility_floor: float = float("-inf")


@dataclass(frozen=True)
class SunsetRule:
    eps: float
    window: int


@dataclass(frozen=True)
class InterventionRule:
    kind: str
    group: str
    active_from: int = 0
    target_share: Optional[float] = None  # quota
    sunset: Optional[SunsetRule] = None  # quota
    shift_fraction: Optional[float] = None  # pipeline_investment
    strength: Optional[float] = None  # role_model_feedback


@dataclass(frozen=True)
class Tolerances:
    regime: float = 1e-6


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    declared_goal: DeclaredGoal
    population: Population
    outcome: OutcomeModel
    institution: InstitutionModel
    policy_rule: PolicyRuleSpec
    interventions: tuple[InterventionRule, ...]
    horizon: int
    tolerances: Tolerances
    seed: int
    resolution: float
    metric_groups: tuple[str, str]
    variants: Mapping[str, tuple[InterventionRule, ...]] = field(
        default_factory=dict
    )


def _req(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing field {path}.{key}")
    return mapping[key]


def _parse_intervention(raw, path) -> InterventionRule:
    kind = str(_req(raw, "kind", path))
    if kind not in INTERVENTION_KINDS:
        raise ConfigError(f"{path}.kind: unknown intervention kind {kind!r}")
    group = str(_req(raw, "group", path))
    active_from = int(raw.get("active_from", 0))
    if active_from < 0:
        raise ConfigError(f"{path}.active_from must be >= 0")
    rule = InterventionRule(kind=kind, group=group, active_from=active_from)
    if kind == "quota":
        q = float(_req(raw, "target_share", path))
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"{path}.target_share: q out of [0,1], got {q}")
        s = _req(raw, "sunset", path)
        sunset = SunsetRule(
            eps=float(_req(s, "eps", path + ".sunset")),
            window=int(_req(s, "window", path + ".sunset")),
        )
        if sunset.eps < 0 or sunset.window < 1:
            raise ConfigError(f"{path}.sunset: eps must be >= 0 and window >= 1")
        rule = replace(rule, target_share=q, sunset=sunset)
    elif kind == "pipeline_investment":
        s = float(_req(raw, "shift_fraction", path))
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"{path}.shift_fraction out of [0,1], got {s}")
        rule = replace(rule, shift_fraction=s)
    else:
        a = float(_req(raw, "strength", path))
        if not 0.0 <= a <= 1.0:
            raise ConfigError(f"{path}.strength out of [0,1], got {a}")
        rule = replace(rule, strength=a)
    return rule


def _parse_config(raw: dict, name_hint: str) -> ScenarioConfig:
    goal_raw = _req(raw, "declared_goal", "scenario")
    goal = DeclaredGoal(
        label=str(_req(goal_raw, "label", "declared_goal")),
        metric=str(_req(goal_raw, "metric", "declared_goal")),
        tolerance=float(_req(goal_raw, "tolerance", "declared_goal")),
        target_group=(
            str(goal_raw["target_group"]) if "target_group" in goal_raw else None
        ),
    )
    if goal.metric not in GOAL_METRICS:
        raise ConfigError(
            f"declared_goal.metric must be one of {GOAL_METRICS}, "
            f"got {goal.metric!r}"
        )
    if goal.metric == "delta_mu" and goal.target_group is None:
        raise ConfigError("declared_goal.target_group required for delta_mu goal")

    pop_raw = _req(raw, "population", "scenario")
    grid = ScoreGrid(
        bin_scores=_req(pop_raw, "bin_scores", "population"),
        bin_width=float(_req(pop_raw, "bin_width", "population")),
    )
    groups = []
    for i, g in enumerate(_req(pop_raw, "groups", "population")):
        path = f"population.groups[{i}]"
        groups.append(
            GroupState(
                group_id=str(_req(g, "group_id", path)),
                proportion=float(_req(g, "proportion", path)),
                pmf=_req(g, "pmf", path),
            )
        )
    population = Population(grid, tuple(groups))
    report = validate_population(population)
    if not report.ok:
        raise ConfigError("population invalid: " + "; ".join(report.violations))

    out_raw = _req(raw, "outcome", "scenario")
    rho_raw = _req(out_raw, "rho", "outcome")
    if isinstance(rho_raw, dict):
        rho = {str(k): vs for k, vs in rho_raw.items()}
    else:
        rho = {g.group_id: rho_raw for g in groups}
    # The models' DomainError messages start with the field's name.
    try:
        outcome = OutcomeModel(
            rho=rho,
            steps_up=int(_req(out_raw, "steps_up", "outcome")),
            steps_down=int(_req(out_raw, "steps_down", "outcome")),
        )
    except DomainError as exc:
        raise ConfigError(f"outcome.{exc}") from exc
    for g in groups:
        if g.group_id not in outcome.rho:
            raise ConfigError(f"outcome.rho missing group {g.group_id!r}")
        if len(outcome.rho[g.group_id]) != len(grid):
            raise ConfigError(f"outcome.rho[{g.group_id!r}] length != grid length")

    inst_raw = _req(raw, "institution", "scenario")
    try:
        institution = InstitutionModel(
            u_plus=float(_req(inst_raw, "u_plus", "institution")),
            u_minus=float(_req(inst_raw, "u_minus", "institution")),
        )
    except DomainError as exc:
        raise ConfigError(f"institution.{exc}") from exc

    rule_raw = _req(raw, "policy_rule", "scenario")
    kind = str(_req(rule_raw, "kind", "policy_rule"))
    if kind not in POLICY_KINDS:
        raise ConfigError(
            f"policy_rule.kind must be one of {POLICY_KINDS}, got {kind!r}"
        )
    known = {g.group_id for g in groups}
    tau = None
    if kind == "fixed":
        tau_raw = _req(rule_raw, "tau", "policy_rule")
        tau = {str(k): _vector(vs) for k, vs in tau_raw.items()}
        missing = known - set(tau)
        if missing:
            raise ConfigError(f"policy_rule.tau: missing groups {sorted(missing)}")
        for gid, t in tau.items():
            path = f"policy_rule.tau[{gid}]"
            if gid not in known:
                raise ConfigError(f"{path}: unknown group label {gid!r}")
            if len(t) != len(grid):
                raise ConfigError(f"{path}: length {len(t)} != grid length {len(grid)}")
            if not np.all((t >= 0) & (t <= 1)):  # NaN fails too
                raise ConfigError(f"{path}: entries outside [0,1] or NaN")
    rule = PolicyRuleSpec(
        kind=kind,
        tau=tau,
        constraint=(
            str(rule_raw["constraint"]) if "constraint" in rule_raw else None
        ),
        target_group=(
            str(rule_raw["target_group"])
            if "target_group" in rule_raw
            else None
        ),
        utility_floor=float(rule_raw.get("utility_floor", float("-inf"))),
    )
    constraints = tuple(c.value for c in Constraint)
    if kind == "constrained" and rule.constraint not in constraints:
        raise ConfigError(f"policy_rule.constraint must be one of {constraints}")
    if kind == "outcome_optimal" and rule.target_group is None:
        raise ConfigError("policy_rule.target_group required for outcome_optimal")

    interventions = tuple(
        _parse_intervention(iv, f"interventions[{i}]")
        for i, iv in enumerate(raw.get("interventions", []))
    )

    horizon = int(_req(raw, "horizon", "scenario"))
    if not 0 <= horizon <= MAX_HORIZON:
        raise ConfigError(f"horizon must be in [0, {MAX_HORIZON}], got {horizon}")
    resolution = float(raw.get("resolution", DEFAULT_RESOLUTION))
    if not 0.0 < resolution <= 1.0:
        raise ConfigError(f"resolution must be in (0, 1], got {resolution}")
    tol_raw = raw.get("tolerances", {})
    tolerances = Tolerances(regime=float(tol_raw.get("regime", 1e-6)))
    if not 0.0 < tolerances.regime < math.inf:
        raise ConfigError(f"tolerances.regime {tolerances.regime} not in (0, inf)")
    metric_groups_raw = raw.get(
        "metric_groups", [g.group_id for g in groups[:2]]
    )
    if len(metric_groups_raw) != 2:
        raise ConfigError("metric_groups must name exactly two groups")
    metric_groups = (str(metric_groups_raw[0]), str(metric_groups_raw[1]))

    for label, where in [
        (goal.target_group, "declared_goal.target_group"),
        (rule.target_group, "policy_rule.target_group"),
        *[(iv.group, f"interventions[{i}].group") for i, iv in enumerate(interventions)],
        (metric_groups[0], "metric_groups[0]"),
        (metric_groups[1], "metric_groups[1]"),
    ]:
        if label is not None and label not in known:
            raise ConfigError(f"{where}: unknown group label {label!r}")

    variants = {}
    for vname, v in (raw.get("variants") or {}).items():
        variants[str(vname)] = tuple(
            _parse_intervention(iv, f"variants.{vname}.interventions[{i}]")
            for i, iv in enumerate(_req(v, "interventions", f"variants.{vname}"))
        )
        for iv in variants[str(vname)]:
            if iv.group not in known:
                raise ConfigError(
                    f"variants.{vname}: unknown group label {iv.group!r}"
                )

    return ScenarioConfig(
        name=str(raw.get("name", name_hint)),
        declared_goal=goal,
        population=population,
        outcome=outcome,
        institution=institution,
        policy_rule=rule,
        interventions=interventions,
        horizon=horizon,
        tolerances=tolerances,
        seed=int(raw.get("seed", 0)),
        resolution=resolution,
        metric_groups=metric_groups,
        variants=variants,
    )


def load_scenario(path_or_name: str) -> ScenarioConfig:
    """Load a scenario from a YAML file path or a built-in name."""
    if path_or_name in BUILTIN_NAMES:
        source = importlib.resources.files("fairdyn.data") / f"{path_or_name}.yaml"
    else:
        source = Path(path_or_name)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path_or_name}: {exc}") from exc
    raw = load_yaml(text, path_or_name)
    if not isinstance(raw, dict):
        raise ConfigError(f"scenario file {path_or_name} is not a mapping")
    try:
        return _parse_config(raw, path_or_name)
    except ConfigError as exc:
        raise ConfigError(f"scenario file {path_or_name}: {exc}") from exc
    except (TypeError, ValueError, DimensionError) as exc:
        raise ConfigError(f"malformed scenario file {path_or_name}: {exc}") from exc


def build_policy(
    cfg: ScenarioConfig, pop: Population, rule: PolicyRuleSpec, resolution: float
) -> Policy:
    """The policy that ``rule`` selects for ``pop`` under ``cfg``'s outcome and
    institution models; the searches scan rates or TPRs at ``resolution``."""
    if rule.kind == "fixed":
        return Policy.from_arrays(rule.tau)
    if rule.kind == "max_utility":
        return max_utility_policy(pop, cfg.outcome, cfg.institution)
    if rule.kind == "constrained":
        return constrained_policy(
            pop,
            cfg.outcome,
            cfg.institution,
            Constraint(rule.constraint),
            resolution,
        ).policy
    return outcome_optimal_policy(
        pop,
        cfg.outcome,
        cfg.institution,
        rule.target_group,
        rule.utility_floor,
        resolution,
    )


def _accepted_mass(pop: Population, pol: Policy) -> list[float]:
    """Each group's accepted mass, its proportion times its acceptance rate."""
    return [g.proportion * acceptance_rate(pol, g) for g in pop.groups]


def _shares(mass: list[float]) -> list[float]:
    """Each group's share of the accepted mass; all zero when none is."""
    total = sum(mass)
    if total <= 0:
        return [0.0] * len(mass)
    return [m / total for m in mass]


class _ScenarioEngine:
    """Stateful hooks plugged into the dynamics loop to apply interventions."""

    def __init__(self, cfg: ScenarioConfig, interventions):
        self.cfg = cfg
        self.interventions = interventions
        # A fixed or max_utility rule does not depend on the state: build it
        # once for the run.
        rule = cfg.policy_rule
        self.static_policy = None
        if rule.kind in ("fixed", "max_utility"):
            self.static_policy = build_policy(
                cfg, cfg.population, rule, cfg.resolution
            )
        self.quota_active = [iv.kind == "quota" for iv in interventions]
        self.quota_streak = [0] * len(interventions)
        # Only role-model feedback reads the accepted shares of the last step.
        self.keeps_shares = any(
            iv.kind == "role_model_feedback" for iv in interventions
        )
        self.last_share: dict[str, float] = {}
        self.flags: dict[int, tuple[bool, ...]] = {}

    def pre_step(self, t: int, pop: Population) -> Population:
        groups = list(pop.groups)
        index = {g.group_id: i for i, g in enumerate(groups)}
        for iv in self.interventions:
            if t < iv.active_from:
                continue
            if iv.kind == "pipeline_investment":
                i = index[iv.group]
                pmf = groups[i].pmf.copy()
                moved = pmf[:-1] * iv.shift_fraction
                pmf[:-1] -= moved
                pmf[1:] += moved
                pmf.setflags(write=False)
                groups[i] = GroupState._of_row(iv.group, groups[i].proportion, pmf)
            elif iv.kind == "role_model_feedback":
                share = self.last_share.get(iv.group)
                if share is None:
                    continue
                i = index[iv.group]
                scaled = groups[i].proportion * (1.0 + iv.strength * share)
                groups[i] = groups[i].with_proportion(scaled)
                total = sum(g.proportion for g in groups)
                groups = [
                    g.with_proportion(g.proportion / total) for g in groups
                ]
        return pop.with_groups(groups)

    def policy(self, t: int, pop: Population) -> Policy:
        cfg = self.cfg
        pol = self.static_policy
        if pol is None:
            pol = build_policy(cfg, pop, cfg.policy_rule, cfg.resolution)
        # Each group's accepted mass under ``pol``, computed on first use.
        mass = None
        flags = []
        for i, iv in enumerate(self.interventions):
            if iv.kind != "quota":
                flags.append(t >= iv.active_from)
                continue
            active = self.quota_active[i] and t >= iv.active_from
            flags.append(active)
            if not active:
                continue
            if mass is None:
                mass = _accepted_mass(pop, pol)
            j = pop.group_ids.index(iv.group)
            pol = self._enforce_quota(pop, pol, iv, j, mass)
            share = _shares(mass)[j]
            if abs(share - iv.target_share) <= iv.sunset.eps:
                self.quota_streak[i] += 1
            else:
                self.quota_streak[i] = 0
            if self.quota_streak[i] >= iv.sunset.window:
                self.quota_active[i] = False  # permanent
        if self.keeps_shares:
            if mass is None:
                mass = _accepted_mass(pop, pol)
            self.last_share = dict(zip(pop.group_ids, _shares(mass)))
        self.flags[t] = tuple(flags)
        return pol

    def _enforce_quota(
        self,
        pop: Population,
        pol: Policy,
        iv: InterventionRule,
        j: int,
        mass: list[float],
    ) -> Policy:
        """``pol`` with the threshold of the quota group, group ``j`` of
        ``pop``, lowered until its accepted share reaches the target, or
        ``pol`` itself when it already does. ``mass`` holds each group's
        accepted mass under ``pol``; entry ``j`` is updated to the returned
        policy."""
        group = pop.groups[j]
        if group.proportion <= 0:
            raise InfeasibilityError(
                f"quota on group {iv.group!r} infeasible: zero population mass"
            )
        q = iv.target_share
        other_mass = sum(m for k, m in enumerate(mass) if k != j)
        if _shares(mass)[j] >= q:
            return pol
        if q >= 1.0:
            if other_mass > 0:
                raise InfeasibilityError(
                    f"quota share {q} infeasible while other groups are accepted"
                )
            return pol
        needed_rate = q * other_mass / (group.proportion * (1.0 - q))
        if needed_rate > 1.0:
            raise InfeasibilityError(
                f"quota share {q} for group {iv.group!r} needs acceptance rate "
                f"{needed_rate:.6g} > 1"
            )
        enforced = threshold_policy_for_rate(group, needed_rate).expand(pop.grid)
        pol = Policy.from_arrays({**pol.acceptance, iv.group: enforced.tau(iv.group)})
        mass[j] = group.proportion * acceptance_rate(pol, group)
        return pol

    def flags_fn(self, t: int) -> tuple[bool, ...]:
        return self.flags.get(t, ())


def initial_policy(cfg: ScenarioConfig) -> Policy:
    """The policy the scenario applies at step 0: its rule on the initial
    population, with the interventions that are active at step 0."""
    return _ScenarioEngine(cfg, cfg.interventions).policy(0, cfg.population)


def run_scenario(
    cfg: ScenarioConfig,
    interventions: Optional[Sequence[InterventionRule]] = None,
) -> Trajectory:
    """Simulate the scenario with its interventions applied.

    ``interventions`` overrides the config's list (used by variants). With an
    empty list the run reduces to the bare dynamics loop.
    """
    ivs = tuple(cfg.interventions if interventions is None else interventions)
    engine = _ScenarioEngine(cfg, ivs)
    return simulate(
        cfg.population,
        engine.policy,
        cfg.outcome,
        cfg.institution,
        cfg.horizon,
        regime_tol=cfg.tolerances.regime,
        metric_pair=cfg.metric_groups,
        pre_step=engine.pre_step if ivs else None,
        flags_fn=engine.flags_fn if ivs else None,
    )


def goal_value(cfg: ScenarioConfig, step) -> float:
    goal = cfg.declared_goal
    if goal.metric == "delta_mu":
        return step.delta_mu[goal.target_group]
    return getattr(step.metrics, goal.metric)


def _goal_values(cfg: ScenarioConfig, traj: Trajectory, run: str) -> list[float]:
    """The declared goal's metric at every step of ``run``, read from the
    columns.

    A gap goal is NaN at a step where a group has no qualified (or no
    unqualified) mass. Such a value is neither met nor missed and has no
    order, so it raises ``UndefinedConditionalError`` naming ``run``, the
    metric and the first such step.
    """
    c, goal = traj.columns, cfg.declared_goal
    if goal.metric == "delta_mu":
        values = c.delta_mu[:, c.group_ids.index(goal.target_group)]
    else:
        values = getattr(c, goal.metric)
    undefined = np.flatnonzero(np.isnan(values))
    if undefined.size:
        raise UndefinedConditionalError(
            f"{run}: goal metric {goal.metric} is undefined (NaN), first at step "
            f"{undefined[0]}: a group has no qualified or no unqualified mass"
        )
    return values.tolist()


def goal_met(cfg: ScenarioConfig, value: float) -> bool:
    # Gap goals are met below tolerance; the score-change goal is met in the
    # improvement regime (strictly above tolerance).
    if cfg.declared_goal.metric == "delta_mu":
        return value > cfg.declared_goal.tolerance
    return value <= cfg.declared_goal.tolerance


@dataclass(frozen=True)
class ComparisonRow:
    variant: str
    final_goal_value: float
    steps_to_goal: Optional[int]
    persists_after_sunset: bool
    final_delta_mu: Mapping[str, float]
    trajectory: Trajectory


def _sunset_occurred(traj: Trajectory, interventions) -> bool:
    """Whether some quota was active at a step and inactive at a later one."""
    flags = traj.columns.flags
    for i, iv in enumerate(interventions):
        if iv.kind != "quota" or i >= flags.shape[1]:
            continue
        active = flags[:, i]
        if np.any(np.logical_or.accumulate(active) & ~active):
            return True
    return False


def compare_interventions(
    cfg: ScenarioConfig, variants: Sequence[tuple[str, Sequence[InterventionRule]]]
) -> list[ComparisonRow]:
    """Run each variant from the same initial state and summarize outcomes.

    A goal metric that is NaN at some step of a variant raises
    ``UndefinedConditionalError``.
    """
    if len(variants) < 2:
        raise ConfigError("comparison needs at least two variants")
    rows = []
    for name, ivs in variants:
        traj = run_scenario(cfg, ivs)
        values = _goal_values(cfg, traj, f"variant {name!r}")
        steps_to_goal = next(
            (t for t, v in enumerate(values) if goal_met(cfg, v)), None
        )
        persists = _sunset_occurred(traj, ivs) and goal_met(cfg, values[-1])
        c = traj.columns
        rows.append(
            ComparisonRow(
                variant=name,
                final_goal_value=values[-1],
                steps_to_goal=steps_to_goal,
                persists_after_sunset=persists,
                final_delta_mu=dict(zip(c.group_ids, c.delta_mu[-1].tolist())),
                trajectory=traj,
            )
        )
    return rows


def named_variants(cfg: ScenarioConfig, names: Sequence[str]):
    out = []
    for name in names:
        if name not in cfg.variants:
            raise ConfigError(
                f"scenario {cfg.name!r} defines no variant {name!r}; "
                f"available: {sorted(cfg.variants)}"
            )
        out.append((name, cfg.variants[name]))
    return out


@dataclass(frozen=True)
class SweepReport:
    values: tuple[float, ...]
    minimum: float
    maximum: float
    spread: float
    unreliable: bool


def sensitivity_sweep(
    cfg: ScenarioConfig, eps_p: float, n_draws: int, seed: int
) -> SweepReport:
    """Test-retest style reliability probe.

    Reruns the scenario with each initial pmf perturbed by zero-sum noise of
    total variation eps_p (then clipped and renormalized) and reports the
    spread of the final goal metric. Runs whose spread exceeds ten times
    eps_p are flagged unreliable. A goal metric that is NaN at some step of
    a draw raises ``UndefinedConditionalError``.
    """
    if eps_p < 0:
        raise ConfigError(f"perturbation size must be >= 0, got {eps_p}")
    if n_draws < 1:
        raise ConfigError(f"need at least one draw, got {n_draws}")
    values = []
    for draw in range(n_draws):
        rng = np.random.default_rng([seed, draw])
        groups = []
        for g in cfg.population.groups:
            pmf = g.pmf
            noise = rng.standard_normal(len(pmf))
            noise -= noise.mean()
            norm = np.abs(noise).sum()
            if eps_p > 0 and norm > 0:
                noise *= 2.0 * eps_p / norm
            else:
                noise[:] = 0.0
            perturbed = np.clip(pmf + noise, 0.0, None)
            perturbed /= perturbed.sum()
            groups.append(g.with_pmf(perturbed))
        perturbed_cfg = replace(
            cfg, population=cfg.population.with_groups(groups)
        )
        traj = run_scenario(perturbed_cfg)
        values.append(_goal_values(cfg, traj, f"sweep draw {draw}")[-1])
    lo, hi = min(values), max(values)
    spread = hi - lo
    return SweepReport(
        values=tuple(values),
        minimum=lo,
        maximum=hi,
        spread=spread,
        unreliable=spread > 10.0 * eps_p,
    )
