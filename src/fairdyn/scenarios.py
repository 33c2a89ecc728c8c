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
import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ._yaml import (
    as_float, as_text, checked_text, known_keys, mapping, read_yaml, sequence,
)
from .dynamics import (
    Trajectory,
    TrajectoryColumns,
    _check_regime_tol,
    _checked_horizon,
    _checked_pair,
    _population_view,
    _run,
    simulate,
)
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FairdynError,
    InfeasibilityError,
    UndefinedConditionalError,
)
from .metrics import OutcomeModel
from .optimize import (
    DEFAULT_RESOLUTION,
    Constraint,
    ConstrainedPlan,
    OutcomeOptimalPlan,
    constrained_plan,
    max_utility_policy,
    outcome_optimal_plan,
    search,
)
from .policy import InstitutionModel, Policy, _threshold_at, _with_threshold
from .population import (
    GroupState,
    Population,
    ScoreGrid,
    _integer,
    _is_integer,
    _proportions_valid,
    _real,
    _real_vector,
    _require_valid,
    _valid_rows,
)

BUILTIN_NAMES = ("lending_liu", "boards_quota")

GOAL_METRICS = ("dp_gap", "eo_gap", "eodds_gap", "delta_mu")
POLICY_KINDS = ("fixed", "max_utility", "constrained", "outcome_optimal")
INTERVENTION_KINDS = ("quota", "pipeline_investment", "role_model_feedback")
# The fields of a policy rule or an intervention that each kind reads beyond
# those that every rule or intervention reads, which no kind names here. An
# intervention's first is its parameter, a number in [0, 1].
_READS = {
    "fixed": ("tau",),
    "max_utility": (),
    "constrained": ("constraint",),
    "outcome_optimal": ("target_group", "utility_floor"),
    "quota": ("target_share", "sunset"),
    "pipeline_investment": ("shift_fraction",),
    "role_model_feedback": ("strength",),
}
_KIND_READS = {name for reads in _READS.values() for name in reads}


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


def _typed(value, cls: type, name: str):
    """``value`` if it is an instance of ``cls``, else ``DomainError`` naming
    it."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {cls.__name__}, got {value!r}")
    return value


def _check_unread(record, path: str, what: str) -> None:
    """Raise ``DomainError`` naming the first field of ``record``, a policy
    rule or an intervention of a known kind, that its kind does not read
    (``_READS``) and that does not hold its default."""
    reads = _READS[record.kind]
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name not in _KIND_READS or f.name in reads or value is f.default:
            continue
        if f.default is None or value != f.default:
            raise DomainError(
                f"{path}.{f.name}: a {record.kind} {what} does not read it; "
                f"leave it unset"
            )


def _check_interventions(
    ivs: Sequence[InterventionRule], where: str, ids: tuple[str, ...]
) -> None:
    """Raise ``DomainError``, naming the field by its path ``where[i]...`` in
    a scenario file, at the first intervention of ``ivs`` that breaks a
    rule: its type, kind, group, ``active_from``, its parameter's presence,
    type and range, and a quota's sunset."""
    for i, iv in enumerate(ivs):
        path = f"{where}[{i}]"
        _typed(iv, InterventionRule, path)
        if iv.kind not in INTERVENTION_KINDS:
            raise DomainError(f"{path}.kind: unknown intervention kind {iv.kind!r}")
        if iv.group not in ids:
            raise DomainError(f"{path}.group: unknown group label {iv.group!r}")
        if _integer(iv.active_from, path + ".active_from") < 0:
            raise DomainError(f"{path}.active_from must be >= 0")
        for key in _READS[iv.kind]:
            if getattr(iv, key) is None:
                raise DomainError(f"missing field {path}.{key}")
        name = _READS[iv.kind][0]
        value = _real(getattr(iv, name), f"{path}.{name}")
        if not 0.0 <= value <= 1.0:  # NaN fails too
            if iv.kind == "quota":
                raise DomainError(f"{path}.{name}: q out of [0,1], got {value}")
            raise DomainError(f"{path}.{name} out of [0,1], got {value}")
        if iv.kind == "quota":
            sunset = _typed(iv.sunset, SunsetRule, path + ".sunset")
            eps = _real(sunset.eps, path + ".sunset.eps")
            window = _integer(sunset.window, path + ".sunset.window")
            if not eps >= 0 or window < 1:  # NaN fails too
                raise DomainError(f"{path}.sunset: eps must be >= 0 and window >= 1")
        _check_unread(iv, path, "intervention")


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's declarations, checked when the config is built.

    Construction, ``dataclasses.replace`` included, raises ``DomainError``
    at the first field that breaks a rule, naming it by its path in a
    scenario file: each field's type, the goal, each group's success vector,
    the policy rule and its resolution, the interventions and the variants',
    the seed (stored as an int), and then ``simulate``'s start checks (the
    horizon, stored as an int, the regime tolerance, the population and the
    metric pair), with its messages. So a file and a code-built config fail
    with one message, and a run of a config that exists checks none again.
    """

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

    def __post_init__(self):
        # Only private functions: the benchmark's tracer wraps every public
        # one and would charge a config's build to the job that builds it.
        goal = _typed(self.declared_goal, DeclaredGoal, "declared_goal")
        pop = _typed(self.population, Population, "population")
        outcome = _typed(self.outcome, OutcomeModel, "outcome")
        _typed(self.institution, InstitutionModel, "institution")
        rule = _typed(self.policy_rule, PolicyRuleSpec, "policy_rule")
        _typed(self.interventions, tuple, "interventions")
        tolerances = _typed(self.tolerances, Tolerances, "tolerances")
        _typed(self.variants, Mapping, "variants")
        _typed(self.name, str, "name")
        _typed(goal.label, str, "declared_goal.label")
        for i, g in enumerate(pop.groups):
            _typed(g.group_id, str, f"population.groups[{i}].group_id")
        ids, bins = pop.group_ids, len(pop.grid)
        if goal.metric not in GOAL_METRICS:
            raise DomainError(
                f"declared_goal.metric must be one of {GOAL_METRICS}, "
                f"got {goal.metric!r}"
            )
        if math.isnan(_real(goal.tolerance, "declared_goal.tolerance")):
            raise DomainError("declared_goal.tolerance must be a number, got nan")
        if goal.metric == "delta_mu" and goal.target_group is None:
            raise DomainError("declared_goal.target_group required for delta_mu goal")
        for gid in ids:
            if gid not in outcome.rho:
                raise DomainError(f"outcome.rho missing group {gid!r}")
            if len(outcome.rho[gid]) != bins:
                raise DomainError(f"outcome.rho[{gid!r}] length != grid length")

        if rule.kind not in POLICY_KINDS:
            raise DomainError(
                f"policy_rule.kind must be one of {POLICY_KINDS}, got {rule.kind!r}"
            )
        if rule.kind == "fixed":
            if rule.tau is None:
                raise DomainError("policy_rule.tau required for a fixed rule")
            _typed(rule.tau, Mapping, "policy_rule.tau")
            missing = set(ids) - set(rule.tau)
            if missing:
                raise DomainError(f"policy_rule.tau: missing groups {sorted(missing)}")
            tau = {}
            for gid, t in rule.tau.items():
                path = f"policy_rule.tau[{gid}]"
                t = tau[gid] = _real_vector(t, path)
                if gid not in ids:
                    raise DomainError(f"{path}: unknown group label {gid!r}")
                if len(t) != bins:
                    raise DomainError(f"{path}: length {len(t)} != grid length {bins}")
                if not np.all((t >= 0) & (t <= 1)):  # NaN fails too
                    raise DomainError(f"{path}: entries outside [0,1] or NaN")
            # The checked copies, so that no later edit of the caller's
            # vectors reaches a run.
            object.__setattr__(self, "policy_rule", replace(rule, tau=tau))
        constraints = tuple(c.value for c in Constraint)
        if rule.kind == "constrained" and rule.constraint not in constraints:
            raise DomainError(f"policy_rule.constraint must be one of {constraints}")
        if rule.kind == "outcome_optimal" and rule.target_group is None:
            raise DomainError("policy_rule.target_group required for outcome_optimal")
        if math.isnan(_real(rule.utility_floor, "policy_rule.utility_floor")):
            raise DomainError("policy_rule.utility_floor must be a number, got nan")
        _check_unread(rule, "policy_rule", "rule")
        if not 0.0 < _real(self.resolution, "resolution") <= 1.0:
            raise DomainError(f"resolution must be in (0, 1], got {self.resolution}")
        for label, where in [
            (goal.target_group, "declared_goal.target_group"),
            (rule.target_group, "policy_rule.target_group"),
        ]:
            if label is not None and label not in ids:
                raise DomainError(f"{where}: unknown group label {label!r}")

        _check_interventions(self.interventions, "interventions", ids)
        for name, ivs in self.variants.items():
            where = f"variants.{name}.interventions"
            _check_interventions(_typed(ivs, tuple, where), where, ids)
        seed = _integer(self.seed, "seed")
        if seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")

        object.__setattr__(self, "horizon", _checked_horizon(self.horizon))
        object.__setattr__(self, "seed", seed)
        _check_regime_tol(tolerances.regime, "tolerances.regime")
        _require_valid(pop)
        _checked_pair(self.metric_groups, ids)


def _req(raw: dict, key: str, path: str):
    if key not in raw:
        raise ConfigError(f"missing field {path}.{key}")
    return raw[key]


def _as_int(value):
    """``value`` as an int if ``_is_integer``, else as it is, for the check
    of its field to reject."""
    return int(value) if _is_integer(value) else value


def _floats(raw, path: str) -> list:
    """The vector ``raw`` at ``path`` in a scenario file as a list, each
    entry cast with ``as_float``, for the model's ``_real_vector`` to name
    an entry that is then no real number. A value that is not a list raises
    ``ConfigError`` naming ``path``."""
    return [as_float(value) for value in sequence(raw, path)]


# The loader's cast of a field by its declared type, optional or not. A field
# of another type is read as it is, for its record's check to judge.
_CASTS = {"str": as_text, "float": as_float, "int": _as_int}
# The fields of each record of a scenario file, in order, with each one's
# default and cast.
_FIELDS = {
    cls: {
        f.name: (f.default, _CASTS.get(f.type.removeprefix("Optional[").rstrip("]")))
        for f in fields(cls)
    }
    for cls in (
        ScenarioConfig, DeclaredGoal, ScoreGrid, GroupState, OutcomeModel,
        InstitutionModel, PolicyRuleSpec, InterventionRule, SunsetRule, Tolerances,
    )
}


def _record(cls, raw, path: str, keys=None, **casts):
    """The ``cls`` that the mapping ``raw`` at ``path`` in a scenario file
    declares. ``raw`` holds no key outside ``keys``, by default the fields
    of ``cls``. A field that it holds is cast by its entry in ``casts``, else
    by its declared type; an absent field takes its default, and one with no
    default is missing. The ``DomainError`` or ``DimensionError`` of a
    model's construction, whose message starts with the field's name, is
    raised as a ``ConfigError`` prefixed with ``path``."""
    known_keys(raw, path, keys or _FIELDS[cls])
    values = {}
    for name, (default, cast) in _FIELDS[cls].items():
        if name in raw:
            cast = casts.get(name, cast)
            values[name] = raw[name] if cast is None else cast(raw[name])
        elif default is MISSING:
            raise ConfigError(f"missing field {path}.{name}")
        else:
            values[name] = default
    try:
        return cls(**values)
    except (DomainError, DimensionError) as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _interventions(raw, path: str) -> tuple[InterventionRule, ...]:
    """The interventions of the list ``raw`` at ``path`` in a scenario file.
    Each holds the keys that every intervention reads and its kind's; one
    of an unknown kind may hold any kind's, for the config's check to name
    its kind."""
    ivs = []
    for i, iv in enumerate(sequence(raw, path)):
        where = f"{path}[{i}]"
        kind = str(mapping(iv, where).get("kind"))
        own = _READS[kind] if kind in INTERVENTION_KINDS else _KIND_READS
        keys = [
            key for key in _FIELDS[InterventionRule]
            if key in own or key not in _KIND_READS
        ]
        sunset = lambda s: s if s is None else _record(SunsetRule, s, where + ".sunset")
        ivs.append(_record(InterventionRule, iv, where, keys, sunset=sunset))
    return tuple(ivs)


def _parse_config(raw: dict, name_hint: str) -> ScenarioConfig:
    """The config that the parsed scenario file ``raw`` declares; its
    construction checks it."""
    known_keys(raw, "scenario", _FIELDS[ScenarioConfig])

    def section(cls, key, keys=None, **casts):
        return _record(cls, _req(raw, key, "scenario"), key, keys, **casts)

    goal = section(DeclaredGoal, "declared_goal")
    grid = section(
        ScoreGrid, "population", (*_FIELDS[ScoreGrid], "groups"),
        bin_scores=lambda scores: _floats(scores, "population.bin_scores"),
    )
    groups_raw = _req(raw["population"], "groups", "population")
    groups = tuple(
        _record(
            GroupState, g, f"population.groups[{i}]",
            pmf=lambda pmf, i=i: _floats(pmf, f"population.groups[{i}].pmf"),
        )
        for i, g in enumerate(sequence(groups_raw, "population.groups"))
    )
    ids = [g.group_id for g in groups]

    def rho_vectors(rho):
        if not isinstance(rho, dict):
            # One vector for every group; a label that is not a string is
            # the config's to reject.
            rho = {gid: rho for gid in ids if isinstance(gid, str)}
        return {
            checked_text(k, "outcome.rho", "key"): _floats(vs, f"outcome.rho[{k}]")
            for k, vs in rho.items()
        }

    outcome = section(OutcomeModel, "outcome", rho=rho_vectors)
    institution = section(InstitutionModel, "institution")
    rule = section(
        PolicyRuleSpec, "policy_rule",
        tau=lambda tau: {
            checked_text(k, "policy_rule.tau", "key"):
                _floats(vs, f"policy_rule.tau[{k}]")
            for k, vs in mapping(tau, "policy_rule.tau").items()
        },
    )
    tolerances = _record(Tolerances, raw.get("tolerances", {}), "tolerances")
    variants = {}
    for name, v in mapping(raw.get("variants", {}), "variants").items():
        name = checked_text(name, "variants", "key")
        where = f"variants.{name}"
        known_keys(v, where, ("interventions",))
        ivs = _req(v, "interventions", where)
        variants[name] = _interventions(ivs, where + ".interventions")
    # A pair that is not a list is the config's to reject.
    pair = raw.get("metric_groups", ids[:2])
    return ScenarioConfig(
        name=as_text(raw.get("name", name_hint)),
        declared_goal=goal,
        population=Population(grid, groups),
        outcome=outcome,
        institution=institution,
        policy_rule=rule,
        interventions=_interventions(raw.get("interventions", []), "interventions"),
        horizon=_as_int(_req(raw, "horizon", "scenario")),
        tolerances=tolerances,
        seed=_as_int(raw.get("seed", 0)),
        resolution=as_float(raw.get("resolution", DEFAULT_RESOLUTION)),
        metric_groups=tuple(map(as_text, pair)) if isinstance(pair, list) else pair,
        variants=variants,
    )


def load_scenario(path_or_name: str) -> ScenarioConfig:
    """Load a scenario from a YAML file path or a built-in name: parse it
    and build its config, which checks it. An error names the file."""
    if path_or_name in BUILTIN_NAMES:
        source = importlib.resources.files("fairdyn.data") / f"{path_or_name}.yaml"
    else:
        source = Path(path_or_name)
    raw = read_yaml(source, path_or_name, "scenario file")
    try:
        return _parse_config(raw, path_or_name)
    except (ConfigError, DomainError, DimensionError) as exc:
        raise ConfigError(f"scenario file {path_or_name}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario file {path_or_name}: {exc}") from exc


def _decision_rule(
    cfg: ScenarioConfig,
) -> Policy | ConstrainedPlan | OutcomeOptimalPlan:
    """The policy (``fixed``, ``max_utility``) or search plan of the policy
    rule of ``cfg`` for populations with its population's groups and grid;
    a search scans rates or TPRs at its resolution."""
    pop, rule, resolution = cfg.population, cfg.policy_rule, cfg.resolution
    if rule.kind == "fixed":
        return Policy(rule.tau)
    if rule.kind == "max_utility":
        return max_utility_policy(pop, cfg.outcome, cfg.institution)
    if rule.kind == "constrained":
        return constrained_plan(
            pop, cfg.outcome, cfg.institution, Constraint(rule.constraint), resolution
        )
    return outcome_optimal_plan(
        pop, cfg.outcome, cfg.institution, rule.target_group, rule.utility_floor,
        resolution,
    )


def build_policy(
    cfg: ScenarioConfig, pop: Population, rule: PolicyRuleSpec, resolution: float
) -> Policy:
    """The policy that ``rule`` selects for ``pop`` under ``cfg``'s outcome and
    institution models; the searches scan rates or TPRs at ``resolution``.
    ``cfg`` with ``pop``, ``rule`` and ``resolution`` is built, and so
    checked, as a config."""
    cfg = replace(cfg, population=pop, policy_rule=rule, resolution=resolution)
    decided = _decision_rule(cfg)
    return decided if isinstance(decided, Policy) else search(decided, pop)


def _accepted_mass(
    pmfs: Sequence[np.ndarray], proportions: Sequence[float], taus: Sequence[np.ndarray]
) -> list[float]:
    """Each group's accepted mass, its proportion times its acceptance rate
    ``pmf.dot(tau)``, for acceptance vectors of checked lengths: the BLAS
    dot that ``_dots`` calls, so equal to its rates bit for bit."""
    return [p * float(pmf.dot(tau)) for pmf, p, tau in zip(pmfs, proportions, taus)]


def _shares(mass: list[float]) -> list[float]:
    """Each group's share of the accepted mass; all zero when none is."""
    total = sum(mass)
    if total <= 0:
        return [0.0] * len(mass)
    return [m / total for m in mass]


class _ScenarioEngine:
    """Stateful hooks plugged into the dynamics loop to apply interventions:
    ``pre_step``, the loop's row hook, ``policy``, which ``decide``s from
    the step's rows, ``flags_fn`` and ``check_shifts``. ``run_scenario``
    hands the engine to ``simulate``, which runs the hooks that ``hooks``
    names.

    The interventions are compiled once, when the engine is built: each
    one's start, the pipelines as (start, group index, shift fraction), the
    quotas as (slot, group, group index, target share, sunset eps, sunset
    window) and the role-model feedbacks as (start, group index, strength),
    so no step reads an ``InterventionRule``.

    Under a ``fixed`` or ``max_utility`` rule whose interventions are all
    role-model feedback, or that has none (``deferred``), no step's decision
    reads the rows, so a run of one draw takes no row hook: ``policy``
    returns the rule without calling ``decide``, ``flags_fn`` reads each
    flag off its ``active_from``, and ``feedback`` rescales the proportions
    after the loop, from the run's acceptance column. It applies each step's
    rescale with ``_rescale``, as ``pre_step`` does, to shares that
    ``_shares`` takes of the masses ``decide`` would have computed."""

    def __init__(self, cfg: ScenarioConfig, interventions, rule=None):
        self.cfg = cfg
        self.interventions = interventions
        self.group_ids = cfg.population.group_ids
        self.index = {gid: i for i, gid in enumerate(self.group_ids)}
        # The ``_decision_rule`` is built once for the run; another draw of
        # the same scenario is given the first draw's ``rule``.
        if rule is None:
            rule = _decision_rule(cfg)
        self.rule = rule
        self.starts = [iv.active_from for iv in interventions]
        # A start is an integer, maybe an integral float, and slices the
        # state in ``check_shifts``.
        self.pipelines = [
            (int(iv.active_from), self.index[iv.group], iv.shift_fraction)
            for iv in interventions
            if iv.kind == "pipeline_investment"
        ]
        # The mass each shift moves up, one buffer for every pipeline step.
        self.moved = np.empty(max(len(cfg.population.grid) - 1, 0))
        self.quotas = [
            (slot, iv.group, self.index[iv.group], iv.target_share,
             iv.sunset.eps, iv.sunset.window)
            for slot, iv in enumerate(interventions)
            if iv.kind == "quota"
        ]
        self.quota_active = [iv.kind == "quota" for iv in interventions]
        self.quota_streak = [0] * len(interventions)
        # Each role-model feedback, in order, as (active_from, group index,
        # strength). Only these read the accepted shares of the last step.
        self.feedbacks = [
            (iv.active_from, self.index[iv.group], iv.strength)
            for iv in interventions
            if iv.kind == "role_model_feedback"
        ]
        self.deferred = (
            isinstance(rule, Policy) and len(self.feedbacks) == len(interventions)
        )
        self.last_share: dict[str, float] = {}
        self.flags: dict[int, tuple[bool, ...]] = {}
        # A deferred engine's flags from its last ``active_from`` on.
        self.all_on = (True,) * len(interventions)
        self.last_start = max(self.starts, default=0)

    def _rescale(
        self, t: int, proportions: list[float], shares: list[float]
    ) -> Optional[list[float]]:
        """``proportions`` after the role-model feedback active at step ``t``,
        on each group's ``shares`` of the mass accepted at the last step; None
        when none is active. Each, in order, scales its group's proportion by
        ``1 + strength * share`` and renormalizes."""
        rescaled = None
        for start, j, strength in self.feedbacks:
            if t >= start:
                scaled = list(proportions if rescaled is None else rescaled)
                scaled[j] *= 1.0 + strength * shares[j]
                total = sum(scaled)
                rescaled = [p / total for p in scaled]
        return rescaled

    def _raise_invalid(self, pmfs: np.ndarray, proportions: list[float]) -> None:
        """Raise the ``DomainError`` of ``_require_valid`` for the population
        of these rows."""
        pop = self.cfg.population
        _require_valid(_population_view(pop.grid, pop.group_ids, proportions, pmfs))

    def pre_step(self, t: int, pmfs: np.ndarray, proportions: np.ndarray) -> bool:
        """Apply the interventions active at step ``t`` in place to the
        step's pmfs (groups, bins) and proportions, and return whether the
        proportions changed.

        The pipeline moves ``shift_fraction`` of each non-top bin's mass one
        bin up; then role-model feedback (``_rescale``) scales its group's
        proportion by ``1 + strength * share``, with the share accepted at
        the last step, and renormalizes. The two edit different rows, so
        their order changes no value. Rescaled proportions are then checked
        as ``validate_population`` checks them; on failure it raises its
        ``DomainError("invalid population: ...")``. The shifted pmfs are
        checked once per run, by ``check_shifts``.
        """
        moved = self.moved
        for start, i, fraction in self.pipelines:
            if t >= start:
                low, high = pmfs[i, :-1], pmfs[i, 1:]
                np.multiply(low, fraction, out=moved)
                np.subtract(low, moved, out=low)
                np.add(high, moved, out=high)
        if not self.last_share:  # none before the first decision
            return False
        shares = [self.last_share[gid] for gid in self.group_ids]
        rescaled = self._rescale(t, proportions.tolist(), shares)
        if rescaled is None:
            return False
        proportions[:] = rescaled
        if not _proportions_valid(rescaled):
            self._raise_invalid(pmfs, proportions.tolist())
        return True

    def check_shifts(
        self, states: np.ndarray, proportions: np.ndarray, upto: int
    ) -> None:
        """Check the rows that the pipelines shifted, those of steps up to
        ``upto`` of a run's states (steps, groups, bins) and proportions
        (steps, groups), in one pass per pipeline, and raise at the first
        step ``t`` whose shifted row fails, the error ``pre_step`` would
        have raised there on a check of its own: ``validate_population``'s
        ``DomainError`` for the population of row ``t``.

        Each row is decided by ``_valid_rows``."""
        first = None
        for start, i, _ in self.pipelines:
            ok = _valid_rows(states[start : upto + 1, i])
            if not ok.all():
                t = start + int(ok.argmin())
                first = t if first is None else min(first, t)
        if first is not None:
            self._raise_invalid(states[first], proportions[first].tolist())

    def feedback(
        self, states: np.ndarray, acceptance: np.ndarray, proportions: np.ndarray
    ) -> None:
        """Fill rows 1 on of ``proportions`` (steps, groups), all equal to
        row 0, with the role-model feedback of a ``deferred`` engine's run
        whose states (steps, groups, bins) are ``states`` and whose
        acceptance column (steps, groups) is ``acceptance``.

        Each step's accepted masses are its proportions times its acceptance
        rates, which ``_step_columns`` takes with ``_dots``, equal to the
        ``pmf.dot(tau)`` that ``decide`` computes bit for bit, so every row
        is that of the in-loop hook. A step whose rescaled proportions fail
        ``validate_population`` raises its error, naming that step's
        population."""
        props = proportions[0].tolist()
        rows = []
        for t, accepted in enumerate(acceptance[:-1].tolist(), 1):
            shares = _shares([p * a for p, a in zip(props, accepted)])
            rescaled = self._rescale(t, props, shares)
            if rescaled is not None:
                if not _proportions_valid(rescaled):
                    self._raise_invalid(states[t], rescaled)
                props = rescaled
            rows.append(props)
        if rows:
            proportions[1:] = rows

    def hooks(self) -> tuple:
        """The ``(policy, row hook, flags_fn, feedback, check)`` that
        ``simulate`` runs the engine with, None for each hook the run does
        not take.

        A run without interventions takes ``policy`` alone. A ``deferred``
        engine (a ``fixed`` or ``max_utility`` rule, with role-model feedback
        as its only interventions) takes no row hook: its ``policy`` returns
        the rule at every step without deciding, and its ``feedback``
        rescales the proportions once the loop has ended, from the
        acceptance column that ``_step_columns`` computes before it sums the
        utility. No decision of such a run reads the proportions, and the
        states do not depend on them, so the pass gives the hook's
        proportions bit for bit: it applies the hook's own rescale, to shares
        of acceptance rates that ``_dots`` takes as the hook's
        ``pmf.dot(tau)``. Any other engine's ``pre_step`` is the row hook,
        and a run with a pipeline takes ``check_shifts`` as its check."""
        if not self.interventions:
            return self.policy, None, None, None, None
        if self.deferred:
            return self.policy, None, self.flags_fn, self.feedback, None
        check = self.check_shifts if self.pipelines else None
        return self.policy, self.pre_step, self.flags_fn, None, check

    def policy(self, t: int, step_rows: tuple[np.ndarray, np.ndarray]) -> Policy:
        """The policy of step ``t``, which ``decide``s from the step's
        (pmfs, proportions) rows, the groups in the scenario's order; a
        ``deferred`` engine's rule itself, which no row changes, with no
        ``decide`` call, so no step of its run updates the shares or the
        flags."""
        if self.deferred:
            return self.rule
        pmfs, proportions = step_rows
        return self.decide(t, pmfs, proportions.tolist())

    def decide(self, t: int, pmfs, proportions) -> Policy:
        """The policy of step ``t`` for the groups' ``pmfs`` and
        ``proportions``: the rule's, with each active quota enforced. It
        updates the quota streaks, the accepted shares and the flags."""
        pol = self.rule
        if not isinstance(pol, Policy):
            pol = pol.score(pmfs, proportions)[0]
        flags = [t >= start for start in self.starts]
        # Each group's accepted mass under ``pol`` and its shares, computed
        # on first use.
        mass = shares = None
        for slot, group, j, target, eps, window in self.quotas:
            if not (self.quota_active[slot] and flags[slot]):
                flags[slot] = False
                continue
            if mass is None:
                mass = _accepted_mass(pmfs, proportions, pol._rows(self.group_ids))
                shares = _shares(mass)
            pol = self._enforce_quota(
                pmfs[j], proportions[j], pol, group, target, j, mass, shares
            )
            if abs(shares[j] - target) <= eps:
                self.quota_streak[slot] += 1
            else:
                self.quota_streak[slot] = 0
            if self.quota_streak[slot] >= window:
                self.quota_active[slot] = False  # permanent
        if self.feedbacks:
            if mass is None:
                mass = _accepted_mass(pmfs, proportions, pol._rows(self.group_ids))
                shares = _shares(mass)
            self.last_share = dict(zip(self.index, shares))
        self.flags[t] = tuple(flags)
        return pol

    def _enforce_quota(
        self, pmf: np.ndarray, proportion: float, pol: Policy, group: str,
        q: float, j: int, mass: list[float], shares: list[float],
    ) -> Policy:
        """``pol`` with the threshold of the quota group, ``group`` (index
        ``j``) with ``pmf`` and ``proportion``, lowered until its accepted
        share reaches the target ``q``, or ``pol`` itself when it already
        does. ``mass`` holds each group's accepted mass under ``pol`` and
        ``shares`` their ``_shares``; both are updated in place to the
        returned policy."""
        if proportion <= 0:
            raise InfeasibilityError(
                f"quota on group {group!r} infeasible: zero population mass"
            )
        if shares[j] >= q:
            return pol
        other_mass = sum(m for k, m in enumerate(mass) if k != j)
        if q >= 1.0:
            if other_mass > 0:
                raise InfeasibilityError(
                    f"quota share {q} infeasible while other groups are accepted"
                )
            return pol
        needed_rate = q * other_mass / (proportion * (1.0 - q))
        if needed_rate > 1.0:
            raise InfeasibilityError(
                f"quota share {q} for group {group!r} needs acceptance rate "
                f"{needed_rate:.6g} > 1"
            )
        # The randomized threshold policy at that rate, as the tau vector
        # ``threshold_policy_for_rate(...).expand(grid)`` holds. The rate is
        # in [0, 1]: nonnegative by construction, and checked above.
        pol = _with_threshold(pol, group, _threshold_at(pmf, needed_rate))
        mass[j] = proportion * float(pmf.dot(pol.acceptance[group]))
        shares[:] = _shares(mass)
        return pol

    def flags_fn(self, t: int) -> tuple[bool, ...]:
        """The intervention flags of step ``t``: those ``decide`` recorded,
        or, for a ``deferred`` engine, each intervention's ``t >=
        active_from``, one cached tuple from the last ``active_from`` on."""
        if self.deferred:
            if t >= self.last_start:
                return self.all_on
            return tuple(t >= start for start in self.starts)
        return self.flags.get(t, ())


def initial_policy(cfg: ScenarioConfig) -> Policy:
    """The policy the scenario applies at step 0: its rule on the initial
    population, with the interventions that are active at step 0."""
    groups = cfg.population.groups
    pmfs = np.array([g.pmf for g in groups])
    proportions = np.array([g.proportion for g in groups], dtype=float)
    return _ScenarioEngine(cfg, cfg.interventions).policy(0, (pmfs, proportions))


def run_scenario(
    cfg: ScenarioConfig,
    interventions: Optional[Sequence[InterventionRule]] = None,
) -> Trajectory:
    """Simulate the scenario with its interventions applied.

    ``interventions`` overrides the config's list (used by variants) and is
    checked as the config's list is, under its path ``interventions``. With
    an empty list the run reduces to the bare dynamics loop.
    """
    ivs = cfg.interventions
    if interventions is not None:
        ivs = tuple(interventions)
        _check_interventions(ivs, "interventions", cfg.population.group_ids)
    return _run_checked(cfg, ivs)


def _run_checked(cfg: ScenarioConfig, ivs: Sequence[InterventionRule]) -> Trajectory:
    """``run_scenario`` of ``cfg`` with the checked interventions ``ivs``."""
    return simulate(
        cfg.population, None, cfg.outcome, cfg.institution, cfg.horizon,
        regime_tol=cfg.tolerances.regime, metric_pair=cfg.metric_groups,
        _engine=_ScenarioEngine(cfg, ivs),
    )


def _goal_values(
    cfg: ScenarioConfig,
    runs: TrajectoryColumns,
    names: Callable[[int], str],
) -> np.ndarray:
    """The declared goal's metric at every step of every run of ``runs``, a
    run's columns or a sweep block's, as an array (steps, runs).

    A gap goal is NaN at a step where a group has no qualified (or no
    unqualified) mass. Such a value is neither met nor missed and has no
    order, so it raises ``UndefinedConditionalError`` naming the first run
    that has one by ``names(k)``, the metric and that run's first such step.
    """
    goal, ids = cfg.declared_goal, cfg.population.group_ids
    if goal.metric == "delta_mu":
        values = runs.delta_mu[:, ids.index(goal.target_group) :: len(ids)]
    else:
        values = getattr(runs, goal.metric)
        values = values.reshape(len(values), -1)
    undefined = np.isnan(values)
    if undefined.any():
        k, t = np.argwhere(undefined.T)[0].tolist()
        raise UndefinedConditionalError(
            f"{names(k)}: goal metric {goal.metric} is undefined (NaN), "
            f"first at step {t}: a group has no qualified or no unqualified mass"
        )
    return values


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
        if iv.kind != "quota":
            continue
        active = flags[:, i]
        if np.any(np.logical_or.accumulate(active) & ~active):
            return True
    return False


def compare_interventions(
    cfg: ScenarioConfig, variants: Sequence[tuple[str, Sequence[InterventionRule]]]
) -> list[ComparisonRow]:
    """Run each variant from the same initial state and summarize outcomes.

    Every variant's interventions are checked, under the path
    ``variants.{name}.interventions``, before any variant runs. A goal
    metric that is NaN at some step of a variant raises
    ``UndefinedConditionalError``.
    """
    variants = [(name, tuple(ivs)) for name, ivs in variants]
    if len(variants) < 2:
        raise ConfigError("comparison needs at least two variants")
    for name, ivs in variants:
        where = f"variants.{name}.interventions"
        _check_interventions(ivs, where, cfg.population.group_ids)
    rows = []
    for name, ivs in variants:
        traj = _run_checked(cfg, ivs)
        values = _goal_values(cfg, traj.columns, lambda k: f"variant {name!r}")
        values = values[:, 0].tolist()
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
    """The final goal value of each draw, their extremes and spread.
    ``minimum_draw`` and ``maximum_draw`` are the first draws whose value is
    the minimum and the maximum."""

    values: tuple[float, ...]
    minimum: float
    maximum: float
    spread: float
    unreliable: bool
    minimum_draw: int
    maximum_draw: int


# A block of a sweep's draws holds as many draws as fit this many bytes of
# state array (steps x groups x bins float64 per draw), and at least one, so
# a sweep's peak memory does not grow with its number of draws.
_SWEEP_STATE_BYTES = 2**20


def _perturbed_pmfs(pop: Population, eps_p: float, seed: int, draw: int) -> np.ndarray:
    """Draw ``draw``'s start: each group's pmf plus zero-sum noise of total
    variation ``eps_p`` from ``default_rng([seed, draw])``, clipped at 0 and
    renormalized, as a (groups, bins) array, for a valid ``pop``. A size so
    large that the noise overflows gives inf or NaN entries, no warning, for
    the start check of ``_run_draws`` to reject."""
    rng = np.random.default_rng([seed, draw])
    pmfs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for g in pop.groups:
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
            pmfs.append(perturbed)
    return np.array(pmfs)


class _DrawEngines:
    """The hooks of a run of several draws of one scenario, whose rows
    ``_run`` advances together: one ``_ScenarioEngine`` per draw, each given
    its own draw's rows, so each keeps its draw's quota streaks, sunset and
    active states and accepted shares, and decides as in a run of its own.
    The engines share the first engine's rule."""

    def __init__(self, cfg: ScenarioConfig, draws: int):
        ivs = cfg.interventions
        self.engines = [_ScenarioEngine(cfg, ivs)]
        rule = self.engines[0].rule
        self.engines += [_ScenarioEngine(cfg, ivs, rule) for _ in range(draws - 1)]
        # A step's arrays are rows of ``_run``'s C-contiguous state, draw by
        # draw, so reshaped to this shape they give each draw a view.
        self.shape = (draws, len(cfg.population.groups))
        self.policies = (None,) * draws

    def pre_step(self, t: int, pmfs: np.ndarray, proportions: np.ndarray) -> bool:
        """Each engine's ``pre_step`` on its draw's rows of the step's pmfs
        (draws * groups, bins) and proportions, in draw order."""
        rescaled = False
        draws = zip(pmfs.reshape(*self.shape, -1), proportions.reshape(self.shape))
        for engine, (own, shares) in zip(self.engines, draws):
            if engine.pre_step(t, own, shares):
                rescaled = True
        return rescaled

    def policy(self, t: int, step_rows: tuple[np.ndarray, ...]) -> tuple[Policy, ...]:
        """Each draw's policy of step ``t``, which its engine decides from its
        draw's rows of the step's (pmfs, proportions). A step whose policies
        are all those of the step before returns the same tuple, so that the
        loop reuses their products."""
        pmfs = step_rows[0].reshape(*self.shape, -1)
        shares = step_rows[1].reshape(self.shape).tolist()
        pols = [
            engine.decide(t, own, share)
            for engine, own, share in zip(self.engines, pmfs, shares)
        ]
        if any(map(operator.is_not, pols, self.policies)):
            self.policies = tuple(pols)
        return self.policies

    def check_shifts(
        self, states: np.ndarray, proportions: np.ndarray, upto: int
    ) -> None:
        """Each engine's ``check_shifts`` on its draw's rows of the states
        (steps, draws * groups, bins) and proportions, in draw order."""
        steps = len(states)
        pmfs = states.reshape(steps, *self.shape, -1)
        shares = proportions.reshape(steps, *self.shape)
        for k, engine in enumerate(self.engines):
            engine.check_shifts(pmfs[:, k], shares[:, k], upto)


def _run_draws(cfg: ScenarioConfig, pmfs: np.ndarray) -> TrajectoryColumns:
    """The block record of the scenario's runs from each start of ``pmfs``
    (draws, groups, bins), advanced together by ``_run`` with the config's
    checked values: each draw's columns are bit for bit those of
    ``run_scenario`` on its start. Only the starts are checked here; the
    first that fails ``validate_population``, with the config's
    proportions, raises its ``DomainError``. The runs keep no intervention
    flags."""
    pop = cfg.population
    ok = _valid_rows(pmfs).all(axis=1)
    if not ok.all():
        shares = [g.proportion for g in pop.groups]
        own = pmfs[ok.argmin()]
        _require_valid(_population_view(pop.grid, pop.group_ids, shares, own))
    hooks = _DrawEngines(cfg, len(pmfs))
    return _run(
        pop, hooks.policy, cfg.outcome, cfg.institution, cfg.horizon,
        cfg.tolerances.regime, cfg.metric_groups, pmfs,
        hook=hooks.pre_step if cfg.interventions else None,
        check=hooks.check_shifts if hooks.engines[0].pipelines else None,
    )


def _sweep_block(cfg: ScenarioConfig, pmfs: np.ndarray, draws: range) -> list[float]:
    """The final goal values of the sweep draws ``draws`` from their starts
    ``pmfs``, run as one block.

    An error of a block raises the error of its first draw that fails when
    run alone, the error a sweep that ran its draws one after another met
    first; an error of a run is prefixed with ``sweep draw k: `` (a NaN goal
    names its draw already)."""
    try:
        runs = _run_draws(cfg, pmfs)
    except Exception as exc:
        # Whatever the block raised (a warning made an error, a zero
        # division in a rescale), running its draws alone finds the first
        # draw that raises it, and raises that.
        if len(draws) > 1:
            for draw, start in zip(draws, pmfs):
                _sweep_block(cfg, start[None], range(draw, draw + 1))
            raise
        if isinstance(exc, FairdynError):
            raise type(exc)(f"sweep draw {draws[0]}: {exc}") from exc
        raise
    return _goal_values(cfg, runs, lambda k: f"sweep draw {draws[k]}")[-1].tolist()


def sensitivity_sweep(
    cfg: ScenarioConfig, eps_p: float, n_draws: int, seed: int
) -> SweepReport:
    """Test-retest style reliability probe.

    Reruns the scenario with each initial pmf perturbed by zero-sum noise of
    total variation eps_p (then clipped and renormalized) and reports the
    spread of the final goal metric, and the first draws behind its minimum
    and maximum. Runs whose spread exceeds ten times eps_p are flagged
    unreliable. ``eps_p`` is a finite, nonnegative real, and ``n_draws`` (at
    least one) and ``seed`` (at least zero) are integers by ``_integer``'s
    rule; a ``ConfigError`` names the argument that is not. The goal is read
    as ``compare_interventions`` reads it. An error of a draw is raised with
    the prefix ``sweep draw k: ``, for the first draw that fails; a NaN goal
    names its draw already.

    The draws run in blocks: one loop advances a block's draws together as
    one stacked state array, whose rows never mix, with one scenario engine
    per draw, so each draw's values are bit for bit those of its own
    ``run_scenario``. A block holds as many draws as fit
    ``_SWEEP_STATE_BYTES`` of state, and at least one, so the memory a sweep
    needs does not grow with ``n_draws``.
    """
    if not 0 <= _real(eps_p, "perturbation size", ConfigError) < math.inf:
        raise ConfigError(f"perturbation size must be finite and >= 0, got {eps_p}")
    n_draws = _integer(n_draws, "n_draws", ConfigError)
    if n_draws < 1:
        raise ConfigError(f"need at least one draw, got {n_draws}")
    seed = _integer(seed, "seed", ConfigError)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    pop = cfg.population
    state_bytes = (cfg.horizon + 1) * len(pop.groups) * len(pop.grid) * 8
    block = max(1, _SWEEP_STATE_BYTES // state_bytes)
    values = []
    for first in range(0, n_draws, block):
        draws = range(first, min(first + block, n_draws))
        pmfs = np.array([_perturbed_pmfs(pop, eps_p, seed, d) for d in draws])
        values += _sweep_block(cfg, pmfs, draws)
    lo, hi = min(values), max(values)
    spread = hi - lo
    return SweepReport(
        values=tuple(values),
        minimum=lo,
        maximum=hi,
        spread=spread,
        unreliable=spread > 10.0 * eps_p,
        minimum_draw=values.index(lo),
        maximum_draw=values.index(hi),
    )
