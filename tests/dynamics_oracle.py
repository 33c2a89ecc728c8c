"""Reference dynamics loop: one population object per step.

Every step rebuilds the population through ``np.add.at``, evaluates the
policy hook, and recomputes each per-step quantity from the group objects
with the plain formulas. ``intervention_hook`` applies a scenario's
pipeline and role-model interventions to population objects, as a
``pre_step`` hook. ``QuotaRule`` decides a scenario's policy with its
quotas enforced step by step from population objects, apart from the
scenario engine. The library's array loop and its in-place scenario hook
are checked against ``simulate`` here, record by record and bit for bit.
"""

import math

import numpy as np

from fairdyn.errors import DomainError, InfeasibilityError
from fairdyn.policy import Policy
from fairdyn.population import GroupState, validate_population
from fairdyn.scenarios import build_policy
from test_policy import scan_threshold


def step(pop, policy, outcome):
    n = len(pop.grid.bin_scores)
    idx = np.arange(n)
    up = np.minimum(idx + outcome.steps_up, n - 1)
    down = np.maximum(idx - outcome.steps_down, 0)
    new_groups = []
    for g in pop.groups:
        pmf = g.pmf
        tau = policy.tau(g.group_id)
        rho = outcome.rho_for(g.group_id)
        new = pmf * (1.0 - tau)
        np.add.at(new, up, pmf * tau * rho)
        np.add.at(new, down, pmf * tau * (1.0 - rho))
        new_groups.append(g.with_pmf(new))
    return pop.with_groups(new_groups)


def intervention_hook(engine):
    """A ``pre_step`` hook that applies the pipeline and role-model
    interventions of a scenario engine to a new population. Role-model
    feedback reads the shares that ``engine.policy`` kept at the last step;
    the engine's quotas act through its policy."""

    def pre_step(t, pop):
        groups = list(pop.groups)
        index = {g.group_id: i for i, g in enumerate(groups)}
        for iv in engine.interventions:
            if t < iv.active_from:
                continue
            if iv.kind == "pipeline_investment":
                i = index[iv.group]
                pmf = groups[i].pmf.copy()
                moved = pmf[:-1] * iv.shift_fraction
                pmf[:-1] -= moved
                pmf[1:] += moved
                groups[i] = GroupState(iv.group, groups[i].proportion, pmf)
            elif iv.kind == "role_model_feedback":
                share = engine.last_share.get(iv.group)
                if share is None:
                    continue
                i = index[iv.group]
                scaled = groups[i].proportion * (1.0 + iv.strength * share)
                groups[i] = groups[i].with_proportion(scaled)
                total = sum(g.proportion for g in groups)
                groups = [g.with_proportion(g.proportion / total) for g in groups]
        return pop.with_groups(groups)

    return pre_step


def _shares(masses):
    """Each group's share of the accepted masses; all zero when none is."""
    total = sum(masses)
    if total <= 0:
        return [0.0] * len(masses)
    return [m / total for m in masses]


class QuotaRule:
    """A scenario's decisions with its quotas enforced, as ``policy_fn``,
    ``flags_fn`` and, for ``intervention_hook``, ``interventions`` and the
    ``last_share`` of each group.

    At step ``t`` the policy is the config's rule on the step's population
    (``build_policy``). Each quota active at ``t``, in order, then takes the
    accepted masses ``proportion * pmf @ tau`` in group order and its
    group's share of them. A share short of the target ``q`` is lifted to
    it: the group's acceptance rate becomes ``q * other / (proportion * (1
    - q))``, with ``other`` the other groups' mass, and its acceptance
    vector the randomized threshold that the bin-by-bin scan finds for
    that rate. A quota whose share lies within its sunset ``eps`` of ``q``
    at ``window`` steps in a row ends for good after that step. A step's
    flags are each intervention's ``t >= active_from``, false for a quota
    that has ended. ``enforced`` counts the rows replaced."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.interventions = cfg.interventions
        self.streak = [0] * len(cfg.interventions)
        self.ended = [False] * len(cfg.interventions)
        self.last_share = {}
        self.flags = {}
        self.enforced = 0

    def policy_fn(self, t, pop):
        cfg = self.cfg
        pol = build_policy(cfg, pop, cfg.policy_rule, cfg.resolution)
        flags = []
        for k, iv in enumerate(self.interventions):
            on = t >= iv.active_from
            if iv.kind == "quota":
                on = on and not self.ended[k]
                if on:
                    pol = self._enforce(k, iv, pop, pol)
            flags.append(on)
        self.flags[t] = tuple(flags)
        masses = [g.proportion * float(g.pmf @ pol.tau(g.group_id)) for g in pop.groups]
        self.last_share = dict(zip(pop.group_ids, _shares(masses)))
        return pol

    def flags_fn(self, t):
        return self.flags[t]

    def _enforce(self, k, iv, pop, pol):
        """``pol`` with quota ``k`` (``iv``) enforced on ``pop``, and its
        streak and sunset updated."""
        j = pop.group_ids.index(iv.group)
        g, q = pop.groups[j], iv.target_share
        if g.proportion <= 0:
            raise InfeasibilityError(
                f"quota on group {iv.group!r} infeasible: zero population mass"
            )
        masses = [h.proportion * float(h.pmf @ pol.tau(h.group_id)) for h in pop.groups]
        share = _shares(masses)[j]
        if share < q:
            other = sum(m for i, m in enumerate(masses) if i != j)
            if q >= 1.0:
                if other > 0:
                    raise InfeasibilityError(
                        f"quota share {q} infeasible while other groups are accepted"
                    )
            else:
                rate = q * other / (g.proportion * (1.0 - q))
                if rate > 1.0:
                    raise InfeasibilityError(
                        f"quota share {q} for group {iv.group!r} needs acceptance "
                        f"rate {rate:.6g} > 1"
                    )
                b, boundary = scan_threshold(g.pmf, rate)
                tau = np.zeros(len(g.pmf))
                tau[b + 1 :] = 1.0
                tau[b] = boundary
                pol = Policy({**pol.acceptance, iv.group: tau})
                masses[j] = g.proportion * float(g.pmf @ tau)
                share = _shares(masses)[j]
                self.enforced += 1
        self.streak[k] = self.streak[k] + 1 if abs(share - q) <= iv.sunset.eps else 0
        if self.streak[k] >= iv.sunset.window:
            self.ended[k] = True
        return pol


def rates(pmf, tau, rho):
    acc = float(pmf @ tau)
    qualified = float(pmf @ rho)
    unqualified = float(pmf @ (1.0 - rho))
    tpr = float(pmf @ (tau * rho)) / qualified if qualified > 0 else float("nan")
    fpr = (
        float(pmf @ (tau * (1.0 - rho))) / unqualified
        if unqualified > 0
        else float("nan")
    )
    return acc, tpr, fpr


def regime(delta_mu, tol, t, gid):
    if not math.isfinite(delta_mu):
        raise DomainError(f"delta mu {delta_mu} is not finite at step {t}, group {gid!r}")
    if delta_mu > tol:
        return "improvement"
    if delta_mu < -tol:
        return "decline"
    return "stagnation"


def simulate(
    pop,
    policy_fn,
    outcome,
    inst,
    horizon,
    regime_tol=1e-9,
    metric_pair=None,
    pre_step=None,
    flags_fn=None,
):
    """One dict per step: ``pmfs`` and ``proportions`` per group, the policy,
    ``mean_score``/``acceptance``/``tpr``/``fpr``/``delta_mu``/``regime`` per
    group label, the pair's ``dp_gap``/``eo_gap``/``eodds_gap`` (NaN without
    a pair), ``utility`` and ``flags``."""
    report = validate_population(pop)
    if not report.ok:
        raise DomainError("invalid population: " + "; ".join(report.violations))
    if metric_pair is None and len(pop.groups) >= 2:
        metric_pair = (pop.groups[0].group_id, pop.groups[1].group_id)
    records = []
    cur = pop
    for t in range(horizon + 1):
        if pre_step is not None:
            cur = pre_step(t, cur)
            report = validate_population(cur)
            if not report.ok:
                raise DomainError(
                    "invalid population: " + "; ".join(report.violations)
                )
        try:
            pol = policy_fn(t, cur)
        except InfeasibilityError as exc:
            raise InfeasibilityError(f"step {t}: {exc}") from exc
        rec = {"step": t, "population": cur, "policy": pol}
        rec["pmfs"] = [g.pmf for g in cur.groups]
        rec["proportions"] = [g.proportion for g in cur.groups]
        for key in ("mean_score", "acceptance", "tpr", "fpr", "delta_mu", "regime"):
            rec[key] = {}
        utility = 0.0
        for g in cur.groups:
            gid = g.group_id
            tau, rho = pol.tau(gid), outcome.rho_for(gid)
            acc, tpr, fpr = rates(g.pmf, tau, rho)
            rec["mean_score"][gid] = float(g.pmf @ cur.grid.bin_scores)
            rec["acceptance"][gid] = acc
            rec["tpr"][gid] = tpr
            rec["fpr"][gid] = fpr
            dmu = float(g.pmf @ (tau * outcome.score_change(gid, cur.grid)))
            rec["delta_mu"][gid] = dmu
            rec["regime"][gid] = regime(dmu, regime_tol, t, gid)
            utility += g.proportion * float(
                g.pmf @ (tau * inst.per_bin_utility(rho))
            )
        rec["utility"] = utility
        nan = float("nan")
        rec["dp_gap"] = rec["eo_gap"] = rec["eodds_gap"] = nan
        if metric_pair is not None:
            a0, a1 = metric_pair
            rec["dp_gap"] = abs(rec["acceptance"][a0] - rec["acceptance"][a1])
            rec["eo_gap"] = abs(rec["tpr"][a0] - rec["tpr"][a1])
            rec["eodds_gap"] = max(
                rec["eo_gap"], abs(rec["fpr"][a0] - rec["fpr"][a1])
            )
        rec["flags"] = flags_fn(t) if flags_fn is not None else ()
        records.append(rec)
        if t < horizon:
            cur = step(cur, pol, outcome)
    return records
