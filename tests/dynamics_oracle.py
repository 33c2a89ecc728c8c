"""Reference dynamics loop: one population object per step.

Every step rebuilds the population through ``np.add.at``, evaluates the
policy hook, and recomputes each per-step quantity from the group objects
with the plain formulas. The library's array loop is checked against
``simulate`` here, record by record and bit for bit.
"""

import math

import numpy as np

from fairdyn.errors import DomainError, InfeasibilityError
from fairdyn.population import validate_population


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
