"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in the -v test listing).
"""

import itertools
import time

import numpy as np
import yaml

from fairdyn.causal import counterfactual_fairness_gap, d_separated
from fairdyn.cli import main as cli_main
from fairdyn.dynamics import group_delta_mu, monte_carlo_validate, step
from fairdyn.metrics import OutcomeModel, metric_report
from fairdyn.optimize import Constraint, constrained_policy, max_utility_policy
from fairdyn.policy import Policy, institution_utility
from fairdyn.population import group_mean, validate_population
from fairdyn.scenarios import (
    compare_interventions,
    initial_policy,
    load_scenario,
    named_variants,
    run_scenario,
)

from conftest import make_grid, make_population, random_instance
from test_causal import _ci_holds, random_binary_model
from test_optimize import bf_constrained_dp, bf_max_utility, bf_utility


def _report(name, ok, detail=""):
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_ac1_regime_reversal_in_lending_scenario():
    start = time.perf_counter()
    cfg = load_scenario("lending_liu")
    pop, out, inst = cfg.population, cfg.outcome, cfg.institution
    tol = cfg.declared_goal.tolerance

    greedy = max_utility_policy(pop, out, inst)
    dmu_greedy = group_delta_mu(pop.group("B"), greedy, out, pop.grid)

    dp = constrained_policy(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.01)
    dmu_dp = group_delta_mu(pop.group("B"), dp.policy, out, pop.grid)

    # independent brute-force verification at r = 0.01
    oracle_greedy = bf_max_utility(pop, out, inst)
    for gid in pop.group_ids:
        assert np.array_equal(greedy.tau(gid), oracle_greedy[gid])
    util_bf, level_bf, taus_bf = bf_constrained_dp(pop, out, inst, 0.01)
    assert dp.level == level_bf
    assert abs(dp.utility - util_bf) <= 1e-12
    for gid in pop.group_ids:
        assert np.allclose(dp.policy.tau(gid), taus_bf[gid], atol=1e-12)

    elapsed = time.perf_counter() - start
    ok = dmu_greedy >= 0.0 and dmu_dp < -tol and elapsed < 10.0
    _report(
        "AC-1 regime reversal",
        ok,
        f"dmu_greedy={dmu_greedy} dmu_dp={dmu_dp} elapsed={elapsed:.2f}s",
    )


def test_ac2_metric_identities_hold_exactly(rng):
    bad = 0
    for _ in range(1000):
        pop, out, pol = random_instance(rng)
        rep = metric_report(pop, out, pol, "g0", "g1")
        gaps = (rep.dp_gap, rep.eo_gap, rep.eodds_gap)
        if rep.eo_gap > rep.eodds_gap + 1e-12:
            bad += 1
        elif any(not (-1e-12 <= g <= 1.0 + 1e-12) for g in gaps):
            bad += 1
    _report("AC-2 metric identities", bad == 0, f"{bad} violations")


def test_ac3_constraint_satisfaction(rng):
    worst = 0.0
    for _ in range(200):
        pop, out, _ = random_instance(rng, monotone_rho=True)
        inst_args = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(-3.0, -0.5)))
        from fairdyn.policy import InstitutionModel

        inst = InstitutionModel(*inst_args)
        dp = constrained_policy(pop, out, inst, Constraint.DEMOGRAPHIC_PARITY, 0.05)
        eo = constrained_policy(pop, out, inst, Constraint.EQUAL_OPPORTUNITY, 0.05)
        rep_dp = metric_report(pop, out, dp.policy, "g0", "g1")
        rep_eo = metric_report(pop, out, eo.policy, "g0", "g1")
        worst = max(worst, rep_dp.dp_gap, rep_eo.eo_gap)
    _report("AC-3 constraint satisfaction", worst <= 1e-9, f"worst gap {worst}")


def test_ac4_dynamics_consistency(rng):
    worst_shift = 0.0
    worst_mass = 0.0
    for trial in range(1000):
        n = int(rng.integers(4, 9))
        grid = make_grid(n, start=0.0, width=1.0)
        interior = trial % 2 == 0
        pmfs = {}
        for gid in ("g0", "g1"):
            raw = rng.random(n) + 1e-9
            if interior:
                # keep support away from the edges so no mass clamps
                raw[0] = 0.0
                raw[-2:] = 0.0  # steps_down below uses 1; steps_up uses 1
            pmfs[gid] = tuple(raw / raw.sum())
        pop = make_population(grid, pmfs)
        out = OutcomeModel(
            rho={g: tuple(rng.uniform(0.05, 0.95, n)) for g in pmfs},
            steps_up=1,
            steps_down=1,
        )
        pol = Policy.from_arrays({g: rng.random(n) for g in pmfs})
        new = step(pop, pol, out)
        for g in new.groups:
            worst_mass = max(worst_mass, abs(g.pmf.sum() - 1.0))
        if interior:
            for g in pop.groups:
                shift = group_mean(new.group(g.group_id), grid) - group_mean(g, grid)
                dmu = group_delta_mu(g, pol, out, grid)
                worst_shift = max(worst_shift, abs(shift - dmu))
    ok = worst_shift <= 1e-10 and worst_mass <= 1e-12
    _report(
        "AC-4 dynamics consistency",
        ok,
        f"worst shift err {worst_shift}, worst mass err {worst_mass}",
    )


def test_ac5_monte_carlo_agreement():
    start = time.perf_counter()
    cfg = load_scenario("lending_liu")
    policy = initial_policy(cfg)
    n = 10**6
    rep = monte_carlo_validate(cfg.population, policy, cfg.outcome, n, cfg.seed)
    rep2 = monte_carlo_validate(cfg.population, policy, cfg.outcome, n, cfg.seed)
    ok = rep == rep2
    detail = []
    for g in cfg.population.groups:
        gid = g.group_id
        exact_acc = float(g.pmf @ policy.tau(gid))
        exact_dmu = group_delta_mu(g, policy, cfg.outcome, cfg.population.grid)
        for label, got, se, exact in (
            ("acc", rep.acceptance[gid], rep.acceptance_se[gid], exact_acc),
            ("dmu", rep.delta_mu[gid], rep.delta_mu_se[gid], exact_dmu),
        ):
            err = abs(got - exact)
            bound = 4.0 * se
            if err > bound:
                ok = False
                detail.append(f"{gid}/{label}: |{got}-{exact}| > 4se={bound}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        ok = False
        detail.append(f"elapsed {elapsed:.1f}s")
    _report("AC-5 Monte Carlo agreement", ok, "; ".join(detail))


def test_ac6_causal_soundness(rng):
    import networkx as nx

    bad = 0
    checked_sep = 0
    checked_cf = 0
    for _ in range(200):
        m = random_binary_model(rng)
        nodes = sorted(m.domains)
        if len(nodes) >= 3:
            x, y, *rest = list(rng.permutation(nodes))
            given = frozenset(v for v in rest if rng.random() < 0.5)
            if d_separated(m, {x}, {y}, set(given)):
                checked_sep += 1
                if not _ci_holds(m, x, y, given, tol=1e-9):
                    bad += 1
        g = nx.DiGraph()
        g.add_nodes_from(m.domains)
        g.add_edges_from(m.edges)
        if m.outcome not in nx.descendants(g, m.protected):
            checked_cf += 1
            if counterfactual_fairness_gap(m) > 1e-12:
                bad += 1
    ok = bad == 0 and checked_sep > 0 and checked_cf > 0
    _report(
        "AC-6 causal soundness",
        ok,
        f"{bad} violations over {checked_sep} separations, {checked_cf} cf checks",
    )


def test_ac7_boards_contrast():
    start = time.perf_counter()
    cfg = load_scenario("boards_quota")
    rows = compare_interventions(
        cfg, named_variants(cfg, ["quota_only", "quota_pipeline"])
    )
    by_name = {r.variant: r for r in rows}
    ok = (
        by_name["quota_only"].persists_after_sunset is False
        and by_name["quota_pipeline"].persists_after_sunset is True
    )
    # accepted protected share while the quota is active
    traj = run_scenario(cfg)
    for rec in traj.steps:
        if not rec.intervention_active[0]:
            continue
        mass = {
            g.group_id: g.proportion * float(g.pmf @ rec.policy.tau(g.group_id))
            for g in rec.population.groups
        }
        if mass["women"] / sum(mass.values()) < 0.40 - 1e-9:
            ok = False
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        ok = False
    _report("AC-7 boards contrast", ok, f"elapsed {elapsed:.2f}s")


def test_ac8_cli_reproducibility(tmp_path, capsys):
    model = str(tmp_path / "model.yaml")
    with open(model, "w", encoding="utf-8") as fh:
        yaml.safe_dump(
            {
                "nodes": {"A": [0, 1], "F": [0, 1]},
                "edges": [["A", "F"]],
                "protected": "A",
                "outcome": "F",
                "cpts": {
                    "A": {"": ["0.5", "0.5"]},
                    "F": {"A=0": ["0.8", "0.2"], "A=1": ["0.4", "0.6"]},
                },
            },
            fh,
        )
    commands = [
        ["metrics", "--scenario", "lending_liu", "--out", "OUT"],
        ["simulate", "--scenario", "lending_liu", "--steps", "5", "--out", "OUT"],
        ["optimize", "--scenario", "lending_liu", "--constraint", "dp"],
        ["causal", "--model", model, "--check", "cf"],
        [
            "compare", "--scenario", "boards_quota",
            "--variants", "quota_only,quota_pipeline", "--out", "OUT",
        ],
        [
            "sweep", "--scenario", "lending_liu",
            "--eps", "0.01", "--draws", "3", "--seed", "9", "--out", "OUT",
        ],
    ]
    ok = True
    detail = []
    for argv in commands:
        outputs = []
        for run in (1, 2):
            out_file = tmp_path / f"{argv[0]}_{run}.csv"
            concrete = [out_file if a == "OUT" else a for a in argv]
            concrete = [str(a) for a in concrete]
            code = cli_main(concrete)
            text = capsys.readouterr().out
            data = out_file.read_bytes() if out_file.exists() else b""
            outputs.append((code, text, data))
        if outputs[0] != outputs[1] or outputs[0][0] != 0:
            ok = False
            detail.append(argv[0])
    _report("AC-8 CLI reproducibility", ok, f"nondeterministic: {detail}")
