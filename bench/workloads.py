"""Workloads of the fairdyn benchmark.

Each workload turns the workload seed into plain inputs (numpy arrays and
numbers), builds library objects from them outside the timed region, runs
one job through the library's public API, and checks the job's output.

Jobs come in cycles of ``strata`` fixed shapes (grid size, policy kind,
node count, ...), and the benchmark runs whole cycles, so every run times
the same mix of shapes whatever the seed; the seed decides only the values.
Inputs are drawn per job index from ``default_rng([seed, index])`` into a
pool of ``pool_cycles`` cycles. A run that outlasts the pool starts it
again from rebuilt objects.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

from fairdyn import causal, cli, metrics, policy, population, scenarios

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 1
PROB_TOL = 1e-9  # pmf sums and constrained gaps
REF_TOL = 1e-9  # absolute, synthetic digests against the stored reference
CLI_TOL = 1e-12  # relative (absolute below 1), CLI fields against the reference


def _smooth_pmf(rng, x, centre):
    bump = np.exp(
        -0.5 * ((x - centre - rng.uniform(-0.1, 0.1)) / rng.uniform(0.1, 0.25)) ** 2
    )
    pmf = bump + 0.01 * rng.random(len(x))
    return pmf / pmf.sum()


def _two_group_raw(rng, bins):
    x = np.linspace(0.0, 1.0, bins)
    return {
        "bins": bins,
        "pmf_A": _smooth_pmf(rng, x, 0.6),
        "pmf_B": _smooth_pmf(rng, x, 0.4),
        "p_A": float(rng.uniform(0.5, 0.8)),
        "rho_A": np.sort(rng.uniform(0.02, 0.98, bins)),
        "rho_B": np.sort(rng.uniform(0.02, 0.98, bins)),
        "steps_up": int(rng.integers(1, 3)),
        "steps_down": int(rng.integers(1, 4)),
        "u_minus": float(-rng.uniform(1.0, 4.0)),
    }


def _scenario(raw, rule, interventions, horizon):
    bins = raw["bins"]
    grid = population.ScoreGrid(tuple(300.0 + 5.0 * i for i in range(bins)), 5.0)
    groups = (
        population.GroupState("A", raw["p_A"], tuple(raw["pmf_A"].tolist())),
        population.GroupState("B", 1.0 - raw["p_A"], tuple(raw["pmf_B"].tolist())),
    )
    outcome = metrics.OutcomeModel(
        {"A": tuple(raw["rho_A"].tolist()), "B": tuple(raw["rho_B"].tolist())},
        raw["steps_up"],
        raw["steps_down"],
    )
    return scenarios.ScenarioConfig(
        name="synthetic",
        declared_goal=scenarios.DeclaredGoal("B improves", "delta_mu", 1e-6, "B"),
        population=population.Population(grid, groups),
        outcome=outcome,
        institution=policy.InstitutionModel(1.0, raw["u_minus"]),
        policy_rule=rule,
        interventions=tuple(interventions),
        horizon=horizon,
        tolerances=scenarios.Tolerances(),
        seed=0,
        resolution=0.01,
        metric_groups=("A", "B"),
    )


def _pmf_problems(traj):
    out = []
    for rec in traj.steps:
        for g in rec.population.groups:
            pmf = np.asarray(g.pmf, dtype=float)
            if np.any(pmf < 0) or abs(pmf.sum() - 1.0) > PROB_TOL:
                out.append(f"step {rec.step} group {g.group_id}: invalid pmf")
    return out


class PolicySearch:
    name = "policy_search"
    unit = "searches"
    kinds = ("dp", "eo", "outcome")
    sizes = (50, 200, 400)
    strata = len(kinds) * len(sizes)
    pool_cycles = 24
    horizon = 5

    def raw(self, rng, stratum):
        raw = _two_group_raw(rng, self.sizes[stratum // len(self.kinds)])
        raw["kind"] = self.kinds[stratum % len(self.kinds)]
        return raw

    def build(self, raw):
        if raw["kind"] == "outcome":
            rule = scenarios.PolicyRuleSpec(
                "outcome_optimal", target_group="B", utility_floor=0.0
            )
        else:
            rule = scenarios.PolicyRuleSpec("constrained", constraint=raw["kind"])
        return _scenario(raw, rule, (), self.horizon)

    def call(self, cfg):
        return scenarios.run_scenario(cfg)

    def work(self, raw):
        return self.horizon + 1  # one search per policy evaluation

    def check(self, raw, traj):
        out = _pmf_problems(traj)
        if len(traj) != self.horizon + 1:
            out.append(f"trajectory has {len(traj)} steps")
        gap = {"dp": "dp_gap", "eo": "eo_gap"}.get(raw["kind"])
        for rec in traj.steps:
            if gap and not getattr(rec.metrics, gap) <= PROB_TOL:
                out.append(f"step {rec.step}: {gap} {getattr(rec.metrics, gap)}")
        return out

    def digest(self, traj):
        out = []
        for rec in traj.steps:
            m = rec.metrics
            out += [m.acceptance["A"], m.acceptance["B"], rec.utility]
            out += [rec.delta_mu["A"], rec.delta_mu["B"]]
        return out


class LongHorizon:
    name = "long_horizon"
    unit = "bin-steps"
    variants = ("none", "quota_pipeline", "role_model")
    strata = len(variants)
    pool_cycles = 30
    bins = 200
    horizon = 1000

    def raw(self, rng, stratum):
        raw = _two_group_raw(rng, self.bins)
        raw["variant"] = self.variants[stratum]
        # A quota share at most B's population share is always reachable.
        raw["quota_share"] = float(rng.uniform(0.5, 0.9) * (1.0 - raw["p_A"]))
        raw["sunset_window"] = int(rng.integers(200, 400))
        raw["shift_fraction"] = float(rng.uniform(0.02, 0.1))
        raw["strength"] = float(rng.uniform(0.05, 0.2))
        return raw

    def build(self, raw):
        IR = scenarios.InterventionRule
        ivs = {
            "none": (),
            "quota_pipeline": (
                IR(
                    "quota",
                    "B",
                    target_share=raw["quota_share"],
                    sunset=scenarios.SunsetRule(1e-6, raw["sunset_window"]),
                ),
                IR("pipeline_investment", "B", shift_fraction=raw["shift_fraction"]),
            ),
            "role_model": (
                IR("role_model_feedback", "B", strength=raw["strength"]),
            ),
        }[raw["variant"]]
        rule = scenarios.PolicyRuleSpec("max_utility")
        return _scenario(raw, rule, ivs, self.horizon)

    def call(self, cfg):
        return scenarios.run_scenario(cfg)

    def work(self, raw):
        return raw["bins"] * 2 * self.horizon

    def check(self, raw, traj):
        out = _pmf_problems(traj)
        if len(traj) != self.horizon + 1:
            out.append(f"trajectory has {len(traj)} steps")
        return out

    def digest(self, traj):
        final = traj.final()
        scores = np.asarray(final.population.grid.bin_scores)
        out = [float(np.asarray(g.pmf) @ scores) for g in final.population.groups]
        out += [g.proportion for g in final.population.groups]
        out += [final.utility, math.fsum(rec.utility for rec in traj.steps)]
        out.append(sum(any(rec.intervention_active) for rec in traj.steps))
        return out


def _reachable(edges, start):
    seen, stack = set(), [start]
    while stack:
        node = stack.pop()
        for u, v in edges:
            if u == node and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


class CausalAudit:
    name = "causal_audit"
    unit = "checks"
    # (node count, dense) per stratum: chains of 10-15 nodes and dense DAGs
    # of 10-14 nodes. An odd number of shapes keeps the median inside one
    # shape. Dense DAGs get exactly 30% of the possible edges, so the
    # enumeration cost of a shape does not depend on the seed.
    shapes = tuple((n, False) for n in range(10, 16)) + tuple(
        (n, True) for n in range(10, 15)
    )
    strata = len(shapes)
    pool_cycles = 10
    density = 0.3

    def raw(self, rng, stratum):
        n, dense = self.shapes[stratum]
        names = [f"V{i:02d}" for i in range(n)]
        if dense:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            picked = rng.choice(
                len(pairs), round(self.density * len(pairs)), replace=False
            )
            edges = [(names[pairs[k][0]], names[pairs[k][1]]) for k in sorted(picked)]
        else:
            edges = [(names[i], names[i + 1]) for i in range(n - 1)]
        probs = {}
        for node in names:
            k = sum(1 for _, v in edges if v == node)
            probs[node] = rng.uniform(0.05, 0.95, 2**k)
        protected, outcome = names[0], names[-1]
        downstream = _reachable(edges, protected)
        mediators = [
            v for v in names[1:-1] if v in downstream and outcome in _reachable(edges, v)
        ] or names[1:-1]
        mediator = mediators[int(rng.integers(len(mediators)))]
        return {
            "names": names,
            "edges": edges,
            "probs": probs,
            "mediator": mediator,
        }

    def build(self, raw):
        edges = tuple(raw["edges"])
        cpts = {}
        for node in raw["names"]:
            parents = sorted(u for u, v in edges if v == node)
            keys = itertools.product((0, 1), repeat=len(parents))
            cpts[node] = {
                key: (1.0 - float(p), float(p))
                for key, p in zip(keys, raw["probs"][node])
            }
        model = causal.CausalModel(
            {name: (0, 1) for name in raw["names"]},
            edges,
            cpts,
            raw["names"][0],
            raw["names"][-1],
        )
        return model, raw["mediator"]

    def call(self, built):
        m, mediator = built
        return (
            causal.counterfactual_fairness_gap(m),
            causal.proxy_discrimination_gap(m, mediator),
            causal.d_separated(m, {m.protected}, {m.outcome}, {mediator}),
            causal.unresolved_discrimination(m, {mediator}),
        )

    def work(self, raw):
        return 4

    def check(self, raw, result):
        cf, proxy, dsep, unresolved = result
        out = []
        for label, gap in (("cf", cf), ("proxy", proxy)):
            if not 0.0 <= gap <= 1.0:
                out.append(f"{label} gap {gap} outside [0, 1]")
        if not isinstance(dsep, bool) or not isinstance(unresolved, bool):
            out.append("graph checks did not return booleans")
        return out

    def digest(self, result):
        return [float(v) for v in result]


def _cli_commands(out_dir):
    model = str(ROOT / "configs" / "hiring_causal.yaml")
    cmds = {
        "metrics_lending_liu": ["metrics", "--scenario", "lending_liu"],
        "metrics_boards_quota": ["metrics", "--scenario", "boards_quota"],
        "simulate_lending_liu": ["simulate", "--scenario", "lending_liu"],
        "simulate_boards_quota": [
            "simulate", "--scenario", "boards_quota", "--steps", "20"
        ],
        "compare_boards_quota": [
            "compare",
            "--scenario",
            "boards_quota",
            "--variants",
            "quota_only,quota_pipeline",
        ],
        "sweep_lending_liu": [
            "sweep", "--scenario", "lending_liu", "--eps", "0.01",
            "--draws", "20", "--seed", "7",
        ],
    }
    for name in list(cmds):
        cmds[name] = cmds[name] + ["--out", str(out_dir / f"{name}.csv")]
    for c in ("dp", "eo", "outcome", "none"):
        cmds[f"optimize_{c}"] = [
            "optimize", "--scenario", "lending_liu", "--constraint", c
        ]
    checks = {
        "dsep": ["--given", "D,X"],
        "cf": [],
        "unresolved": ["--resolving", "D"],
        "proxy": ["--proxy", "X"],
    }
    for c, extra in checks.items():
        cmds[f"causal_{c}"] = ["causal", "--model", model, "--check", c] + extra
    return cmds


def _tokens(text):
    return [t for t in re.split(r"[\s,;=]+", text) if t]


def fields_match(got: str, want: str, tol: float = CLI_TOL) -> bool:
    """Field-by-field comparison; numbers within ``tol``, the rest exact."""
    a, b = _tokens(got), _tokens(want)
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        try:
            fx, fy = float(x), float(y)
        except ValueError:
            if x != y:
                return False
            continue
        if math.isnan(fx) or math.isnan(fy):
            if not (math.isnan(fx) and math.isnan(fy)):
                return False
        elif abs(fx - fy) > tol * max(1.0, abs(fy)):
            return False
    return True


class BuiltinCli:
    name = "builtin_cli"
    unit = "commands"
    strata = 1
    pool_cycles = 64

    def __init__(self, out_dir: Path | None = None):
        self.out_dir = out_dir or ROOT / ".bench_run" / "cli"
        self.commands = _cli_commands(self.out_dir)

    def raw(self, rng, stratum):
        return {"order": rng.permutation(len(self.commands))}

    def build(self, raw):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        names = list(self.commands)
        return [names[i] for i in raw["order"]]

    def call(self, order):
        out = {}
        for name in order:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(self.commands[name]))
            out[name] = (rc, buf.getvalue())
        return out

    def work(self, raw):
        return len(self.commands)

    def outputs(self, result):
        """Exit code, stdout and CSV text of each command, by name."""
        out = {}
        for name, (rc, stdout) in result.items():
            csv_path = self.out_dir / f"{name}.csv"
            csv_text = csv_path.read_text() if "--out" in self.commands[name] else None
            out[name] = {"rc": rc, "stdout": stdout, "csv": csv_text}
        return out

    def check(self, raw, result):
        return [f"{name} exited {rc}" for name, (rc, _) in result.items() if rc != 0]


WORKLOADS = {
    w.name: w for w in (PolicySearch(), LongHorizon(), CausalAudit(), BuiltinCli())
}


def make_pool(w, seed: int):
    return [
        w.raw(np.random.default_rng([seed, i]), i % w.strata)
        for i in range(w.strata * w.pool_cycles)
    ]


def reference_path(w) -> Path:
    return REFERENCE_DIR / f"{w.name}.json"


def load_reference(w):
    with open(reference_path(w), encoding="utf-8") as fh:
        return json.load(fh)


def reference_problems(w, ref, seed: int, key: int, result) -> list[str]:
    """Mismatches against the stored reference.

    The built-in CLI runs shipped inputs, so it is compared on every seed;
    synthetic workloads are compared on the default seed.
    """
    if w.name == "builtin_cli":
        out = []
        for name, got in w.outputs(result).items():
            want = ref["outputs"][name]
            if not fields_match(got["stdout"], want["stdout"]):
                out.append(f"{name}: stdout differs from reference")
            if (got["csv"] is None) != (want["csv"] is None) or (
                got["csv"] is not None and not fields_match(got["csv"], want["csv"])
            ):
                out.append(f"{name}: csv differs from reference")
        return out
    if seed != ref["seed"]:
        return []
    want = ref["digests"][key]
    got = w.digest(result)
    if len(got) != len(want) or any(
        not abs(a - b) <= ref["tolerance"] for a, b in zip(got, want)
    ):
        return [f"job {key}: result differs from reference"]
    return []
