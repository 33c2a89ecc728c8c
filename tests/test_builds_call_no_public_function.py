"""Building a config or a causal model calls no public fairdyn function.

The traced benchmark run (``bench/spans.py``) wraps every public function
of the eight layer modules, at every binding, and charges a span opened
while a job's inputs are built to that job, whose timed call then shows
more self time than wall time. So constructors check with private
functions only. This test swaps each public function for one that raises,
at every binding, as the tracer does, and then builds configs and a causal
model.
"""

import importlib
import inspect
import sys
from dataclasses import replace

import numpy as np
import pytest

from fairdyn import scenarios
from fairdyn.causal import CausalModel
from fairdyn.metrics import OutcomeModel
from fairdyn.policy import InstitutionModel
from fairdyn.population import GroupState, Population, ScoreGrid

LAYERS = (
    "population", "policy", "metrics", "optimize", "dynamics", "scenarios",
    "causal", "cli",
)
BUILTINS = [scenarios.load_scenario(name) for name in scenarios.BUILTIN_NAMES]


def _public_functions() -> set:
    out = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"fairdyn.{layer}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                out.add(obj)
    return out


def _raiser(name: str):
    def called(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return called


@pytest.fixture
def public_functions_raise(monkeypatch):
    public = _public_functions()
    for modname, mod in list(sys.modules.items()):
        if modname != "fairdyn" and not modname.startswith("fairdyn."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in public:
                monkeypatch.setattr(mod, attr, _raiser(f"{modname}.{attr}"))


def _two_groups(interventions, rule):
    grid = ScoreGrid((0.0, 1.0, 2.0, 3.0), 1.0)
    pop = Population(
        grid,
        (
            GroupState("a", 0.6, (0.1, 0.2, 0.3, 0.4)),
            GroupState("b", 0.4, (0.4, 0.3, 0.2, 0.1)),
        ),
    )
    rho = (0.2, 0.4, 0.6, 0.8)
    return scenarios.ScenarioConfig(
        name="code_built",
        declared_goal=scenarios.DeclaredGoal("b improves", "delta_mu", 1e-6, "b"),
        population=pop,
        outcome=OutcomeModel({"a": rho, "b": rho}, 1, 1),
        institution=InstitutionModel(1.0, -2.0),
        policy_rule=rule,
        interventions=interventions,
        horizon=5,
        tolerances=scenarios.Tolerances(),
        seed=0,
        resolution=0.01,
        metric_groups=("a", "b"),
    )


def test_builds_call_no_public_function(public_functions_raise):
    with pytest.raises(AssertionError, match="called"):
        scenarios.run_scenario(BUILTINS[0])
    for cfg in BUILTINS:
        scenarios.ScenarioConfig(**vars(cfg))
        replace(cfg, horizon=3, seed=1)
    IR = scenarios.InterventionRule
    quota_pipeline = _two_groups(
        (
            IR("quota", "b", target_share=0.4, sunset=scenarios.SunsetRule(1e-6, 3)),
            IR("pipeline_investment", "b", shift_fraction=0.25),
        ),
        scenarios.PolicyRuleSpec("max_utility"),
    )
    replace(quota_pipeline, horizon=7)
    role_model = _two_groups(
        (IR("role_model_feedback", "b", active_from=1, strength=0.5),),
        scenarios.PolicyRuleSpec("constrained", constraint="dp"),
    )
    replace(role_model, policy_rule=scenarios.PolicyRuleSpec(
        "fixed", tau={"a": np.ones(4), "b": np.full(4, 0.5)}
    ))
    CausalModel(
        {"A": (0, 1), "M": (0, 1), "Y": (0, 1)},
        (("A", "M"), ("M", "Y")),
        {
            "A": {(): (0.5, 0.5)},
            "M": {(0,): (0.7, 0.3), (1,): (0.4, 0.6)},
            "Y": {(0,): (0.8, 0.2), (1,): (0.3, 0.7)},
        },
        "A",
        "Y",
    )
