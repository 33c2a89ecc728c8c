import copy
import dataclasses
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdyn import dynamics, scenarios
from fairdyn.dynamics import MASS_TOL, MAX_HORIZON, simulate, trajectory_rows
from fairdyn.errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FairdynError,
    InfeasibilityError,
    UndefinedConditionalError,
)
from fairdyn.metrics import OutcomeModel
from fairdyn.population import GroupState, Population, ScoreGrid, group_mean
from fairdyn.scenarios import (
    INTERVENTION_KINDS,
    InterventionRule,
    SunsetRule,
    _ScenarioEngine,
    compare_interventions,
    goal_met,
    initial_policy,
    load_scenario,
    named_variants,
    run_scenario,
    sensitivity_sweep,
)

from conftest import unchecked_config

BOARDS = load_scenario("boards_quota")
LENDING = load_scenario("lending_liu")


class TestLoadScenario:
    def test_builtin_lending(self):
        assert LENDING.name == "lending_liu"
        assert LENDING.declared_goal.metric == "delta_mu"
        assert LENDING.declared_goal.target_group == "B"

    def test_builtin_boards_ships_upper_quota(self):
        quota = [iv for iv in BOARDS.interventions if iv.kind == "quota"]
        assert len(quota) == 1
        assert quota[0].target_share == 0.40

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="no_such_file"):
            load_scenario("no_such_file.yaml")

    def test_readme_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        block = re.search(r"```yaml\n(name: my_scenario\n.*?)```", text, re.S)
        path = tmp_path / "readme.yaml"
        path.write_text(block.group(1), encoding="utf-8")
        cfg = load_scenario(str(path))
        assert cfg.name == "my_scenario"
        assert [iv.kind for iv in cfg.interventions] == list(INTERVENTION_KINDS)
        assert [iv.kind for iv in cfg.variants["quota_only"]] == ["quota"]

    def test_quota_out_of_range(self, tmp_path):
        import yaml

        raw = yaml.safe_load(
            __import__("importlib.resources", fromlist=["files"])
            .files("fairdyn.data")
            .joinpath("boards_quota.yaml")
            .read_text()
        )
        raw["interventions"][0]["target_share"] = 1.3
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=r"q out of \[0,1\]"):
            load_scenario(str(p))

    def test_unknown_group_label(self, tmp_path):
        import yaml

        raw = yaml.safe_load(
            __import__("importlib.resources", fromlist=["files"])
            .files("fairdyn.data")
            .joinpath("lending_liu.yaml")
            .read_text()
        )
        raw["declared_goal"]["target_group"] = "Z"
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="Z"):
            load_scenario(str(p))


    @pytest.mark.parametrize("resolution", [0.0, -0.1, 1.5])
    def test_resolution_out_of_range(self, tmp_path, resolution):
        import yaml

        raw = yaml.safe_load(
            __import__("importlib.resources", fromlist=["files"])
            .files("fairdyn.data")
            .joinpath("lending_liu.yaml")
            .read_text()
        )
        raw["resolution"] = resolution
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="resolution"):
            load_scenario(str(p))

    @pytest.mark.parametrize("horizon", [-1, MAX_HORIZON + 1])
    def test_horizon_out_of_range(self, tmp_path, horizon):
        import yaml

        raw = yaml.safe_load(
            __import__("importlib.resources", fromlist=["files"])
            .files("fairdyn.data")
            .joinpath("lending_liu.yaml")
            .read_text()
        )
        raw["horizon"] = horizon
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match="horizon"):
            load_scenario(str(p))


def _builtin_tree(name):
    """The parsed YAML of the built-in scenario file ``name``."""
    import yaml

    return yaml.safe_load(
        __import__("importlib.resources", fromlist=["files"])
        .files("fairdyn.data")
        .joinpath(f"{name}.yaml")
        .read_text()
    )


def write_lending(tmp_path, edit):
    """The shipped lending scenario with ``edit`` applied to its parsed YAML."""
    import yaml

    raw = _builtin_tree("lending_liu")
    edit(raw)
    p = tmp_path / "edited.yaml"
    p.write_text(yaml.safe_dump(raw))
    return str(p)


QUOTA_B = {
    "kind": "quota",
    "group": "B",
    "target_share": 0.1,
    "sunset": {"eps": 0.1, "window": 2},
}


def fixed_rule(raw, tau):
    raw["policy_rule"] = {"kind": "fixed", "tau": tau}


class TestLoadChecks:
    @pytest.mark.parametrize("regime", [0.0, -1e-6, float("nan"), float("inf")])
    def test_regime_tolerance_not_positive_finite(self, tmp_path, regime):
        path = write_lending(
            tmp_path, lambda raw: raw["tolerances"].update(regime=regime)
        )
        with pytest.raises(
            ConfigError, match=r": regime tolerance \S+ must be positive and finite$"
        ):
            load_scenario(path)

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda raw: raw["tolerances"].update(regime=0.0), "regime tolerance"),
            (lambda raw: raw["outcome"]["rho"].__setitem__(0, 1.5), "outcome.rho[A]"),
            (lambda raw: raw.update(metric_groups=["A", "Z"]),
             "metric pair: unknown group label 'Z'"),
        ],
        ids=["regime", "rho", "metric_groups"],
    )
    def test_config_errors_name_the_file(self, tmp_path, edit, field):
        path = write_lending(tmp_path, edit)
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value).startswith(f"scenario file {path}: {field}")

    @pytest.mark.parametrize(
        "edit,path,key",
        [
            (lambda raw: raw.update(resolutoin=0.5), "scenario", "resolutoin"),
            (lambda raw: raw.update(tolerances={"regme": 0.5}), "tolerances", "regme"),
            # A field that an earlier version read.
            (lambda raw: raw["tolerances"].update(stationarity_window=5),
             "tolerances", "stationarity_window"),
            (lambda raw: raw["declared_goal"].update(tolerence=0.1),
             "declared_goal", "tolerence"),
            (lambda raw: raw["population"].update(bins=6), "population", "bins"),
            (lambda raw: raw["population"]["groups"][1].update(share=0.1),
             "population.groups[1]", "share"),
            (lambda raw: raw["outcome"].update(step_up=1), "outcome", "step_up"),
            (lambda raw: raw["institution"].update(u_zero=0.0), "institution", "u_zero"),
            (lambda raw: raw["policy_rule"].update(constraints="dp"),
             "policy_rule", "constraints"),
            (lambda raw: raw.update(interventions=[QUOTA_B | {"strength": 0.3}]),
             "interventions[0]", "strength"),
            (lambda raw: raw.update(interventions=[
                QUOTA_B | {"sunset": {"eps": 0.1, "window": 2, "windw": 3}}]),
             "interventions[0].sunset", "windw"),
            (lambda raw: raw.update(variants={"q": {"interventions": [], "note": 1}}),
             "variants.q", "note"),
            (lambda raw: raw.update(variants={"q": {"interventions": [
                {"kind": "pipeline_investment", "group": "B", "shift": 0.1}]}}),
             "variants.q.interventions[0]", "shift"),
        ],
        ids=["top", "tolerances", "stationarity_window", "goal", "population",
             "group", "outcome", "institution", "policy_rule", "intervention",
             "sunset", "variant", "variant_intervention"],
    )
    def test_unknown_key_rejected(self, tmp_path, edit, path, key):
        file = write_lending(tmp_path, edit)
        with pytest.raises(ConfigError) as info:
            load_scenario(file)
        assert str(info.value).startswith(
            f"scenario file {file}: {path}: unknown key {key!r}; expected one of "
        )

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda raw: raw["institution"].update(u_plus=True),
             "institution.u_plus must be a real number, got True"),
            (lambda raw: raw["institution"].update(u_minus=[1]),
             "institution.u_minus must be a real number, got [1]"),
            (lambda raw: raw["population"].update(bin_width="x"),
             "invalid population: bin_width must be a real number, got 'x'"),
            (lambda raw: raw["outcome"]["rho"].__setitem__(2, True),
             "outcome.rho[A][2] must be a real number, got True"),
            (lambda raw: raw["population"]["groups"][0].update(group_id=[1]),
             "population.groups[0].group_id must be a str, got [1]"),
            (lambda raw: raw["population"]["groups"][1].update(group_id={"k": 1}),
             "population.groups[1].group_id must be a str, got {'k': 1}"),
        ],
        ids=["u_plus_bool", "u_minus_list", "bin_width_text", "rho_entry_bool",
             "group_id_list", "group_id_mapping"],
    )
    def test_junk_in_a_field_is_named(self, tmp_path, edit, message):
        # Each of these loaded, or failed naming no field, when the loader
        # read floats with float(), vectors with np.array and strings with str().
        path = write_lending(tmp_path, edit)
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == f"scenario file {path}: {message}"

    @pytest.mark.parametrize(
        "vector,name",
        [
            (("population", "bin_scores"), "population.bin_scores"),
            (("population", "groups", 1, "pmf"), "population.groups[1].pmf"),
            (("outcome", "rho"), "outcome.rho[A]"),
            (("policy_rule", "tau", "B"), "policy_rule.tau[B]"),
        ],
        ids=["bin_scores", "pmf", "rho", "tau"],
    )
    @pytest.mark.parametrize(
        "junk", ["x", None, [0.25], {"k": 1}], ids=["text", "null", "list", "mapping"]
    )
    def test_junk_vector_entry_is_named(self, tmp_path, vector, name, junk):
        # np.array(..., dtype=float) failed naming no field, or read null as
        # NaN, which the checks then reported as a non-finite entry.
        def edit(raw):
            fixed_rule(raw, {"A": [0, 0, 0, 1, 1, 1], "B": [0, 0, 1, 1, 1, 1]})
            node = raw
            for key in vector:
                node = node[key]
            node[0] = junk

        path = write_lending(tmp_path, edit)
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == (
            f"scenario file {path}: {name}[0] must be a real number, got {junk!r}"
        )

    def test_numeric_text_in_a_vector_is_read_as_the_number(self, tmp_path):
        def edit(raw):
            raw["population"]["groups"][1]["pmf"][0] = "0.25"

        cfg = load_scenario(write_lending(tmp_path, edit))
        assert cfg.population.groups[1].pmf.tolist() == (
            LENDING.population.groups[1].pmf.tolist()
        )

    @pytest.mark.parametrize(
        "edit,path,key",
        [
            (lambda raw: raw.update(variants={True: {"interventions": []}}),
             "variants", True),
            (lambda raw: raw["outcome"].update(
                rho={"A": raw["outcome"]["rho"], "B": raw["outcome"]["rho"],
                     None: raw["outcome"]["rho"]}),
             "outcome.rho", None),
            (lambda raw: fixed_rule(
                raw, {"A": [1] * 6, "B": [1] * 6, False: [1] * 6}),
             "policy_rule.tau", False),
        ],
        ids=["variant_bool", "rho_null", "tau_bool"],
    )
    def test_a_bool_or_null_key_is_rejected(self, tmp_path, edit, path, key):
        # Keys were read with str: ``yes`` loaded as the variant 'True'.
        file = write_lending(tmp_path, edit)
        with pytest.raises(ConfigError) as info:
            load_scenario(file)
        assert str(info.value) == (
            f"scenario file {file}: {path}: key {key!r} must be a string or a number"
        )

    def test_a_number_in_a_str_field_is_read_as_its_text(self, tmp_path):
        def edit(raw):
            raw.update(name=12, metric_groups=[1, "B"])
            raw["population"]["groups"][0]["group_id"] = 1
            rho = raw["outcome"]["rho"]
            raw["outcome"]["rho"] = {1: rho, "B": rho}

        cfg = load_scenario(write_lending(tmp_path, edit))
        assert (cfg.name, cfg.population.group_ids, cfg.metric_groups) == (
            "12", ("1", "B"), ("1", "B")
        )

    @pytest.mark.parametrize("field", ["tolerances", "outcome", "variants"])
    def test_field_that_is_not_a_mapping(self, tmp_path, field):
        file = write_lending(tmp_path, lambda raw: raw.update({field: [1.0]}))
        with pytest.raises(ConfigError, match=f": {field} must be a mapping$"):
            load_scenario(file)

    @pytest.mark.parametrize(
        "value", [QUOTA_B, {}, "x", 0], ids=["mapping", "empty", "string", "number"]
    )
    @pytest.mark.parametrize(
        "place,path",
        [
            (lambda raw, value: raw.update(interventions=value), "interventions"),
            (lambda raw, value: raw.update(variants={"q": {"interventions": value}}),
             "variants.q.interventions"),
            (lambda raw, value: raw["population"].update(groups=value),
             "population.groups"),
        ],
        ids=["interventions", "variant", "groups"],
    )
    def test_field_that_is_not_a_list(self, tmp_path, place, path, value):
        file = write_lending(tmp_path, lambda raw: place(raw, value))
        with pytest.raises(ConfigError) as info:
            load_scenario(file)
        assert str(info.value) == f"scenario file {file}: {path} must be a list"

    def test_nan_utility_floor_rejected(self, tmp_path):
        rule = {"kind": "outcome_optimal", "target_group": "B", "utility_floor": math.nan}
        path = write_lending(tmp_path, lambda raw: raw.update(policy_rule=rule))
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == (
            f"scenario file {path}: policy_rule.utility_floor must be a number, got nan"
        )

    def test_nan_goal_tolerance_rejected(self, tmp_path):
        # ``goal_met`` is never true at a NaN tolerance.
        path = write_lending(
            tmp_path, lambda raw: raw["declared_goal"].update(tolerance=math.nan)
        )
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == (
            f"scenario file {path}: declared_goal.tolerance must be a number, got nan"
        )

    @pytest.mark.parametrize(
        "place,where",
        [
            (lambda raw, iv: raw.update(interventions=[iv]), "interventions[0]"),
            (lambda raw, iv: raw.update(variants={"q": {"interventions": [iv]}}),
             "variants.q.interventions[0]"),
        ],
        ids=["interventions", "variants"],
    )
    def test_nan_sunset_eps_rejected(self, tmp_path, place, where):
        # A quota never sunsets at a NaN eps: ``abs(share - q) <= nan`` fails.
        quota = QUOTA_B | {"sunset": {"eps": math.nan, "window": 2}}
        path = write_lending(tmp_path, lambda raw: place(raw, quota))
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == (
            f"scenario file {path}: {where}.sunset: eps must be >= 0 and window >= 1"
        )

    def test_fixed_policy_loads_and_runs(self, tmp_path):
        tau = {"A": [0, 0, 0, 1, 1, 1], "B": [0, 0, 0.5, 1, 1, 1]}
        cfg = load_scenario(write_lending(tmp_path, lambda raw: fixed_rule(raw, tau)))
        rec = run_scenario(cfg).steps[0]
        for gid, values in tau.items():
            assert rec.policy.tau(gid).tolist() == values

    @pytest.mark.parametrize(
        "tau,message",
        [
            ({"A": [1.0] * 6, "B": [1.0] * 6, "Z": [1.0] * 6},
             "policy_rule.tau[Z]: unknown group label"),
            ({"A": [1.0] * 6}, "policy_rule.tau: missing groups ['B']"),
            ({"A": [1.0], "B": [1.0] * 6}, "policy_rule.tau[A]: length 1 != grid length 6"),
            ({"A": [1.0] * 6, "B": [1.5] + [1.0] * 5},
             "policy_rule.tau[B]: entries outside [0,1]"),
            ({"A": [float("nan")] + [1.0] * 5, "B": [1.0] * 6},
             "policy_rule.tau[A]: entries outside [0,1] or NaN"),
        ],
        ids=["unknown_group", "missing_group", "length", "above_one", "nan"],
    )
    def test_fixed_policy_rejected(self, tmp_path, tau, message):
        path = write_lending(tmp_path, lambda raw: fixed_rule(raw, tau))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_scenario(path)

    def test_builtin_name_takes_the_file_parse_path(self, monkeypatch):
        import importlib.resources

        text = (
            importlib.resources.files("fairdyn.data")
            .joinpath("lending_liu.yaml")
            .read_text()
            .replace("steps_up: 1", "steps_up: [1]")
        )

        class Resource:
            def __truediv__(self, name):
                return self

            def read_text(self, encoding=None):
                return text

        monkeypatch.setattr(importlib.resources, "files", lambda package: Resource())
        with pytest.raises(
            ConfigError,
            match=r"^scenario file lending_liu: outcome\.steps_up must be an integer",
        ):
            load_scenario("lending_liu")

    @pytest.mark.parametrize(
        "edit,field,value",
        [
            (lambda raw: raw.update(horizon=15.9), "horizon", "15.9"),
            (lambda raw: raw.update(horizon=True), "horizon", "True"),
            (lambda raw: raw.update(horizon="15"), "horizon", "'15'"),
            (lambda raw: raw.update(horizon="15.5"), "horizon", "'15.5'"),
            (lambda raw: raw["outcome"].update(steps_down="abc"),
             "outcome.steps_down", "'abc'"),
            (lambda raw: raw.update(seed="7"), "seed", "'7'"),
            (lambda raw: raw["outcome"].update(steps_up=1.5),
             "outcome.steps_up", "1.5"),
            (lambda raw: raw["outcome"].update(steps_down=float("inf")),
             "outcome.steps_down", "inf"),
            (lambda raw: raw.update(seed=0.5), "seed", "0.5"),
            (lambda raw: raw.update(interventions=[QUOTA_B | {"active_from": True}]),
             "interventions[0].active_from", "True"),
            (lambda raw: raw.update(interventions=[
                QUOTA_B | {"sunset": {"eps": 0.1, "window": 2.5}}]),
             "interventions[0].sunset.window", "2.5"),
            (lambda raw: raw.update(variants={"q": {"interventions": [
                QUOTA_B | {"active_from": 1.25}]}}),
             "variants.q.interventions[0].active_from", "1.25"),
        ],
        ids=["horizon", "horizon_bool", "horizon_str", "horizon_str_fraction",
             "steps_down_str", "seed_str", "steps_up", "steps_down_inf", "seed",
             "active_from_bool", "sunset_window", "variant_active_from"],
    )
    def test_integer_field_that_is_not_an_integer(self, tmp_path, edit, field, value):
        path = write_lending(tmp_path, edit)
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == (
            f"scenario file {path}: {field} must be an integer, got {value}"
        )

    def test_integral_floats_are_integers(self, tmp_path):
        def edit(raw):
            raw.update(horizon=20.0, seed=7.0)
            raw["outcome"].update(steps_up=1.0, steps_down=2.0)
            raw["interventions"] = [QUOTA_B | {
                "active_from": 3.0, "sunset": {"eps": 0.1, "window": 2.0}}]

        cfg = load_scenario(write_lending(tmp_path, edit))
        values = (cfg.horizon, cfg.seed, cfg.outcome.steps_up, cfg.outcome.steps_down,
                  cfg.interventions[0].active_from, cfg.interventions[0].sunset.window)
        assert values == (20, 7, 1, 2, 3, 2)
        assert all(type(v) is int for v in values)

    def test_float_fields_take_exponents_without_a_dot(self, tmp_path):
        # PyYAML follows YAML 1.1, which reads 1e-6 (no dot) as a string;
        # float fields parse it, so such a file loads as written.
        path = tmp_path / "boards.yaml"
        text = (
            __import__("importlib.resources", fromlist=["files"])
            .files("fairdyn.data")
            .joinpath("boards_quota.yaml")
            .read_text()
        )
        assert "eps: 1.0e-6" in text and "regime: 1.0e-6" in text
        path.write_text(text.replace("1.0e-6", "1e-6"), encoding="utf-8")
        cfg = load_scenario(str(path))
        assert cfg.interventions[0].sunset.eps == 1e-6
        assert cfg.tolerances.regime == 1e-6

    def test_vector_that_is_not_a_list(self, tmp_path):
        path = write_lending(
            tmp_path, lambda raw: raw["outcome"].update(rho=0.5)
        )
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == f"scenario file {path}: outcome.rho[A] must be a list"


def _tree_paths(node, path=()):
    """The path of ``node``, a parsed YAML tree, and of every node in it."""
    yield path
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _tree_paths(child, (*path, key))


_TREES = {name: _builtin_tree(name) for name in scenarios.BUILTIN_NAMES}
_TREE_PATHS = [
    (name, path) for name, tree in _TREES.items() for path in _tree_paths(tree)
]
_TREE_JUNK = (None, "x", [1], {"k": 1}, 0, 2.5, -1, True)


class TestJunkInAFile:
    # As many examples as there are (path, junk) pairs: Hypothesis draws each
    # pair once before it repeats one, so every pair is loaded.
    @settings(max_examples=len(_TREE_PATHS) * len(_TREE_JUNK), deadline=None)
    @given(where=st.sampled_from(_TREE_PATHS), junk=st.sampled_from(_TREE_JUNK))
    def test_loads_or_raises_a_config_error(self, where, junk):
        # One node of a built-in file's parsed tree set to a junk value.
        name, path = where
        raw = copy.deepcopy(_TREES[name])
        if path:
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = junk
        else:
            raw = junk
        with mock.patch.object(scenarios, "read_yaml", lambda *args: raw):
            try:
                load_scenario(name)
            except ConfigError:
                pass


class TestRunScenario:
    def test_no_interventions_matches_bare_dynamics(self):
        traj = run_scenario(LENDING, interventions=[])
        engine = _ScenarioEngine(LENDING, ())
        bare = simulate(
            LENDING.population,
            lambda t, pop: engine.policy(t, rows(pop)),
            LENDING.outcome,
            LENDING.institution,
            LENDING.horizon,
            regime_tol=LENDING.tolerances.regime,
            metric_pair=LENDING.metric_groups,
        )
        for r1, r2 in zip(traj.steps, bare.steps):
            for g1, g2 in zip(r1.population.groups, r2.population.groups):
                assert np.array_equal(g1.pmf, g2.pmf)
            assert r1.utility == r2.utility
            assert r1.delta_mu == r2.delta_mu

    def test_symmetric_quota_never_binds(self, tmp_path):
        import yaml

        raw = yaml.safe_load(
            __import__("importlib.resources", fromlist=["files"])
            .files("fairdyn.data")
            .joinpath("boards_quota.yaml")
            .read_text()
        )
        # make the groups identical; a 0.5 quota is met by symmetry
        raw["population"]["groups"][1]["pmf"] = raw["population"]["groups"][0]["pmf"]
        raw["interventions"][0]["target_share"] = 0.5
        p = tmp_path / "sym.yaml"
        p.write_text(yaml.safe_dump(raw))
        cfg = load_scenario(str(p))
        with_quota = run_scenario(cfg)
        without = run_scenario(cfg, interventions=[])
        for r1, r2 in zip(with_quota.steps, without.steps):
            for g1, g2 in zip(r1.population.groups, r2.population.groups):
                assert np.array_equal(g1.pmf, g2.pmf)

    def test_boards_share_respects_quota_while_active(self):
        traj = run_scenario(BOARDS)
        for rec in traj.steps:
            if not rec.intervention_active[0]:
                continue
            mass = {
                g.group_id: g.proportion * float(g.pmf @ rec.policy.tau(g.group_id))
                for g in rec.population.groups
            }
            share = mass["women"] / sum(mass.values())
            assert share >= 0.40 - 1e-9

    def test_sunset_is_permanent(self):
        traj = run_scenario(BOARDS)
        active = [rec.intervention_active[0] for rec in traj.steps]
        if False in active:
            first_off = active.index(False)
            assert not any(active[first_off:])

    def test_quota_infeasible_when_rate_would_exceed_one(self, tmp_path):
        import yaml

        raw = yaml.safe_load(
            __import__("importlib.resources", fromlist=["files"])
            .files("fairdyn.data")
            .joinpath("boards_quota.yaml")
            .read_text()
        )
        raw["population"]["groups"][1]["proportion"] = 0.05
        raw["population"]["groups"][0]["proportion"] = 0.95
        raw["interventions"][0]["target_share"] = 0.9
        p = tmp_path / "inf.yaml"
        p.write_text(yaml.safe_dump(raw))
        cfg = load_scenario(str(p))
        with pytest.raises(InfeasibilityError, match="step 0"):
            run_scenario(cfg)


class TestPolicyPerRun:
    def test_initial_policy_is_the_step_zero_policy(self):
        for cfg in (LENDING, BOARDS):
            rec = run_scenario(cfg).steps[0]
            pol = initial_policy(cfg)
            for gid in cfg.population.group_ids:
                assert np.array_equal(pol.tau(gid), rec.policy.tau(gid))

    def test_max_utility_rule_built_once_per_run(self, monkeypatch):
        import fairdyn.scenarios as scn

        calls = []
        real = scn._decision_rule
        monkeypatch.setattr(
            scn, "_decision_rule", lambda *args: calls.append(args) or real(*args)
        )
        traj = run_scenario(LENDING)
        assert LENDING.policy_rule.kind == "max_utility"
        assert len(calls) == 1
        assert len({id(rec.policy) for rec in traj.steps}) == 1

    @pytest.mark.parametrize(
        "rule",
        [
            scenarios.PolicyRuleSpec("constrained", constraint="dp"),
            scenarios.PolicyRuleSpec("constrained", constraint="eo"),
            scenarios.PolicyRuleSpec("outcome_optimal", target_group="women"),
        ],
        ids=["dp", "eo", "outcome"],
    )
    def test_search_planned_once_and_scored_every_step(self, monkeypatch, rule):
        import fairdyn.scenarios as scn

        plans, scored = [], []
        real_plan = scn._decision_rule
        monkeypatch.setattr(
            scn, "_decision_rule", lambda *a: plans.append(a) or real_plan(*a)
        )
        for cls in (scn.ConstrainedPlan, scn.OutcomeOptimalPlan):
            real_score = cls.score
            monkeypatch.setattr(
                cls,
                "score",
                lambda plan, *rows, real=real_score: scored.append(plan)
                or real(plan, *rows),
            )
        cfg = replace(BOARDS, policy_rule=rule)
        assert len(cfg.variants) == 2
        for ivs in cfg.variants.values():
            plans.clear()
            scored.clear()
            traj = run_scenario(cfg, ivs)
            assert len(plans) == 1
            assert len(scored) == cfg.horizon + 1 == len(traj)
            assert all(plan is scored[0] for plan in scored)


def searching(cfg, rule, **outcome):
    """``cfg`` with the search ``rule`` and, if given, another outcome model."""
    if outcome:
        cfg = replace(cfg, outcome=OutcomeModel(**outcome))
    return replace(cfg, policy_rule=rule)


class TestSearchErrors:
    """A run's search raises what the public search raises, with the text it
    always had: an infeasible floor names its step; the plan's checks and the
    zero-qualified-mass check name none."""

    def test_eo_rho_not_monotone(self):
        rho = {g: LENDING.outcome.rho_for(g)[::-1] for g in ("A", "B")}
        cfg = searching(
            LENDING,
            scenarios.PolicyRuleSpec("constrained", constraint="eo"),
            rho=rho, steps_up=1, steps_down=1,
        )
        message = (
            "group 'A': rho must be nondecreasing in score for "
            "equal-opportunity search"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            run_scenario(cfg)

    def test_zero_qualified_mass(self):
        rho = {"A": LENDING.outcome.rho_for("A"), "B": (0.0,) * 6}
        cfg = searching(
            LENDING,
            scenarios.PolicyRuleSpec("constrained", constraint="eo"),
            rho=rho, steps_up=1, steps_down=1,
        )
        with pytest.raises(DomainError, match="^group 'B' has zero qualified mass$"):
            run_scenario(cfg)

    def test_unknown_target(self):
        # The config checks the target when it is built, so the search
        # plan's own KeyError is never reached.
        message = "policy_rule.target_group: unknown group label 'Z'"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            searching(
                LENDING, scenarios.PolicyRuleSpec("outcome_optimal", target_group="Z")
            )

    @pytest.mark.parametrize(
        "floor,message",
        [
            (1.0, "step 0: utility floor 1.0 infeasible; maximum achievable "
                  "utility is 0.1615"),
            (0.16, "step 12: utility floor 0.16 infeasible; maximum achievable "
                   "utility is 0.154750116275"),
        ],
        ids=["step_0", "step_12"],
    )
    def test_infeasible_floor(self, floor, message):
        cfg = searching(
            LENDING,
            scenarios.PolicyRuleSpec(
                "outcome_optimal", target_group="B", utility_floor=floor
            ),
        )
        with pytest.raises(InfeasibilityError, match=f"^{re.escape(message)}$"):
            run_scenario(cfg)


class TestPickling:
    def test_trajectory_round_trips(self):
        import copy
        import pickle

        traj = run_scenario(BOARDS)
        for loaded in (pickle.loads(pickle.dumps(traj)), copy.deepcopy(traj)):
            c, got = traj.columns, loaded.columns
            assert got.group_ids == c.group_ids and got.metric_pair == c.metric_pair
            for name, value in vars(c).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(vars(got)[name], value, equal_nan=True)
                    assert not vars(got)[name].flags.writeable, name
            for pol, want in zip(got.policies, c.policies):
                for gid in c.group_ids:
                    assert np.array_equal(pol.tau(gid), want.tau(gid))
            for g, want in zip(got.initial.groups, c.initial.groups):
                assert np.array_equal(g.pmf, want.pmf) and not g.pmf.flags.writeable
            assert not got.grid.bin_scores.flags.writeable
            assert loaded.final().utility == traj.final().utility


def rows(pop):
    """Writable copies of ``pop``'s pmfs (groups, bins) and proportions: the
    rows of a run's state that the engine's ``pre_step`` edits in place."""
    pmfs = np.array([g.pmf for g in pop.groups])
    return pmfs, np.array([g.proportion for g in pop.groups])


WOMEN, MEN = (BOARDS.population.group_ids.index(gid) for gid in ("women", "men"))


class TestPipelineInvestment:
    def make_engine(self, fraction=0.25):
        iv = InterventionRule(
            kind="pipeline_investment",
            group="women",
            shift_fraction=fraction,
            active_from=0,
        )
        return _ScenarioEngine(BOARDS, (iv,)), iv

    def test_mass_conserved_and_mean_increases(self):
        engine, _ = self.make_engine()
        before = BOARDS.population
        pmfs, proportions = rows(before)
        assert engine.pre_step(0, pmfs, proportions) is False
        women = pmfs[WOMEN]
        assert abs(women.sum() - 1.0) <= 1e-12
        assert float(women @ before.grid.bin_scores) >= group_mean(
            before.group("women"), before.grid
        )

    def test_other_group_untouched(self):
        engine, _ = self.make_engine()
        pmfs, proportions = rows(BOARDS.population)
        engine.pre_step(0, pmfs, proportions)
        assert np.array_equal(pmfs[MEN], BOARDS.population.group("men").pmf)
        assert proportions.tolist() == [g.proportion for g in BOARDS.population.groups]

    def test_shifted_pmf_is_read_only_float64(self):
        engine, iv = self.make_engine()
        pmfs, proportions = rows(BOARDS.population)
        engine.pre_step(0, pmfs, proportions)
        first = run_scenario(BOARDS, interventions=[iv]).steps[0].population
        pmf = first.group("women").pmf
        assert pmf.dtype == np.float64 and not pmf.flags.writeable
        assert np.array_equal(pmf, pmfs[WOMEN])

    def test_inactive_before_start(self):
        iv = InterventionRule(
            kind="pipeline_investment",
            group="women",
            shift_fraction=0.25,
            active_from=5,
        )
        engine = _ScenarioEngine(BOARDS, (iv,))
        pmfs, proportions = rows(BOARDS.population)
        assert engine.pre_step(0, pmfs, proportions) is False
        assert np.array_equal(pmfs[WOMEN], BOARDS.population.group("women").pmf)

    @pytest.mark.parametrize(
        "fraction,message",
        [(1.5, "group 'women': negative pmf entry"),
         (math.nan, "group 'women': pmf has a non-finite entry")],
    )
    def test_invalid_shift_is_rejected(self, fraction, message):
        iv = InterventionRule("pipeline_investment", "women", shift_fraction=fraction)
        with pytest.raises(
            DomainError,
            match=r"^interventions\[0\]\.shift_fraction out of \[0,1\], got ",
        ):
            run_scenario(BOARDS, [iv])
        # An engine does not check its interventions, as a config's are
        # checked when it is built; its run still checks the pmfs it shifts.
        engine = _ScenarioEngine(BOARDS, (iv,))
        with pytest.raises(DomainError, match=f"^invalid population: {message}"):
            simulate(
                BOARDS.population, None, BOARDS.outcome, BOARDS.institution,
                BOARDS.horizon, regime_tol=BOARDS.tolerances.regime,
                metric_pair=BOARDS.metric_groups, _engine=engine,
            )


class TestShiftCheck:
    """The rows a pipeline shifts are checked once per run, by the engine's
    ``check_shifts``, which decides each row as ``_pmfs_valid`` does."""

    def engine(self, active_from=0):
        iv = InterventionRule(
            "pipeline_investment", "women", shift_fraction=0.25, active_from=active_from
        )
        return _ScenarioEngine(BOARDS, (iv,))

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 6),
        start=st.integers(0, 3),
        scale=st.sampled_from([1.0, 1 + 5e-10, 1 - 5e-10, 1 + 1e-9, 1 - 1e-9,
                               1 + 2e-9, 1 - 2e-9]),
        entry=st.sampled_from([None, math.nan, -1e-12, math.inf, 0.0]),
    )
    def test_decides_each_row_as_pmfs_valid(self, seed, steps, start, scale, entry):
        rng = np.random.default_rng(seed)
        n = len(BOARDS.population.grid.bin_scores)
        # About a third of the entries exactly 0, as a valid pmf may hold.
        states = rng.random((steps, 2, n)) * (rng.random((steps, 2, n)) >= 0.3)
        states[..., -1] += 0.1
        states /= states.sum(axis=2, keepdims=True)
        bad_step = int(rng.integers(steps))
        states[bad_step, WOMEN] *= scale
        if entry is not None:
            states[bad_step, WOMEN, rng.integers(n)] = entry
        # A bad row of the other group is not the pipeline's to check.
        states[int(rng.integers(steps)), MEN, 0] = -1.0
        proportions = np.tile([g.proportion for g in BOARDS.population.groups],
                              (steps, 1))
        upto = int(rng.integers(steps))
        failing = [
            t for t in range(start, upto + 1)
            if not scenarios._pmfs_valid(states[t, WOMEN][None])
        ]
        engine = self.engine(start)
        if not failing:
            engine.check_shifts(states, proportions, upto)
            return
        t = failing[0]
        with pytest.raises(DomainError) as want:
            engine._raise_invalid(states[t], proportions[t].tolist())
        with pytest.raises(DomainError) as got:
            engine.check_shifts(states, proportions, upto)
        assert str(got.value) == str(want.value)

    def test_pipeline_run_checks_once_and_calls_no_pmfs_valid(self, monkeypatch):
        calls, checks = [], []
        monkeypatch.setattr(
            scenarios, "_pmfs_valid", lambda pmfs: calls.append(pmfs) or True
        )
        real = _ScenarioEngine.check_shifts
        monkeypatch.setattr(
            _ScenarioEngine,
            "check_shifts",
            lambda self, *args: checks.append(args[2]) or real(self, *args),
        )
        ivs = BOARDS.variants["quota_pipeline"]
        assert {iv.kind for iv in ivs} == {"quota", "pipeline_investment"}
        traj = run_scenario(BOARDS, ivs)
        assert calls == []
        assert checks == [BOARDS.horizon]
        assert len(traj) == BOARDS.horizon + 1

    def test_hooks_name_the_check_of_a_pipeline_run(self):
        engine = _ScenarioEngine(BOARDS, BOARDS.variants["quota_pipeline"])
        assert engine.hooks()[4] == engine.check_shifts
        assert engine.pipelines == [(0, WOMEN, engine.interventions[1].shift_fraction)]

    @pytest.mark.parametrize("first", ["men", "women"])
    def test_the_first_failing_step_of_any_pipeline_raises(self, first):
        ivs = tuple(
            InterventionRule("pipeline_investment", gid, shift_fraction=0.25)
            for gid in ("men", "women")
        )
        engine = _ScenarioEngine(BOARDS, ivs)
        pmfs, proportions = rows(BOARDS.population)
        states = np.stack([pmfs] * 5)
        early, late = (MEN, WOMEN) if first == "men" else (WOMEN, MEN)
        states[2, early, 0] = math.nan
        states[3, late, 0] = -1.0
        shares = np.stack([proportions] * 5)
        with pytest.raises(
            DomainError,
            match=f"^invalid population: group '{first}': pmf has a non-finite entry$",
        ):
            engine.check_shifts(states, shares, 4)
        # Through step 1 no shifted row fails.
        engine.check_shifts(states, shares, 1)

    def test_an_integral_float_start_slices_as_its_integer(self):
        iv = InterventionRule(
            "pipeline_investment", "women", shift_fraction=0.25, active_from=2.0
        )
        engine = _ScenarioEngine(BOARDS, (iv,))
        assert engine.pipelines[0][0] == 2 and type(engine.pipelines[0][0]) is int
        pmfs, proportions = rows(BOARDS.population)
        states = np.stack([pmfs] * 4)
        states[1, WOMEN, 0] = -1.0  # before the start: not a shifted row
        engine.check_shifts(states, np.stack([proportions] * 4), 3)


# A ``fixed`` rule's acceptance vectors for ``BOARDS``.
FIXED_TAU = {"men": np.array([0, 0, 0.5, 1, 1]), "women": np.array([0, 0.5, 1, 1, 1])}


class TestRoleModelFeedback:
    def test_proportion_grows_with_accepted_share(self):
        iv = InterventionRule(
            kind="role_model_feedback", group="women", strength=0.5, active_from=0
        )
        engine = _ScenarioEngine(BOARDS, (iv,))
        engine.last_share = {"women": 0.4, "men": 0.6}
        pmfs, proportions = rows(BOARDS.population)
        assert engine.pre_step(1, pmfs, proportions) is True
        w = proportions[WOMEN]
        m = proportions[MEN]
        assert abs(w + m - 1.0) <= 1e-12
        assert w > 0.5  # scaled by 1 + 0.5*0.4, then renormalized

    def test_no_history_no_change(self):
        iv = InterventionRule(
            kind="role_model_feedback", group="women", strength=0.5, active_from=0
        )
        engine = _ScenarioEngine(BOARDS, (iv,))
        pmfs, proportions = rows(BOARDS.population)
        assert engine.pre_step(0, pmfs, proportions) is False
        assert proportions[WOMEN] == 0.5

    def test_invalid_rescale_is_rejected(self):
        iv = InterventionRule(
            kind="role_model_feedback", group="women", strength=-3.0, active_from=0
        )
        with pytest.raises(
            DomainError, match=r"^interventions\[0\]\.strength out of \[0,1\], got -3\.0$"
        ):
            run_scenario(BOARDS, [iv])
        # An engine does not check its interventions, as a config's are
        # checked when it is built; its hook still checks the proportions it
        # rescales.
        engine = _ScenarioEngine(BOARDS, (iv,))
        engine.last_share = {"women": 0.4, "men": 0.6}
        pmfs, proportions = rows(BOARDS.population)
        with pytest.raises(
            DomainError,
            match=r"^invalid population: group 'men': proportion 1\.25\d* outside "
            r"\[0,1\]; group 'women': proportion -0\.25\d* outside \[0,1\]$",
        ):
            engine.pre_step(1, pmfs, proportions)

    @pytest.mark.parametrize(
        "rule, extra, calls",
        [
            (scenarios.PolicyRuleSpec("max_utility"), (), 0),
            (scenarios.PolicyRuleSpec("fixed", tau=FIXED_TAU), (), 0),
            (scenarios.PolicyRuleSpec("constrained", constraint="dp"), (), 7),
            (scenarios.PolicyRuleSpec("max_utility"), BOARDS.interventions, 7),
        ],
        ids=["max_utility", "fixed", "searched", "with_a_quota"],
    )
    def test_static_rule_runs_no_hook(self, monkeypatch, rule, extra, calls):
        # Under a rule no step changes, role-model feedback runs after the
        # loop: the row hook is never called, the policy hook at every step.
        counts = {"pre_step": 0, "policy": 0}
        for name in counts:
            real = getattr(_ScenarioEngine, name)

            def counted(self, *args, real=real, name=name):
                counts[name] += 1
                return real(self, *args)

            monkeypatch.setattr(_ScenarioEngine, name, counted)
        ivs = (
            *extra,
            InterventionRule("role_model_feedback", "women", strength=0.5),
            InterventionRule("role_model_feedback", "men", active_from=2, strength=0.2),
        )
        cfg = replace(BOARDS, policy_rule=rule, horizon=6)
        traj = run_scenario(cfg, ivs)
        assert counts == {"pre_step": calls, "policy": 7}
        assert traj.columns.flags[:, -2:].tolist() == [[True, t >= 2] for t in range(7)]

    def test_static_rule_reduces_the_states_as_a_bare_run(self, monkeypatch):
        # The pass after the loop reads the acceptance column that the run's
        # columns compute: a role-model run takes as many stacked dot
        # products over its states as the same run without interventions.
        calls = []
        real = dynamics._dots

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(dynamics, "_dots", counted)
        monkeypatch.setattr(scenarios, "_dots", counted, raising=False)
        # ``boards_quota``'s rule is ``max_utility``; 41 steps span two blocks.
        run_scenario(BOARDS, ())
        bare = len(calls)
        iv = InterventionRule("role_model_feedback", "women", strength=0.5)
        traj = run_scenario(BOARDS, (iv,))
        assert np.all(np.diff(traj.columns.proportions[:, 0]) != 0)
        assert len(calls) == 2 * bare

    def test_full_run_keeps_population_valid(self):
        from fairdyn.population import validate_population

        iv = InterventionRule(
            kind="role_model_feedback", group="women", strength=0.3, active_from=0
        )
        traj = run_scenario(BOARDS, interventions=[*BOARDS.interventions, iv])
        for rec in traj.steps:
            assert validate_population(rec.population).ok


class TestStaticRuleRun:
    """A run under a rule that no step changes does its per-run work once."""

    @pytest.mark.parametrize(
        "rule, feedback",
        [
            (scenarios.PolicyRuleSpec("max_utility"), False),
            (scenarios.PolicyRuleSpec("fixed", tau=FIXED_TAU), False),
            (scenarios.PolicyRuleSpec("max_utility"), True),
        ],
        ids=["max_utility", "fixed", "role_model"],
    )
    def test_policy_hook_returns_the_rule_without_deciding(
        self, monkeypatch, rule, feedback
    ):
        counts = {"decide": 0, "policy": 0}
        for name in counts:
            real = getattr(_ScenarioEngine, name)

            def counted(self, *args, real=real, name=name):
                counts[name] += 1
                return real(self, *args)

            monkeypatch.setattr(_ScenarioEngine, name, counted)
        ivs = ()
        if feedback:
            ivs = (InterventionRule("role_model_feedback", "women", strength=0.5),)
        cfg = replace(BOARDS, policy_rule=rule, horizon=9)
        traj = run_scenario(cfg, ivs)
        assert counts == {"decide": 0, "policy": cfg.horizon + 1}
        assert len({id(pol) for pol in traj.columns.policies}) == 1

    def test_columns_reduce_every_row_in_one_pass(self, monkeypatch):
        # One stacked pass for the policy's products and one for the masses,
        # however many blocks of ``_BLOCK`` steps the run spans.
        calls = []
        real = dynamics._dots
        monkeypatch.setattr(
            dynamics, "_dots", lambda *args: calls.append(1) or real(*args)
        )
        traj = run_scenario(replace(LENDING, horizon=999), ())
        assert len(traj) == 1000 > 30 * dynamics._BLOCK
        assert len(calls) == 2

    def test_every_policy_of_a_run_writes_into_its_buffers(self, monkeypatch):
        built = []

        class Recorded(dynamics._PolicyTerms):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(dynamics, "_PolicyTerms", Recorded)
        traj = run_scenario(BOARDS)
        # The quota binds at more than one step, each with a policy of its own.
        assert len({id(pol) for pol in traj.columns.policies}) >= 3
        assert len(built) >= 3
        buffers = built[0].buffers
        assert all(terms.buffers is buffers for terms in built)
        assert buffers.moved_flat.base is buffers.moved
        assert buffers.accepted_rows.base is buffers.accepted


class TestEngineHooks:
    """The engine names the hooks a run of it takes, None for each it does
    not, and ``simulate`` reads the engine through them alone."""

    def test_no_interventions_take_the_policy_alone(self):
        engine = _ScenarioEngine(BOARDS, ())
        assert engine.hooks() == (engine.policy, None, None, None, None)

    def test_static_role_model_run_rescales_after_its_loop(self):
        assert BOARDS.policy_rule.kind == "max_utility"
        iv = InterventionRule("role_model_feedback", "women", strength=0.5)
        engine = _ScenarioEngine(BOARDS, (iv,))
        assert engine.hooks() == (
            engine.policy, None, engine.flags_fn, engine.feedback, None
        )

    def test_quota_run_takes_the_row_hook(self):
        assert [iv.kind for iv in BOARDS.interventions] == ["quota"]
        engine = _ScenarioEngine(BOARDS, BOARDS.interventions)
        assert engine.hooks() == (
            engine.policy, engine.pre_step, engine.flags_fn, None, None
        )

    @pytest.mark.parametrize("ivs", [(), None], ids=["none", "quota"])
    def test_simulate_reads_the_engine_through_its_hooks(self, ivs):
        ivs = BOARDS.interventions if ivs is None else ivs
        only_hooks = mock.Mock(spec=["hooks"])
        only_hooks.hooks = _ScenarioEngine(BOARDS, ivs).hooks
        got = simulate(
            BOARDS.population, None, BOARDS.outcome, BOARDS.institution,
            BOARDS.horizon, regime_tol=BOARDS.tolerances.regime,
            metric_pair=BOARDS.metric_groups, _engine=only_hooks,
        ).columns
        want = run_scenario(BOARDS, ivs).columns
        for name in ("states", "proportions", "acceptance", "utility", "flags"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestCompare:
    def test_variant_against_itself_identical(self):
        ivs = BOARDS.variants["quota_only"]
        rows = compare_interventions(BOARDS, [("x", ivs), ("y", ivs)])
        assert rows[0].final_goal_value == rows[1].final_goal_value
        assert rows[0].steps_to_goal == rows[1].steps_to_goal
        assert rows[0].persists_after_sunset == rows[1].persists_after_sunset

    def test_horizon_zero_goal_not_reached(self):
        from dataclasses import replace

        cfg = replace(BOARDS, horizon=0)
        rows = compare_interventions(
            cfg,
            [
                ("a", cfg.variants["quota_only"]),
                ("b", cfg.variants["quota_pipeline"]),
            ],
        )
        for row in rows:
            assert row.steps_to_goal is None

    def test_boards_contrast(self):
        rows = compare_interventions(
            BOARDS, named_variants(BOARDS, ["quota_only", "quota_pipeline"])
        )
        by_name = {r.variant: r for r in rows}
        assert by_name["quota_only"].persists_after_sunset is False
        assert by_name["quota_pipeline"].persists_after_sunset is True

    def test_checks_each_variant_once(self, monkeypatch):
        checked = []
        real = scenarios._check_interventions

        def counted(ivs, where, ids):
            checked.append(where)
            return real(ivs, where, ids)

        monkeypatch.setattr(scenarios, "_check_interventions", counted)
        compare_interventions(
            BOARDS, named_variants(BOARDS, ["quota_only", "quota_pipeline"])
        )
        assert checked == [
            "variants.quota_only.interventions", "variants.quota_pipeline.interventions"
        ]

    def test_runs_of_a_built_config_validate_no_population(self, monkeypatch):
        # The config checked its population when it was built; its runs,
        # variants and sweep blocks do not check it again. ``simulate``
        # checks the population it is given.
        calls = []
        real = dynamics.validate_population
        monkeypatch.setattr(
            dynamics, "validate_population", lambda pop: calls.append(pop) or real(pop)
        )
        blocks = []
        block = scenarios._sweep_block
        monkeypatch.setattr(
            scenarios, "_sweep_block",
            lambda cfg, pmfs, draws: blocks.append(draws) or block(cfg, pmfs, draws),
        )
        monkeypatch.setattr(scenarios, "_SWEEP_STATE_BYTES", 1)  # a draw per block
        run_scenario(BOARDS)
        compare_interventions(
            BOARDS, named_variants(BOARDS, ["quota_only", "quota_pipeline"])
        )
        sensitivity_sweep(BOARDS, 0.01, 3, seed=1)
        assert len(blocks) == 3
        assert calls == []
        policy = initial_policy(BOARDS)
        simulate(
            BOARDS.population, lambda t, p: policy, BOARDS.outcome,
            BOARDS.institution, 2,
        )
        assert calls == [BOARDS.population]

    def test_a_variant_may_be_an_iterator(self):
        ivs = BOARDS.variants["quota_pipeline"]
        rows = compare_interventions(BOARDS, [("list", ivs), ("iterator", iter(ivs))])
        assert trajectory_rows(rows[0].trajectory) == trajectory_rows(
            rows[1].trajectory
        )

    def test_needs_two_variants(self):
        with pytest.raises(ConfigError):
            compare_interventions(BOARDS, [("only", BOARDS.interventions)])

    def test_unknown_variant_name(self):
        with pytest.raises(ConfigError, match="nope"):
            named_variants(BOARDS, ["nope"])

    def test_goal_undefined_from_a_later_step(self, tmp_path):
        # B's qualified mass sits in bin 0 only; from step 1 the pipeline
        # empties that bin before every step, so B's TPR is undefined.
        def edit(raw):
            raw["declared_goal"] = {"label": "tpr", "metric": "eo_gap", "tolerance": 0}
            rho = raw["outcome"]["rho"]
            raw["outcome"]["rho"] = {"A": rho, "B": [0.5] + [0.0] * (len(rho) - 1)}

        cfg = load_scenario(write_lending(tmp_path, edit))
        pipeline = InterventionRule(
            "pipeline_investment", "B", shift_fraction=1.0, active_from=1
        )
        rows = compare_interventions(cfg, [("plain", ()), ("plain", ())])
        assert rows[0].final_goal_value == rows[1].final_goal_value
        with pytest.raises(
            UndefinedConditionalError,
            match=r"variant 'pipeline': goal metric eo_gap is undefined \(NaN\), "
            r"first at step 1:",
        ):
            compare_interventions(cfg, [("plain", ()), ("pipeline", (pipeline,))])


class TestSweep:
    def test_zero_perturbation_zero_spread(self):
        rep = sensitivity_sweep(LENDING, 0.0, 3, seed=5)
        assert rep.spread == 0.0
        assert not rep.unreliable

    @pytest.mark.parametrize("eps", [-0.01, math.nan, math.inf])
    def test_perturbation_size_not_finite_and_nonnegative(self, eps):
        with pytest.raises(
            ConfigError, match=f"perturbation size must be finite and >= 0, got {eps}"
        ):
            sensitivity_sweep(LENDING, eps, 3, seed=5)

    @pytest.mark.parametrize("eps", ["0.1", True, False, None, 1j])
    def test_perturbation_size_must_be_a_real_number(self, eps):
        message = f"perturbation size must be a real number, got {eps!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            sensitivity_sweep(LENDING, eps, 3, seed=5)

    def test_single_draw(self):
        rep = sensitivity_sweep(LENDING, 0.01, 1, seed=5)
        assert rep.minimum == rep.maximum

    def test_deterministic_given_seed(self):
        r1 = sensitivity_sweep(LENDING, 0.01, 5, seed=11)
        r2 = sensitivity_sweep(LENDING, 0.01, 5, seed=11)
        assert r1 == r2

    def test_reports_spread_and_flag(self):
        rep = sensitivity_sweep(LENDING, 0.01, 10, seed=3)
        assert np.isfinite(rep.spread)
        assert rep.unreliable == (rep.spread > 0.1)

    def test_goal_undefined_in_a_draw(self):
        from dataclasses import replace

        cfg = replace(
            LENDING,
            declared_goal=replace(LENDING.declared_goal, metric="eodds_gap"),
            outcome=replace(
                LENDING.outcome, rho={**LENDING.outcome.rho, "B": np.zeros(6)}
            ),
        )
        with pytest.raises(
            UndefinedConditionalError,
            match=r"sweep draw 0: goal metric eodds_gap is undefined \(NaN\), "
            r"first at step 0:",
        ):
            sensitivity_sweep(cfg, 0.01, 3, seed=5)


class TestGoalSemantics:
    def test_gap_goal_met_below_tolerance(self):
        assert goal_met(BOARDS, 0.01)
        assert not goal_met(BOARDS, 0.2)

    def test_delta_goal_met_above_tolerance(self):
        assert goal_met(LENDING, 5.0)
        assert not goal_met(LENDING, -2.0)


class TestAcceptedMass:
    """The engine's ``decide`` computes each group's accepted mass once per
    step, and again for the quota group only after enforcing its quota."""

    def count_calls(self, monkeypatch, interventions, t=0, hook="decide"):
        """The engine and the number of groups whose accepted mass its
        ``decide``, or its ``policy`` hook, computed at step ``t``."""
        import fairdyn.scenarios as scn

        calls = []
        real = scn._accepted_mass
        monkeypatch.setattr(
            scn,
            "_accepted_mass",
            lambda pmfs, proportions, taus: calls.extend(proportions)
            or real(pmfs, proportions, taus),
        )
        engine = _ScenarioEngine(BOARDS, interventions)
        pmfs, proportions = rows(BOARDS.population)
        if hook == "decide":
            engine.decide(t, pmfs, proportions.tolist())
        else:
            engine.policy(t, (pmfs, proportions))
        return engine, len(calls)

    def test_no_mass_without_quota_or_role_model(self, monkeypatch):
        pipeline = [iv for iv in BOARDS.variants["quota_pipeline"]
                    if iv.kind == "pipeline_investment"]
        assert pipeline
        _, calls = self.count_calls(monkeypatch, tuple(pipeline))
        assert calls == 0

    def test_enforced_quota_recomputes_one_group(self, monkeypatch):
        # One pass over every group; the enforced group's mass is then
        # recomputed alone, as ``proportion * pmf.dot(tau)``, so its share
        # (1/6 before) meets the 0.4 target within the sunset eps and the
        # streak starts.
        quota = [iv for iv in BOARDS.interventions if iv.kind == "quota"]
        engine, calls = self.count_calls(monkeypatch, tuple(quota))
        assert calls == len(BOARDS.population.groups)
        assert engine.quota_streak == [1]
        assert engine.flags[0] == (True,)
        assert engine.last_share == {}

    def test_role_model_keeps_the_shares(self, monkeypatch):
        iv = InterventionRule(kind="role_model_feedback", group="women", strength=0.5)
        engine, calls = self.count_calls(monkeypatch, (iv,))
        assert calls == len(BOARDS.population.groups)
        assert sum(engine.last_share.values()) == pytest.approx(1.0)
        assert set(engine.last_share) == set(BOARDS.population.group_ids)
        # Under the static rule the policy hook computes no mass: a run
        # rescales after its loop.
        engine, calls = self.count_calls(monkeypatch, (iv,), hook="policy")
        assert engine.deferred and calls == 0 and engine.last_share == {}


def with_three_interventions(
    horizon, groups=3, bins=12, order=None, rule=None, share=0.6, strength=0.05,
    labels=None,
):
    """A scenario of ``groups`` groups, labelled ``labels`` (``g0``, ``g1``, ...
    by default) and listed in ``order``, under ``rule`` (``max_utility`` by
    default), with a quota of ``share``, a pipeline and role-model feedback
    of ``strength`` on the last group."""
    rng = np.random.default_rng(7)
    ids = list(labels or (f"g{i}" for i in range(groups)))
    pmfs = rng.random((groups, bins)) + 0.05
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    shares = rng.random(groups) + 0.5
    shares /= shares.sum()
    rho = {gid: np.sort(rng.uniform(0.05, 0.95, bins)) for gid in ids}
    grid = ScoreGrid(tuple(300.0 + 10.0 * i for i in range(bins)), 10.0)
    IR = InterventionRule
    target = ids[-1]
    return scenarios.ScenarioConfig(
        name="three_interventions",
        declared_goal=scenarios.DeclaredGoal("improves", "delta_mu", 1e-6, target),
        population=Population(grid, tuple(
            GroupState(ids[i], float(shares[i]), pmfs[i])
            for i in (order or range(groups))
        )),
        outcome=OutcomeModel(rho, 1, 2),
        institution=scenarios.InstitutionModel(1.0, -1.5),
        policy_rule=rule or scenarios.PolicyRuleSpec("max_utility"),
        interventions=(
            IR("quota", target, target_share=share, sunset=SunsetRule(1e-9, 10**6)),
            IR("pipeline_investment", target, shift_fraction=0.05),
            IR("role_model_feedback", target, strength=strength),
        ),
        horizon=horizon,
        tolerances=scenarios.Tolerances(),
        seed=0,
        resolution=0.01,
        metric_groups=(ids[0], target),
    )


class TestInvariants:
    def test_reordering_the_groups_permutes_every_column(self):
        order = (2, 0, 1)
        base = run_scenario(with_three_interventions(60)).columns
        moved = run_scenario(with_three_interventions(60, order=order)).columns
        assert moved.group_ids == tuple(base.group_ids[i] for i in order)
        # The quota binds at some steps and not at others.
        assert 1 < len({id(pol) for pol in base.policies}) < len(base.policies)
        assert base.flags.all() and np.array_equal(moved.flags, base.flags)
        close = dict(rtol=0, atol=1e-12, equal_nan=True)
        for name in ("mean_score", "acceptance", "tpr", "fpr", "delta_mu",
                     "proportions", "states"):
            np.testing.assert_allclose(
                getattr(moved, name), getattr(base, name)[:, order], **close,
                err_msg=name,
            )
        assert np.array_equal(moved.regime, base.regime[:, order])
        for name in ("utility", "dp_gap", "eo_gap", "eodds_gap"):
            np.testing.assert_allclose(
                getattr(moved, name), getattr(base, name), **close, err_msg=name
            )
        # A fixed policy whose groups come in another order than the run's:
        # the engine, the quota, the step and the reductions gather its rows
        # in the run's order, bit for bit.
        ids, last = base.group_ids, base.policies[-1]
        runs = [
            run_scenario(with_three_interventions(60, rule=scenarios.PolicyRuleSpec(
                "fixed", tau={gid: last.tau(gid) for gid in order}
            ))).columns
            for order in (ids, ids[::-1])
        ]
        same, gathered = runs
        assert gathered.policies[0].group_ids == ids[::-1]
        assert 1 < len({id(pol) for pol in gathered.policies}) < len(base.policies)
        for name, a in vars(same).items():
            if isinstance(a, np.ndarray):
                assert a.tobytes() == getattr(gathered, name).tobytes(), name
        for pa, pb in zip(same.policies, gathered.policies):
            assert all(pa.tau(gid).tobytes() == pb.tau(gid).tobytes() for gid in ids)

    def test_relabelling_the_groups_changes_no_column(self):
        # New labels that sort in another order than the old ones.
        labels = ("zeta", "alpha", "mu")
        base = run_scenario(with_three_interventions(60)).columns
        moved = run_scenario(with_three_interventions(60, labels=labels)).columns
        assert moved.group_ids == labels
        assert moved.metric_pair == ("zeta", "mu")
        # The quota binds at some steps and not at others.
        assert 1 < len({id(pol) for pol in base.policies}) < len(base.policies)
        arrays = [k for k, v in vars(base).items() if isinstance(v, np.ndarray)]
        for name in arrays:
            a, b = getattr(base, name), getattr(moved, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        for pa, pb in zip(base.policies, moved.policies):
            assert pb.group_ids == labels
            assert all(
                pa.tau(old).tobytes() == pb.tau(new).tobytes()
                for old, new in zip(base.group_ids, labels)
            )

    def test_mass_is_conserved_over_the_longest_horizon(self):
        # Accept-all keeps mass in every bin, so no entry decays to a
        # subnormal; the quota is checked at every step and never binds.
        accept_all = {gid: np.ones(10) for gid in ("g0", "g1")}
        cfg = with_three_interventions(
            MAX_HORIZON, groups=2, bins=10, share=0.1, strength=1e-4,
            rule=scenarios.PolicyRuleSpec("fixed", tau=accept_all),
        )
        c = run_scenario(cfg).columns
        assert c.flags.all()
        assert c.proportions[-1, 1] > c.proportions[0, 1]
        assert np.abs(c.states.sum(axis=2) - 1.0).max() <= MASS_TOL
        assert np.abs(c.proportions.sum(axis=1) - 1.0).max() <= MASS_TOL


class TestBatchedSweep:
    """A sweep runs its draws in blocks, each one stacked run."""

    @staticmethod
    def state_bytes(cfg):
        pop = cfg.population
        return (cfg.horizon + 1) * len(pop.groups) * len(pop.grid) * 8

    @pytest.mark.parametrize("cfg", [LENDING, BOARDS], ids=["lending", "boards"])
    def test_block_size_changes_no_value(self, monkeypatch, cfg):
        reports = []
        for per_block in (1, 3, 7):
            monkeypatch.setattr(
                scenarios, "_SWEEP_STATE_BYTES", per_block * self.state_bytes(cfg)
            )
            reports.append(sensitivity_sweep(cfg, 0.05, 7, seed=11))
        assert reports[0] == reports[1] == reports[2]
        assert len(set(reports[0].values)) > 1

    def test_every_transition_of_a_block_is_one_step_call(self, monkeypatch):
        # Seven draws in blocks of three: three blocks, each advanced by one
        # call of ``step`` per transition, as the benchmark's tracer counts.
        calls = []
        real = dynamics.step
        monkeypatch.setattr(
            dynamics, "step", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        cfg = replace(BOARDS, horizon=9)
        monkeypatch.setattr(
            scenarios, "_SWEEP_STATE_BYTES", 3 * self.state_bytes(cfg)
        )
        sensitivity_sweep(cfg, 0.05, 7, seed=11)
        assert len(calls) == 3 * cfg.horizon

    @pytest.mark.parametrize("draws", [1, 3])
    def test_a_block_is_recorded_as_trajectory_columns(self, draws):
        cfg = replace(BOARDS, horizon=9)
        pop = cfg.population
        starts = np.array(
            [scenarios._perturbed_pmfs(pop, 0.05, 11, d) for d in range(draws)]
        )
        block = scenarios._run_draws(cfg, starts)
        assert isinstance(block, dynamics.TrajectoryColumns)
        assert block.grid is pop.grid and block.group_ids == pop.group_ids
        steps = cfg.horizon + 1
        for name in ("utility", "dp_gap", "eo_gap", "eodds_gap"):
            assert getattr(block, name).shape == (steps, draws), name
        assert block.acceptance.shape == (steps, draws * len(pop.groups))
        assert block.flags.shape == (steps, 0)
        assert isinstance(block.policies, tuple) and len(block.policies) == steps
        arrays = [v for v in vars(block).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 13
        assert not any(array.flags.writeable for array in arrays)

    def test_a_block_holds_at_least_one_draw(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_SWEEP_STATE_BYTES", 1)
        blocks = []
        real = scenarios._sweep_block
        monkeypatch.setattr(
            scenarios, "_sweep_block",
            lambda cfg, pmfs, draws: blocks.append(draws) or real(cfg, pmfs, draws),
        )
        rep = sensitivity_sweep(LENDING, 0.01, 3, seed=5)
        assert blocks == [range(0, 1), range(1, 2), range(2, 3)]
        monkeypatch.setattr(scenarios, "_SWEEP_STATE_BYTES", 2**20)
        assert sensitivity_sweep(LENDING, 0.01, 3, seed=5) == rep

    @pytest.mark.parametrize(
        "rule",
        [
            scenarios.PolicyRuleSpec("max_utility"),
            scenarios.PolicyRuleSpec("constrained", constraint="dp"),
        ],
        ids=["max_utility", "constrained"],
    )
    def test_engines_decide_from_rows(self, monkeypatch, rule):
        # A sweep's engines read each draw's rows; no step builds a
        # population for them.
        cfg = replace(BOARDS, policy_rule=rule)
        assert any(iv.kind == "quota" for iv in cfg.interventions)
        want = sensitivity_sweep(cfg, 0.01, 6, seed=2)
        views = []
        real = scenarios._population_view
        monkeypatch.setattr(
            scenarios, "_population_view", lambda *a: views.append(a) or real(*a)
        )
        assert sensitivity_sweep(cfg, 0.01, 6, seed=2) == want
        assert views == []

    def test_report_names_the_draws_of_its_extremes(self):
        rep = sensitivity_sweep(LENDING, 0.05, 9, seed=3)
        assert rep.values[rep.minimum_draw] == rep.minimum == min(rep.values)
        assert rep.values[rep.maximum_draw] == rep.maximum == max(rep.values)
        assert rep.minimum_draw != rep.maximum_draw

    def test_ties_name_the_first_draw(self):
        rep = sensitivity_sweep(LENDING, 0.0, 4, seed=3)
        assert rep.minimum_draw == rep.maximum_draw == 0
        assert rep.spread == 0.0

    def test_peak_memory_does_not_grow_with_the_draws(self, monkeypatch):
        # 200 bins and every intervention: a block's state (0.8 MB) is large
        # next to the small numpy buffers and Python objects that numpy's
        # buffer cache and the interpreter's free lists keep between blocks,
        # which tracemalloc counts (tens of KB, varying from run to run).
        cfg = with_three_interventions(40, bins=200, share=0.35)
        per_block = 4
        block_state = per_block * self.state_bytes(cfg)
        monkeypatch.setattr(scenarios, "_SWEEP_STATE_BYTES", block_state)

        def peak(draws):
            sensitivity_sweep(cfg, 0.01, draws, seed=7)  # warm caches
            tracemalloc.start()
            try:
                sensitivity_sweep(cfg, 0.01, draws, seed=7)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(per_block), peak(4 * per_block)
        # Slack for the list of values, the last block's starts and those
        # caches: a quarter of one block's state.
        assert four <= one + block_state // 4
        # The same draws in one block do need more: the bound is the blocks'.
        monkeypatch.setattr(scenarios, "_SWEEP_STATE_BYTES", 4 * block_state)
        assert peak(4 * per_block) > one + 3 * block_state


def quota_runs_into_infeasibility():
    """A quota of 0.6 on group b while a pipeline lifts group a into the
    accepted bins: the rate the quota needs exceeds 1 at a step that depends
    on a's start."""
    grid = ScoreGrid((0.0, 1.0, 2.0, 3.0, 4.0), 1.0)
    rho = (0.1, 0.3, 0.5, 0.7, 0.9)
    pop = Population(grid, (
        GroupState("a", 0.5, (1.0, 0.0, 0.0, 0.0, 0.0)),
        GroupState("b", 0.5, (0.0, 0.0, 0.5, 0.25, 0.25)),
    ))
    return scenarios.ScenarioConfig(
        name="infeasible_later",
        declared_goal=scenarios.DeclaredGoal("balanced", "dp_gap", 0.05),
        population=pop,
        outcome=OutcomeModel({"a": rho, "b": rho}, 0, 0),
        institution=scenarios.InstitutionModel(1.0, -1.0),
        policy_rule=scenarios.PolicyRuleSpec("max_utility"),
        interventions=(
            InterventionRule("quota", "b", target_share=0.6, sunset=SunsetRule(0.0, 100)),
            InterventionRule("pipeline_investment", "a", shift_fraction=0.5),
        ),
        horizon=5,
        tolerances=scenarios.Tolerances(),
        seed=0,
        resolution=0.01,
        metric_groups=("a", "b"),
    )


class TestSweepErrors:
    # Draw 0 never fails within the horizon, draw 1 fails at step 3 and
    # draw 2 already at step 1.
    STARTS = ((1.0, 0.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0),
              (0.0, 0.0, 1.0, 0.0, 0.0))

    def sweep(self, monkeypatch, draws):
        cfg = quota_runs_into_infeasibility()
        b = cfg.population.group("b").pmf
        monkeypatch.setattr(
            scenarios, "_perturbed_pmfs",
            lambda pop, eps, seed, draw: np.array([self.STARTS[draw], b]),
        )
        return sensitivity_sweep(cfg, 0.01, draws, seed=1)

    def alone(self, draw):
        cfg = quota_runs_into_infeasibility()
        a = cfg.population.group("a").with_pmf(self.STARTS[draw])
        start = cfg.population.with_groups((a, cfg.population.group("b")))
        return run_scenario(replace(cfg, population=start))

    def test_the_draws_alone(self):
        self.alone(0)
        for draw, step in ((1, 3), (2, 1)):
            with pytest.raises(InfeasibilityError, match=f"^step {step}: quota share"):
                self.alone(draw)

    def test_the_lowest_failing_draw_is_named(self, monkeypatch):
        with pytest.raises(InfeasibilityError) as info:
            self.alone(1)
        with pytest.raises(InfeasibilityError) as swept:
            self.sweep(monkeypatch, 3)
        assert str(swept.value) == f"sweep draw 1: {info.value}"
        assert str(swept.value).startswith("sweep draw 1: step 3: quota share 0.6")

    def test_a_block_of_one_draw_names_it(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_SWEEP_STATE_BYTES", 1)
        with pytest.raises(InfeasibilityError, match=r"^sweep draw 1: step 3: "):
            self.sweep(monkeypatch, 3)

    def test_non_finite_delta_mu_names_its_draw(self):
        # Accept-all at a bin width near the largest float: the expected
        # score change overflows in every draw.
        huge = np.finfo(float).max / 2
        grid = ScoreGrid((0.0, huge), huge)
        pop = Population(grid, (GroupState("a", 1.0, (0.5, 0.5)),))
        cfg = scenarios.ScenarioConfig(
            name="overflow",
            declared_goal=scenarios.DeclaredGoal("up", "delta_mu", 1e-6, "a"),
            population=pop,
            outcome=OutcomeModel({"a": (1.0, 1.0)}, 3, 0),
            institution=scenarios.InstitutionModel(1.0, -1.0),
            policy_rule=scenarios.PolicyRuleSpec("fixed", tau={"a": np.ones(2)}),
            interventions=(),
            horizon=2,
            tolerances=scenarios.Tolerances(),
            seed=0,
            resolution=0.01,
            metric_groups=("a", "a"),
        )
        with pytest.raises(DomainError) as alone:
            run_scenario(cfg)
        with pytest.raises(DomainError) as swept:
            sensitivity_sweep(cfg, 0.01, 4, seed=2)
        assert "is not finite at step 0" in str(alone.value)
        assert str(swept.value) == f"sweep draw 0: {alone.value}"

    def test_overflowing_perturbation_fails_the_start_check(self):
        # Noise of total variation 1e308 overflows to inf, and renormalizing
        # gives NaN entries, with no numpy warning (pyproject makes one an
        # error): the start check of the block rejects draw 0.
        with pytest.raises(DomainError) as info:
            sensitivity_sweep(LENDING, 1e308, 2, seed=0)
        assert str(info.value) == (
            "sweep draw 0: invalid population: group 'A': pmf has a non-finite "
            "entry; group 'B': pmf has a non-finite entry"
        )


class TestSweepArguments:
    @pytest.mark.parametrize("seed", [-1, True, False, 1.5, math.nan, "7", None])
    def test_bad_seed(self, seed):
        with pytest.raises(ConfigError, match=r"^seed must be"):
            sensitivity_sweep(LENDING, 0.01, 2, seed=seed)

    @pytest.mark.parametrize("n_draws", [True, 2.5, math.inf, "3", None])
    def test_bad_draw_count(self, n_draws):
        with pytest.raises(ConfigError, match=r"^n_draws must be an integer"):
            sensitivity_sweep(LENDING, 0.01, n_draws, seed=1)

    @pytest.mark.parametrize("n_draws", [0, -3, False])
    def test_no_draws(self, n_draws):
        with pytest.raises(ConfigError, match=r"^(need at least one draw|n_draws)"):
            sensitivity_sweep(LENDING, 0.01, n_draws, seed=1)

    def test_integral_floats_count(self):
        assert sensitivity_sweep(LENDING, 0.01, 2.0, seed=3.0) == sensitivity_sweep(
            LENDING, 0.01, 2, seed=3
        )

    def test_negative_scenario_seed_rejected(self, tmp_path):
        path = write_lending(tmp_path, lambda raw: raw.update(seed=-1))
        with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
            load_scenario(path)


_A, _B = LENDING.population.groups


def _population_with(**groups):
    """``LENDING``'s population with some of its groups, named by label,
    replaced."""
    pop = LENDING.population
    return pop.with_groups([groups.get(g.group_id, g) for g in pop.groups])


class TestUnknownGroupLabels:
    def test_metric_pair(self):
        message = "metric pair: unknown group label 'Z'"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            replace(LENDING, metric_groups=("A", "Z"))

    @pytest.mark.parametrize("kind", INTERVENTION_KINDS)
    def test_intervention_group_rejected_before_a_run(self, kind):
        iv = InterventionRule(
            kind=kind,
            group="Z",
            target_share=0.5,
            sunset=SunsetRule(0.01, 2),
            shift_fraction=0.1,
            strength=0.5,
        )
        message = "interventions[0].group: unknown group label 'Z'"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            replace(LENDING, interventions=(iv,))
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            run_scenario(LENDING, [iv])
        with pytest.raises(DomainError, match=f"^variants.b.{re.escape(message)}$"):
            compare_interventions(LENDING, [("a", ()), ("b", [iv])])

    def test_fixed_rule_without_a_groups_vector(self):
        rule = scenarios.PolicyRuleSpec("fixed", tau={"A": np.ones(6)})
        message = "policy_rule.tau: missing groups ['B']"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            replace(LENDING, policy_rule=rule)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            scenarios.build_policy(LENDING, LENDING.population, rule, LENDING.resolution)

    def test_fixed_rule_checked_against_the_grid(self):
        rule = scenarios.PolicyRuleSpec("fixed", tau={"A": np.ones(5), "B": np.ones(5)})
        with pytest.raises(
            DomainError, match=r"^policy_rule\.tau\[A\]: length 5 != grid length 6$"
        ):
            run_scenario(replace(LENDING, policy_rule=rule))


_LENDING_POLICY = initial_policy(LENDING)


def _simulate(changes):
    """``simulate`` on the start of ``LENDING`` with ``changes``, which
    construction would reject."""
    cfg = unchecked_config(LENDING, **changes)
    return simulate(
        cfg.population, lambda t, p: _LENDING_POLICY, cfg.outcome,
        cfg.institution, cfg.horizon, cfg.tolerances.regime, cfg.metric_groups,
    )


# Each way to meet a field that construction rejects, a call on the changes
# to ``LENDING`` that hold it, with its message given construction's.
_ENTRIES = {
    "init": (
        lambda changes: scenarios.ScenarioConfig(**{**vars(LENDING), **changes}),
        str,
    ),
    "replace": (lambda changes: replace(LENDING, **changes), str),
    # A run's own list of interventions, and a variant of a comparison.
    "run": (lambda changes: run_scenario(LENDING, changes["interventions"]), str),
    "compare": (
        lambda changes: compare_interventions(
            LENDING, [("a", ()), ("b", changes["interventions"])]
        ),
        lambda message: message.replace("interventions[", "variants.b.interventions["),
    ),
    "build_policy": (
        lambda changes: scenarios.build_policy(
            LENDING, LENDING.population,
            changes.get("policy_rule", LENDING.policy_rule),
            changes.get("resolution", LENDING.resolution),
        ),
        str,
    ),
    "simulate": (_simulate, str),
    "classify_regime": (
        lambda changes: dynamics.classify_regime(0.0, changes["tolerances"].regime),
        str,
    ),
}
_BUILT = ("init", "replace")
_LISTS = (*_BUILT, "run", "compare")
_RULES = (*_BUILT, "build_policy")
_STARTS = (*_BUILT, "simulate")
_TOLERANCES = (*_STARTS, "classify_regime")
_QUOTA = InterventionRule("quota", "B", target_share=0.5, sunset=SunsetRule(0.01, 2))


def _goal(**fields):
    return {"declared_goal": replace(LENDING.declared_goal, **fields)}


def _rule(kind, **fields):
    return {"policy_rule": scenarios.PolicyRuleSpec(kind, **fields)}


def _intervention(iv):
    return {"interventions": (iv,)}


# Changes to ``LENDING`` that its construction rejects, the entries that
# meet them and the error message each raises.
_CODE_BUILT = {
    "fixed_rule_without_tau": (
        _rule("fixed"), _RULES, "policy_rule.tau required for a fixed rule"
    ),
    "fixed_rule_of_an_unknown_group": (
        _rule("fixed", tau={gid: np.ones(6) for gid in ("A", "B", "Z")}),
        _RULES,
        "policy_rule.tau[Z]: unknown group label 'Z'",
    ),
    "constrained_rule_without_constraint": (
        _rule("constrained"),
        _RULES,
        "policy_rule.constraint must be one of ('dp', 'eo')",
    ),
    "unknown_rule_kind": (
        _rule("bogus"),
        _RULES,
        "policy_rule.kind must be one of ('fixed', 'max_utility', 'constrained', "
        "'outcome_optimal'), got 'bogus'",
    ),
    "outcome_optimal_rule_without_target": (
        _rule("outcome_optimal"),
        _RULES,
        "policy_rule.target_group required for outcome_optimal",
    ),
    "rho_without_a_group": (
        {"outcome": replace(LENDING.outcome, rho={"A": LENDING.outcome.rho["A"]})},
        _BUILT,
        "outcome.rho missing group 'B'",
    ),
    "rho_of_five_bins_on_six": (
        {
            "outcome": replace(
                LENDING.outcome,
                rho={"A": LENDING.outcome.rho["A"][:5], "B": LENDING.outcome.rho["B"]},
            )
        },
        _BUILT,
        "outcome.rho['A'] length != grid length",
    ),
    "unknown_intervention_kind": (
        _intervention(InterventionRule("bogus", "B")),
        _LISTS,
        "interventions[0].kind: unknown intervention kind 'bogus'",
    ),
    "quota_sunset_window_zero": (
        _intervention(replace(_QUOTA, sunset=SunsetRule(0.01, 0))),
        _LISTS,
        "interventions[0].sunset: eps must be >= 0 and window >= 1",
    ),
    "quota_sunset_window_fraction": (
        _intervention(replace(_QUOTA, sunset=SunsetRule(0.01, 2.5))),
        _LISTS,
        "interventions[0].sunset.window must be an integer, got 2.5",
    ),
    "quota_sunset_eps_negative": (
        _intervention(replace(_QUOTA, sunset=SunsetRule(-1.0, 2))),
        _LISTS,
        "interventions[0].sunset: eps must be >= 0 and window >= 1",
    ),
    "active_from_negative": (
        _intervention(replace(_QUOTA, active_from=-3)),
        _LISTS,
        "interventions[0].active_from must be >= 0",
    ),
    "active_from_fraction": (
        _intervention(replace(_QUOTA, active_from=2.5)),
        _LISTS,
        "interventions[0].active_from must be an integer, got 2.5",
    ),
    "quota_without_target_share": (
        _intervention(replace(_QUOTA, target_share=None)),
        _LISTS,
        "missing field interventions[0].target_share",
    ),
    "quota_without_sunset": (
        _intervention(replace(_QUOTA, sunset=None)),
        _LISTS,
        "missing field interventions[0].sunset",
    ),
    "pipeline_without_shift_fraction": (
        _intervention(InterventionRule("pipeline_investment", "B")),
        _LISTS,
        "missing field interventions[0].shift_fraction",
    ),
    "role_model_without_strength": (
        _intervention(InterventionRule("role_model_feedback", "B")),
        _LISTS,
        "missing field interventions[0].strength",
    ),
    "one_metric_group": (
        {"metric_groups": ("A",)},
        _STARTS,
        "metric pair must name exactly two groups, got ('A',)",
    ),
    "three_metric_groups": (
        {"metric_groups": ("A", "B", "A")},
        _STARTS,
        "metric pair must name exactly two groups, got ('A', 'B', 'A')",
    ),
    "metric_groups_string": (
        {"metric_groups": "BA"},
        _STARTS,
        "metric pair must name exactly two groups, got 'BA'",
    ),
    "unknown_metric_group": (
        {"metric_groups": ("A", "Z")},
        _STARTS,
        "metric pair: unknown group label 'Z'",
    ),
    "infinite_regime_tolerance": (
        {"tolerances": scenarios.Tolerances(math.inf)},
        _TOLERANCES,
        "regime tolerance inf must be positive and finite",
    ),
    "zero_regime_tolerance": (
        {"tolerances": scenarios.Tolerances(0.0)},
        _TOLERANCES,
        "regime tolerance 0.0 must be positive and finite",
    ),
    "nan_regime_tolerance": (
        {"tolerances": scenarios.Tolerances(math.nan)},
        _TOLERANCES,
        "regime tolerance nan must be positive and finite",
    ),
    "negative_regime_tolerance": (
        {"tolerances": scenarios.Tolerances(-1.0)},
        _TOLERANCES,
        "regime tolerance -1.0 must be positive and finite",
    ),
    "negative_horizon": ({"horizon": -1}, _STARTS, "horizon -1 outside [0, 100000]"),
    "horizon_over_the_cap": (
        {"horizon": MAX_HORIZON + 1}, _STARTS, "horizon 100001 outside [0, 100000]"
    ),
    "proportions_sum_to_half": (
        {"population": _population_with(A=_A.with_proportion(0.4))},
        _STARTS,
        "invalid population: proportions sum 0.5 != 1",
    ),
    "bin_score_off_the_spacing": (
        {
            "population": Population(
                ScoreGrid((300, 400, 500, 600, 700, 850), 100),
                LENDING.population.groups,
            )
        },
        _STARTS,
        "invalid population: bin spacing deviates from bin_width by up to 50",
    ),
    "pmf_sums_to_0.9": (
        {"population": _population_with(B=_B.with_pmf(_B.pmf * 0.9))},
        _STARTS,
        "invalid population: group 'B': pmf sum 0.9 != 1",
    ),
    "unknown_goal_metric": (
        _goal(metric="bogus"),
        _BUILT,
        "declared_goal.metric must be one of ('dp_gap', 'eo_gap', 'eodds_gap', "
        "'delta_mu'), got 'bogus'",
    ),
    "nan_goal_tolerance": (
        _goal(tolerance=math.nan),
        _BUILT,
        "declared_goal.tolerance must be a number, got nan",
    ),
    "delta_mu_goal_without_target": (
        _goal(target_group=None),
        _BUILT,
        "declared_goal.target_group required for delta_mu goal",
    ),
    "delta_mu_goal_of_unknown_group": (
        _goal(target_group="Z"),
        _BUILT,
        "declared_goal.target_group: unknown group label 'Z'",
    ),
    # A field of the wrong type.
    "goal_tolerance_none": (
        _goal(tolerance=None),
        _BUILT,
        "declared_goal.tolerance must be a real number, got None",
    ),
    "resolution_none": (
        {"resolution": None}, _RULES, "resolution must be a real number, got None"
    ),
    "resolution_string": (
        {"resolution": "0.5"}, _RULES, "resolution must be a real number, got '0.5'"
    ),
    "quota_share_string": (
        _intervention(replace(_QUOTA, target_share="0.5")),
        _LISTS,
        "interventions[0].target_share must be a real number, got '0.5'",
    ),
    "quota_sunset_tuple": (
        _intervention(replace(_QUOTA, sunset=(0.1, 2))),
        _LISTS,
        "interventions[0].sunset must be a SunsetRule, got (0.1, 2)",
    ),
    "quota_share_bool": (
        _intervention(replace(_QUOTA, target_share=True)),
        _LISTS,
        "interventions[0].target_share must be a real number, got True",
    ),
    # A field that the kind of its rule or intervention does not read.
    "max_utility_rule_with_tau_and_constraint": (
        _rule("max_utility", tau="x", constraint="bogus"),
        _RULES,
        "policy_rule.tau: a max_utility rule does not read it; leave it unset",
    ),
    "max_utility_rule_with_constraint": (
        _rule("max_utility", constraint="dp"),
        _RULES,
        "policy_rule.constraint: a max_utility rule does not read it; leave it unset",
    ),
    "constrained_rule_with_target_group": (
        _rule("constrained", constraint="dp", target_group="B"),
        _RULES,
        "policy_rule.target_group: a constrained rule does not read it; "
        "leave it unset",
    ),
    "fixed_rule_with_utility_floor": (
        _rule("fixed", tau={"A": np.ones(6), "B": np.ones(6)}, utility_floor=0.0),
        _RULES,
        "policy_rule.utility_floor: a fixed rule does not read it; leave it unset",
    ),
    "quota_with_strength": (
        _intervention(replace(_QUOTA, strength=0.5)),
        _LISTS,
        "interventions[0].strength: a quota intervention does not read it; "
        "leave it unset",
    ),
    "role_model_with_sunset": (
        _intervention(
            InterventionRule(
                "role_model_feedback", "B", strength=0.5, sunset=SunsetRule(0.01, 2)
            )
        ),
        _LISTS,
        "interventions[0].sunset: a role_model_feedback intervention does not "
        "read it; leave it unset",
    ),
    **{
        f"proportion_{name}": (
            {"population": _population_with(A=GroupState("A", value, _A.pmf))},
            _STARTS,
            f"invalid population: group 'A': proportion must be a real number, "
            f"got {value!r}",
        )
        for name, value in (("string", "0.9"), ("none", None), ("bool", True))
    },
    "bin_width_bool": (
        {
            "population": Population(
                ScoreGrid(LENDING.population.grid.bin_scores, True), (_A, _B)
            )
        },
        _STARTS,
        "invalid population: bin_width must be a real number, got True",
    ),
    # A str field that holds no string.
    "name_list": ({"name": [1]}, _BUILT, "name must be a str, got [1]"),
    "goal_label_none": (
        _goal(label=None), _BUILT, "declared_goal.label must be a str, got None"
    ),
    "group_id_bool": (
        {"population": _population_with(B=GroupState(True, _B.proportion, _B.pmf))},
        _BUILT,
        "population.groups[1].group_id must be a str, got True",
    ),
}
# Cases that a scenario file cannot hold: it holds a list, not a tuple, and
# a mapping for a rule's ``tau``; its float fields read a numeric string as
# the number, since PyYAML reads ``1e-6`` as a string; and it rejects an
# intervention's key of another kind as an unknown key.
_NOT_IN_A_FILE = (
    "quota_sunset_tuple", "resolution_string", "quota_share_string",
    "proportion_string", "max_utility_rule_with_tau_and_constraint",
    "quota_with_strength", "role_model_with_sunset",
)


def _as_file(cfg: scenarios.ScenarioConfig) -> dict:
    """``cfg`` as the parsed YAML of a scenario file that declares it: each
    record a mapping of its fields, without those at a default of None; a
    population holds its grid's fields and its groups, and a variant its
    interventions."""

    def plain(value):
        if isinstance(value, Population):
            return {**plain(value.grid), "groups": plain(value.groups)}
        if dataclasses.is_dataclass(value):
            return {
                f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if not (f.default is None and getattr(value, f.name) is None)
            }
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        if isinstance(value, (tuple, list)):
            return [plain(item) for item in value]
        return value.tolist() if isinstance(value, np.ndarray) else value

    file = plain(cfg)
    file["variants"] = {
        name: {"interventions": ivs} for name, ivs in file["variants"].items()
    }
    return file


def _write_file(tmp_path, cfg) -> str:
    import yaml

    path = tmp_path / "code_built.yaml"
    path.write_text(yaml.safe_dump(_as_file(cfg)), encoding="utf-8")
    return str(path)




class TestCodeBuiltConfigs:
    @pytest.mark.parametrize(
        "case,entry",
        [(case, entry) for case, (_, entries, _) in _CODE_BUILT.items()
         for entry in entries],
        ids=lambda value: value,
    )
    def test_fails_with_a_package_error_naming_the_field(self, case, entry):
        changes, _, message = _CODE_BUILT[case]
        call, expected = _ENTRIES[entry]
        with pytest.raises(FairdynError) as info:
            call(changes)
        assert str(info.value) == expected(message)

    def test_horizon_and_seed_are_stored_as_ints(self):
        cfg = replace(LENDING, horizon=6.0, seed=3.0)
        assert (cfg.horizon, cfg.seed) == (6, 3)
        assert type(cfg.horizon) is type(cfg.seed) is int

    def test_a_file_declares_the_config_it_is_written_from(self, tmp_path):
        for cfg in (LENDING, BOARDS):
            loaded = load_scenario(_write_file(tmp_path, cfg))
            assert trajectory_rows(run_scenario(loaded)) == trajectory_rows(
                run_scenario(cfg)
            )
            assert loaded.variants == cfg.variants

    @pytest.mark.parametrize(
        "case", [case for case in _CODE_BUILT if case not in _NOT_IN_A_FILE]
    )
    def test_a_file_fails_with_the_message_of_the_construction(self, tmp_path, case):
        # The loader's message is construction's, prefixed with the file.
        changes, _, message = _CODE_BUILT[case]
        path = _write_file(tmp_path, unchecked_config(LENDING, **changes))
        with pytest.raises(ConfigError) as info:
            load_scenario(path)
        assert str(info.value) == f"scenario file {path}: {message}"

    @pytest.mark.parametrize(
        "case",
        [case for case, (_, entries, _) in _CODE_BUILT.items() if "compare" in entries],
    )
    def test_a_bad_variant_raises_before_any_run(self, monkeypatch, case):
        calls = []
        real = dynamics._run

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_run", counted)
        monkeypatch.setattr(scenarios, "_run", counted)
        changes, _, message = _CODE_BUILT[case]
        call, expected = _ENTRIES["compare"]
        with pytest.raises(DomainError) as info:
            call(changes)
        assert str(info.value) == expected(message)
        assert calls == []
        call({"interventions": ()})
        assert calls


class TestConfigChecksAsSimulate:
    @pytest.mark.parametrize(
        "rule",
        [
            scenarios.PolicyRuleSpec(
                "fixed", tau={"A": np.ones(6), "B": np.full(6, 0.5)}
            ),
            scenarios.PolicyRuleSpec("max_utility"),
            scenarios.PolicyRuleSpec("constrained", constraint="dp"),
            scenarios.PolicyRuleSpec("outcome_optimal", target_group="B"),
        ],
        ids=["fixed", "max_utility", "constrained", "outcome_optimal"],
    )
    def test_template_pmf_of_the_wrong_length_names_its_group(self, rule):
        # One error whatever the rule: the population check decides.
        changes = {
            "population": _population_with(B=_B.with_pmf(_B.pmf[:5])),
            "policy_rule": rule,
        }
        message = "invalid population: group 'B': pmf length 5 != grid length 6"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            replace(LENDING, **changes)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _simulate(changes)


_IR = InterventionRule
# ``BOARDS`` with one intervention of each kind and a short horizon.
_FUZZ_BASE = replace(
    BOARDS,
    horizon=6,
    interventions=(
        BOARDS.interventions[0],
        _IR("pipeline_investment", "women", shift_fraction=0.25),
        _IR("role_model_feedback", "women", active_from=2, strength=0.5),
    ),
)
_SHARES = (0.0, 0.25, 1.0, -0.0, -1e-9, 1.0000001)
_COUNTS = (0, 1, 3, 3.0, -1, 2.5)
# Valid and boundary values of the fields of ``_RECORDS``, by path with an
# intervention's index left out; the fuzzer draws every field with ``_JUNK``
# too. A horizon of ``MAX_HORIZON`` is left out for its run time.
_FUZZ_VALUES = {
    ("name",): ("boards",),
    ("declared_goal",): (
        scenarios.DeclaredGoal("g", "eo_gap", 0.1),
        scenarios.DeclaredGoal("g", "delta_mu", 0.0, "women"),
        scenarios.DeclaredGoal("g", "delta_mu", 0.0),
    ),
    ("population",): (
        BOARDS.population,
        LENDING.population,
        BOARDS.population.with_groups(
            [g.with_proportion(p) for g, p in zip(BOARDS.population.groups, (1, 0))]
        ),
    ),
    ("outcome",): (
        OutcomeModel(BOARDS.outcome.rho, 1, 2),
        OutcomeModel({"men": BOARDS.outcome.rho["men"]}, 0, 0),
    ),
    ("institution",): (scenarios.InstitutionModel(1.0, -4.0),),
    ("policy_rule",): (
        scenarios.PolicyRuleSpec("constrained", constraint="eo"),
        scenarios.PolicyRuleSpec("outcome_optimal", target_group="women"),
        scenarios.PolicyRuleSpec(
            "fixed", tau={"men": np.ones(5), "women": np.zeros(5)}
        ),
        scenarios.PolicyRuleSpec("fixed"),
    ),
    ("interventions",): ((), BOARDS.interventions),
    ("horizon",): (0, 1, 6, 6.0, -1, MAX_HORIZON + 1, 2.5),
    ("tolerances",): (scenarios.Tolerances(1e-3),),
    ("seed",): (0, 2**40, 3.0, -1, 1.5),
    ("resolution",): (1.0, 0.25, 0.0, -0.0, 1.0000001),
    ("metric_groups",): (
        ("women", "women"), ["women", "men"], ("men",), ("men", "zz"),
    ),
    ("variants",): ({}, {"v": [BOARDS.interventions[0]]}),
    ("declared_goal", "label"): ("",),
    ("declared_goal", "metric"): (*scenarios.GOAL_METRICS, "bogus"),
    ("declared_goal", "tolerance"): (0.0, -1.0, 1e300),
    ("declared_goal", "target_group"): ("women", "zz"),
    ("policy_rule", "kind"): (*scenarios.POLICY_KINDS, "bogus"),
    ("policy_rule", "tau"): (
        {"men": np.ones(5), "women": np.zeros(5)}, {"men": np.ones(5)}
    ),
    ("policy_rule", "constraint"): ("dp", "bogus"),
    ("policy_rule", "target_group"): ("women", "zz"),
    ("policy_rule", "utility_floor"): (0.0, -1.0),
    ("tolerances", "regime"): (1e-3, 1.0, 0.0, -1.0, 5e-324),
    ("interventions", "kind"): (*INTERVENTION_KINDS, "bogus"),
    ("interventions", "group"): ("men", "zz"),
    ("interventions", "active_from"): (*_COUNTS, 10**6),
    ("interventions", "target_share"): _SHARES,
    ("interventions", "shift_fraction"): _SHARES,
    ("interventions", "strength"): _SHARES,
    ("interventions", "sunset"): (
        SunsetRule(0.0, 1), SunsetRule(-1.0, 3), SunsetRule(0.1, 0)
    ),
    ("interventions", "sunset", "eps"): (0.0, 1.0, -1e-9),
    ("interventions", "sunset", "window"): _COUNTS,
}
_JUNK = (None, "x", "0.5", True, (0.1, 2), math.nan, math.inf)
# Names a rejected field's message may give it.
_FIELD_NAMES = (
    *(f.name for f in dataclasses.fields(scenarios.ScenarioConfig) if f.name != "name"),
    "metric pair", "regime tolerance",
)
# The records whose fields the fuzzer sets, by their path, with an
# intervention's index left out.
_RECORDS = {
    (): scenarios.ScenarioConfig,
    ("declared_goal",): scenarios.DeclaredGoal,
    ("policy_rule",): scenarios.PolicyRuleSpec,
    ("tolerances",): scenarios.Tolerances,
    ("interventions",): InterventionRule,
    ("interventions", "sunset"): SunsetRule,
}
_FUZZ_KEYS = sorted(
    (*path, f.name) for path, cls in _RECORDS.items() for f in dataclasses.fields(cls)
)


def _declared(key):
    """The declared type, optional or not, and the default of the field at
    ``key``."""
    f = {f.name: f for f in dataclasses.fields(_RECORDS[key[:-1]])}[key[-1]]
    return f.type.removeprefix("Optional[").rstrip("]"), f.default


def _numeric(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _file_holds(key, value) -> bool:
    """Whether a file written by ``_as_file`` with ``value`` at the field
    ``key`` reads back ``value``. The loader reads a number in a str field
    as its text and a numeric string in a float field as the number, and
    any other value as it is. ``_as_file`` writes None as null, or leaves it
    out at a default of None, and a tuple as a list."""
    declared, _ = _declared(key)
    if declared not in ("str", "float", "int") or isinstance(value, tuple):
        return False
    if declared == "str":
        return isinstance(value, bool) or not isinstance(value, (int, float))
    return declared != "float" or not isinstance(value, str) or not _numeric(value)


def _junk(key, value) -> bool:
    """Whether ``value`` at the str or float field ``key`` is one that no file
    may hold there: a bool, a list, a mapping, null where the default is not
    None, and in a float field a string that is not a number."""
    declared, default = _declared(key)
    if declared not in ("str", "float"):
        return False
    if value is None:
        return default is not None
    if isinstance(value, str):
        return declared == "float" and not _numeric(value)
    return isinstance(value, (bool, tuple, list, dict))


def _where(path) -> str:
    """The field at ``path`` as messages name it: ``interventions[1].group``."""
    return "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" if i else key
        for i, key in enumerate(path)
    )


def _kind_fits(iv) -> bool:
    """Whether a file can hold ``iv``: it holds only its kind's parameter
    keys, or any kind's for an unknown kind."""
    params = {key for kind in INTERVENTION_KINDS for key in scenarios._READS[kind]}
    own = scenarios._READS[iv.kind] if iv.kind in INTERVENTION_KINDS else params
    return all(getattr(iv, key) is None or key in own for key in params)


def _set(record, path, value):
    """``record`` with the field at ``path`` set to ``value``, unchecked."""
    head, *rest = path
    if isinstance(head, int):
        items = list(record)
        items[head] = _set(items[head], rest, value)
        return tuple(items)
    if rest:
        value = _set(getattr(record, head), rest, value)
    if isinstance(record, scenarios.ScenarioConfig):
        return unchecked_config(record, **{head: value})
    return replace(record, **{head: value})


@st.composite
def _field_draws(draw):
    """A field's path, its key in ``_FUZZ_VALUES`` and a value for it."""
    key = draw(st.sampled_from(_FUZZ_KEYS))
    value = draw(st.sampled_from(_FUZZ_VALUES.get(key, ()) + _JUNK))
    path = key
    if key[0] == "interventions" and len(key) > 1:
        # Only the quota (intervention 0) has a sunset.
        index = 0 if "sunset" in key else draw(st.integers(0, 2))
        path = (key[0], index, *key[1:])
    return path, key, value


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(draw=_field_draws())
    def test_a_config_is_rejected_naming_a_field_or_runs(self, tmp_path_factory, draw):
        # One field of a valid config set to a valid, boundary or junk value.
        # Junk in a str or float field is rejected, naming the field, from
        # code and from a file, which then holds it as a list if a tuple.
        path, key, value = draw
        cfg = _set(_FUZZ_BASE, path, value)
        held, junk = _file_holds(key, value), _junk(key, value)
        file = None
        if (held or junk) and all(map(_kind_fits, cfg.interventions)):
            file = _write_file(tmp_path_factory.getbasetemp(), cfg)
        try:
            built = scenarios.ScenarioConfig(**vars(cfg))
        except FairdynError as exc:
            message = str(exc)
            names = (*_FIELD_NAMES, _where(path))
            assert any(name in message for name in names), message
            assert not junk or _where(path) in message, message
            if file is not None:
                with pytest.raises(ConfigError) as info:
                    load_scenario(file)
                if held:
                    assert str(info.value) == f"scenario file {file}: {message}"
                assert not junk or _where(path) in str(info.value), str(info.value)
            return
        assert not junk, f"{_where(path)} = {value!r} accepted"
        if file is not None:
            load_scenario(file)
        try:
            c = run_scenario(built).columns
        except InfeasibilityError:
            # A quota whose share the accepted mass cannot reach, reported
            # at its step: the dynamics', not the declaration's, failure.
            return
        assert np.abs(c.states.sum(axis=2) - 1.0).max() <= MASS_TOL
        assert np.abs(c.proportions.sum(axis=1) - 1.0).max() <= MASS_TOL

    @pytest.mark.parametrize(
        "vector,name",
        [
            (("population", "bin_scores"), "population.bin_scores"),
            (("population", "groups", 1, "pmf"), "population.groups[1].pmf"),
            (("outcome", "rho", "women"), "outcome.rho[women]"),
            (("policy_rule", "tau", "men"), "policy_rule.tau[men]"),
        ],
        ids=["bin_scores", "pmf", "rho", "tau"],
    )
    @pytest.mark.parametrize("entry", [0, 4])
    def test_a_bool_vector_entry_is_rejected_naming_it(
        self, tmp_path, vector, name, entry
    ):
        # ``np.array(..., dtype=float)`` reads ``true`` as 1.0.
        import yaml

        rule = scenarios.PolicyRuleSpec(
            "fixed", tau={"men": np.ones(5), "women": np.zeros(5)}
        )
        file = _as_file(replace(_FUZZ_BASE, policy_rule=rule))
        node = file
        for key in vector:
            node = node[key]
        node[entry] = True
        path = tmp_path / "bool_entry.yaml"
        path.write_text(yaml.safe_dump(file), encoding="utf-8")
        with pytest.raises(ConfigError) as info:
            load_scenario(str(path))
        assert str(info.value) == (
            f"scenario file {path}: {name}[{entry}] must be a real number, got True"
        )
