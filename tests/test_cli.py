import csv
import os
import re
import subprocess
import sys

import pytest
import yaml

from fairdyn import cli
from fairdyn.causal import load_causal_model
from fairdyn.cli import build_parser, main
from fairdyn.errors import ConfigError
from fairdyn.scenarios import load_scenario
from test_causal import grid_model
from test_golden_cli import STDOUT_ONLY, WANT, WITH_CSV

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CAUSAL_MODEL = os.path.join(REPO, "configs", "hiring_causal.yaml")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def builtin_raw(name):
    from importlib.resources import files

    return yaml.safe_load(files("fairdyn.data").joinpath(f"{name}.yaml").read_text())


def write_infeasible_quota(tmp_path):
    """``boards_quota`` with a 90% quota for a group that is 5% of the pool."""
    raw = builtin_raw("boards_quota")
    raw["population"]["groups"][1]["proportion"] = 0.05
    raw["population"]["groups"][0]["proportion"] = 0.95
    raw["interventions"][0]["target_share"] = 0.9
    scenario = tmp_path / "inf.yaml"
    scenario.write_text(yaml.safe_dump(raw))
    return scenario


def write_causal_yaml(path, m):
    """Write ``m`` in the causal model file schema."""
    rows = {}
    for node in m.domains:
        parents = m.parents(node)
        rows[node] = {
            ",".join(f"{p}={v}" for p, v in zip(parents, key)): list(row)
            for key, row in m.cpts[node].items()
        }
    raw = {
        "nodes": {v: list(dom) for v, dom in m.domains.items()},
        "edges": [list(e) for e in m.edges],
        "protected": m.protected,
        "outcome": m.outcome,
        "cpts": rows,
    }
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")


class TestMetrics:
    def test_writes_one_row(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["metrics", "--scenario", "lending_liu", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0][:3] == ["group_a", "group_b", "dp_gap"]
        assert len(rows) == 2

    def test_missing_scenario_exit_1_no_partial_file(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        bad = str(tmp_path / "nonexistent.cfg")
        assert main(["metrics", "--scenario", bad, "--out", str(out)]) == 1
        assert "nonexistent.cfg" in capsys.readouterr().err
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []  # no stray temp files either


class TestSimulate:
    def test_steps_zero_one_row_per_group(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["simulate", "--scenario", "boards_quota", "--steps", "0", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0][0] == "step"
        assert len(rows) == 3  # header + one row per group at step 0
        assert {r[1] for r in rows[1:]} == {"men", "women"}

    def test_full_horizon_row_count(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--scenario", "lending_liu", "--out", str(out)]) == 0
        rows = read_csv(out)
        # horizon H records H+1 steps, two groups each
        n_steps = len({r[0] for r in rows[1:]})
        assert len(rows) == 1 + 2 * n_steps

    def test_infeasible_quota_exit_2(self, tmp_path, capsys):
        scenario = write_infeasible_quota(tmp_path)
        out = tmp_path / "t.csv"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        assert "step 0" in capsys.readouterr().err
        assert not out.exists()


class TestOptimize:
    def test_dp_constraint_reports_tiny_gap(self, capsys):
        assert main(["optimize", "--scenario", "lending_liu", "--constraint", "dp"]) == 0
        lines = capsys.readouterr().out.splitlines()
        gaps = {l.split()[0]: float(l.split()[1]) for l in lines if "_gap" in l}
        assert gaps["dp_gap"] <= 1e-9

    def test_unconstrained_prints_tau_per_group(self, capsys):
        assert main(["optimize", "--scenario", "lending_liu"]) == 0
        out = capsys.readouterr().out
        assert "tau[A]" in out and "tau[B]" in out


    def test_zero_resolution_exit_1(self, capsys):
        argv = ["optimize", "--scenario", "lending_liu", "--constraint", "dp"]
        assert main([*argv, "--resolution", "0"]) == 1
        assert "resolution" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "resolution,count", [("5e-324", "inf"), ("1e-9", "1000000000")]
    )
    def test_resolution_past_the_level_cap_exit_2(self, capsys, resolution, count):
        argv = ["optimize", "--scenario", "lending_liu", "--constraint", "dp"]
        assert main([*argv, "--resolution", resolution]) == 2
        err = capsys.readouterr().err
        assert f"asks for {count} rate levels, more than the 1000000" in err
        assert "Traceback" not in err

    def test_scenario_resolution_past_the_level_cap_exit_2(self, tmp_path, capsys):
        # The loader takes any resolution in (0, 1]; the search of a
        # constrained rule then refuses to build its level grid.
        raw = builtin_raw("lending_liu")
        raw["resolution"] = 1e-9
        raw["policy_rule"] = {"kind": "constrained", "constraint": "eo"}
        scenario = tmp_path / "fine.yaml"
        scenario.write_text(yaml.safe_dump(raw))
        out = tmp_path / "t.csv"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "asks for 1000000000 rate levels" in err and "Traceback" not in err
        assert not out.exists()


class TestValidation:
    @pytest.mark.parametrize(
        "field", ["pmf", "bin_scores", "bin_width", "resolution"]
    )
    def test_nan_in_scenario_exit_1(self, tmp_path, capsys, field):
        raw = builtin_raw("lending_liu")
        if field == "pmf":
            raw["population"]["groups"][0]["pmf"][0] = float("nan")
        elif field == "resolution":
            raw["resolution"] = float("nan")
        else:
            value = raw["population"][field]
            if isinstance(value, list):
                value[1] = float("nan")
            else:
                raw["population"][field] = float("nan")
        scenario = tmp_path / "nan.yaml"
        scenario.write_text(yaml.safe_dump(raw))
        assert ".nan" in scenario.read_text()
        with pytest.raises(ConfigError):
            load_scenario(str(scenario))
        out = tmp_path / "m.csv"
        assert main(["metrics", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda raw: raw["tolerances"].update(regime=float("nan")),
             "regime tolerance nan must be positive and finite"),
            (lambda raw: raw["tolerances"].update(regime=0.0),
             "regime tolerance 0.0 must be positive and finite"),
            (lambda raw: raw.update(
                policy_rule={"kind": "fixed", "tau": {"men": [1.0], "women": [1.0]}}
            ), "policy_rule.tau[men]: length 1"),
            (lambda raw: raw["declared_goal"].update(tolerance=float("nan")),
             "declared_goal.tolerance must be a number"),
            (lambda raw: raw["interventions"][0]["sunset"].update(eps=float("nan")),
             "interventions[0].sunset: eps must be >= 0"),
        ],
        ids=["nan_regime", "zero_regime", "short_fixed_tau", "nan_goal_tolerance",
             "nan_sunset_eps"],
    )
    def test_invalid_boards_edit_exit_1(self, tmp_path, capsys, edit, message):
        raw = builtin_raw("boards_quota")
        edit(raw)
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(yaml.safe_dump(raw))
        out = tmp_path / "s.csv"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_nan_goal_tolerance_compare_exit_1(self, tmp_path, capsys):
        # Before the loader rejected it, every variant read ``not_reached``.
        raw = builtin_raw("boards_quota")
        raw["declared_goal"]["tolerance"] = float("nan")
        scenario = tmp_path / "nan_tolerance.yaml"
        scenario.write_text(yaml.safe_dump(raw))
        out = tmp_path / "c.csv"
        argv = ["compare", "--scenario", str(scenario), "--variants",
                "quota_only,quota_pipeline", "--out", str(out)]
        assert main(argv) == 1
        assert "declared_goal.tolerance must be a number" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--out", "s.csv"], ["optimize", "--constraint", "outcome"]],
        ids=["simulate", "optimize"],
    )
    def test_nan_utility_floor_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        raw = builtin_raw("lending_liu")
        raw["policy_rule"] = {
            "kind": "outcome_optimal",
            "target_group": "B",
            "utility_floor": float("nan"),
        }
        scenario = tmp_path / "nan_floor.yaml"
        scenario.write_text(yaml.safe_dump(raw))
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--scenario", str(scenario), *argv[1:]]) == 1
        assert "policy_rule.utility_floor" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class TestYamlFiles:
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda text: "population: [1, 2\n", "cannot parse"),
            (lambda text: text + "horizon: 3\n", "found duplicate key 'horizon'"),
        ],
        ids=["syntax_error", "duplicate_key"],
    )
    def test_scenario_exit_1(self, tmp_path, capsys, edit, message):
        from importlib.resources import files

        text = files("fairdyn.data").joinpath("lending_liu.yaml").read_text()
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(edit(text), encoding="utf-8")
        out = tmp_path / "m.csv"
        assert main(["metrics", "--scenario", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and str(scenario) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda text: text.replace("edges:", "edges: [[A, D]"), "cannot parse"),
            # The same CPT row twice, with different probabilities.
            (lambda text: text + '    "D=1,X=1": [0.8, 0.2]\n',
             "found duplicate key 'D=1,X=1'"),
            # Lists where the schema wants mappings.
            (lambda text: re.sub(r"nodes:\n(  .*\n)+", "nodes: [A, D, X, Y]\n", text),
             "nodes must be a mapping"),
            (lambda text: text[: text.index("\ncpts:")] + "\ncpts: [A, D, X, Y]\n",
             "cpts must be a mapping"),
            (lambda text: text.replace('  A:\n    "": [0.5, 0.5]', "  A: [0.5, 0.5]"),
             "cpts.A must be a mapping"),
        ],
        ids=["syntax_error", "repeated_cpt_row", "nodes_list", "cpts_list",
             "cpt_rows_list"],
    )
    def test_causal_model_exit_1(self, tmp_path, capsys, edit, message):
        with open(CAUSAL_MODEL, encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / "bad.yaml"
        path.write_text(edit(text), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_causal_model(str(path))
        assert main(["causal", "--model", str(path), "--check", "cf"]) == 1
        err = capsys.readouterr().err
        assert message in err and str(path) in err

    @pytest.mark.parametrize("broken", ["not_utf8", "missing"])
    @pytest.mark.parametrize("kind", ["scenario", "causal_model"])
    def test_unreadable_file_exit_1(self, tmp_path, capsys, kind, broken):
        path = tmp_path / "bad.yaml"
        if kind == "scenario":
            from importlib.resources import files

            good = files("fairdyn.data").joinpath("lending_liu.yaml").read_bytes()
            load, what = load_scenario, "scenario file"
            out = str(tmp_path / "m.csv")
            argv = ["metrics", "--scenario", str(path), "--out", out]
        else:
            with open(CAUSAL_MODEL, "rb") as fh:
                good = fh.read()
            load, what = load_causal_model, "causal model file"
            argv = ["causal", "--model", str(path), "--check", "cf"]
        if broken == "not_utf8":
            # A valid file but for one 0xff byte in a comment.
            path.write_bytes(good + b"# \xff\n")
        message = f"cannot read {what} {path}: "
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load(str(path))
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda raw: raw["outcome"]["rho"].__setitem__(0, 1.5),
             "outcome.rho[A]: entries outside [0,1]"),
            (lambda raw: raw["institution"].update(u_plus=float("inf")),
             "institution.u_plus inf is not finite"),
            (lambda raw: raw["outcome"].update(steps_down=-1),
             "outcome.steps_down -1 must be nonnegative"),
        ],
        ids=["rho", "u_plus", "steps_down"],
    )
    def test_model_field_out_of_domain_exit_1(self, tmp_path, capsys, edit, message):
        raw = builtin_raw("lending_liu")
        edit(raw)
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_scenario(str(scenario))
        out = tmp_path / "m.csv"
        assert main(["metrics", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err


    def test_config_error_names_the_file_and_the_field(self, tmp_path, capsys):
        raw = builtin_raw("lending_liu")
        raw["outcome"]["rho"][0] = 1.5
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(yaml.safe_dump(raw))
        out = tmp_path / "m.csv"
        assert main(["metrics", "--scenario", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(scenario) in err and "outcome.rho[A]" in err
        assert not out.exists()


class TestCausal:
    def test_dsep_given_mediators(self, capsys):
        code = main(
            ["causal", "--model", CAUSAL_MODEL, "--check", "dsep", "--given", "D,X"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "d_separated true"

    def test_dsep_unconditioned_false(self, capsys):
        assert main(["causal", "--model", CAUSAL_MODEL, "--check", "dsep"]) == 0
        assert capsys.readouterr().out.strip() == "d_separated false"

    def test_cf_gap_positive_here(self, capsys):
        assert main(["causal", "--model", CAUSAL_MODEL, "--check", "cf"]) == 0
        value = float(capsys.readouterr().out.split()[1])
        assert value > 0.0

    def test_unresolved_with_resolving_d(self, capsys):
        code = main(
            [
                "causal",
                "--model",
                CAUSAL_MODEL,
                "--check",
                "unresolved",
                "--resolving",
                "D,X",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "unresolved_discrimination false"

    def test_proxy_requires_argument(self, capsys):
        assert main(["causal", "--model", CAUSAL_MODEL, "--check", "proxy"]) == 1
        assert "--proxy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "check,option",
        [
            ("cf", ["--given", "D,Q"]),
            ("dsep", ["--resolving", "D"]),
            ("unresolved", ["--proxy", "nosuch"]),
        ],
        ids=["given", "resolving", "proxy"],
    )
    def test_option_its_check_does_not_read_exit_1(self, capsys, check, option):
        argv = ["causal", "--model", CAUSAL_MODEL, "--check", check, *option]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option[0]} applies only to --check" in captured.err
        assert f"not {check}" in captured.err

    def test_proxy_gap(self, capsys):
        code = main(
            ["causal", "--model", CAUSAL_MODEL, "--check", "proxy", "--proxy", "X"]
        )
        assert code == 0
        value = float(capsys.readouterr().out.split()[1])
        assert 0.0 <= value <= 1.0

    def test_nan_cpt_exit_1(self, tmp_path, capsys):
        path = tmp_path / "nan.yaml"
        raw = yaml.safe_load(open(CAUSAL_MODEL, encoding="utf-8"))
        raw["cpts"]["D"]["A=0"] = [float("nan"), 1.0]
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert main(["causal", "--model", str(path), "--check", "cf"]) == 1
        assert "non-finite" in capsys.readouterr().err

    def edited_model(self, tmp_path, edit):
        """The shipped model with ``edit`` applied to its parsed YAML."""
        raw = yaml.safe_load(open(CAUSAL_MODEL, encoding="utf-8"))
        edit(raw)
        path = tmp_path / "edited.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        return str(path)

    def assert_rejected(self, path, message, capsys):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_causal_model(path)
        assert main(["causal", "--model", path, "--check", "cf"]) == 1
        assert message in capsys.readouterr().err

    def test_row_key_repeating_an_assignment_exit_1(self, tmp_path, capsys):
        def edit(raw):
            # the row "D=0,X=0" again, with the parents in the other order
            raw["cpts"]["Y"]["X=0,D=0"] = [0.0, 1.0]

        path = self.edited_model(tmp_path, edit)
        self.assert_rejected(path, "cpts.Y: row key 'X=0,D=0' repeats", capsys)

    def test_row_key_naming_a_parent_twice_exit_1(self, tmp_path, capsys):
        def edit(raw):
            raw["cpts"]["D"]["A=0,A=1"] = raw["cpts"]["D"].pop("A=1")

        path = self.edited_model(tmp_path, edit)
        self.assert_rejected(
            path, "cpts.D: row key 'A=0,A=1' names a parent twice", capsys
        )

    def test_cpt_of_undeclared_node_exit_1(self, tmp_path, capsys):
        path = self.edited_model(
            tmp_path, lambda raw: raw["cpts"].update(Z={"": [0.5, 0.7]})
        )
        self.assert_rejected(path, "CPT given for undeclared node(s) ['Z']", capsys)

    def test_repeated_edge_exit_1(self, tmp_path, capsys):
        path = self.edited_model(
            tmp_path, lambda raw: raw["edges"].append(["A", "D"])
        )
        self.assert_rejected(path, "edge ('A', 'D') is repeated", capsys)

    def test_factor_over_cap_exit_2(self, tmp_path, capsys):
        path = tmp_path / "grid.yaml"
        write_causal_yaml(path, grid_model(25))
        assert main(["causal", "--model", str(path), "--check", "cf"]) == 2
        assert "exceeds cap" in capsys.readouterr().err


class TestCompare:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            [
                "compare",
                "--scenario",
                "boards_quota",
                "--variants",
                "quota_only,quota_pipeline",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == [
            "variant",
            "final_goal_value",
            "steps_to_goal",
            "persists_after_sunset",
            "final_delta_mu_per_group",
        ]
        by_name = {r[0]: r for r in rows[1:]}
        assert by_name["quota_only"][2] == "not_reached"
        assert by_name["quota_only"][3] == "false"
        assert by_name["quota_pipeline"][3] == "true"
        assert by_name["quota_pipeline"][4].count(";") == 1

    def test_unknown_variant_exit_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = main(
            ["compare", "--scenario", "boards_quota", "--variants", "nope,quota_only",
             "--out", str(out)]
        )
        assert code == 1
        assert "nope" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--scenario", "lending_liu", "--eps", "0.01", "--draws", "4",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["draw", "final_goal_value"]
        assert len(rows) == 5
        printed = dict(l.split() for l in capsys.readouterr().out.splitlines())
        assert set(printed) == {"min", "max", "spread", "unreliable"}
        assert float(printed["min"]) <= float(printed["max"])


    @pytest.mark.parametrize("eps", ["nan", "inf", "-0.01"])
    def test_eps_not_finite_and_nonnegative_exit_1(self, tmp_path, capsys, eps):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--scenario", "lending_liu", "--eps", eps, "--draws", "3",
                "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "perturbation size must be finite and >= 0" in captured.err
        assert captured.out == "" and not out.exists()

    def test_seed_defaults_to_the_scenario_seed(self, tmp_path, capsys):
        seed = load_scenario("lending_liu").seed
        outputs = []
        for i, extra in enumerate(([], ["--seed", str(seed)], ["--seed", str(seed + 1)])):
            out = tmp_path / f"s{i}.csv"
            argv = ["sweep", "--scenario", "lending_liu", "--eps", "0.05",
                    "--draws", "3", *extra, "--out", str(out)]
            assert main(argv) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert outputs[2][0] != outputs[0][0]


class TestSweepSeed:
    def test_negative_seed_exit_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--scenario", "lending_liu", "--eps", "0.01", "--draws", "3",
                "--seed", "-1", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error: seed must be >= 0, got -1" in captured.err
        assert captured.out == "" and not out.exists()

    def test_negative_scenario_seed_exit_1(self, tmp_path, capsys):
        raw = builtin_raw("lending_liu")
        raw["seed"] = -1
        path = tmp_path / "negative_seed.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        out = tmp_path / "s.csv"
        argv = ["sweep", "--scenario", str(path), "--eps", "0.01", "--draws", "3",
                "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "seed must be >= 0, got -1" in captured.err
        assert captured.err.startswith("error: scenario file ")
        assert captured.out == "" and not out.exists()


def undefined_goal_scenario(tmp_path):
    """lending_liu with an eo_gap goal and no qualified mass in group B, so
    the goal is NaN at every step."""
    raw = builtin_raw("lending_liu")
    raw["declared_goal"] = {"label": "equal TPR", "metric": "eo_gap", "tolerance": 0.05}
    rho = raw["outcome"]["rho"]
    raw["outcome"]["rho"] = {"A": rho, "B": [0.0] * len(rho)}
    raw["variants"] = {"plain": {"interventions": []}, "again": {"interventions": []}}
    path = tmp_path / "undefined.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


class TestUndefinedGoal:
    def test_compare_exit_1(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        argv = ["compare", "--scenario", undefined_goal_scenario(tmp_path),
                "--variants", "plain,again", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "variant 'plain': goal metric eo_gap is undefined" in err
        assert "(NaN), first at step 0" in err
        assert not out.exists()

    def test_sweep_exit_1(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["sweep", "--scenario", undefined_goal_scenario(tmp_path),
                "--eps", "0.01", "--draws", "3", "--seed", "7", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "sweep draw 0: goal metric eo_gap is undefined" in captured.err
        assert "(NaN), first at step 0" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["metrics", "--scenario", "lending_liu"],
            ["simulate", "--scenario", "boards_quota"],
            ["compare", "--scenario", "boards_quota", "--variants",
             "quota_only,quota_pipeline"],
            ["sweep", "--scenario", "lending_liu", "--eps", "0.02", "--draws", "3",
             "--seed", "42"],
        ],
    )
    def test_reruns_byte_identical(self, tmp_path, capsys, argv_tail):
        out1 = tmp_path / "run1.csv"
        out2 = tmp_path / "run2.csv"
        assert main([*argv_tail, "--out", str(out1)]) == 0
        assert main([*argv_tail, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestUsage:
    def test_no_subcommand_exit_1(self, capsys):
        assert main([]) == 1

    def test_bad_choice_exit_1(self, capsys):
        assert main(["optimize", "--scenario", "lending_liu", "--constraint", "xx"]) == 1


class TestParserReuse:
    def test_commands_in_one_process_carry_no_state(self, tmp_path, capsys):
        infeasible = write_infeasible_quota(tmp_path)
        usage = ["optimize", "--scenario", "lending_liu", "--constraint", "bogus"]
        assert main(usage) == 1
        assert main(["--help"]) == 0
        assert "usage: fairdyn" in capsys.readouterr().out
        out = tmp_path / "inf.csv"
        assert main(["simulate", "--scenario", str(infeasible), "--out", str(out)]) == 2
        capsys.readouterr()
        for name in sorted(WITH_CSV) + sorted(STDOUT_ONLY):
            argv = list(WITH_CSV.get(name) or STDOUT_ONLY[name])
            out = tmp_path / f"{name}.csv"
            if name in WITH_CSV:
                argv += ["--out", str(out)]
            assert main(argv) == WANT[name]["rc"], name
            assert capsys.readouterr().out == WANT[name]["stdout"], name
            csv_text = out.read_text(encoding="utf-8") if name in WITH_CSV else None
            assert csv_text == WANT[name]["csv"], name

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        argv = ["causal", "--model", CAUSAL_MODEL, "--check", "cf"]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def rebuilt():
            raise AssertionError("main rebuilt its parser")

        monkeypatch.setattr(cli, "build_parser", rebuilt)
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_build_parser_returns_a_new_parser_each_call(self, capsys):
        extended = build_parser()
        assert extended is not build_parser()
        extended.add_argument("--extra")
        assert extended.parse_args(["--extra", "x", "causal", "--model", "m",
                                    "--check", "cf"]).extra == "x"
        argv = ["causal", "--model", CAUSAL_MODEL, "--check", "cf"]
        assert main(["--extra", "x", *argv]) == 1
        assert main(argv) == 0


NETWORKX_SCRIPT = """
import sys
from fairdyn.cli import main
checks = (
    ["dsep", "--given", "D,X"],
    ["cf"],
    ["unresolved", "--resolving", "D"],
    ["proxy", "--proxy", "X"],
)
codes = [main(["causal", "--model", sys.argv[1], "--check", *c]) for c in checks]
print("exit codes", codes)
print("networkx imported", "networkx" in sys.modules)
"""


def test_causal_commands_do_not_import_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run = subprocess.run(
        [sys.executable, "-c", NETWORKX_SCRIPT, CAUSAL_MODEL],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert "exit codes [0, 0, 0, 0]" in run.stdout
    assert "networkx imported False" in run.stdout
