"""Command-line entry point.

Subcommands: metrics, simulate, optimize, causal, compare, sweep. Exit
codes: 0 success, 1 validation or usage error, 2 infeasibility or capacity
error. CSV output uses 17 significant digits so doubles round-trip, and
files are written via write-then-rename so failures leave nothing behind.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import tempfile
from dataclasses import replace

from . import causal as causal_mod
from . import scenarios as scn
from .dynamics import TRAJECTORY_COLUMNS, trajectory_rows
from .errors import CapacityError, FairdynError, InfeasibilityError
from .metrics import metric_report


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: str, columns, rows) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in columns])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cmd_metrics(args) -> int:
    cfg = scn.load_scenario(args.scenario)
    policy = scn.initial_policy(cfg)
    rep = metric_report(
        cfg.population, cfg.outcome, policy, *cfg.metric_groups
    )
    a, b = rep.group_a, rep.group_b
    row = {
        "group_a": a,
        "group_b": b,
        "dp_gap": rep.dp_gap,
        "eo_gap": rep.eo_gap,
        "eodds_gap": rep.eodds_gap,
        "acceptance_a": rep.acceptance[a],
        "acceptance_b": rep.acceptance[b],
        "tpr_a": rep.tpr[a],
        "tpr_b": rep.tpr[b],
        "fpr_a": rep.fpr[a],
        "fpr_b": rep.fpr[b],
    }
    _write_csv(args.out, list(row), [row])
    return 0


def _cmd_simulate(args) -> int:
    cfg = scn.load_scenario(args.scenario)
    if args.steps is not None:
        cfg = replace(cfg, horizon=args.steps)
    traj = scn.run_scenario(cfg)
    _write_csv(args.out, TRAJECTORY_COLUMNS, trajectory_rows(traj))
    return 0


def _cmd_optimize(args) -> int:
    cfg = scn.load_scenario(args.scenario)
    resolution = cfg.resolution if args.resolution is None else args.resolution
    if args.constraint == "none":
        rule = scn.PolicyRuleSpec("max_utility")
    elif args.constraint in ("dp", "eo"):
        rule = scn.PolicyRuleSpec("constrained", constraint=args.constraint)
    else:  # outcome
        target = cfg.policy_rule.target_group or cfg.declared_goal.target_group
        if target is None:
            target = cfg.population.groups[-1].group_id
        rule = scn.PolicyRuleSpec(
            "outcome_optimal",
            target_group=target,
            utility_floor=cfg.policy_rule.utility_floor,
        )
    policy = scn.build_policy(cfg, cfg.population, rule, resolution)
    for gid in cfg.population.group_ids:
        tau = " ".join(_fmt(float(v)) for v in policy.tau(gid))
        print(f"tau[{gid}] {tau}")
    rep = metric_report(cfg.population, cfg.outcome, policy, *cfg.metric_groups)
    print(f"dp_gap {_fmt(rep.dp_gap)}")
    print(f"eo_gap {_fmt(rep.eo_gap)}")
    print(f"eodds_gap {_fmt(rep.eodds_gap)}")
    return 0


# Each ``causal`` option that only one check reads, and that check.
_CAUSAL_OPTIONS = {"given": "dsep", "resolving": "unresolved", "proxy": "proxy"}


def _cmd_causal(args) -> int:
    for option, check in _CAUSAL_OPTIONS.items():
        if getattr(args, option) and args.check != check:
            raise FairdynError(
                f"--{option} applies only to --check {check}, not {args.check}"
            )
    model = causal_mod.load_causal_model(args.model)
    given = set(filter(None, args.given.split(",")))
    if args.check == "dsep":
        result = causal_mod.d_separated(
            model, {model.protected}, {model.outcome}, given
        )
        print(f"d_separated {_fmt(bool(result))}")
    elif args.check == "cf":
        print(
            "counterfactual_fairness_gap "
            f"{_fmt(causal_mod.counterfactual_fairness_gap(model))}"
        )
    elif args.check == "unresolved":
        resolving = set(filter(None, args.resolving.split(",")))
        result = causal_mod.unresolved_discrimination(model, resolving)
        print(f"unresolved_discrimination {_fmt(bool(result))}")
    else:  # proxy
        if not args.proxy:
            raise FairdynError("--proxy is required for the proxy check")
        print(
            "proxy_discrimination_gap "
            f"{_fmt(causal_mod.proxy_discrimination_gap(model, args.proxy))}"
        )
    return 0


def _cmd_compare(args) -> int:
    cfg = scn.load_scenario(args.scenario)
    names = [v for v in args.variants.split(",") if v]
    rows = scn.compare_interventions(cfg, scn.named_variants(cfg, names))
    columns = (
        "variant",
        "final_goal_value",
        "steps_to_goal",
        "persists_after_sunset",
        "final_delta_mu_per_group",
    )
    out_rows = []
    for row in rows:
        dmu = ";".join(
            f"{gid}={_fmt(v)}" for gid, v in sorted(row.final_delta_mu.items())
        )
        out_rows.append(
            {
                "variant": row.variant,
                "final_goal_value": row.final_goal_value,
                "steps_to_goal": (
                    "not_reached" if row.steps_to_goal is None else row.steps_to_goal
                ),
                "persists_after_sunset": row.persists_after_sunset,
                "final_delta_mu_per_group": dmu,
            }
        )
    _write_csv(args.out, columns, out_rows)
    return 0


def _cmd_sweep(args) -> int:
    cfg = scn.load_scenario(args.scenario)
    seed = cfg.seed if args.seed is None else args.seed
    report = scn.sensitivity_sweep(cfg, args.eps, args.draws, seed)
    rows = [
        {"draw": i, "final_goal_value": v} for i, v in enumerate(report.values)
    ]
    _write_csv(args.out, ("draw", "final_goal_value"), rows)
    print(f"min {_fmt(report.minimum)}")
    print(f"max {_fmt(report.maximum)}")
    print(f"spread {_fmt(report.spread)}")
    print(f"unreliable {_fmt(report.unreliable)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser of the ``fairdyn`` command line on each call, so a
    caller may add arguments to the one it gets."""
    parser = argparse.ArgumentParser(
        prog="fairdyn",
        description="Fairness metrics, causal checks and downstream-effect "
        "simulation for selection policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="static metric suite on the initial state")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("simulate", help="run the scenario and dump the trajectory")
    p.add_argument("--scenario", required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimize", help="print an optimal policy and its metrics")
    p.add_argument("--scenario", required=True)
    p.add_argument(
        "--constraint", choices=["dp", "eo", "none", "outcome"], default="none"
    )
    p.add_argument("--resolution", type=float, default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("causal", help="causal fairness checks on a model file")
    p.add_argument("--model", required=True)
    p.add_argument(
        "--check", choices=["dsep", "cf", "unresolved", "proxy"], required=True
    )
    p.add_argument("--given", default="")
    p.add_argument("--proxy", default="")
    p.add_argument("--resolving", default="")
    p.set_defaults(func=_cmd_causal)

    p = sub.add_parser("compare", help="compare intervention variants")
    p.add_argument("--scenario", required=True)
    p.add_argument("--variants", required=True, help="comma-separated names")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="sensitivity sweep over perturbed starts")
    p.add_argument("--scenario", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process. ``parse_args``
    returns a new ``Namespace`` on each call and leaves the parser as it
    was, so one command carries nothing over to the next."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InfeasibilityError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FairdynError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
