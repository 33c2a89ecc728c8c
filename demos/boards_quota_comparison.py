"""A quota alone versus a quota plus pipeline investment.

The shipped `boards_quota` scenario imposes a 40% acceptance-share quota
for women with a sunset rule: the quota lapses once the unconstrained
share meets the target for several consecutive steps. This script compares
two intervention bundles and shows that the quota alone produces a share
that collapses after sunset, while pairing it with pipeline investment
(which shifts the underlying qualification distribution) makes the gain
stick.

Run with:  python3 demos/boards_quota_comparison.py
"""

from fairdyn.scenarios import (
    compare_interventions,
    load_scenario,
    named_variants,
    run_scenario,
)

cfg = load_scenario("boards_quota")

rows = compare_interventions(
    cfg, named_variants(cfg, ["quota_only", "quota_pipeline"])
)
print("Variant comparison (goal: acceptance-share gap below "
      f"{cfg.declared_goal.tolerance}):")
for row in rows:
    steps = "never" if row.steps_to_goal is None else f"step {row.steps_to_goal}"
    print(f"  {row.variant:15s} final gap {row.final_goal_value:.5f}  "
          f"goal reached {steps:8s}  persists after sunset: "
          f"{row.persists_after_sunset}")
print()

for name in ("quota_only", "quota_pipeline"):
    traj = run_scenario(cfg, interventions=dict(named_variants(cfg, [name]))[name])
    print(f"Accepted share of women over time ({name}):")
    for rec in traj.steps[:: max(1, cfg.horizon // 8)]:
        mass = {
            g.group_id: g.proportion * float(g.pmf @ rec.policy.tau(g.group_id))
            for g in rec.population.groups
        }
        share = mass["women"] / sum(mass.values())
        active = "quota active" if rec.intervention_active[0] else "quota sunset"
        print(f"  step {rec.step:2d}: share {share:.3f}  ({active})")
    print()
