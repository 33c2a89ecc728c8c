"""Tests of the benchmark itself: input generation, self-time arithmetic and
output checks. Run with ``python3 -m pytest bench``."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _pool(w, seed):
    return [w.raw(np.random.default_rng([seed, i]), i % w.strata) for i in range(w.strata)]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    w = workloads.WORKLOADS[name]
    assert _same(_pool(w, 5), _pool(w, 5))
    assert not _same(_pool(w, 5), _pool(w, 6))
    assert len(workloads.make_pool(w, 5)) == w.strata * w.pool_cycles


def test_self_time_of_a_hand_built_span_tree():
    rec = spans.SpanRecorder()
    root = rec.add("a.root", 0.0, 10.0, -1, 0)
    left = rec.add("b.left", 1.0, 4.0, root, 0)
    rec.add("c.leaf", 2.0, 3.0, left, 0)
    rec.add("b.right", 6.0, 9.0, root, 0)
    # A child reaching past its parent counts only inside the parent, and
    # overlapping children are not counted twice.
    rec.add("c.overlap", 8.0, 12.0, root, 0)
    other = rec.add("a.other", 20.0, 25.0, -1, 1)
    assert spans.self_times(rec) == [
        10.0 - (3.0 + 4.0),
        3.0 - 1.0,
        1.0,
        3.0,
        4.0,
        5.0,
    ]
    assert other == 5


def test_wrappers_are_installed_at_every_binding_and_removed():
    import fairdyn
    from fairdyn import dynamics, scenarios

    original = dynamics.simulate
    rec = spans.SpanRecorder()
    with spans.traced(rec):
        assert scenarios.simulate is dynamics.simulate is not original
        assert fairdyn.run_scenario is scenarios.run_scenario
        cfg = scenarios.load_scenario("lending_liu")
        scenarios.run_scenario(replace(cfg, horizon=2))
    assert scenarios.simulate is dynamics.simulate is original
    names = set(rec.names)
    assert {"dynamics.simulate", "scenarios.policy_hook", "dynamics.step"} <= names
    assert rec.counts["dynamics.bin_steps"] == 2 * 6 * 2
    assert all(s >= 0 for s in spans.self_times(rec))


def _policy_job(kind="dp"):
    w = workloads.WORKLOADS["policy_search"]
    stratum = w.kinds.index(kind)
    raw = w.raw(np.random.default_rng([0, stratum]), stratum)
    return w, raw, w.call(w.build(raw))


def test_check_passes_a_correct_policy_run_and_fails_a_scaled_pmf():
    w, raw, traj = _policy_job()
    assert w.check(raw, traj) == []
    rec = traj.steps[2]
    g = rec.population.groups[1]
    bad = g.with_pmf(np.asarray(g.pmf) * 1.01)
    pop = rec.population.with_groups((rec.population.groups[0], bad))
    steps = list(traj.steps)
    steps[2] = replace(rec, population=pop)
    problems = w.check(raw, replace(traj, steps=tuple(steps)))
    assert problems == ["step 2 group B: invalid pmf"]


def test_check_fails_a_constrained_gap():
    w, raw, traj = _policy_job("eo")
    rec = traj.steps[0]
    steps = (replace(rec, metrics=replace(rec.metrics, eo_gap=1e-6)),) + traj.steps[1:]
    assert w.check(raw, replace(traj, steps=steps)) == ["step 0: eo_gap 1e-06"]


def test_check_fails_a_causal_gap_outside_the_unit_interval():
    w = workloads.WORKLOADS["causal_audit"]
    assert w.check(None, (0.2, 1.01, True, False)) == ["proxy gap 1.01 outside [0, 1]"]
    assert w.check(None, (0.0, 1.0, True, False)) == []


def test_reference_mismatch_is_reported():
    w = workloads.WORKLOADS["causal_audit"]
    ref = {"seed": 1, "tolerance": 1e-9, "digests": [[0.5, 0.25, 1.0, 0.0]]}
    assert workloads.reference_problems(w, ref, 1, 0, (0.5, 0.25, True, False)) == []
    assert workloads.reference_problems(w, ref, 1, 0, (0.5, 0.26, True, False))
    assert workloads.reference_problems(w, ref, 2, 0, (0.5, 0.26, True, False)) == []


def test_cli_fields_compare_numbers_with_tolerance_and_text_exactly():
    want = "variant,final\nquota_only,0.10000000000000001\nA=1;B=nan\n"
    assert workloads.fields_match(want.replace("01\n", "02\n"), want)
    assert not workloads.fields_match(want.replace("0.1", "0.2"), want)
    assert not workloads.fields_match(want.replace("quota_only", "quota"), want)
    assert not workloads.fields_match(want.replace("nan", "0"), want)


def test_cli_job_matches_reference_and_flags_a_failed_command(tmp_path):
    w = workloads.BuiltinCli(tmp_path)
    raw = w.raw(np.random.default_rng([0, 0]), 0)
    result = w.call(w.build(raw))
    assert w.check(raw, result) == []
    ref = workloads.load_reference(workloads.WORKLOADS["builtin_cli"])
    assert workloads.reference_problems(w, ref, 0, 0, result) == []
    (tmp_path / "metrics_lending_liu.csv").write_text("corrupted\n")
    assert workloads.reference_problems(w, ref, 0, 0, result) == [
        "metrics_lending_liu: csv differs from reference"
    ]
    result["sweep_lending_liu"] = (1, "")
    assert w.check(raw, result) == ["sweep_lending_liu exited 1"]


def test_a_raising_job_is_counted_as_failed():
    import run

    class Boom:
        def build(self, raw):
            return raw

        def call(self, built):
            raise ValueError("boom")

        def work(self, raw):
            return 1

    log = run.JobLog(Boom(), None, 0)
    log.run({}, 0)
    assert log.failed == 1
    assert log.problems == ["job 0 raised ValueError('boom')"]
    assert len(log.times) == 1 and log.times[0] >= 0.0
