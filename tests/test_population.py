import functools
import re
import warnings
from dataclasses import replace
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdyn import optimize, policy, scenarios
from fairdyn.errors import DimensionError, DomainError
from fairdyn.metrics import OutcomeModel
from fairdyn.optimize import rates_for_tpr
from fairdyn.policy import Policy, threshold_levels
from fairdyn.population import (
    GroupState,
    Population,
    ScoreGrid,
    _valid_rows,
    group_mean,
    validate_population,
)

from conftest import make_grid, make_population


def test_single_group_ok():
    pop = make_population(make_grid(2), {"a": (0.5, 0.5)}, {"a": 1.0})
    assert validate_population(pop).ok


def test_pmf_sum_violation_reported_with_slack():
    pop = make_population(make_grid(2), {"a": (0.6, 0.6)}, {"a": 1.0})
    report = validate_population(pop)
    assert not report.ok
    assert any("a" in v and "1.2" in v for v in report.violations)


def test_proportion_sum_violation():
    pop = make_population(
        make_grid(2), {"a": (0.5, 0.5), "b": (0.5, 0.5)}, {"a": 0.3, "b": 0.3}
    )
    report = validate_population(pop)
    assert any("0.6" in v for v in report.violations)


@pytest.mark.parametrize("proportion", ["0.9", None, True], ids=["string", "none", "bool"])
def test_proportion_that_is_not_a_real_number(proportion):
    pop = Population(
        make_grid(2),
        (GroupState("a", proportion, (0.5, 0.5)), GroupState("b", 0.1, (0.5, 0.5))),
    )
    assert validate_population(pop).violations == (
        f"group 'a': proportion must be a real number, got {proportion!r}",
    )


def test_duplicate_labels_rejected():
    grid = make_grid(2)
    pop = Population(
        grid,
        (
            GroupState("a", 0.5, (0.5, 0.5)),
            GroupState("a", 0.5, (0.5, 0.5)),
        ),
    )
    assert not validate_population(pop).ok


def test_grid_needs_uniform_spacing():
    grid = ScoreGrid(bin_scores=(0.0, 1.0, 3.0), bin_width=1.0)
    assert grid.violations()


def test_grid_needs_two_bins():
    assert ScoreGrid(bin_scores=(1.0,), bin_width=1.0).violations()


def test_group_mean_point_mass():
    g = GroupState("a", 1.0, (1.0, 0.0))
    grid = ScoreGrid((300.0, 400.0), 100.0)
    assert group_mean(g, grid) == 300.0


def test_group_mean_symmetric():
    g = GroupState("a", 1.0, (0.5, 0.5))
    grid = ScoreGrid((300.0, 400.0), 100.0)
    assert group_mean(g, grid) == pytest.approx(350.0)


def test_group_mean_weighted():
    g = GroupState("a", 1.0, (0.25, 0.75))
    grid = ScoreGrid((0.0, 100.0), 100.0)
    # direct arithmetic: 0.25*0 + 0.75*100
    assert group_mean(g, grid) == pytest.approx(75.0)


def test_group_mean_length_mismatch():
    g = GroupState("a", 1.0, (0.5, 0.5, 0.0))
    with pytest.raises(DimensionError):
        group_mean(g, ScoreGrid((0.0, 100.0), 100.0))


def test_group_mean_within_grid_range(rng):
    grid = make_grid(7)
    for _ in range(200):
        raw = rng.random(7) + 1e-9
        g = GroupState("a", 1.0, tuple(raw / raw.sum()))
        m = group_mean(g, grid)
        assert grid.bin_scores[0] <= m <= grid.bin_scores[-1]


@given(
    alpha=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
def test_group_mean_linear_in_mixture(alpha, seed):
    rng = np.random.default_rng(seed)
    grid = make_grid(5)
    p1 = rng.random(5) + 1e-9
    p1 /= p1.sum()
    p2 = rng.random(5) + 1e-9
    p2 /= p2.sum()
    mix = alpha * p1 + (1.0 - alpha) * p2
    m_mix = group_mean(GroupState("a", 1.0, tuple(mix)), grid)
    m1 = group_mean(GroupState("a", 1.0, tuple(p1)), grid)
    m2 = group_mean(GroupState("a", 1.0, tuple(p2)), grid)
    assert abs(m_mix - (alpha * m1 + (1.0 - alpha) * m2)) < 1e-9 * max(
        1.0, abs(m1), abs(m2)
    )


def test_nan_pmf_rejected():
    pop = make_population(make_grid(2), {"a": (float("nan"), 1.0)}, {"a": 1.0})
    report = validate_population(pop)
    assert any("non-finite" in v for v in report.violations)


def test_nan_bin_score_rejected():
    grid = ScoreGrid(bin_scores=(0.0, float("nan"), 2.0), bin_width=1.0)
    assert grid.violations() == ["bin scores are not all finite"]


def _stored_vectors(src):
    """Every kind of stored score vector, each built from ``src``."""
    g = GroupState("a", 1.0, src)
    return {
        "bin_scores": ScoreGrid(src, 0.5).bin_scores,
        "pmf": g.pmf,
        "with_pmf": g.with_pmf(src).pmf,
        "tau": Policy.from_arrays({"a": src}).tau("a"),
        "rho": OutcomeModel(rho={"a": src}, steps_up=1, steps_down=1).rho_for("a"),
    }


@pytest.mark.parametrize("kind", ["bin_scores", "pmf", "with_pmf", "tau", "rho"])
def test_stored_vectors_are_read_only_float64(kind):
    vec = _stored_vectors((0.0, 0.5, 1.0))[kind]
    assert vec.dtype == np.float64 and vec.shape == (3,)
    with pytest.raises(ValueError):
        vec[0] = 0.25


@pytest.mark.parametrize("kind", ["bin_scores", "pmf", "with_pmf", "tau", "rho"])
def test_constructors_copy_their_input(kind):
    src = np.array([0.0, 0.5, 1.0])
    vec = _stored_vectors(src)[kind]
    src[:] = 0.25
    assert vec.tolist() == [0.0, 0.5, 1.0]


def test_with_proportion_keeps_the_pmf_array():
    g = GroupState("a", 0.5, (0.25, 0.75))
    h = g.with_proportion(np.float64(0.3))
    assert h.pmf is g.pmf and not h.pmf.flags.writeable
    assert type(h.proportion) is float and h.proportion == 0.3
    assert g.proportion == 0.5


def test_vector_must_be_one_dimensional():
    with pytest.raises(DimensionError, match="1-D"):
        GroupState("a", 1.0, [[0.5, 0.5]])


@pytest.mark.parametrize("entries", [(0.5, True), np.array([False, True])])
@pytest.mark.parametrize(
    "build,name",
    [
        (lambda v: GroupState("a", 1.0, v), "pmf"),
        (lambda v: ScoreGrid(v, 1.0), "bin_scores"),
        (lambda v: OutcomeModel({"a": v}, 1, 1), "rho[a]"),
    ],
    ids=["pmf", "bin_scores", "rho"],
)
def test_a_bool_vector_entry_is_rejected_naming_it(build, name, entries):
    # ``np.array(..., dtype=float)`` would read it as 0.0 or 1.0.
    i = 1 if isinstance(entries, tuple) else 0
    with pytest.raises(DomainError, match=rf"^{re.escape(name)}\[{i}\] must be a real"):
        build(entries)


@functools.cache
def _lending():
    return scenarios.load_scenario("lending_liu")


def _passed_on(module, core, position, call):
    """The argument at ``position`` that ``call()`` passes to ``module.core``,
    stubbed; ``call()`` raises if its reader rejects its input first."""
    seen = []
    with mock.patch.object(module, core, lambda *args: seen.append(args[position])):
        call()
    return seen[0]


def _fixed_rule(v):
    rule = scenarios.PolicyRuleSpec("fixed", tau={"A": v, "B": np.zeros(6)})
    cfg = replace(_lending(), policy_rule=rule)
    return scenarios._decision_rule(cfg).tau("A")


_SIX = GroupState("a", 1.0, np.full(6, 1 / 6))
# Every reader of a vector of reals: the name its messages give the vector,
# and the array it keeps or passes on for a 6-entry vector ``v`` in [0, 1].
_VECTOR_READERS = {
    "bin_scores": lambda v: ScoreGrid(v, 1.0).bin_scores,
    "pmf": lambda v: GroupState("a", 1.0, v).pmf,
    "rho[a]": lambda v: OutcomeModel({"a": v}, 1, 1).rho_for("a"),
    "acceptance[a]": lambda v: Policy({"a": v}).tau("a"),
    "rates": lambda v: _passed_on(
        policy, "_threshold_levels", 1, lambda: threshold_levels(_SIX.pmf, v)
    ),
    "tprs": lambda v: _passed_on(
        optimize, "_rates_for_tpr", 4, lambda: rates_for_tpr(_SIX, np.ones(6), v)
    ),
    "rho": lambda v: _passed_on(
        optimize, "_rates_for_tpr", 3, lambda: rates_for_tpr(_SIX, v, [0.5])
    ),
    "policy_rule.tau[A]": _fixed_rule,
}
_UNIT = st.floats(0.0, 1.0)
_REAL_ENTRIES = st.one_of(
    _UNIT, st.integers(0, 1), _UNIT.map(np.float64), _UNIT.map(np.float32),
    st.integers(0, 1).map(np.int64),
)
_REAL_VECTORS = st.one_of(
    st.lists(_REAL_ENTRIES, min_size=6, max_size=6),
    st.tuples(*[_REAL_ENTRIES] * 6),
    st.lists(_UNIT, min_size=6, max_size=6).map(np.array),
    st.lists(_UNIT, min_size=6, max_size=6).map(lambda v: np.array(v, np.float32)),
    st.lists(st.integers(0, 1), min_size=6, max_size=6).map(np.array),
)
_JUNK = ["0.5", "x", None, True, np.True_, [0.5], Decimal("0.5")]


@given(
    name=st.sampled_from(sorted(_VECTOR_READERS)),
    values=st.lists(_UNIT, min_size=6, max_size=6),
    index=st.integers(0, 5),
    junk=st.sampled_from(_JUNK),
)
def test_every_vector_reader_names_a_junk_entry(name, values, index, junk):
    # A string, None and a Decimal once loaded as numbers or NaN where only a
    # bool was rejected, and a string was cast by ``Policy`` and ``tprs``.
    values[index] = junk
    with pytest.raises(DomainError) as info:
        _VECTOR_READERS[name](values)
    assert str(info.value) == f"{name}[{index}] must be a real number, got {junk!r}"


@given(name=st.sampled_from(sorted(_VECTOR_READERS)), values=_REAL_VECTORS)
def test_every_vector_reader_keeps_a_read_only_float64_copy(name, values):
    got = _VECTOR_READERS[name](values)
    want = np.array(values, dtype=float)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    if isinstance(values, np.ndarray):
        assert not np.shares_memory(got, values)


@pytest.mark.parametrize("width", [True, "1", None])
def test_a_bin_width_that_is_not_a_real_number_is_a_violation(width):
    pop = make_population(ScoreGrid((0.0, 1.0), width), {"a": (0.5, 0.5)})
    assert validate_population(pop).violations == (
        f"bin_width must be a real number, got {width!r}",
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    bins=st.integers(2, 50),
    scales=st.lists(
        st.sampled_from([1.0, 1 + 5e-10, 1 - 5e-10, 1 + 2e-9, 1 - 2e-9]),
        min_size=1, max_size=4,
    ),
    edges=st.lists(st.sampled_from([1e-9, -1e-9]), max_size=4),
    entries=st.lists(
        st.sampled_from([0.0, np.nan, np.inf, -np.inf, -1e-12, 1e308]),
        max_size=4,
    ),
)
def test_valid_rows_decides_each_row_as_validate_population(
    seed, lead, bins, scales, edges, entries
):
    rng = np.random.default_rng(seed)
    shape = (*lead, bins)
    # About a third of the entries exactly 0, as a valid pmf may hold.
    pmfs = rng.random(shape) * (rng.random(shape) >= 0.3)
    pmfs[..., -1] += 0.1
    pmfs /= pmfs.sum(axis=-1, keepdims=True)
    rows = pmfs.reshape(-1, bins)
    for scale in scales:
        rows[rng.integers(len(rows))] *= scale
    # A sum within a few ulps of 1 +- 1e-9, where only the same summation
    # order as the reference's decides alike.
    for edge in edges:
        k = rng.integers(len(rows))
        rows[k] *= (1.0 + edge) / rows[k].sum()
    for entry in entries:
        rows[rng.integers(len(rows)), rng.integers(bins)] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _valid_rows(pmfs)
    assert got.shape == tuple(lead) and got.dtype == bool
    grid = make_grid(bins)
    # The reference's own sums may overflow; its verdict is what is compared.
    with np.errstate(over="ignore", invalid="ignore"):
        want = [
            validate_population(make_population(grid, {"a": row})).ok
            for row in rows
        ]
    assert got.reshape(-1).tolist() == want
