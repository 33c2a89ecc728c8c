import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fairdyn.errors import DimensionError
from fairdyn.metrics import OutcomeModel
from fairdyn.policy import Policy
from fairdyn.population import (
    GroupState,
    Population,
    ScoreGrid,
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
