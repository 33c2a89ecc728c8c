import numpy as np
import pytest

from fairdyn.metrics import OutcomeModel
from fairdyn.policy import Policy
from fairdyn.population import GroupState, Population, ScoreGrid


def make_grid(n_bins=5, start=0.0, width=100.0):
    return ScoreGrid(
        bin_scores=tuple(start + i * width for i in range(n_bins)),
        bin_width=width,
    )


def make_population(grid, pmfs, proportions=None):
    """pmfs: mapping group_id -> sequence."""
    if proportions is None:
        proportions = {gid: 1.0 / len(pmfs) for gid in pmfs}
    groups = tuple(
        GroupState(gid, proportions[gid], tuple(float(v) for v in pmf))
        for gid, pmf in pmfs.items()
    )
    return Population(grid, groups)


def random_instance(rng, n_bins=None, rho_low=0.05, rho_high=0.95,
                    monotone_rho=False, shared_rho=False):
    """Random valid (population, outcome, policy) triple over two groups.

    rho is kept away from 0 and 1 so conditional rates are well defined.
    """
    if n_bins is None:
        n_bins = int(rng.integers(2, 9))
    grid = make_grid(n_bins, start=float(rng.integers(0, 500)), width=50.0)
    pmfs = {}
    for gid in ("g0", "g1"):
        raw = rng.random(n_bins) + 1e-3
        pmfs[gid] = raw / raw.sum()
    p0 = float(rng.uniform(0.1, 0.9))
    pop = make_population(grid, pmfs, {"g0": p0, "g1": 1.0 - p0})
    rho = {}
    shared = None
    for gid in ("g0", "g1"):
        if shared_rho and shared is not None:
            rho[gid] = shared
            continue
        r = rng.uniform(rho_low, rho_high, n_bins)
        if monotone_rho:
            r = np.sort(r)
        rho[gid] = tuple(float(v) for v in r)
        shared = rho[gid]
    outcome = OutcomeModel(
        rho=rho,
        steps_up=int(rng.integers(0, 3)),
        steps_down=int(rng.integers(0, 3)),
    )
    policy = Policy.from_arrays(
        {gid: rng.random(n_bins) for gid in ("g0", "g1")}
    )
    return pop, outcome, policy


def unchecked_config(cfg, **changes):
    """``cfg`` with ``changes``, built without ``ScenarioConfig``'s check:
    a config that construction would reject, for a test that reaches past
    it to a run's own checks or writes it as a scenario file."""
    new = object.__new__(type(cfg))
    new.__dict__.update(vars(cfg), **changes)
    return new


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
