"""Selection policies: per-group acceptance probabilities per score bin.

Policies are probability vectors rather than hard thresholds so that any
acceptance rate is exactly realizable on a discrete grid. The randomized
threshold form accepts every bin above a threshold, the threshold bin with
a fractional probability, and nothing below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import DimensionError, DomainError
from .population import (
    GroupState,
    Population,
    ScoreGrid,
    _check_lengths,
    _integer,
    _real,
    _real_vector,
)

if TYPE_CHECKING:
    from .metrics import OutcomeModel


@dataclass(frozen=True, eq=False)
class Policy:
    """Acceptance probability per bin, keyed by group label; each vector is
    read with ``_real_vector`` (named ``acceptance[group]``, so a bool mask
    is rejected: pass ``mask.astype(float)``) and every entry is checked to
    lie in [0, 1]. The vectors are the rows of one read-only
    (groups, bins) matrix, so they have one length, and ``acceptance`` is a
    read-only mapping of its rows: the check holds for the policy's lifetime."""

    acceptance: Mapping[str, np.ndarray]
    group_ids: tuple[str, ...] = field(init=False, repr=False)
    _matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = {
            gid: _real_vector(v, f"acceptance[{gid}]")
            for gid, v in self.acceptance.items()
        }
        if len({len(row) for row in rows.values()}) > 1:
            sizes = " ".join(f"{gid}={len(row)}" for gid, row in rows.items())
            raise DimensionError(f"policy vectors of unequal lengths {sizes}")
        matrix = np.array(list(rows.values())) if rows else np.empty((0, 0))
        self._keep(tuple(rows), matrix)

    def _keep(
        self, group_ids: tuple[str, ...], matrix: np.ndarray, check=slice(None)
    ) -> "Policy":
        """This policy over the rows of ``matrix``, a fresh float64 (groups,
        bins) array kept read-only without a copy once its rows ``check`` lie
        in [0, 1]; ``object.__new__(Policy)._keep(...)`` builds a policy."""
        rows = matrix[check]
        # Written so that NaN fails the check too: the extremes of rows that
        # hold a NaN are NaN.
        if rows.size and not (rows.min() >= 0 and rows.max() <= 1):
            ok = ((rows >= 0) & (rows <= 1)).all(axis=1)
            bad = group_ids[check][int(ok.argmin())]
            raise DomainError(f"group {bad!r}: acceptance entries outside [0,1] or NaN")
        matrix.setflags(write=False)
        rows = MappingProxyType(dict(zip(group_ids, matrix)))
        object.__setattr__(self, "acceptance", rows)
        object.__setattr__(self, "group_ids", group_ids)
        object.__setattr__(self, "_matrix", matrix)
        return self

    def __reduce__(self):
        # A mappingproxy does not pickle: rebuild from a plain dict through
        # the constructor, which checks the vectors and makes them read-only.
        return (Policy, (dict(self.acceptance),))

    def tau(self, group_id: str) -> np.ndarray:
        if group_id not in self.acceptance:
            raise KeyError(f"policy has no acceptance vector for group {group_id!r}")
        return self.acceptance[group_id]

    def _rows(self, group_ids: tuple[str, ...]) -> np.ndarray:
        """The vectors of ``group_ids`` as one (groups, bins) matrix: the
        policy's own when they come in its order, else a gathered copy."""
        if group_ids == self.group_ids:
            return self._matrix
        return np.array([self.tau(gid) for gid in group_ids])

    @staticmethod
    def from_arrays(arrays: Mapping[str, Sequence[float]]) -> "Policy":
        """The policy with these acceptance vectors; the same as ``Policy(arrays)``."""
        return Policy(arrays)


@dataclass(frozen=True)
class GroupThreshold:
    threshold_bin: int
    boundary_acceptance: float


@dataclass(frozen=True)
class RandomizedThresholdPolicy:
    """Accept above the threshold bin, fractionally at it, never below."""

    thresholds: Mapping[str, GroupThreshold]

    def expand(self, grid: ScoreGrid) -> Policy:
        """The policy of these thresholds on ``grid``. Each threshold bin is
        read with ``_integer`` (an integral float is its integer) and must
        lie on the grid; each boundary acceptance is read with ``_real`` and
        must lie in [0, 1]. A bad value raises ``DomainError`` naming its
        group."""
        n = len(grid.bin_scores)
        thresholds = {}
        for gid, th in self.thresholds.items():
            b = _integer(th.threshold_bin, f"group {gid!r}: threshold bin")
            if not 0 <= b < n:
                raise DomainError(f"group {gid!r}: threshold bin {b} outside grid")
            boundary = _real(
                th.boundary_acceptance, f"group {gid!r}: boundary acceptance"
            )
            if not 0.0 <= boundary <= 1.0:
                raise DomainError(
                    f"group {gid!r}: boundary acceptance {boundary} outside [0,1]"
                )
            thresholds[gid] = (b, boundary)
        return _threshold_policy(n, thresholds)


@dataclass(frozen=True)
class InstitutionModel:
    """Utility of an accepted success (u_plus) and an accepted failure (u_minus)."""

    u_plus: float
    u_minus: float

    def __post_init__(self):
        # Messages start with the field, so a loader can prefix its section.
        for name in ("u_plus", "u_minus"):
            if not np.isfinite(_real(getattr(self, name), name)):
                raise DomainError(f"{name} {getattr(self, name)} is not finite")

    def per_bin_utility(self, rho: np.ndarray) -> np.ndarray:
        """Expected utility of accepting one applicant at each bin."""
        return self.u_plus * rho + self.u_minus * (1.0 - rho)


def _acceptance(pmf: np.ndarray, tau: np.ndarray) -> float:
    """Probability that a member with score pmf ``pmf`` is accepted."""
    return float(pmf.dot(tau))


def acceptance_rate(policy: Policy, group: GroupState) -> float:
    """Probability that a random member of the group is accepted."""
    tau = policy.tau(group.group_id)
    _check_lengths(group.group_id, tau=tau, pmf=group.pmf)
    return _acceptance(group.pmf, tau)


def threshold_levels(
    pmf: np.ndarray, rates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Threshold bin and boundary acceptance of the randomized threshold
    policy at every acceptance rate in ``rates``, in one pass.

    Acceptance mass is allocated from the highest score bin downward: every
    bin above the threshold bin is accepted, the threshold bin with the
    boundary acceptance, nothing below. The top-down cumulative mass is a
    sequential sum, so each threshold equals the one a bin-by-bin scan finds.
    Zero-mass bins repeat a cumulative value; the search takes the highest
    bin that reaches the rate. Memory is O(len(rates) + len(pmf)).

    ``rates`` is read with ``_real_vector``: one that is not 1-D raises
    ``DimensionError``, and an entry that is no real number (a bool, a
    string, None) ``DomainError`` naming it.
    """
    rates = _real_vector(rates, "rates")
    # Written so that NaN fails the check too.
    if not np.all((rates >= 0.0) & (rates <= 1.0)):
        raise DomainError(f"target rate outside [0,1] in {rates}")
    return _threshold_levels(pmf, rates)


def _top_sums(values: np.ndarray) -> np.ndarray:
    """``out[k]``: the sum of the top ``k`` entries of ``values``, summed
    sequentially from the last entry down; ``out[0]`` is 0."""
    out = np.empty(len(values) + 1)
    out[0] = 0.0
    np.add.accumulate(values[::-1], out=out[1:])
    return out


def _threshold_levels(
    pmf: np.ndarray, rates: np.ndarray, reach: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`threshold_levels` for a float array of rates already known to
    lie in [0, 1]; ``reach`` is ``_top_sums(pmf)`` if the caller has it.
    The searches score many rates at once through it; one rate alone, as a
    quota needs, takes ``_threshold_at``, which skips the array set-up."""
    n = len(pmf)
    if reach is None:
        reach = _top_sums(pmf)
    k = np.minimum(reach[1:].searchsorted(rates, side="left"), n - 1)
    bins = n - 1 - k
    mass = pmf[bins]
    fractions = np.divide(
        rates - reach[k], mass, out=np.zeros(len(rates)), where=mass > 0
    )
    # ``reach[k] < rate`` unless both are 0, so no fraction is negative;
    # rounding can put one above 1.
    return bins, np.minimum(fractions, 1.0, out=fractions)


def threshold_values(
    pmf: np.ndarray, weight: np.ndarray, bins: np.ndarray, fractions: np.ndarray
) -> np.ndarray:
    """``sum_x pmf[x] * tau[x] * weight[x]`` for every threshold policy
    ``(bins, fractions)`` of :func:`threshold_levels`, without expanding any
    of them: the weighted mass above the threshold bin plus the boundary
    share of the threshold bin itself."""
    pw = pmf * weight
    return _top_sums(pw)[len(pw) - 1 - bins] + fractions * pw[bins]


def _threshold_at(pmf: np.ndarray, rate: float) -> tuple[int, float]:
    """The threshold bin and boundary acceptance of :func:`_threshold_levels`
    at the one rate ``rate``, a float already known to lie in [0, 1]. The
    search is the same ``searchsorted`` over ``_top_sums(pmf)``, and the
    boundary is computed in Python floats, the same IEEE double operations
    as the array form's ufuncs, so the pair equals the array form's bit for
    bit."""
    n = len(pmf)
    reach = _top_sums(pmf)
    k = min(int(reach[1:].searchsorted(rate, side="left")), n - 1)
    b = n - 1 - k
    mass = pmf.item(b)
    fraction = (rate - reach.item(k)) / mass if mass > 0 else 0.0
    return b, min(fraction, 1.0)


def _fill_threshold(row: np.ndarray, threshold_bin: int, boundary: float) -> None:
    """Write the randomized threshold ``(threshold_bin, boundary)`` over
    ``row``: every bin above ``threshold_bin`` accepted, ``threshold_bin``
    with probability ``boundary``, none below."""
    row[:threshold_bin] = 0.0
    row[threshold_bin + 1 :] = 1.0
    row[threshold_bin] = boundary


def _keep_thresholds(
    group_ids: tuple[str, ...],
    matrix: np.ndarray,
    rows: Iterable[tuple[int, tuple[int, float]]],
) -> Policy:
    """The policy over ``matrix`` (groups, bins) with each row ``i`` of the
    ``(i, (bin, boundary))`` pairs ``rows`` overwritten by that randomized
    threshold, as ``_fill_threshold`` writes it; every other row must be
    checked already. A written row holds zeros, ones and its boundary, so
    only the first one whose boundary is outside [0, 1] or NaN needs the
    check, which it fails."""
    first = len(matrix)
    for i, (b, boundary) in rows:
        _fill_threshold(matrix[i], b, boundary)
        if not 0.0 <= boundary <= 1.0:
            first = min(first, i)
    return object.__new__(Policy)._keep(group_ids, matrix, slice(first, first + 1))


def _threshold_policy(n: int, thresholds: Mapping[str, tuple[int, float]]) -> Policy:
    """The policy of each group's randomized threshold ``(bin, boundary)``
    over ``n`` bins, as ``_fill_threshold`` writes it."""
    matrix = np.empty((len(thresholds), n))
    return _keep_thresholds(tuple(thresholds), matrix, enumerate(thresholds.values()))


def _with_threshold(
    policy: Policy, group_id: str, threshold: tuple[int, float]
) -> Policy:
    """``policy`` with ``group_id``'s row the randomized threshold ``(bin,
    boundary)``, in a copy of its matrix. The other rows are the policy's
    own, already checked, so only the new row's boundary is."""
    i = policy.group_ids.index(group_id)
    return _keep_thresholds(policy.group_ids, policy._matrix.copy(), [(i, threshold)])


def threshold_policy_for_rate(
    group: GroupState, target_rate: float
) -> RandomizedThresholdPolicy:
    """Randomized threshold whose acceptance rate equals ``target_rate`` exactly.

    Acceptance mass is allocated from the highest score bin downward, so the
    expanded policy is monotone nondecreasing in score. ``target_rate`` is
    read with ``_real`` and must lie in [0, 1]; else ``DomainError``.
    """
    rate = _real(target_rate, "target_rate")
    if not 0.0 <= rate <= 1.0:  # NaN fails too
        raise DomainError(f"target_rate {rate} outside [0,1]")
    threshold = _threshold_at(group.pmf, float(rate))
    return RandomizedThresholdPolicy({group.group_id: GroupThreshold(*threshold)})


def institution_utility(
    policy: Policy,
    pop: Population,
    outcome: "OutcomeModel",
    inst: InstitutionModel,
) -> float:
    """Expected utility per applicant across the whole population."""
    total = 0.0
    for g in pop.groups:
        tau, rho = policy.tau(g.group_id), outcome.rho_for(g.group_id)
        _check_lengths(g.group_id, tau=tau, rho=rho, pmf=g.pmf)
        total += g.proportion * float(g.pmf.dot(tau * inst.per_bin_utility(rho)))
    return total
