"""Finite discrete score distributions per demographic group.

A population is a uniform grid of score bins together with one probability
mass function per group and the group proportions. Score vectors are
read-only float64 arrays; validation tolerances are fixed at 1e-9.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError

PROB_TOL = 1e-9


def _vector(values: Sequence[float]) -> np.ndarray:
    """A read-only float64 1-D copy of ``values``."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _real_vector(values: Sequence[float], name: str) -> np.ndarray:
    """``_vector(values)`` once no entry is a bool; entry ``i`` that is one
    raises ``DomainError`` naming it ``name[i]``."""
    vector = _vector(values)
    if not isinstance(values, np.ndarray) or values.dtype.kind in "bO":
        for i, value in enumerate(values):
            if isinstance(value, (bool, np.bool_)):
                raise DomainError(f"{name}[{i}] must be a real number, got {value!r}")
    return vector


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer or an integral float such as 20.0; a
    bool, a string, a fraction, NaN and inf are not."""
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, float) and value.is_integer())
    )


def _integer(value, name: str, error: type[Exception] = DomainError) -> int:
    """``value`` as an int if ``_is_integer``, else ``error`` naming it."""
    if not _is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number and not a bool; NaN and inf are
    real numbers."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _real(value, name: str, error: type[Exception] = DomainError):
    """``value`` if ``_is_real``, else ``error`` naming it."""
    if not _is_real(value):
        raise error(f"{name} must be a real number, got {value!r}")
    return value


def _check_lengths(group_id: str, **vectors: np.ndarray) -> None:
    if len({len(v) for v in vectors.values()}) > 1:
        sizes = " ".join(f"{name}={len(v)}" for name, v in vectors.items())
        raise DimensionError(f"group {group_id!r}: inconsistent lengths {sizes}")


@dataclass(frozen=True, eq=False)
class ScoreGrid:
    """Ascending, uniformly spaced score bins.

    Uniform spacing is required so that score updates can be expressed as
    integer bin moves.
    """

    bin_scores: np.ndarray
    bin_width: float

    def __post_init__(self):
        scores = _real_vector(self.bin_scores, "bin_scores")
        object.__setattr__(self, "bin_scores", scores)

    def __len__(self) -> int:
        return len(self.bin_scores)

    def __reduce__(self):
        # Through the constructor, so a loaded grid's scores are read-only.
        return (ScoreGrid, (self.bin_scores, self.bin_width))

    def violations(self) -> list[str]:
        out = []
        if len(self.bin_scores) < 2:
            out.append(f"grid has {len(self.bin_scores)} bins, need at least 2")
            return out
        if not _is_real(self.bin_width):
            out.append(f"bin_width must be a real number, got {self.bin_width!r}")
            return out
        if not (np.isfinite(self.bin_width) and self.bin_width > 0):
            out.append(f"bin_width {self.bin_width} is not positive and finite")
        if not np.all(np.isfinite(self.bin_scores)):
            out.append("bin scores are not all finite")
            return out
        diffs = np.diff(self.bin_scores)
        if np.any(diffs <= 0):
            out.append("bin scores are not strictly ascending")
        bad = np.abs(diffs - self.bin_width)
        if np.any(bad > PROB_TOL):
            out.append(
                f"bin spacing deviates from bin_width by up to {bad.max():.3g}"
            )
        return out


@dataclass(frozen=True, eq=False)
class GroupState:
    """One demographic group: its label, population share and score pmf."""

    group_id: str
    proportion: float
    pmf: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pmf", _real_vector(self.pmf, "pmf"))

    def __reduce__(self):
        # Through the constructor, so a loaded group's pmf is read-only.
        return (GroupState, (self.group_id, self.proportion, self.pmf))

    @classmethod
    def _of_row(cls, group_id: str, proportion: float, pmf: np.ndarray) -> "GroupState":
        """A group over ``pmf`` as it is, without the constructor's copy.

        For a read-only float64 vector that nobody writes again, such as a
        row of the state array of a simulated run or another group's pmf.
        """
        g = object.__new__(cls)
        g.__dict__.update(group_id=group_id, proportion=proportion, pmf=pmf)
        return g

    def with_pmf(self, pmf: Sequence[float]) -> "GroupState":
        return GroupState(self.group_id, self.proportion, pmf)

    def with_proportion(self, proportion: float) -> "GroupState":
        """The group with another proportion, over this group's pmf array."""
        return GroupState._of_row(self.group_id, float(proportion), self.pmf)


@dataclass(frozen=True)
class Population:
    """A score grid plus one ``GroupState`` per demographic group."""

    grid: ScoreGrid
    groups: tuple[GroupState, ...]

    def group(self, group_id: str) -> GroupState:
        for g in self.groups:
            if g.group_id == group_id:
                return g
        raise KeyError(f"unknown group label {group_id!r}")

    @property
    def group_ids(self) -> tuple[str, ...]:
        return tuple(g.group_id for g in self.groups)

    def with_groups(self, groups: Sequence[GroupState]) -> "Population":
        return Population(self.grid, tuple(groups))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_population(p: Population) -> ValidationReport:
    """Check every probabilistic invariant of a population.

    Diagnostic only: returns the full list of violations (with group labels
    and numeric slack) instead of raising.
    """
    return ValidationReport(_violations(p))


def _violations(p: Population) -> tuple[str, ...]:
    """Every violation ``validate_population`` reports for ``p``, in order.

    Constructors check with this, not with the public name, so that the
    benchmark's tracer, which wraps every public function, records no span
    while a config is built."""
    out = list(p.grid.violations())
    n = len(p.grid.bin_scores)
    if len(p.groups) < 1:
        out.append("population has no groups")
    labels = [g.group_id for g in p.groups]
    if len(set(labels)) != len(labels):
        out.append(f"group labels are not distinct: {labels}")
    for g in p.groups:
        pmf = g.pmf
        if len(pmf) != n:
            out.append(
                f"group {g.group_id!r}: pmf length {len(pmf)} != grid length {n}"
            )
            continue
        if np.any(pmf < 0):
            out.append(
                f"group {g.group_id!r}: negative pmf entry {pmf.min():.3g}"
            )
        s = float(pmf.sum())
        # Any NaN or infinite entry makes the sum non-finite.
        if not math.isfinite(s):
            out.append(f"group {g.group_id!r}: pmf has a non-finite entry")
        elif abs(s - 1.0) > PROB_TOL:
            out.append(f"group {g.group_id!r}: pmf sum {s:.12g} != 1")
        if not _is_real(g.proportion):
            out.append(
                f"group {g.group_id!r}: proportion must be a real number, "
                f"got {g.proportion!r}"
            )
        elif not 0.0 <= g.proportion <= 1.0:
            out.append(
                f"group {g.group_id!r}: proportion {g.proportion} outside [0,1]"
            )
    # The sum of proportions that are not all real numbers is not checked.
    if p.groups and all(_is_real(g.proportion) for g in p.groups):
        total = sum(g.proportion for g in p.groups)
        if abs(total - 1.0) > PROB_TOL:
            out.append(f"proportions sum {total:.12g} != 1")
    return tuple(out)


def _proportions_valid(proportions: Sequence[float]) -> bool:
    """Whether ``validate_population`` accepts these group proportions: each
    in [0, 1] (NaN is not) and their sum within ``PROB_TOL`` of 1."""
    return all(0.0 <= p <= 1.0 for p in proportions) and (
        abs(sum(proportions) - 1.0) <= PROB_TOL
    )


def _pmfs_valid(pmfs: np.ndarray) -> bool:
    """Whether ``validate_population`` accepts every row of ``pmfs`` (k >= 1,
    n) as the pmf of a group on an already accepted grid of ``n`` bins.

    The row sums are the same pairwise sums ``pmf.sum()`` takes, so the
    tolerance decides exactly as there. A NaN entry makes the minimum NaN,
    which fails the first test, where the other check rejects it by its sum.
    The reductions are the ufuncs that ``min()`` and ``sum()`` call.
    """
    if not np.minimum.reduce(pmfs, axis=None) >= 0:
        return False
    sums = np.add.reduce(pmfs, axis=1).tolist()
    return all(abs(s - 1.0) <= PROB_TOL for s in sums)


def group_mean(g: GroupState, grid: ScoreGrid) -> float:
    """Mean score of a group, sum over bins of pmf(x) * x."""
    _check_lengths(g.group_id, pmf=g.pmf, grid=grid.bin_scores)
    return float(g.pmf @ grid.bin_scores)
