"""Finite structural models with do-interventions.

Models are Bayesian networks over finite domains: a DAG plus one conditional
probability table per node. Interventions are graph surgery (drop incoming
edges, replace the CPT by a point mass).

Interventional quantities are exact. They come from variable elimination over
ndarray factors, one per CPT, with axes (sorted parents..., node) in domain
order. ``P(outcome | do(target=t))`` for every ``t`` is one contraction of the
truncated factorisation: only the outcome and its ancestors keep their
factors, the target's factor is dropped but its axis kept, and every other
variable is summed out, the one whose intermediate factor is smallest first
(ties broken by node name). ``marginal`` and ``joint_distribution`` are the
same contraction keeping one node or every node. No factor above
``JOINT_STATE_CAP`` entries is ever allocated: a model that would need one
raises ``CapacityError`` before the allocation.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from ._yaml import load_yaml
from .errors import CapacityError, ConfigError, DomainError, StructureError

JOINT_STATE_CAP = 10**6
CPT_TOL = 1e-9
# np.einsum accepts at most 52 distinct axis labels per call, and NumPy 1.x at
# most 32 operands.
_EINSUM_LABELS = 52
_EINSUM_OPERANDS = 32

Value = Hashable
Assignment = tuple[Value, ...]
# CPT: parent assignment (values in sorted-parent-name order) -> distribution
# over the node's domain, in domain order.
Cpt = Mapping[Assignment, tuple[float, ...]]
# A factor's scope (node names, one per axis) and its values.
Factor = tuple[tuple[str, ...], np.ndarray]


@dataclass(frozen=True)
class CausalModel:
    domains: Mapping[str, tuple[Value, ...]]
    edges: tuple[tuple[str, str], ...]
    cpts: Mapping[str, Cpt]
    protected: str
    outcome: str

    def parents(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(u for u, v in self.edges if v == node))

    def validate(self) -> dict[str, tuple[str, ...]]:
        """Raise ``StructureError`` unless the edges form a DAG over the
        declared nodes and every node has a valid CPT; return the parent map
        (node -> sorted parents)."""
        parent_map, _ = _graph(self.domains, self.edges)
        for special, name in ((self.protected, "protected"), (self.outcome, "outcome")):
            if special not in self.domains:
                raise StructureError(f"{name} node {special!r} not in model")
        extra = sorted(set(self.cpts) - set(self.domains))
        if extra:
            raise StructureError(f"CPT given for undeclared node(s) {extra}")
        for node, dom in self.domains.items():
            if len(dom) < 1:
                raise StructureError(f"node {node!r} has empty domain")
            if len(set(dom)) != len(dom):
                raise StructureError(f"node {node!r} has duplicate domain values")
            cpt = self.cpts.get(node)
            if cpt is None:
                raise StructureError(f"node {node!r} has no CPT")
            # Distinct keys, each a parent assignment, as many as there are
            # assignments: then the keys are exactly the assignments.
            parents = [self.domains[p] for p in parent_map[node]]
            if len(cpt) != math.prod(map(len, parents)) or not all(
                type(key) is tuple
                and len(key) == len(parents)
                and all(map(operator.contains, parents, key))
                for key in cpt
            ):
                raise StructureError(
                    f"node {node!r}: CPT rows do not match parent assignments"
                )
            for key, row in cpt.items():
                if len(row) != len(dom):
                    raise StructureError(
                        f"node {node!r}: CPT row {key} has wrong length"
                    )
                if not all(map(math.isfinite, row)):
                    raise StructureError(
                        f"node {node!r}: CPT row {key} has a non-finite entry"
                    )
                if min(row) < 0:
                    raise StructureError(f"node {node!r}: negative CPT entry")
                if abs(sum(row) - 1.0) > CPT_TOL:
                    raise StructureError(
                        f"node {node!r}: CPT row {key} sums to {sum(row):.12g}"
                    )
        return parent_map


@dataclass(frozen=True)
class InterventionSpec:
    target: str
    value: Value


def _graph(
    domains: Mapping[str, tuple[Value, ...]], edges: Sequence[tuple[str, str]]
) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
    """Parent and child maps (node -> sorted tuple) of the graph ``edges``
    draws over the ``domains`` nodes.

    Raises ``StructureError`` if an edge names an unknown node, an edge is
    repeated, or the edges form a directed cycle (a self-loop included).
    """
    parents: dict[str, list[str]] = {node: [] for node in domains}
    children: dict[str, list[str]] = {node: [] for node in domains}
    seen = set()
    for u, v in edges:
        if u not in domains or v not in domains:
            raise StructureError(f"edge ({u!r}, {v!r}) references unknown node")
        if (u, v) in seen:
            raise StructureError(f"edge ({u!r}, {v!r}) is repeated")
        seen.add((u, v))
        parents[v].append(u)
        children[u].append(v)
    # Kahn: remove parentless nodes one by one; a cycle keeps its nodes'
    # in-degrees above zero, so some node is never removed.
    indegree = {node: len(ps) for node, ps in parents.items()}
    ready = [node for node, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        removed += 1
        for c in children[ready.pop()]:
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.append(c)
    if removed != len(indegree):
        raise StructureError("edge set contains a directed cycle")
    return (
        {node: tuple(sorted(ps)) for node, ps in parents.items()},
        {node: tuple(sorted(cs)) for node, cs in children.items()},
    )


def _ancestral_set(
    parents: Mapping[str, tuple[str, ...]], nodes: Sequence[str], cut: str | None = None
) -> list[str]:
    """``nodes`` and their ancestors, sorted; no walk above ``cut``."""
    seen = set(nodes)
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node == cut:
            continue
        for p in parents[node]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return sorted(seen)


def _check_size(size: int, what: str) -> None:
    if size > JOINT_STATE_CAP:
        raise CapacityError(
            f"{what} of {size} entries exceeds cap of {JOINT_STATE_CAP}"
        )


def _einsum(factors: Sequence[Factor], out: Sequence[str]) -> np.ndarray:
    """Product of ``factors``, summed over every axis not in ``out``.

    Axis labels are assigned afresh for each call, so only the variables of
    this one product count against einsum's label limit.
    """
    labels: dict[str, int] = {}
    args = []
    for scope, values in factors:
        args += [values, [labels.setdefault(v, len(labels)) for v in scope]]
    if len(labels) > _EINSUM_LABELS or len(factors) > _EINSUM_OPERANDS:
        raise CapacityError(
            f"one elimination step joins {len(factors)} factors over "
            f"{len(labels)} variables, more than einsum takes in one call"
        )
    return np.einsum(*args, [labels[v] for v in out])


def _contract(
    m: CausalModel,
    parents: Mapping[str, tuple[str, ...]],
    keep: tuple[str, ...],
    drop: str | None = None,
) -> np.ndarray:
    """Sum-product of the model's CPT factors over every node not in ``keep``.

    Only ``keep`` and its ancestors take part. With ``drop`` (a member of
    ``keep``) that node's factor is left out and its parents are not walked:
    the truncated factorisation, so row ``t`` of the ``drop`` axis holds the
    distribution under ``do(drop=t)``. Returns one axis per ``keep`` entry,
    in that order. ``m`` must be valid.
    """
    sizes = {node: len(dom) for node, dom in m.domains.items()}
    _check_size(math.prod(sizes[v] for v in keep), "output factor")
    factors: dict[int, Factor] = {}
    # node -> ids of the live factors whose scope holds it, in id order
    incidence: dict[str, dict[int, None]] = {}
    for node in _ancestral_set(parents, keep, drop):
        incidence[node] = {}
        if node == drop:
            continue
        scope = (*parents[node], node)
        _check_size(math.prod(sizes[v] for v in scope), f"CPT of {node!r}")
        rows = [
            m.cpts[node][key]
            for key in itertools.product(*(m.domains[p] for p in parents[node]))
        ]
        factors[len(factors)] = (
            scope,
            np.array(rows, dtype=np.float64).reshape([sizes[v] for v in scope]),
        )
    for fid, (scope, _) in factors.items():
        for v in scope:
            incidence[v][fid] = None

    def joined_scope(v: str) -> list[str]:
        return sorted({u for fid in incidence[v] for u in factors[fid][0]})

    # size of the product factor formed when each eliminable node goes next
    cost = {
        v: math.prod(sizes[u] for u in joined_scope(v))
        for v in incidence
        if v not in keep
    }
    next_id = len(factors)
    while cost:
        v = min(cost, key=lambda u: (cost[u], u))
        _check_size(cost.pop(v), f"factor joined to eliminate {v!r}")
        scope = joined_scope(v)
        out = tuple(u for u in scope if u != v)
        fids = list(incidence.pop(v))
        new = _einsum([factors.pop(fid) for fid in fids], out)
        factors[next_id] = (out, new)
        for u in out:
            for fid in fids:
                incidence[u].pop(fid, None)
            incidence[u][next_id] = None
        next_id += 1
        for u in out:
            if u in cost:
                cost[u] = math.prod(sizes[w] for w in joined_scope(u))
    return _einsum(list(factors.values()), keep)


def joint_distribution(m: CausalModel) -> dict[Assignment, float]:
    """Exact joint pmf over full assignments, keys in sorted node order."""
    parents = m.validate()
    nodes = tuple(sorted(m.domains))
    joint = _contract(m, parents, nodes)
    return dict(
        zip(itertools.product(*(m.domains[n] for n in nodes)), joint.ravel().tolist())
    )


def intervene(m: CausalModel, spec: InterventionSpec) -> CausalModel:
    """Graph surgery: cut incoming edges and pin the target to a constant."""
    if spec.target not in m.domains:
        raise DomainError(f"unknown node {spec.target!r}")
    dom = m.domains[spec.target]
    if spec.value not in dom:
        raise DomainError(
            f"value {spec.value!r} not in domain of {spec.target!r}"
        )
    edges = tuple((u, v) for u, v in m.edges if v != spec.target)
    point = tuple(1.0 if v == spec.value else 0.0 for v in dom)
    cpts = dict(m.cpts)
    cpts[spec.target] = {(): point}
    return CausalModel(m.domains, edges, cpts, m.protected, m.outcome)


def marginal(m: CausalModel, node: str) -> dict[Value, float]:
    parents = m.validate()
    if node not in m.domains:
        raise DomainError(f"unknown node {node!r}")
    dist = _contract(m, parents, (node,))
    return dict(zip(m.domains[node], dist.tolist()))


def _interventional_gap(m: CausalModel, target: str) -> float:
    """Total variation between the outcome distributions under the two
    interventions on a binary ``target``."""
    parents = m.validate()
    dom = m.domains[target]
    if len(dom) != 2:
        raise DomainError(
            f"node {target!r} must be binary, has domain of size {len(dom)}"
        )
    if target == m.outcome:
        return 1.0
    if target not in _ancestral_set(parents, (m.outcome,)):
        return 0.0
    f = _contract(m, parents, (target, m.outcome), drop=target)
    return float(0.5 * np.abs(f[0] - f[1]).sum())


def counterfactual_fairness_gap(m: CausalModel) -> float:
    """Total variation between the outcome marginals under the two
    interventions on the protected attribute."""
    return _interventional_gap(m, m.protected)


def proxy_discrimination_gap(m: CausalModel, proxy: str) -> float:
    """Same interventional contrast, applied to a proxy variable."""
    if proxy not in m.domains:
        raise DomainError(f"unknown node {proxy!r}")
    return _interventional_gap(m, proxy)


def d_separated(
    m: CausalModel, sources: set[str], targets: set[str], given: set[str]
) -> bool:
    """Standard d-separation via reachability with collider opening rules."""
    for name, s in (("sources", sources), ("targets", targets), ("given", given)):
        for node in s:
            if node not in m.domains:
                raise DomainError(f"unknown node {node!r} in {name}")
    if sources & targets or sources & given or targets & given:
        raise DomainError("sources, targets and given must be disjoint")
    parents, children = _graph(m.domains, m.edges)
    # Bayes-ball: states are (node, direction), direction is the edge
    # orientation by which the node was entered ('up' = from a child). Only a
    # given collider opens: a ball passed down to a given descendant of a
    # collider bounces back up the same path.
    frontier = [(s, "up") for s in sources]
    visited = set()
    while frontier:
        node, direction = frontier.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in given and node in targets:
            return False
        if direction == "up" and node not in given:
            for parent in parents[node]:
                frontier.append((parent, "up"))
            for child in children[node]:
                frontier.append((child, "down"))
        elif direction == "down":
            if node not in given:
                for child in children[node]:
                    frontier.append((child, "down"))
            if node in given:
                for parent in parents[node]:
                    frontier.append((parent, "up"))
    return True


def unresolved_discrimination(m: CausalModel, resolving: set[str]) -> bool:
    """True iff some directed path from the protected node to the outcome
    avoids the resolving set entirely (endpoints excepted)."""
    for node in resolving:
        if node not in m.domains:
            raise StructureError(f"unknown resolving node {node!r}")
    if m.protected not in m.domains or m.outcome not in m.domains:
        raise StructureError("protected or outcome node missing")
    _, children = _graph(m.domains, m.edges)
    blocked = resolving - {m.protected, m.outcome}
    stack = [m.protected]
    seen = set()
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node == m.outcome:
            return True
        if node != m.protected and node in blocked:
            continue
        stack.extend(children[node])
    return False


def load_causal_model(path) -> CausalModel:
    """Read a model from a YAML file.

    Schema: ``nodes`` maps node name to domain list; ``edges`` is a list of
    [parent, child] pairs; ``protected`` and ``outcome`` name nodes; ``cpts``
    maps node name to rows keyed by a parent assignment string such as
    ``"A=0,B=1"`` (parents in sorted name order; ``""`` for root nodes), with
    probabilities given as decimal strings.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = load_yaml(fh, path)
    try:
        domains = {
            str(k): tuple(str(v) for v in vs) for k, vs in raw["nodes"].items()
        }
        edges = tuple((str(u), str(v)) for u, v in raw.get("edges", []))
        protected = str(raw["protected"])
        outcome = str(raw["outcome"])
        parent_map, _ = _graph(domains, edges)
        cpts = {}
        for node, rows in raw["cpts"].items():
            node = str(node)
            parents = parent_map.get(node, ())
            table = {}
            for key, row in rows.items():
                key = "" if key is None else str(key)
                if key == "":
                    pk: Assignment = ()
                else:
                    items = [item.split("=", 1) for item in key.split(",")]
                    parts = dict(items)
                    if len(parts) != len(items):
                        raise ConfigError(
                            f"cpts.{node}: row key {key!r} names a parent twice"
                        )
                    if set(parts) != set(parents):
                        raise ConfigError(
                            f"cpts.{node}: row key {key!r} does not name "
                            f"parents {sorted(parents)}"
                        )
                    pk = tuple(parts[p] for p in parents)
                if pk in table:
                    raise ConfigError(
                        f"cpts.{node}: row key {key!r} repeats the parent "
                        "assignment of an earlier row"
                    )
                table[pk] = tuple(float(x) for x in row)
            cpts[node] = table
        model = CausalModel(domains, edges, cpts, protected, outcome)
        model.validate()
    except ConfigError:
        raise
    except StructureError as exc:
        raise ConfigError(f"invalid causal model in {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed causal model file {path}: {exc}") from exc
    return model
