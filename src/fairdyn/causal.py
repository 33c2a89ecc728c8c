"""Finite structural models with do-interventions.

Models are Bayesian networks over finite domains: a DAG plus one conditional
probability table per node. Interventions are graph surgery (drop incoming
edges, replace the CPT by a point mass).

Interventional quantities are exact. They come from variable elimination over
ndarray factors, one per CPT, with axes (sorted parents..., node) in domain
order. ``P(outcome | do(target=t))`` for every ``t`` is one contraction of the
truncated factorisation: only the outcome and its ancestors keep their
factors, the target's factor is dropped but its axis kept, and every other
variable is summed out. The elimination keeps the live factors and each
variable's neighbour set in the interaction graph (the variables sharing a
live factor with it); it sums out next the variable whose neighbours span the
fewest joint states, ties broken by node name. ``marginal`` and
``joint_distribution`` are the same contraction keeping one node or every
node. No factor above ``JOINT_STATE_CAP`` entries is ever allocated: a model
that would need one raises ``CapacityError`` before the allocation. A CPT
factor is checked against the cap where a contraction uses it.

A ``CausalModel`` is read-only, so what is derived from it holds for the
object's lifetime: its graph maps on first use, and, in ``validate``, its
checked parent map and every CPT factor, which are kept on the object. The
CPT check and the factors are one pass over the rows: the factors are
read-only views of one float64 array holding every row of the model. A
check that fails keeps nothing and raises again on the next call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Hashable, Mapping, Sequence

import numpy as np

from ._yaml import as_float, checked_text, known_keys, mapping, read_yaml, sequence
from .errors import CapacityError, ConfigError, DomainError, StructureError
from .population import _is_real

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
# node -> sorted parents (or children)
ParentMap = Mapping[str, tuple[str, ...]]


@dataclass(frozen=True)
class CausalModel:
    """A finite Bayesian network with a protected and an outcome node.

    The constructor stores read-only copies: ``domains`` and ``cpts`` are
    ``MappingProxyType`` objects holding tuples (each CPT a read-only mapping
    of row tuples) and ``edges`` is a tuple of pairs, so a dict the caller
    changes later cannot change a model that has been checked. ``validate``
    checks the CPTs and builds their factors, which every contraction reads.
    """

    domains: Mapping[str, tuple[Value, ...]]
    edges: tuple[tuple[str, str], ...]
    cpts: Mapping[str, Cpt]
    protected: str
    outcome: str

    def __post_init__(self):
        freeze = object.__setattr__
        freeze(
            self,
            "domains",
            MappingProxyType({n: tuple(dom) for n, dom in self.domains.items()}),
        )
        freeze(self, "edges", tuple((u, v) for u, v in self.edges))
        freeze(
            self,
            "cpts",
            MappingProxyType(
                {
                    n: MappingProxyType({k: tuple(row) for k, row in cpt.items()})
                    for n, cpt in self.cpts.items()
                }
            ),
        )

    def __reduce__(self):
        # A mappingproxy does not pickle: rebuild from plain dicts through the
        # constructor. The kept structure and factors are derived again.
        return (
            CausalModel,
            (
                dict(self.domains),
                self.edges,
                {n: dict(cpt) for n, cpt in self.cpts.items()},
                self.protected,
                self.outcome,
            ),
        )

    def parents(self, node: str) -> tuple[str, ...]:
        return tuple(sorted(u for u, v in self.edges if v == node))

    @functools.cached_property
    def _maps(self) -> tuple[ParentMap, ParentMap]:
        """Read-only parent and child maps, from ``_graph``."""
        parents, children = _graph(self.domains, self.edges)
        return MappingProxyType(parents), MappingProxyType(children)

    @functools.cached_property
    def _checked(self) -> tuple[ParentMap, Mapping[str, np.ndarray]]:
        """The checked parent map and every node's read-only CPT factor.

        One pass: each node's rows are read in ``itertools.product`` order
        over its sorted parents' domains, and every row of the model
        goes into one float64 array, of which each factor is a view. Nodes
        are laid out by domain size, so the rows of one width form one
        (rows, width) block, whose row sums are its columns added left to
        right, as the last column of a sequential cumsum (not ``np.sum``,
        which pairs terms). That is ``sum(row)`` up to Python 3.11; from
        3.12 ``sum`` compensates, which can decide otherwise only for a sum
        within a few ulps of ``1 +- CPT_TOL``. A failure is reported by
        ``_raise_row_fault``, which walks the rows again in each CPT's own
        order.
        """
        parent_map = self._maps[0]
        for special, name in ((self.protected, "protected"), (self.outcome, "outcome")):
            if special not in self.domains:
                raise StructureError(f"{name} node {special!r} not in model")
        extra = sorted(set(self.cpts) - set(self.domains))
        if extra:
            raise StructureError(f"CPT given for undeclared node(s) {extra}")
        # width -> rows of every node with that many values, node by node
        by_width: dict[int, list[tuple]] = {}
        # node -> (width, its first row in by_width[width], factor shape)
        placed: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        # The first node that fails a check of its own: its message, or, for
        # a row of the wrong length, its name in ``wrong_length``.
        fault = wrong_length = None
        for node, dom in self.domains.items():
            width = len(dom)
            cpt = self.cpts.get(node)
            if width < 1:
                fault = f"node {node!r} has empty domain"
            elif len(set(dom)) != width:
                fault = f"node {node!r} has duplicate domain values"
            elif cpt is None:
                fault = f"node {node!r} has no CPT"
            if fault:
                break
            parents = [self.domains[p] for p in parent_map[node]]
            # As many keys as parent assignments and every assignment a key:
            # then the keys are exactly the assignments, if those are
            # distinct (a parent's domain may repeat a value, which is found
            # when that parent's turn comes). The count is compared first, so
            # no more assignments are built than the CPT has rows.
            rows = None
            if len(cpt) == math.prod(map(len, parents)):
                keys = list(itertools.product(*parents))
                if len(set(keys)) == len(keys):
                    try:
                        rows = list(map(cpt.__getitem__, keys))
                    except KeyError:
                        pass
            if rows is None:
                fault = f"node {node!r}: CPT rows do not match parent assignments"
                break
            if not set(map(len, rows)) <= {width}:
                wrong_length = node
                break
            group = by_width.setdefault(width, [])
            placed[node] = (width, len(group), (*map(len, parents), width))
            group += rows
        widths = sorted(by_width)
        entries = list(
            itertools.chain.from_iterable(
                itertools.chain.from_iterable(by_width[w] for w in widths)
            )
        )
        if not set(map(type, entries)) <= {float, int}:
            # A bool, a string, None or another entry that is no real number;
            # or a real number of another type, such as a numpy scalar.
            self._raise_row_fault(placed)
        values = np.array(entries, dtype=np.float64)
        # A NaN minimum fails the comparison. An entry above 1 + CPT_TOL fails
        # its row's sum, and ruling it out keeps the sums below overflow.
        if values.size and not (
            0.0 <= values.min() and values.max() <= 1.0 + CPT_TOL
        ):
            self._raise_row_fault(placed)
        offsets = {}
        start = 0
        for width in widths:
            offsets[width] = start
            stop = start + width * len(by_width[width])
            block = values[start:stop].reshape(-1, width)
            sums = block[:, 0]
            for j in range(1, width):
                sums = sums + block[:, j]
            error = sums - 1.0
            # no rows when a parent's domain is empty, which that parent fails
            if error.size and not (
                -CPT_TOL <= error.min() and error.max() <= CPT_TOL
            ):
                self._raise_row_fault(placed)
            start = stop
        if wrong_length is not None:
            self._raise_row_fault([wrong_length])
        if fault:
            raise StructureError(fault)
        values.setflags(write=False)
        factors = {}
        for node, (width, first, shape) in placed.items():
            lo = offsets[width] + first * width
            factors[node] = values[lo : lo + math.prod(shape)].reshape(shape)
        return parent_map, MappingProxyType(factors)

    def _raise_row_fault(self, nodes) -> None:
        """Raise ``StructureError`` for the first faulty CPT row of ``nodes``,
        in node order and then in each CPT's own row order."""
        for node in nodes:
            width = len(self.domains[node])
            for key, row in self.cpts[node].items():
                fault = _row_fault(key, row, width)
                if fault:
                    raise StructureError(f"node {node!r}: {fault}")

    def validate(self) -> ParentMap:
        """Raise ``StructureError`` unless the edges form a DAG over the
        declared nodes and every node has a valid CPT; return the read-only
        parent map (node -> sorted parents).

        The check runs once per model and builds every CPT factor; a model
        that failed it fails again on every call."""
        return self._checked[0]


def _row_fault(key: Assignment, row: tuple, width: int) -> str | None:
    """What is wrong with the CPT row ``key`` of a node with ``width`` values,
    or None: the checks of ``CausalModel._checked`` on one row, in the order
    they are reported."""
    if len(row) != width:
        return f"CPT row {key} has wrong length"
    for entry in row:
        if not _is_real(entry):
            return f"CPT row {key} has entry {entry!r}, which is not a real number"
    values = np.asarray(row, dtype=np.float64)
    if not np.isfinite(values).all():
        return f"CPT row {key} has a non-finite entry"
    if (values < 0).any():
        return "negative CPT entry"
    with np.errstate(over="ignore"):
        # + 0.0 as Python's sum, which starts from int 0, turns -0.0 into 0.0
        total = float(np.cumsum(values)[-1]) + 0.0
    if abs(total - 1.0) > CPT_TOL:
        return f"CPT row {key} sums to {total:.12g}"
    return None


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


def _check_size(size: int, what: str, *args) -> None:
    """``CapacityError`` naming ``what.format(*args)`` when ``size`` exceeds
    the cap; the name is formatted only then."""
    if size > JOINT_STATE_CAP:
        raise CapacityError(
            f"{what.format(*args)} of {size} entries exceeds cap of {JOINT_STATE_CAP}"
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
    m: CausalModel, nodes: Sequence[str], keep: tuple[str, ...], drop: str | None = None
) -> np.ndarray:
    """Sum-product of the CPT factors of ``nodes`` over every node not in
    ``keep``.

    ``nodes`` is ``_ancestral_set(parents, keep, drop)``, which the caller
    walks. With ``drop`` (a member of ``keep``) that node's factor is left
    out: the truncated factorisation, so row ``t`` of the ``drop`` axis holds
    the distribution under ``do(drop=t)``. Returns one axis per ``keep``
    entry, in that order. ``m`` must be valid: its parent map and factors are
    the ones ``validate`` built. Each factor's size is checked where it is
    used.
    """
    parents, factor_of = m._checked
    domains = m.domains
    _check_size(math.prod(len(domains[v]) for v in keep), "output factor")
    # The live factors, oldest first, and each node's neighbours in the
    # interaction graph: the nodes sharing a live factor with it, itself
    # included, which are the scope of the factor its elimination forms.
    factors: list[Factor] = []
    near = {node: {node} for node in nodes}
    for node in nodes:
        if node == drop:
            continue
        values = factor_of[node]
        _check_size(values.size, "CPT of {!r}", node)
        scope = (*parents[node], node)
        factors.append((scope, values))
        for v in scope:
            near[v].update(scope)
    cost = {
        v: math.prod(len(domains[u]) for u in near[v]) for v in nodes if v not in keep
    }
    while cost:
        v = min(zip(cost.values(), cost))[1]
        _check_size(cost.pop(v), "factor joined to eliminate {!r}", v)
        joined = near.pop(v)
        joined.discard(v)
        out = tuple(sorted(joined))
        holding = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        factors.append((out, _einsum(holding, out)))
        # Only the factors holding ``v`` were replaced, by one over ``out``:
        # no node outside it gains or loses a neighbour.
        for u in out:
            near[u] |= joined
            near[u].discard(v)
            if u in cost:
                cost[u] = math.prod(len(domains[w]) for w in near[u])
    return _einsum(factors, keep)


def joint_distribution(m: CausalModel) -> dict[Assignment, float]:
    """Exact joint pmf over full assignments, keys in sorted node order."""
    m.validate()
    nodes = tuple(sorted(m.domains))
    joint = _contract(m, nodes, nodes)
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
    dist = _contract(m, _ancestral_set(parents, (node,)), (node,))
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
    # ``target`` is in this walk exactly when it is an ancestor of the
    # outcome, and then the walk is the truncated factorisation's node set.
    nodes = _ancestral_set(parents, (m.outcome,), cut=target)
    if target not in nodes:
        return 0.0
    f = _contract(m, nodes, (target, m.outcome), drop=target)
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
    parents, children = m._maps
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
    children = m._maps[1]
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


def _name(value, path: str) -> str:
    """A node name of a causal model file, read as ``checked_text`` reads it."""
    return checked_text(value, path, "node name")


def _edge(value, path: str) -> tuple[str, str]:
    """An ``edges`` entry of a causal model file, a list of two node names,
    as a pair; anything else raises ``ConfigError`` naming ``path``."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: edge {value!r} must be a list of two node names")
    return _name(value[0], path), _name(value[1], path)


def _probability(value, path: str) -> float:
    """A CPT entry of a causal model file as a float: a number or a numeric
    string; anything else raises ``ConfigError`` naming ``path``."""
    value = as_float(value)
    if not isinstance(value, float):
        raise ConfigError(f"{path}: entry {value!r} must be a number")
    return value


def load_causal_model(path) -> CausalModel:
    """Read a model from a YAML file.

    Schema: ``nodes`` maps node name to domain list; ``edges`` is a list of
    [parent, child] pairs; ``protected`` and ``outcome`` name nodes; ``cpts``
    maps node name to rows keyed by a parent assignment string such as
    ``"A=0,B=1"`` (parents in sorted name order; ``""`` for root nodes), with
    probabilities given as numbers or decimal strings. A node name or a
    domain value is a string or a number, read as its text; a bool, null,
    list or mapping there, or where a probability belongs, is a
    ``ConfigError`` naming ``nodes``, ``edges[i]``, ``protected``,
    ``outcome``, ``cpts``, ``nodes.A`` or ``cpts.A."<key>"``. A domain or a
    CPT row that is not a list (a string is not read letter by letter) is
    one naming ``nodes.A`` or ``cpts.A."<key>"``, and a missing ``nodes``,
    ``protected``, ``outcome`` or ``cpts`` is ``ConfigError("causal model
    file F: missing field protected")``; ``edges`` may be left out.
    """
    raw = read_yaml(Path(path), path, "causal model file")
    keys = ("nodes", "edges", "protected", "outcome", "cpts")
    where = f"causal model file {path}"
    known_keys(raw, where, keys)
    for key in ("nodes", "protected", "outcome", "cpts"):
        if key not in raw:
            raise ConfigError(f"{where}: missing field {key}")
    try:
        domains = {
            _name(k, f"{where}: nodes"): tuple(
                checked_text(v, f"{where}: nodes.{k}", "domain value")
                for v in sequence(vs, f"{where}: nodes.{k}")
            )
            for k, vs in mapping(raw["nodes"], f"{where}: nodes").items()
        }
        edges = tuple(
            _edge(edge, f"{where}: edges[{i}]")
            for i, edge in enumerate(sequence(raw.get("edges", []), f"{where}: edges"))
        )
        protected = _name(raw["protected"], f"{where}: protected")
        outcome = _name(raw["outcome"], f"{where}: outcome")
        parent_map, _ = _graph(domains, edges)
        cpts = {}
        for node, rows in mapping(raw["cpts"], f"{where}: cpts").items():
            node = _name(node, f"{where}: cpts")
            parents = parent_map.get(node, ())
            table = {}
            for key, row in mapping(rows, f"{where}: cpts.{node}").items():
                key = "" if key is None else str(key)
                at = f'{where}: cpts.{node}."{key}"'
                if key == "":
                    pk: Assignment = ()
                else:
                    items = [item.split("=", 1) for item in key.split(",")]
                    for item in items:
                        if len(item) != 2:
                            raise ConfigError(
                                f"{at}: row key item {item[0]!r} must be parent=value"
                            )
                    parts = dict(items)
                    if len(parts) != len(items):
                        raise ConfigError(
                            f"{where}: cpts.{node}: row key {key!r} names a "
                            "parent twice"
                        )
                    if set(parts) != set(parents):
                        raise ConfigError(
                            f"{where}: cpts.{node}: row key {key!r} does not name "
                            f"parents {sorted(parents)}"
                        )
                    pk = tuple(parts[p] for p in parents)
                if pk in table:
                    raise ConfigError(
                        f"{where}: cpts.{node}: row key {key!r} repeats the "
                        "parent assignment of an earlier row"
                    )
                table[pk] = tuple(_probability(x, at) for x in sequence(row, at))
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
