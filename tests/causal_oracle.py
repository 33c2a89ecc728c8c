"""Reference causal engine: a row-by-row CPT check, exact enumeration of
the joint distribution and the elimination order.

``check_cpts`` walks every CPT row in Python, and every full assignment is
visited in Python, so the cost is the product of all domain sizes. The
library's one-pass CPT check and its variable-elimination engine are checked
against these functions on small random models. ``elimination_calls`` and
``interventional_calls`` give the ``np.einsum`` calls the engine is meant to
make, with every factor's scope recomputed at each step.
"""

import itertools
import math
import operator

from fairdyn.causal import CPT_TOL, InterventionSpec, intervene
from fairdyn.errors import StructureError


def check_cpts(m):
    """Raise ``StructureError`` for the first fault of ``m``'s nodes and
    CPTs: the first failing node in ``domains`` order, then the first failing
    row in that CPT's order. Each key is checked against the parents'
    domains and each row is read four times (length, finiteness, sign,
    ``sum``). ``sum`` adds left to right up to Python 3.11, as the library
    does; from 3.12 it compensates, which can change a decision only for a
    sum within a few ulps of ``1 +- CPT_TOL``."""
    for special, name in ((m.protected, "protected"), (m.outcome, "outcome")):
        if special not in m.domains:
            raise StructureError(f"{name} node {special!r} not in model")
    extra = sorted(set(m.cpts) - set(m.domains))
    if extra:
        raise StructureError(f"CPT given for undeclared node(s) {extra}")
    for node, dom in m.domains.items():
        if len(dom) < 1:
            raise StructureError(f"node {node!r} has empty domain")
        if len(set(dom)) != len(dom):
            raise StructureError(f"node {node!r} has duplicate domain values")
        cpt = m.cpts.get(node)
        if cpt is None:
            raise StructureError(f"node {node!r} has no CPT")
        parents = [m.domains[p] for p in m.parents(node)]
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
                raise StructureError(f"node {node!r}: CPT row {key} has wrong length")
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


def joint(m):
    """Joint pmf over full assignments, keys in sorted node order."""
    m.validate()
    nodes = sorted(m.domains)
    parent_lists = {node: m.parents(node) for node in nodes}
    dom_index = {
        node: {v: i for i, v in enumerate(m.domains[node])} for node in nodes
    }
    pos = {node: i for i, node in enumerate(nodes)}
    out = {}
    for assignment in itertools.product(*(m.domains[n] for n in nodes)):
        p = 1.0
        for node in nodes:
            key = tuple(assignment[pos[par]] for par in parent_lists[node])
            row = m.cpts[node][key]
            p *= row[dom_index[node][assignment[pos[node]]]]
            if p == 0.0:
                break
        out[assignment] = p
    return out


def marginal(m, node):
    idx = sorted(m.domains).index(node)
    out = {v: 0.0 for v in m.domains[node]}
    for assignment, p in joint(m).items():
        out[assignment[idx]] += p
    return out


def interventional_gap(m, target):
    """Total variation between the outcome marginals of the two mutilated
    models ``do(target=dom[0])`` and ``do(target=dom[1])``."""
    dom = m.domains[target]
    assert len(dom) == 2
    f0 = marginal(intervene(m, InterventionSpec(target, dom[0])), m.outcome)
    f1 = marginal(intervene(m, InterventionSpec(target, dom[1])), m.outcome)
    return 0.5 * sum(abs(f0[v] - f1[v]) for v in m.domains[m.outcome])


def ancestors(m, nodes, cut=None):
    """``nodes`` and their ancestors, sorted, by ``m.parents``; the walk does
    not go above ``cut``."""
    seen = set(nodes)
    frontier = [v for v in nodes if v != cut]
    while frontier:
        parents = set(m.parents(frontier.pop())) - seen
        seen |= parents
        frontier += [p for p in parents if p != cut]
    return sorted(seen)


def elimination_calls(m, keep, drop=None):
    """The einsum calls that sum every node outside ``keep`` out of the CPT
    factors of ``keep`` and its ancestors, ``drop``'s own factor left out,
    as (operand scopes, output scope) pairs; the last call forms the result.

    The factors start in sorted node order, each with scope (sorted
    parents..., node). Each step recomputes, for every node left to
    eliminate, the scope of the product of the live factors that hold it,
    and eliminates the node whose product has the fewest entries, ties
    broken by name. Its factors, in list order, become one factor over that
    scope less the node, sorted, appended to the list."""
    nodes = ancestors(m, keep, drop)
    live = [(*m.parents(v), v) for v in nodes if v != drop]
    left = [v for v in nodes if v not in keep]
    calls = []

    def joined(v):
        return {u for scope in live if v in scope for u in scope}

    def cost(v):
        return math.prod(len(m.domains[u]) for u in joined(v)), v

    while left:
        v = min(left, key=cost)
        left.remove(v)
        out = tuple(sorted(joined(v) - {v}))
        calls.append(([scope for scope in live if v in scope], out))
        live = [scope for scope in live if v not in scope] + [out]
    calls.append((live, tuple(keep)))
    return calls


def interventional_calls(m, target):
    """The einsum calls of the interventional gap on ``target``: none when
    the target is the outcome or no ancestor of it."""
    if target == m.outcome or target not in ancestors(m, [m.outcome], cut=target):
        return []
    return elimination_calls(m, (target, m.outcome), drop=target)
