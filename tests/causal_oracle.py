"""Reference causal engine: exact enumeration of the joint distribution.

Every full assignment is visited in Python, so the cost is the product of all
domain sizes. The library's variable-elimination engine is checked against
these functions on small random models.
"""

import itertools

from fairdyn.causal import InterventionSpec, intervene


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
