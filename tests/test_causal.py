import itertools
import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import causal_oracle as oracle
from fairdyn.causal import (
    JOINT_STATE_CAP,
    CausalModel,
    InterventionSpec,
    counterfactual_fairness_gap,
    d_separated,
    intervene,
    joint_distribution,
    load_causal_model,
    marginal,
    proxy_discrimination_gap,
    unresolved_discrimination,
)
from fairdyn.errors import CapacityError, ConfigError, DomainError, StructureError


def binary_model(edges, cpts, protected="A", outcome="F"):
    nodes = set(protected) | {outcome} | {n for e in edges for n in e} | set(cpts)
    return CausalModel(
        domains={n: (0, 1) for n in nodes},
        edges=tuple(edges),
        cpts=cpts,
        protected=protected,
        outcome=outcome,
    )


def root(p1):
    """CPT for a parentless binary node with P(node=1) = p1."""
    return {(): (1.0 - p1, p1)}


def child(p1_given):
    """CPT keyed by parent values; p1_given maps parent tuple -> P(node=1)."""
    return {k: (1.0 - p, p) for k, p in p1_given.items()}


class TestJointDistribution:
    def test_single_node(self):
        m = binary_model([], {"A": root(0.7), "F": root(0.5)})
        m = CausalModel({"A": (0, 1)}, (), {"A": root(0.7)}, "A", "A")
        joint = joint_distribution(m)
        assert joint[(0,)] == pytest.approx(0.3)
        assert joint[(1,)] == pytest.approx(0.7)

    def test_two_fair_coins(self):
        m = binary_model([], {"A": root(0.5), "F": root(0.5)})
        joint = joint_distribution(m)
        assert all(p == pytest.approx(0.25) for p in joint.values())
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)

    def test_chain_product_rule(self):
        m = CausalModel(
            domains={"A": (0, 1), "X": (0, 1)},
            edges=(("A", "X"),),
            cpts={"A": root(0.3), "X": child({(0,): 0.2, (1,): 0.9})},
            protected="A",
            outcome="X",
        )
        joint = joint_distribution(m)
        # hand multiplication
        assert joint[(0, 0)] == pytest.approx(0.7 * 0.8)
        assert joint[(0, 1)] == pytest.approx(0.7 * 0.2)
        assert joint[(1, 1)] == pytest.approx(0.3 * 0.9)

    def test_state_space_cap(self):
        n = 21  # 2^21 > 10^6
        names = [f"N{i}" for i in range(n)]
        m = CausalModel(
            domains={name: (0, 1) for name in names},
            edges=(),
            cpts={name: root(0.5) for name in names},
            protected="N0",
            outcome="N1",
        )
        with pytest.raises(CapacityError):
            joint_distribution(m)

    def test_cycle_rejected(self):
        m = binary_model(
            [("A", "F"), ("F", "A")],
            {"A": child({(0,): 0.5, (1,): 0.5}), "F": child({(0,): 0.5, (1,): 0.5})},
        )
        with pytest.raises(StructureError):
            joint_distribution(m)


class TestIntervene:
    def test_idempotent_on_point_mass_root(self):
        m = binary_model(
            [("A", "F")],
            {"A": {(): (0.0, 1.0)}, "F": child({(0,): 0.1, (1,): 0.9})},
        )
        assert intervene(m, InterventionSpec("A", 1)) == m

    def test_chain_surgery_keeps_child_cpt(self):
        m = binary_model(
            [("A", "F")],
            {"A": root(0.3), "F": child({(0,): 0.1, (1,): 0.9})},
        )
        done = intervene(m, InterventionSpec("A", 1))
        assert done.cpts["A"] == {(): (0.0, 1.0)}
        assert done.cpts["F"] == m.cpts["F"]
        assert done.edges == m.edges

    def test_collider_loses_both_edges(self):
        m = CausalModel(
            domains={"A": (0, 1), "B": (0, 1), "C": (0, 1)},
            edges=(("A", "C"), ("B", "C")),
            cpts={
                "A": root(0.5),
                "B": root(0.5),
                "C": child({k: 0.5 for k in itertools.product((0, 1), repeat=2)}),
            },
            protected="A",
            outcome="C",
        )
        done = intervene(m, InterventionSpec("C", 0))
        assert done.edges == ()

    def test_idempotent_twice_equals_once(self):
        m = binary_model(
            [("A", "F")],
            {"A": root(0.3), "F": child({(0,): 0.1, (1,): 0.9})},
        )
        spec = InterventionSpec("A", 0)
        assert intervene(intervene(m, spec), spec) == intervene(m, spec)

    def test_unknown_value(self):
        m = binary_model(
            [("A", "F")],
            {"A": root(0.3), "F": child({(0,): 0.1, (1,): 0.9})},
        )
        with pytest.raises(DomainError):
            intervene(m, InterventionSpec("A", 7))


class TestCounterfactualFairness:
    def test_no_path_means_zero(self):
        m = binary_model([], {"A": root(0.3), "F": root(0.8)})
        assert counterfactual_fairness_gap(m) <= 1e-12

    def test_deterministic_copy_means_one(self):
        m = binary_model(
            [("A", "F")],
            {"A": root(0.5), "F": child({(0,): 0.0, (1,): 1.0})},
        )
        assert counterfactual_fairness_gap(m) == pytest.approx(1.0)

    def test_mediated_chain_enumeration(self):
        m = CausalModel(
            domains={"A": (0, 1), "M": (0, 1), "F": (0, 1)},
            edges=(("A", "M"), ("M", "F")),
            cpts={
                "A": root(0.5),
                "M": child({(0,): 0.2, (1,): 0.8}),
                "F": child({(0,): 0.1, (1,): 0.9}),
            },
            protected="A",
            outcome="F",
        )
        expected = abs((0.2 * 0.9 + 0.8 * 0.1) - (0.8 * 0.9 + 0.2 * 0.1))
        assert counterfactual_fairness_gap(m) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_and_bounded(self):
        m = binary_model(
            [("A", "F")],
            {"A": root(0.3), "F": child({(0,): 0.25, (1,): 0.75})},
        )
        gap = counterfactual_fairness_gap(m)
        assert 0.0 <= gap <= 1.0
        assert gap == pytest.approx(0.5)

    def test_non_binary_protected(self):
        m = CausalModel(
            domains={"A": (0, 1, 2), "F": (0, 1)},
            edges=(),
            cpts={"A": {(): (0.2, 0.3, 0.5)}, "F": root(0.5)},
            protected="A",
            outcome="F",
        )
        with pytest.raises(DomainError):
            counterfactual_fairness_gap(m)


class TestDSeparation:
    def chain(self):
        return binary_model(
            [("A", "X"), ("X", "F")],
            {
                "A": root(0.5),
                "X": child({(0,): 0.2, (1,): 0.8}),
                "F": child({(0,): 0.3, (1,): 0.7}),
            },
        )

    def test_chain_blocked_by_conditioning(self):
        assert d_separated(self.chain(), {"A"}, {"F"}, {"X"}) is True

    def test_chain_open_without_conditioning(self):
        assert d_separated(self.chain(), {"A"}, {"F"}, set()) is False

    def test_direct_edge_never_blocked(self):
        m = binary_model(
            [("A", "F")],
            {"A": root(0.5), "F": child({(0,): 0.2, (1,): 0.8})},
        )
        assert d_separated(m, {"A"}, {"F"}, set()) is False

    def test_collider_opens_under_conditioning(self):
        m = CausalModel(
            domains={"A": (0, 1), "C": (0, 1), "F": (0, 1)},
            edges=(("A", "C"), ("F", "C")),
            cpts={
                "A": root(0.5),
                "F": root(0.4),
                "C": child(
                    {(0, 0): 0.1, (0, 1): 0.6, (1, 0): 0.7, (1, 1): 0.95}
                ),
            },
            protected="A",
            outcome="F",
        )
        assert d_separated(m, {"A"}, {"F"}, set()) is True
        assert d_separated(m, {"A"}, {"F"}, {"C"}) is False
        # exact conditional-independence check on a compatible joint
        assert _ci_holds(m, "A", "F", frozenset())
        assert not _ci_holds(m, "A", "F", frozenset({"C"}))

    def test_overlapping_sets_rejected(self):
        with pytest.raises(DomainError):
            d_separated(self.chain(), {"A"}, {"A"}, set())


def _ci_holds(m, x, y, given, tol=1e-9):
    """Exact conditional independence p(x,y|z) = p(x|z)p(y|z) by enumeration."""
    joint = joint_distribution(m)
    nodes = sorted(m.domains)
    ix, iy = nodes.index(x), nodes.index(y)
    iz = [nodes.index(z) for z in sorted(given)]
    for z_vals in itertools.product(*(m.domains[nodes[i]] for i in iz)):
        sel = {
            a: p
            for a, p in joint.items()
            if all(a[i] == v for i, v in zip(iz, z_vals))
        }
        pz = sum(sel.values())
        if pz == 0:
            continue
        for xv in m.domains[x]:
            for yv in m.domains[y]:
                pxy = sum(p for a, p in sel.items() if a[ix] == xv and a[iy] == yv)
                px = sum(p for a, p in sel.items() if a[ix] == xv)
                py = sum(p for a, p in sel.items() if a[iy] == yv)
                if abs(pxy / pz - (px / pz) * (py / pz)) > tol:
                    return False
    return True


def random_binary_model(rng, max_nodes=5):
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"V{i}" for i in range(n)]
    order = list(rng.permutation(names))
    edges = []
    for i, u in enumerate(order):
        for v in order[i + 1 :]:
            if rng.random() < 0.4:
                edges.append((u, v))
    cpts = {}
    for node in names:
        parents = tuple(sorted(u for u, v in edges if v == node))
        table = {}
        for key in itertools.product((0, 1), repeat=len(parents)):
            p = float(rng.uniform(0.05, 0.95))
            table[key] = (1.0 - p, p)
        cpts[node] = table
    return CausalModel(
        domains={name: (0, 1) for name in names},
        edges=tuple(edges),
        cpts=cpts,
        protected=order[0],
        outcome=order[-1],
    )


def test_dsep_implies_conditional_independence(rng):
    # smaller companion of the acceptance-scale run
    for _ in range(60):
        m = random_binary_model(rng)
        nodes = sorted(m.domains)
        if len(nodes) < 3:
            continue
        x, y, *rest = list(rng.permutation(nodes))
        given = frozenset(v for v in rest if rng.random() < 0.5)
        if d_separated(m, {x}, {y}, set(given)):
            assert _ci_holds(m, x, y, given)


def nx_graph(m):
    """``m``'s graph as a networkx ``DiGraph``, the independent oracle."""
    g = nx.DiGraph()
    g.add_nodes_from(m.domains)
    g.add_edges_from(m.edges)
    return g


def test_nondescendant_gap_zero(rng):
    found = 0
    for _ in range(200):
        m = random_binary_model(rng)
        g = nx_graph(m)
        if m.outcome in nx.descendants(g, m.protected):
            continue
        found += 1
        assert counterfactual_fairness_gap(m) <= 1e-12
    assert found > 10


class TestUnresolvedDiscrimination:
    def abc(self, extra_edges=()):
        edges = [("A", "E"), ("E", "F"), *extra_edges]
        cpts = {
            "A": root(0.5),
            "E": child({(0,): 0.2, (1,): 0.8}),
        }
        parents_f = tuple(sorted(u for u, v in edges if v == "F"))
        cpts["F"] = child(
            {k: 0.5 for k in itertools.product((0, 1), repeat=len(parents_f))}
        )
        return binary_model(edges, cpts)

    def test_resolved_by_mediator(self):
        assert unresolved_discrimination(self.abc(), {"E"}) is False

    def test_direct_edge_unresolved(self):
        m = binary_model(
            [("A", "F")],
            {"A": root(0.5), "F": child({(0,): 0.2, (1,): 0.8})},
        )
        assert unresolved_discrimination(m, set()) is True

    def test_direct_path_bypasses_resolver(self):
        assert unresolved_discrimination(self.abc([("A", "F")]), {"E"}) is True

    def test_unknown_resolving_node(self):
        with pytest.raises(StructureError):
            unresolved_discrimination(self.abc(), {"missing"})


STRUCTURE_CHECKS = {
    "validate": lambda m: m.validate(),
    "d_separated": lambda m: d_separated(m, {"A"}, {"F"}, set()),
    "unresolved_discrimination": lambda m: unresolved_discrimination(m, set()),
}


@pytest.mark.parametrize("check", sorted(STRUCTURE_CHECKS))
@pytest.mark.parametrize(
    "edges,match",
    [
        ((("A", "F"), ("A", "F")), "repeated"),
        ((("A", "A"), ("A", "F")), "cycle"),
        ((("A", "F"), ("F", "A")), "cycle"),
        ((("A", "F"), ("F", "Z")), "unknown node"),
    ],
    ids=["duplicate_edge", "self_loop", "two_cycle", "undeclared_node"],
)
def test_every_graph_check_rejects_a_bad_edge_set(check, edges, match):
    m = CausalModel({"A": (0, 1), "F": (0, 1)}, edges, {}, "A", "F")
    with pytest.raises(StructureError, match=match):
        STRUCTURE_CHECKS[check](m)


@st.composite
def dags(draw, max_nodes=8):
    """A random DAG over ``V0..V{n-1}`` with two distinct protected and
    outcome nodes in either topological order; no CPTs, which the graph
    checks never read."""
    names = [f"V{i}" for i in range(draw(st.integers(2, max_nodes)))]
    order = draw(st.permutations(names))
    # each forward pair is an edge with probability 1/3: denser graphs leave
    # few d-separated or resolved cases to compare
    edges = [
        (u, v)
        for i, u in enumerate(order)
        for v in order[i + 1 :]
        if draw(st.integers(0, 2)) == 0
    ]
    protected, outcome = draw(st.permutations(names))[:2]
    return CausalModel(
        {v: (0, 1) for v in names},
        tuple(draw(st.permutations(edges))),
        {},
        protected,
        outcome,
    )


@settings(max_examples=200, deadline=None)
@given(m=dags(), data=st.data())
def test_d_separated_matches_networkx(m, data):
    names = sorted(m.domains)
    roles = data.draw(st.lists(st.sampled_from("stg-"), min_size=len(names)))
    sources, targets, given_ = (
        {v for v, r in zip(names, roles) if r == role} for role in "stg"
    )
    assume(sources and targets)
    expected = nx.is_d_separator(nx_graph(m), sources, targets, given_)
    assert d_separated(m, sources, targets, given_) is expected


@settings(max_examples=200, deadline=None)
@given(m=dags(), data=st.data())
def test_unresolved_discrimination_matches_networkx(m, data):
    names = sorted(m.domains)
    picks = data.draw(st.lists(st.booleans(), min_size=len(names)))
    resolving = {v for v, pick in zip(names, picks) if pick}
    g = nx_graph(m)
    g.remove_nodes_from(resolving - {m.protected, m.outcome})
    expected = nx.has_path(g, m.protected, m.outcome)
    assert unresolved_discrimination(m, resolving) is expected


class TestProxyDiscrimination:
    def test_no_path_zero(self):
        m = CausalModel(
            domains={"A": (0, 1), "P": (0, 1), "F": (0, 1)},
            edges=(("A", "F"),),
            cpts={
                "A": root(0.5),
                "P": root(0.5),
                "F": child({(0,): 0.2, (1,): 0.8}),
            },
            protected="A",
            outcome="F",
        )
        assert proxy_discrimination_gap(m, "P") <= 1e-12

    def test_copy_gap_one(self):
        m = CausalModel(
            domains={"A": (0, 1), "P": (0, 1), "F": (0, 1)},
            edges=(("A", "P"), ("P", "F")),
            cpts={
                "A": root(0.5),
                "P": child({(0,): 0.3, (1,): 0.7}),
                "F": child({(0,): 0.0, (1,): 1.0}),
            },
            protected="A",
            outcome="F",
        )
        assert proxy_discrimination_gap(m, "P") == pytest.approx(1.0)

    def test_mediated_chain(self):
        m = CausalModel(
            domains={"P": (0, 1), "M": (0, 1), "F": (0, 1), "A": (0, 1)},
            edges=(("P", "M"), ("M", "F")),
            cpts={
                "A": root(0.5),
                "P": root(0.5),
                "M": child({(0,): 0.2, (1,): 0.8}),
                "F": child({(0,): 0.1, (1,): 0.9}),
            },
            protected="A",
            outcome="F",
        )
        expected = abs((0.2 * 0.9 + 0.8 * 0.1) - (0.8 * 0.9 + 0.2 * 0.1))
        assert proxy_discrimination_gap(m, "P") == pytest.approx(expected, abs=1e-12)


class TestModelFile:
    def write(self, tmp_path, text):
        p = tmp_path / "model.yaml"
        p.write_text(text, encoding="utf-8")
        return p

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            """
nodes:
  A: ["0", "1"]
  M: ["0", "1"]
  F: ["0", "1"]
protected: A
outcome: F
edges:
  - [A, M]
  - [M, F]
cpts:
  A:
    "": ["0.5", "0.5"]
  M:
    "A=0": ["0.8", "0.2"]
    "A=1": ["0.2", "0.8"]
  F:
    "M=0": ["0.9", "0.1"]
    "M=1": ["0.1", "0.9"]
""",
        )
        m = load_causal_model(path)
        expected = abs((0.2 * 0.9 + 0.8 * 0.1) - (0.8 * 0.9 + 0.2 * 0.1))
        assert counterfactual_fairness_gap(m) == pytest.approx(expected, abs=1e-12)
        assert marginal(m, "A")["1"] == pytest.approx(0.5)

    def test_bad_row_sum(self, tmp_path):
        path = self.write(
            tmp_path,
            """
nodes:
  A: ["0", "1"]
protected: A
outcome: A
cpts:
  A:
    "": ["0.5", "0.6"]
""",
        )
        with pytest.raises(ConfigError):
            load_causal_model(path)

    def test_nan_row(self, tmp_path):
        path = self.write(
            tmp_path,
            """
nodes:
  A: ["0", "1"]
protected: A
outcome: A
cpts:
  A:
    "": [.nan, 1.0]
""",
        )
        with pytest.raises(ConfigError, match="non-finite"):
            load_causal_model(path)

    def test_repeated_edge(self, tmp_path):
        path = self.write(
            tmp_path,
            """
nodes:
  A: ["0", "1"]
  F: ["0", "1"]
protected: A
outcome: F
edges:
  - [A, F]
  - [A, F]
cpts:
  A:
    "": ["0.5", "0.5"]
  F:
    "A=0": ["0.9", "0.1"]
    "A=1": ["0.1", "0.9"]
""",
        )
        with pytest.raises(ConfigError, match=r"edge \('A', 'F'\) is repeated"):
            load_causal_model(path)

    def test_missing_field(self, tmp_path):
        path = self.write(tmp_path, "nodes:\n  A: ['0', '1']\n")
        with pytest.raises(ConfigError):
            load_causal_model(path)


class TestValidate:
    def test_nan_cpt_entry(self):
        m = binary_model(
            [("A", "F")],
            {"A": {(): (float("nan"), 1.0)}, "F": child({(0,): 0.1, (1,): 0.9})},
        )
        with pytest.raises(StructureError, match="non-finite"):
            m.validate()

    def test_duplicate_domain_values(self):
        m = CausalModel(
            domains={"A": (0, 0), "F": (0, 1)},
            edges=(("A", "F"),),
            cpts={"A": {(): (0.5, 0.5)}, "F": {(0,): (0.5, 0.5)}},
            protected="A",
            outcome="F",
        )
        with pytest.raises(StructureError, match="duplicate"):
            m.validate()

    @pytest.mark.parametrize(
        "keys",
        [[(0,), (2,)], [(0,), (1, 0)], [(0,), 1]],
        ids=["value_outside_domain", "key_of_wrong_length", "key_not_a_tuple"],
    )
    def test_cpt_keys_that_are_not_parent_assignments(self, keys):
        # As many rows as parent assignments, but one key is not one.
        m = binary_model(
            [("A", "F")],
            {"A": {(): (0.5, 0.5)}, "F": {key: (0.5, 0.5) for key in keys}},
        )
        with pytest.raises(StructureError, match="do not match parent assignments"):
            m.validate()

    def test_cpt_of_undeclared_node(self):
        m = CausalModel(
            domains={"A": (0, 1), "F": (0, 1)},
            edges=(("A", "F"),),
            cpts={
                "A": {(): (0.5, 0.5)},
                "F": {(0,): (0.5, 0.5), (1,): (0.5, 0.5)},
                "Z": {(): (0.5, 0.7)},
            },
            protected="A",
            outcome="F",
        )
        with pytest.raises(StructureError, match="undeclared node"):
            m.validate()


def random_model(rng, max_nodes=5, sizes=(2, 3)):
    """Random DAG whose nodes take string values; the protected node is
    binary, every other node draws its domain size from ``sizes``."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"V{i}" for i in range(n)]
    order = list(rng.permutation(names))
    edges = [
        (u, v) for i, u in enumerate(order) for v in order[i + 1 :] if rng.random() < 0.4
    ]
    domains = {}
    for name in names:
        k = 2 if name == order[0] else int(rng.choice(sizes))
        domains[name] = ("lo", "mid", "hi")[:k]
    cpts = {}
    for node in names:
        parents = tuple(sorted(u for u, v in edges if v == node))
        cpts[node] = {
            key: tuple(float(p) for p in rng.dirichlet(np.ones(len(domains[node]))))
            for key in itertools.product(*(domains[p] for p in parents))
        }
    return CausalModel(domains, tuple(edges), cpts, order[0], order[-1])


def assert_matches_oracle(m):
    joint = joint_distribution(m)
    expected = oracle.joint(m)
    assert list(joint) == list(expected)
    for key, p in expected.items():
        assert abs(joint[key] - p) <= 1e-12
    for node in m.domains:
        got = marginal(m, node)
        want = oracle.marginal(m, node)
        assert list(got) == list(want)
        for v, p in want.items():
            assert abs(got[v] - p) <= 1e-12
    cf = counterfactual_fairness_gap(m)
    assert abs(cf - oracle.interventional_gap(m, m.protected)) <= 1e-12
    for node, dom in m.domains.items():
        if len(dom) == 2:
            gap = proxy_discrimination_gap(m, node)
            assert abs(gap - oracle.interventional_gap(m, node)) <= 1e-12


class TestEliminationAgainstEnumeration:
    def test_random_binary_models(self, rng):
        for _ in range(60):
            assert_matches_oracle(random_binary_model(rng, max_nodes=7))

    def test_three_valued_string_domains(self, rng):
        for _ in range(60):
            assert_matches_oracle(random_model(rng, max_nodes=6))

    def test_hiring_model_file(self):
        here = os.path.dirname(os.path.abspath(__file__))
        m = load_causal_model(os.path.join(here, "..", "configs", "hiring_causal.yaml"))
        assert_matches_oracle(m)


HASHSEED_SCRIPT = """
import numpy as np
from test_causal import random_model
from fairdyn.causal import counterfactual_fairness_gap, marginal, proxy_discrimination_gap

rng = np.random.default_rng(7)
for _ in range(20):
    m = random_model(rng, max_nodes=7)
    out = [counterfactual_fairness_gap(m)]
    out += [proxy_discrimination_gap(m, v) for v in sorted(m.domains) if len(m.domains[v]) == 2]
    out += [p for v in sorted(m.domains) for p in marginal(m, v).values()]
    print(" ".join(float(x).hex() for x in out))
"""


def test_results_do_not_depend_on_hash_seed():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(here, "..", "src")
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, here] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        run = subprocess.run(
            [sys.executable, "-c", HASHSEED_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        outputs.append(run.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def chain_model(rng, n):
    """Binary chain N000 -> ... -> N{n-1} whose links copy the parent up to
    a small flip probability, so the end-to-end gap stays well above 0."""
    names = [f"N{i:03d}" for i in range(n)]
    flips = rng.uniform(0.0005, 0.002, size=(n - 1, 2))
    cpts = {names[0]: root(0.4)}
    for name, (e0, e1) in zip(names[1:], flips):
        cpts[name] = child({(0,): e0, (1,): 1.0 - e1})
    edges = tuple(zip(names, names[1:]))
    return CausalModel({v: (0, 1) for v in names}, edges, cpts, names[0], names[-1])


def test_long_chain_matches_transition_product(rng):
    m = chain_model(rng, 200)
    names = sorted(m.domains)
    # P(end | do(start)) is the product of the 2x2 transition matrices.
    t = np.eye(2)
    for name in names[1:]:
        t = t @ np.array([m.cpts[name][(0,)], m.cpts[name][(1,)]])
    expected = 0.5 * np.abs(t[0] - t[1]).sum()
    gap = counterfactual_fairness_gap(m)
    assert 0.1 < gap < 1.0
    assert gap == pytest.approx(expected, abs=1e-12)
    assert proxy_discrimination_gap(m, names[100]) > 0.1


def grid_model(k):
    """k x k binary grid DAG, edges pointing right and down. Its treewidth is
    k, so eliminating the top-left-to-bottom-right contrast needs a factor
    over about k binary variables."""
    name = "g{:02d}_{:02d}".format
    edges = []
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                edges.append((name(i, j), name(i, j + 1)))
            if i + 1 < k:
                edges.append((name(i, j), name(i + 1, j)))
    nodes = [name(i, j) for i in range(k) for j in range(k)]
    cpts = {}
    for node in nodes:
        n_parents = sum(1 for _, v in edges if v == node)
        cpts[node] = {
            key: (0.3, 0.7) if sum(key) % 2 else (0.8, 0.2)
            for key in itertools.product((0, 1), repeat=n_parents)
        }
    return CausalModel(
        {v: (0, 1) for v in nodes}, tuple(edges), cpts, nodes[0], nodes[-1]
    )


@pytest.fixture
def einsum_sizes(monkeypatch):
    """Sizes of every array np.einsum returns while the test runs."""
    sizes = []
    einsum = np.einsum

    def spy(*args):
        out = einsum(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(np, "einsum", spy)
    return sizes


class TestFactorCap:
    def test_grid_raises_before_allocating(self, einsum_sizes):
        m = grid_model(25)
        with pytest.raises(CapacityError):
            counterfactual_fairness_gap(m)
        assert einsum_sizes and max(einsum_sizes) <= JOINT_STATE_CAP

    def test_smallest_factor_eliminated_first(self, einsum_sizes):
        # H is a parent of every C_i, and C_i -> C_{i+1}. Eliminating H first
        # would join all 22 CPTs into a 2^23-entry factor; eliminating the
        # chain first never needs more than 16 entries.
        names = [f"C{i:02d}" for i in range(22)]
        edges = tuple(("H", c) for c in names) + tuple(zip(names, names[1:]))
        cpts = {"H": root(0.5), names[0]: child({(0,): 0.3, (1,): 0.6})}
        for c in names[1:]:
            cpts[c] = child({(0, 0): 0.1, (0, 1): 0.8, (1, 0): 0.4, (1, 1): 0.9})
        m = CausalModel(
            {v: (0, 1) for v in ("H", *names)}, edges, cpts, names[0], names[-1]
        )
        assert 0.0 < counterfactual_fairness_gap(m) < 1.0
        assert max(einsum_sizes) <= 8

    def test_only_outcome_ancestors_below_target_take_part(self):
        # A target below the whole grid: cutting its parents leaves two nodes,
        # and the grid, all above the target, never enters a factor.
        m = grid_model(25)
        corner = m.outcome
        domains = {**m.domains, "T": (0, 1), "Y": (0, 1)}
        cpts = {
            **m.cpts,
            "T": child({(0,): 0.5, (1,): 0.5}),
            "Y": child({(0,): 0.25, (1,): 0.85}),
        }
        edges = m.edges + ((corner, "T"), ("T", "Y"))
        m = CausalModel(domains, edges, cpts, m.protected, "Y")
        assert proxy_discrimination_gap(m, "T") == pytest.approx(0.6, abs=1e-12)
        # descendants of the queried node are pruned as well
        assert marginal(m, "g00_01")[1] == pytest.approx(0.8 * 0.2 + 0.2 * 0.7)

    def test_too_many_variables_for_one_step(self):
        # Size-1 domains keep every factor tiny, but the outcome's CPT spans
        # 61 nodes, more than one einsum call can take.
        mids = [f"C{i:02d}" for i in range(60)]
        domains = {"A": (0, 1), "Y": (0, 1), **{c: ("x",) for c in mids}}
        edges = tuple(("A", c) for c in mids) + tuple((c, "Y") for c in mids)
        cpts = {"A": root(0.5), "Y": {("x",) * len(mids): (0.5, 0.5)}}
        cpts.update({c: {(0,): (1.0,), (1,): (1.0,)} for c in mids})
        m = CausalModel(domains, edges, cpts, "A", "Y")
        with pytest.raises(CapacityError):
            counterfactual_fairness_gap(m)
        with pytest.raises(CapacityError):
            joint_distribution(m)
        # 40 isolated size-1 nodes: 42 labels fit, 42 operands do not
        # (NumPy 1.x takes 32).
        domains = {"A": (0, 1), "Y": (0, 1), **{c: ("x",) for c in mids[:40]}}
        cpts = {"A": root(0.5), "Y": root(0.5), **{c: {(): (1.0,)} for c in mids[:40]}}
        with pytest.raises(CapacityError, match="einsum"):
            joint_distribution(CausalModel(domains, (), cpts, "A", "Y"))

