import itertools
import math
import operator
import os
import re
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
        with pytest.raises(
            CapacityError,
            match=r"^output factor of 2097152 entries exceeds cap of 1000000$",
        ):
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

    @pytest.mark.parametrize("proxy", ["P", "M", "A"])
    def test_one_ancestral_walk_per_gap(self, monkeypatch, proxy):
        # The walk that finds the proxy among the outcome's ancestors is the
        # node set of the contraction; an unconnected proxy stops there.
        from fairdyn import causal

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
        want = proxy_discrimination_gap(m, proxy)
        walks = []
        real = causal._ancestral_set
        monkeypatch.setattr(
            causal, "_ancestral_set", lambda *a, **k: walks.append(a) or real(*a, **k)
        )
        assert proxy_discrimination_gap(m, proxy) == want
        assert len(walks) == 1


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

    def test_unknown_top_level_key(self, tmp_path):
        path = self.write(tmp_path, "nodes:\n  A: ['0', '1']\nedgs: []\n")
        with pytest.raises(ConfigError) as info:
            load_causal_model(path)
        assert str(info.value).startswith(
            f"causal model file {path}: unknown key 'edgs'; expected one of "
        )

    def test_missing_field(self, tmp_path):
        path = self.write(tmp_path, "nodes:\n  A: ['0', '1']\n")
        with pytest.raises(ConfigError):
            load_causal_model(path)

    MODEL = """
nodes:
  A: {a}
  F: [0, 1]
protected: A
outcome: F
edges: [[A, F]]
cpts:
  A:
    "": {row}
  F:
    "A=0": [0.9, 0.1]
    "A=1": [0.1, 0.9]
"""

    @pytest.mark.parametrize(
        "a,row,message",
        [
            ("[no, yes]", "[0.5, 0.5]", "nodes.A: domain value False"),
            ("[0, ~]", "[0.5, 0.5]", "nodes.A: domain value None"),
            ("[0, [1]]", "[0.5, 0.5]", "nodes.A: domain value [1]"),
            ("[0, {k: 1}]", "[0.5, 0.5]", "nodes.A: domain value {'k': 1}"),
            ("[0, 1]", "[true, false]", 'cpts.A."": entry True'),
            ("[0, 1]", "[0.5, ~]", 'cpts.A."": entry None'),
            ("[0, 1]", "[0.5, x]", "cpts.A.\"\": entry 'x'"),
            ("[0, 1]", "[[0.5], 0.5]", 'cpts.A."": entry [0.5]'),
        ],
        ids=["domain_bool", "domain_null", "domain_list", "domain_mapping",
             "entry_bool", "entry_null", "entry_text", "entry_list"],
    )
    def test_junk_value_names_its_field(self, tmp_path, a, row, message):
        # YAML 1.1 reads no/yes and true/false as booleans: a loader that read
        # them with str and float would declare 'False'/'True' or load 1.0.
        path = self.write(tmp_path, self.MODEL.format(a=a, row=row))
        kind = "a string or a number" if "domain" in message else "a number"
        with pytest.raises(ConfigError) as info:
            load_causal_model(path)
        assert str(info.value) == f"causal model file {path}: {message} must be {kind}"

    @pytest.mark.parametrize(
        "old,new,path,value",
        [
            ("protected: A", "protected: no", "protected", "False"),
            ("outcome: F", "outcome: ~", "outcome", "None"),
            ("outcome: F", "outcome: [F]", "outcome", "['F']"),
            ("edges: [[A, F]]", "edges: [[A, F], [yes, F]]", "edges[1]", "True"),
            ("edges: [[A, F]]", "edges: [[A, {F: 1}]]", "edges[0]", "{'F': 1}"),
            ("  F: [0, 1]", "  F: [0, 1]\n  ~: [0, 1]", "nodes", "None"),
            ("  A:\n    \"\"", "  off:\n    \"\"", "cpts", "False"),
        ],
        ids=["protected_bool", "outcome_null", "outcome_list", "edge_bool",
             "edge_mapping", "node_null", "cpt_node_bool"],
    )
    def test_junk_name_names_its_field(self, tmp_path, old, new, path, value):
        # YAML 1.1 reads no/yes/off as booleans and ~ as null: a loader that
        # read names with str would look for a node 'False' or 'None'.
        text = self.MODEL.format(a="[0, 1]", row="[0.5, 0.5]")
        assert old in text
        path_ = self.write(tmp_path, text.replace(old, new))
        with pytest.raises(ConfigError) as info:
            load_causal_model(path_)
        assert str(info.value) == (
            f"causal model file {path_}: {path}: node name {value} must be a "
            "string or a number"
        )

    @pytest.mark.parametrize(
        "edges,message",
        [
            ("[AF]", "edges[0]: edge 'AF' must be a list of two node names"),
            ("[[A]]", "edges[0]: edge ['A'] must be a list of two node names"),
            ("[[A, F], A]", "edges[1]: edge 'A' must be a list of two node names"),
            ("[{A: F}]", "edges[0]: edge {'A': 'F'} must be a list of two node names"),
            ("[[A, F, A]]",
             "edges[0]: edge ['A', 'F', 'A'] must be a list of two node names"),
            ("{AF: 1}", "edges must be a list"),
        ],
        ids=["text", "one_name", "bare_name", "mapping", "three_names",
             "edges_mapping"],
    )
    def test_an_edge_that_is_not_a_pair_is_named(self, tmp_path, edges, message):
        # ``AF`` once unpacked into the edge A -> F without a word.
        text = self.MODEL.format(a="[0, 1]", row="[0.5, 0.5]")
        path = self.write(tmp_path, text.replace("edges: [[A, F]]", f"edges: {edges}"))
        with pytest.raises(ConfigError) as info:
            load_causal_model(path)
        assert str(info.value) == f"causal model file {path}: {message}"

    def test_a_row_key_item_without_a_value_is_named(self, tmp_path):
        text = self.MODEL.format(a="[0, 1]", row="[0.5, 0.5]")
        path = self.write(tmp_path, text.replace('"A=0"', '"A0"'))
        with pytest.raises(ConfigError) as info:
            load_causal_model(path)
        assert str(info.value) == (
            f'causal model file {path}: cpts.F."A0": row key item \'A0\' must be '
            "parent=value"
        )

    def test_a_number_as_a_name_is_read_as_its_text(self, tmp_path):
        text = self.MODEL.format(a="[0, 1]", row="[0.5, 0.5]")
        for old, new in [("A", "1"), ("F", "2")]:
            text = re.sub(rf"\b{old}\b", new, text)
        m = load_causal_model(self.write(tmp_path, text))
        assert (m.protected, m.outcome, m.edges) == ("1", "2", (("1", "2"),))
        assert set(m.domains) == set(m.cpts) == {"1", "2"}

    def test_numbers_and_numeric_strings_load(self, tmp_path):
        text = self.MODEL.format(a='[0, "1"]', row='["0.5", 5e-1]')
        path = self.write(tmp_path, text)
        m = load_causal_model(path)
        assert m.domains["A"] == ("0", "1")
        assert m.cpts["A"][()] == (0.5, 0.5)
        assert m.cpts["F"][("0",)] == (0.9, 0.1)

    def test_structure_error_after_the_rows_names_the_file(self, tmp_path):
        text = self.MODEL.format(a="[0, 1]", row="[0.5, 0.5]")
        path = self.write(tmp_path, text.replace("protected: A", "protected: Z"))
        with pytest.raises(ConfigError) as info:
            load_causal_model(path)
        assert str(info.value) == (
            f"invalid causal model in {path}: protected node 'Z' not in model"
        )

    def test_a_yaml_boolean_row_fails_the_cli(self, tmp_path, capsys):
        from fairdyn.cli import main

        path = self.write(tmp_path, self.MODEL.format(a="[0, 1]", row="[true, false]"))
        assert main(["causal", "--model", str(path), "--check", "cf"]) == 1
        err = capsys.readouterr().err
        assert err.count("error: ") == 1 and 'cpts.A."": entry True' in err


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

    def test_few_rows_for_many_parent_assignments(self):
        # 2**40 assignments and one row: the count fails before any
        # assignment is built.
        names = [f"P{i:02d}" for i in range(40)]
        m = CausalModel(
            {**{p: (0, 1) for p in names}, "F": (0, 1)},
            tuple((p, "F") for p in names),
            {**{p: root(0.5) for p in names}, "F": {(0,) * 40: (0.5, 0.5)}},
            "P00",
            "F",
        )
        with pytest.raises(
            StructureError, match="'F': CPT rows do not match parent assignments"
        ):
            m.validate()

    @pytest.mark.parametrize(
        "row",
        [("0.5", "0.5"), (0.5, None), (0.5 + 0j, 0.5), (np.complex128(0.5), 0.5)],
        ids=["numeric_string", "none", "complex", "numpy_complex"],
    )
    def test_non_numeric_entry(self, row):
        # numpy would read "0.5" as 0.5 and drop a zero imaginary part; the
        # check names the node, the row and the entry instead.
        m = binary_model(
            [("A", "F")], {"A": root(0.5), "F": {(0,): (0.5, 0.5), (1,): row}}
        )
        bad = next(x for x in row if not isinstance(x, float))
        want = re.escape(
            f"node 'F': CPT row (1,) has entry {bad!r}, which is not a real number"
        )
        for _ in range(2):
            with pytest.raises(StructureError, match=want):
                m.validate()

    @pytest.mark.parametrize(
        "row, want",
        [
            ((1e308, 1e308), "sums to inf"),
            ((math.inf, -math.inf), "has a non-finite entry"),
            ((-1e308, -1e308), "negative CPT entry"),
        ],
        ids=["sum_overflows", "inf_minus_inf", "negative_overflow"],
    )
    def test_extreme_entries_raise_without_a_warning(self, row, want):
        # RuntimeWarnings are errors in this suite: an overflowing or invalid
        # sum would fail the test before the check could report the row.
        m = binary_model([("A", "F")], {"A": root(0.5), "F": {(0,): row, (1,): row}})
        with pytest.raises(StructureError, match=re.escape(want)):
            m.validate()

    def test_empty_parent_domain_after_its_child(self):
        # F has no parent assignments, so no rows, and passes; P then fails.
        m = CausalModel(
            {"F": (0, 1), "P": ()}, (("P", "F"),), {"F": {}, "P": {(): ()}}, "P", "F"
        )
        with pytest.raises(StructureError, match="node 'P' has empty domain"):
            m.validate()

    def test_an_earlier_nodes_fault_is_reported_first(self):
        # A's row sum fails before F's string is looked at, and the other way
        # round: nodes are reported in domains order.
        bad_sum = {(): (0.5, 0.6)}
        bad_type = {(): ("0.5", 0.5)}
        for first, second, want in (
            (bad_sum, bad_type, "node 'A': CPT row () sums to 1.1"),
            (bad_type, bad_sum, "node 'A': CPT row () has entry '0.5'"),
        ):
            cpts = {"A": first, "F": second}
            m = CausalModel({"A": (0, 1), "F": (0, 1)}, (), cpts, "A", "F")
            with pytest.raises(StructureError, match=re.escape(want)):
                m.validate()

    def test_real_entries_of_every_numeric_type(self):
        # Python and numpy bools, ints and floats all read as float64.
        m = binary_model(
            [("A", "F")],
            {
                "A": {(): (np.int64(1), 0)},
                "F": {
                    (0,): (True, np.False_),
                    (1,): (np.float32(0.25), np.float64(0.75)),
                },
            },
        )
        floats = binary_model(
            [("A", "F")],
            {"A": {(): (1.0, 0.0)}, "F": {(0,): (1.0, 0.0), (1,): (0.25, 0.75)}},
        )
        assert marginal(m, "F") == marginal(floats, "F") == {0: 1.0, 1: 0.0}
        for node in ("A", "F"):
            got, want = m._checked[1][node], floats._checked[1][node]
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_a_cpt_above_the_cap_is_checked_where_it_is_used(self):
        # X's CPT has 1001 x 1000 entries, above JOINT_STATE_CAP. X is no
        # ancestor of the outcome, so the model is valid and its gap is
        # computed; a contraction that needs X's factor raises.
        wide = (1.0,) + (0.0,) * 999
        m = CausalModel(
            {
                "A": (0, 1),
                "F": (0, 1),
                "P": tuple(range(1001)),
                "X": tuple(range(1000)),
            },
            (("A", "F"), ("P", "X")),
            {
                "A": root(0.5),
                "F": child({(0,): 0.2, (1,): 0.7}),
                "P": {(): (1.0,) + (0.0,) * 1000},
                "X": {(p,): wide for p in range(1001)},
            },
            "A",
            "F",
        )
        assert 1001 * 1000 > JOINT_STATE_CAP
        m.validate()
        assert counterfactual_fairness_gap(m) == pytest.approx(0.5, abs=1e-15)
        with pytest.raises(CapacityError, match="CPT of 'X' of 1001000 entries"):
            marginal(m, "X")


CORRUPTIONS = (
    "nan",
    "inf",
    "negative",
    "sum",
    "long_row",
    "short_row",
    "missing_key",
    "extra_key",
    "duplicate_value",
    "empty_domain",
    "undeclared_cpt",
)


@st.composite
def checkable_models(draw, corruptions=st.integers(0, 1)):
    """A model over a DAG from ``dags`` whose nodes take one to four values,
    mixed, listed in a random order, with CPT rows of small integer weights
    normalised to sum to 1 in a random row order; then as many corruptions
    from ``CORRUPTIONS`` as ``corruptions`` draws, on distinct nodes.
    Returns (model, corruptions)."""
    g = draw(dags(6))
    names = draw(st.permutations(sorted(g.domains)))
    domains = {v: ("a", "b", "c", "d")[: draw(st.integers(1, 4))] for v in names}
    # A CPT can have 4**5 rows: one seeded generator orders and fills them,
    # which keeps each example's data small.
    rnd = draw(st.randoms(use_true_random=False))
    cpts = {}
    for node, dom in domains.items():
        keys = list(itertools.product(*(domains[p] for p in g.parents(node))))
        rnd.shuffle(keys)
        cpts[node] = {}
        for key in keys:
            w = [rnd.randint(0, 4) for _ in dom]
            w[0] += sum(w) == 0
            cpts[node][key] = tuple(x / sum(w) for x in w)
    count = draw(corruptions)
    targets = draw(
        st.lists(st.sampled_from(names), min_size=count, max_size=count, unique=True)
    )
    done = []
    for node in targets:
        cpt = cpts[node]
        if not cpt:
            # emptied by an empty parent domain: only the row-free corruptions
            corruption = draw(
                st.sampled_from(["duplicate_value", "empty_domain", "undeclared_cpt"])
            )
        else:
            corruption = draw(st.sampled_from(CORRUPTIONS))
            key = draw(st.sampled_from(list(cpt)))
            row = list(cpt[key])
            j = draw(st.integers(0, len(row) - 1))
        done.append(corruption)
        if corruption in ("nan", "inf", "negative", "sum"):
            row[j] = {
                "nan": math.nan,
                "inf": draw(st.sampled_from([math.inf, -math.inf])),
                "negative": -draw(st.floats(1e-300, 2.0)),
                "sum": row[j] + draw(st.floats(2e-9, 1.0)),
            }[corruption]
            cpt[key] = tuple(row)
        elif corruption == "long_row":
            cpt[key] = (*row, 0.0)
        elif corruption == "short_row":
            cpt[key] = tuple(row[:-1])
        elif corruption == "missing_key":
            del cpt[key]
        elif corruption == "extra_key":
            cpt[(*key[:-1], "z")] = tuple(row)
        elif corruption == "duplicate_value":
            dom = domains[node]
            domains[node] = (*dom[:-1], dom[0]) if len(dom) > 1 else dom * 2
        elif corruption == "empty_domain":
            # the node's children then have no parent assignments, so no rows
            domains[node] = ()
            for child in g.domains:
                if node in g.parents(child):
                    cpts[child] = {}
        elif corruption == "undeclared_cpt":
            cpts["Z"] = {(): (1.0,)}
    return CausalModel(domains, g.edges, cpts, g.protected, g.outcome), done


def assert_check_matches_the_row_walk(m, corruptions):
    """The one-pass check raises the row walk's error: the first failing node
    in domains order, then the first failing row in that CPT's order. On a
    valid model every factor holds the rows in parent-assignment order."""
    try:
        oracle.check_cpts(m)
    except StructureError as exc:
        assert corruptions
        with pytest.raises(StructureError) as got:
            m.validate()
        assert str(got.value) == str(exc)
        return
    assert not corruptions
    parents = m.validate()
    for node, dom in m.domains.items():
        assignments = itertools.product(*(m.domains[p] for p in parents[node]))
        want = np.array([m.cpts[node][key] for key in assignments]).reshape(
            *(len(m.domains[p]) for p in parents[node]), len(dom)
        )
        got = m._checked[1][node]
        assert got.dtype == np.float64 and not got.flags.writeable
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(case=checkable_models())
def test_cpt_check_matches_the_row_walk(case):
    assert_check_matches_the_row_walk(*case)


@settings(max_examples=200, deadline=None)
@given(case=checkable_models(corruptions=st.just(2)))
def test_cpt_check_reports_the_first_of_two_faults(case):
    # Two faulty nodes: the one earlier in domains order is reported, whatever
    # either fault is.
    assert_check_matches_the_row_walk(*case)


class TestReadOnlyModel:
    def model(self):
        return binary_model(
            [("A", "F")], {"A": root(0.3), "F": child({(0,): 0.1, (1,): 0.9})}
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: operator.setitem(m.cpts, "A", root(0.5)),
            lambda m: operator.delitem(m.cpts, "A"),
            lambda m: operator.setitem(m.cpts["F"], (0,), (0.5, 0.5)),
            lambda m: operator.setitem(m.domains, "A", (0, 1, 2)),
            lambda m: operator.setitem(m.validate(), "F", ()),
        ],
        ids=["cpts", "cpts_del", "cpt_rows", "domains", "parent_map"],
    )
    def test_model_cannot_be_edited(self, edit):
        m = self.model()
        gap = counterfactual_fairness_gap(m)
        with pytest.raises(TypeError):
            edit(m)
        assert counterfactual_fairness_gap(m) == gap

    def test_changing_the_constructor_arguments_changes_nothing(self):
        domains = {"A": [0, 1], "F": [0, 1]}
        edges = [("A", "F")]
        rows = {(0,): [0.9, 0.1], (1,): [0.1, 0.9]}
        cpts = {"A": root(0.3), "F": rows}
        m = CausalModel(domains, edges, cpts, "A", "F")
        before = (counterfactual_fairness_gap(m), marginal(m, "F"))
        domains["A"].append(2)
        domains["Z"] = [0]
        edges.append(("F", "A"))
        rows[(0,)][0] = 5.0
        cpts["F"] = root(0.5)
        assert m.domains == {"A": (0, 1), "F": (0, 1)}
        assert m.edges == (("A", "F"),)
        assert m.cpts["F"] == {(0,): (0.9, 0.1), (1,): (0.1, 0.9)}
        assert (counterfactual_fairness_gap(m), marginal(m, "F")) == before

    @pytest.mark.parametrize(
        "check",
        [
            lambda m: m.validate(),
            counterfactual_fairness_gap,
            lambda m: proxy_discrimination_gap(m, "A"),
            lambda m: marginal(m, "F"),
            joint_distribution,
        ],
        ids=["validate", "cf", "proxy", "marginal", "joint"],
    )
    def test_an_invalid_model_fails_every_call(self, check):
        m = binary_model(
            [("A", "F")], {"A": root(0.3), "F": {(0,): (0.5, 0.2), (1,): (0.1, 0.9)}}
        )
        for _ in range(3):
            with pytest.raises(StructureError, match="sums to 0.7"):
                check(m)

    def test_graph_checks_ignore_a_bad_cpt(self):
        # The graph checks read only the graph, even after a CPT check failed.
        m = binary_model(
            [("A", "M"), ("M", "F")],
            {"A": root(0.3), "M": {(0,): (0.5, 0.2)}, "F": root(2.0)},
        )
        for _ in range(2):
            with pytest.raises(StructureError):
                m.validate()
            assert d_separated(m, {"A"}, {"F"}, {"M"}) is True
            assert unresolved_discrimination(m, {"M"}) is False
            assert unresolved_discrimination(m, set()) is True


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


@st.composite
def models(draw, max_nodes=6):
    """A DAG from ``dags`` whose nodes take two or three string values (the
    protected node two), with CPT rows of small integer weights, zeros
    included, normalised to sum to 1."""
    g = draw(dags(max_nodes))
    domains = {
        v: ("lo", "mid", "hi")[: 2 if v == g.protected else draw(st.integers(2, 3))]
        for v in sorted(g.domains)
    }
    cpts = {}
    for node, dom in domains.items():
        cpts[node] = {}
        for key in itertools.product(*(domains[p] for p in g.parents(node))):
            w = draw(st.lists(st.integers(0, 4), min_size=len(dom), max_size=len(dom)))
            w[0] += sum(w) == 0
            cpts[node][key] = tuple(x / sum(w) for x in w)
    return CausalModel(domains, g.edges, cpts, g.protected, g.outcome)


def every_check(m):
    """Every check's results on ``m``, as reprs, so equal lists are equal bit
    for bit."""
    names = sorted(m.domains)
    out = [counterfactual_fairness_gap(m)]
    out += [proxy_discrimination_gap(m, v) for v in names if len(m.domains[v]) == 2]
    out += [marginal(m, v) for v in names]
    out += [joint_distribution(m), m.validate()]
    out += [d_separated(m, {m.protected}, {m.outcome}, set())]
    out += [unresolved_discrimination(m, set(names[:2]))]
    return [repr(x) for x in out]


@settings(max_examples=100, deadline=None)
@given(m=models())
def test_kept_structure_gives_a_fresh_models_results(m):
    # The first pass fills the model's kept maps and factors; the second reads
    # them. A fresh model built from the same values derives everything anew.
    cold = every_check(m)
    assert every_check(m) == cold
    fresh = CausalModel(m.domains, m.edges, m.cpts, m.protected, m.outcome)
    assert every_check(fresh) == cold
    assert_matches_oracle(m)


@settings(max_examples=50, deadline=None)
@given(m=models())
def test_reloaded_model_gives_bit_identical_results(m):
    import copy
    import pickle

    cold = every_check(m)
    # ``m`` now keeps its derived structure; a loaded copy derives it anew.
    for loaded in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert loaded == m
        assert every_check(loaded) == cold
        with pytest.raises(TypeError):
            loaded.cpts[m.outcome] = {}


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


class TestEliminationOrder:
    """The engine eliminates in the reference's order, with the same einsum
    operands in the same order: the part that keeps every result bit for bit
    what it was."""

    @pytest.fixture
    def einsum_scopes(self, monkeypatch):
        from fairdyn import causal

        calls = []
        einsum = causal._einsum

        def spy(factors, out):
            calls.append(([scope for scope, _ in factors], tuple(out)))
            return einsum(factors, out)

        monkeypatch.setattr(causal, "_einsum", spy)
        return calls

    @pytest.mark.parametrize(
        "make", [random_binary_model, random_model], ids=["binary", "three_valued"]
    )
    def test_calls_match_the_reference(self, rng, einsum_scopes, make):
        for _ in range(40):
            m = make(rng, max_nodes=9)
            names = sorted(m.domains)
            checks = [
                (counterfactual_fairness_gap, (m,),
                 oracle.interventional_calls(m, m.protected))
            ]
            checks += [
                (proxy_discrimination_gap, (m, v), oracle.interventional_calls(m, v))
                for v in names
                if len(m.domains[v]) == 2
            ]
            checks += [
                (marginal, (m, v), oracle.elimination_calls(m, (v,))) for v in names
            ]
            for check, args, want in checks:
                einsum_scopes.clear()
                check(*args)
                assert einsum_scopes == want


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
        with pytest.raises(
            CapacityError,
            match=r"^factor joined to eliminate 'g05_22' of 2097152 entries exceeds",
        ):
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

